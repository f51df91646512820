//! Per-campaign target pools: reuse victim instances across trials, and
//! start every trial from the nearest golden snapshot.
//!
//! Building a kernel target from scratch allocates and re-derives every
//! input array; at campaign scale (the paper's ≥10,000 injections per
//! benchmark, §6) that construction cost dominates wall-clock, because the
//! overwhelmingly common trial outcome is Masked and the faulted execution
//! itself is cheap. A [`TargetPool`] keeps finished targets and hands them
//! back restored in place from a snapshot ([`FaultTarget::restore`]),
//! falling back to the factory only when it must:
//!
//! * cold start — no idle target is available yet;
//! * the target does not support snapshots (the trait default returns
//!   `None`);
//! * the previous trial ended in a DUE — a panic may have unwound out of
//!   mid-`step` kernel code, leaving cursors and scratch state torn, so the
//!   caller drops the instance instead of releasing it.
//!
//! CAROL-FI interrupts the program at a uniformly random step (paper §5.1),
//! so every trial of a campaign first runs the same fault-free prefix. Each
//! pool therefore keeps one [`Ladder`] of golden snapshots, at most
//! [`MAX_RUNGS`] evenly spaced over the run. Rung 0 is the pristine state of
//! the first target the pool sees; every later rung is captured the first
//! time a trial's fault-free prefix passes it. A laddered trial
//! ([`crate::supervisor::run_trial_mut`] given the pool's ladder) restores
//! the highest captured rung at or below its injection step and runs only
//! the rest of the prefix. All workers share the ladder read-only, and it
//! belongs to the pool rather than to a target, so it survives DUE rebuilds.
//! After its fault, a laddered trial also compares its state with each
//! captured rung it reaches ([`FaultTarget::converged`]); a bit-for-bit
//! match means the rest of the run is the golden one, so the trial ends
//! Masked there with the golden suffix charged as executed.
//!
//! Pooling and the ladder are invisible in the records: a restore
//! reproduces every byte of the snapshotted state, and restored and
//! skipped steps count as executed, so a pooled campaign is bit-identical
//! to one that constructs a fresh target per trial and replays from step 0
//! (asserted by `tests/determinism_guard.rs` and pinned across commits by
//! `tests/records_fixture.rs`).

use crate::target::{FaultTarget, Snapshot};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// The most golden rungs one pool holds.
pub const MAX_RUNGS: usize = 16;

/// Golden snapshots of one campaign's fault-free run, at most
/// [`MAX_RUNGS`], at evenly spaced steps; rung 0 stands at step 0.
pub struct Ladder {
    /// Step of each rung, ascending.
    steps: Vec<usize>,
    rungs: Vec<OnceLock<Snapshot>>,
}

impl Ladder {
    fn new(total_steps: usize, rung0: Snapshot) -> Self {
        let n = MAX_RUNGS.min(total_steps.max(1));
        let steps = (0..n).map(|k| k * total_steps / n).collect();
        let rungs: Vec<OnceLock<Snapshot>> = (0..n).map(|_| OnceLock::new()).collect();
        let _ = rungs[0].set(rung0);
        obs::incr("ladder/rungs", 1);
        Ladder { steps, rungs }
    }

    /// Restores the highest captured rung at or below `step` into `target`
    /// and returns that rung's step.
    pub fn restore<T: FaultTarget>(&self, target: &mut T, step: usize) -> usize {
        let (at, snapshot) = self
            .steps
            .iter()
            .zip(&self.rungs)
            .rev()
            .filter(|(&at, _)| at <= step)
            .find_map(|(&at, rung)| rung.get().map(|snapshot| (at, snapshot)))
            .expect("rung 0 is captured when the ladder is built");
        assert!(target.restore(snapshot), "{}: a target refused a snapshot of its own campaign", target.name());
        at
    }

    /// The rungs not captured yet that stand after step `from` and at or
    /// before step `to`, as `(rung, step)` in ascending order.
    pub fn missing(&self, from: usize, to: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.steps
            .iter()
            .enumerate()
            .filter(move |&(rung, &at)| at > from && at <= to && self.rungs[rung].get().is_none())
            .map(|(rung, &at)| (rung, at))
    }

    /// The rungs captured at or after step `from`, as `(step, snapshot)` in
    /// ascending order. Each rung is read when the iterator reaches it, so
    /// one another worker captures meanwhile still counts.
    pub fn captured_from(&self, from: usize) -> impl Iterator<Item = (usize, &Snapshot)> + '_ {
        self.steps
            .iter()
            .zip(&self.rungs)
            .filter(move |(&at, _)| at >= from)
            .filter_map(|(&at, rung)| rung.get().map(|snapshot| (at, snapshot)))
    }

    /// Captures rung `rung` from `target`, which must stand at that rung's
    /// step of a fault-free run. A rung another worker captured first is
    /// kept.
    pub fn capture<T: FaultTarget>(&self, rung: usize, target: &mut T) {
        debug_assert_eq!(target.steps_executed(), self.steps[rung], "rungs are captured at their own step");
        if self.rungs[rung].get().is_some() {
            return;
        }
        if let Some(snapshot) = target.snapshot() {
            if self.rungs[rung].set(snapshot).is_ok() {
                obs::incr("ladder/rungs", 1);
            }
        }
    }

    /// Rungs captured so far.
    pub fn captured(&self) -> usize {
        self.rungs.iter().filter(|rung| rung.get().is_some()).count()
    }
}

/// A shared pool of reusable [`FaultTarget`] instances and their campaign's
/// golden [`Ladder`].
///
/// Thread-safe: campaign workers take and release targets concurrently;
/// each worker holds at most one target at a time, so the idle list never
/// exceeds the worker count. Hit/rebuild counts feed both the live
/// telemetry counters (`pool/hits`, `pool/rebuilds`) and the final
/// [`obs::CampaignReport`].
pub struct TargetPool<T, F>
where
    F: Fn() -> T,
{
    factory: F,
    idle: parking_lot::Mutex<Vec<T>>,
    /// Built from the first target the pool sees; holds `None` when targets
    /// do not snapshot.
    ladder: OnceLock<Option<Ladder>>,
    hits: AtomicU64,
    rebuilds: AtomicU64,
}

impl<T, F> TargetPool<T, F>
where
    T: FaultTarget,
    F: Fn() -> T,
{
    pub fn new(factory: F) -> Self {
        TargetPool {
            factory,
            idle: parking_lot::Mutex::new(Vec::new()),
            ladder: OnceLock::new(),
            hits: AtomicU64::new(0),
            rebuilds: AtomicU64::new(0),
        }
    }

    /// The ladder built from `pristine`, a target standing at step 0 of a
    /// fault-free run, unless the pool has one already.
    fn ladder_from(&self, pristine: &mut T) -> Option<&Ladder> {
        self.ladder
            .get_or_init(|| pristine.snapshot().map(|rung0| Ladder::new(pristine.total_steps(), rung0)))
            .as_ref()
    }

    /// The campaign's golden ladder, once the pool has seen a target that
    /// snapshots.
    pub fn ladder(&self) -> Option<&Ladder> {
        self.ladder.get().and_then(Option::as_ref)
    }

    /// Seeds the idle list with an already-constructed pristine target (e.g.
    /// the instance built to read `total_steps`), so it is not wasted; its
    /// state becomes rung 0.
    pub fn seed(&self, mut target: T) {
        if self.ladder_from(&mut target).is_some() {
            self.idle.lock().push(target);
        }
    }

    /// A target for one laddered trial, with the ladder to start it from:
    /// a pooled instance as its last trial left it, or a fresh factory
    /// build. Without a ladder (targets that do not snapshot) the target is
    /// always a fresh build standing at step 0.
    pub fn take(&self) -> (T, Option<&Ladder>) {
        if let Some(ladder) = self.ladder() {
            // Pop outside the `if let` so the lock is not held afterwards.
            let popped = self.idle.lock().pop();
            if let Some(target) = popped {
                self.hits.fetch_add(1, Ordering::Relaxed);
                obs::incr("pool/hits", 1);
                return (target, Some(ladder));
            }
        }
        self.rebuilds.fetch_add(1, Ordering::Relaxed);
        obs::incr("pool/rebuilds", 1);
        let mut target = (self.factory)();
        let ladder = self.ladder_from(&mut target);
        (target, ladder)
    }

    /// Returns a pristine target standing at step 0: a pooled instance
    /// restored to rung 0, or a fresh factory build.
    pub fn acquire(&self) -> T {
        let (mut target, ladder) = self.take();
        if let Some(ladder) = ladder {
            ladder.restore(&mut target, 0);
        }
        target
    }

    /// Returns a target after a trial. `torn` must be true when the trial
    /// ended in a DUE: the panic may have unwound out of mid-`step` code, so
    /// the instance is dropped rather than pooled. Targets that cannot be
    /// restored are dropped too.
    pub fn release(&self, target: T, torn: bool) {
        if !torn && self.ladder().is_some() {
            self.idle.lock().push(target);
        }
    }

    /// Trials served by a pooled instance.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Trials that built a fresh target (cold start, no snapshot support,
    /// or post-DUE rebuild).
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::Output;
    use crate::target::{StateVisitor, StepOutcome};
    use std::ops::ControlFlow;

    /// Counts steps; snapshots on demand.
    struct Probe {
        snapshots: bool,
        stepped: usize,
    }

    impl FaultTarget for Probe {
        fn name(&self) -> &'static str {
            "probe"
        }
        fn total_steps(&self) -> usize {
            40
        }
        fn steps_executed(&self) -> usize {
            self.stepped
        }
        fn step(&mut self) -> StepOutcome {
            self.stepped += 1;
            if self.stepped >= 40 {
                StepOutcome::Done
            } else {
                StepOutcome::Continue
            }
        }
        fn state<'a>(&'a mut self, v: &mut dyn StateVisitor<'a>) -> ControlFlow<()> {
            v.scalar(None, &mut self.stepped)
        }
        fn output(&self) -> Output {
            Output::I32Grid { dims: [1, 1, 1], data: vec![0] }
        }
        fn snapshot(&mut self) -> Option<Snapshot> {
            self.snapshots.then(|| Snapshot::capture(self))
        }
    }

    fn probe() -> Probe {
        Probe { snapshots: true, stepped: 0 }
    }

    #[test]
    fn cold_start_rebuilds_then_hits() {
        let pool = TargetPool::new(probe);
        let mut t = pool.acquire();
        assert_eq!((pool.hits(), pool.rebuilds()), (0, 1));
        t.stepped = 7;
        pool.release(t, false);
        let t = pool.acquire();
        assert_eq!((pool.hits(), pool.rebuilds()), (1, 1));
        assert_eq!(t.stepped, 0, "acquire restored rung 0");
    }

    #[test]
    fn torn_targets_are_dropped_not_pooled() {
        let pool = TargetPool::new(probe);
        let t = pool.acquire();
        pool.release(t, true); // DUE: drop
        pool.acquire();
        assert_eq!((pool.hits(), pool.rebuilds()), (0, 2));
    }

    #[test]
    fn targets_without_snapshots_always_rebuild() {
        let pool = TargetPool::new(|| Probe { snapshots: false, stepped: 0 });
        let t = pool.acquire();
        pool.release(t, false);
        let (_, ladder) = pool.take();
        assert!(ladder.is_none());
        assert_eq!((pool.hits(), pool.rebuilds()), (0, 2));
    }

    #[test]
    fn seeded_target_is_served_first() {
        let pool = TargetPool::new(probe);
        pool.seed(probe());
        let t = pool.acquire();
        assert_eq!((pool.hits(), pool.rebuilds()), (1, 0));
        assert_eq!(t.stepped, 0);
    }

    #[test]
    fn rungs_are_evenly_spaced_and_captured_once() {
        let pool = TargetPool::new(probe);
        pool.seed(probe());
        let ladder = pool.ladder().expect("probes snapshot");
        assert_eq!(ladder.steps, (0..16).map(|k| k * 40 / 16).collect::<Vec<_>>());
        assert_eq!(ladder.captured(), 1, "only rung 0 until a prefix passes more");
        let missing: Vec<_> = ladder.missing(0, 12).collect();
        assert_eq!(missing, vec![(1, 2), (2, 5), (3, 7), (4, 10), (5, 12)]);

        let (mut t, _) = pool.take();
        for (rung, at) in missing {
            t.stepped = at;
            ladder.capture(rung, &mut t);
        }
        assert_eq!(ladder.captured(), 6);
        assert_eq!(ladder.missing(0, 12).count(), 0);
        assert_eq!(ladder.restore(&mut t, 11), 10, "highest captured rung at or below the step");
        assert_eq!(t.stepped, 10);
        assert_eq!(ladder.restore(&mut t, 39), 12);
        assert_eq!(ladder.restore(&mut t, 1), 0);
        let from: Vec<usize> = ladder.captured_from(5).map(|(at, _)| at).collect();
        assert_eq!(from, vec![5, 7, 10, 12], "captured rungs only, from the step on");
    }

    #[test]
    fn short_runs_get_one_rung_per_step() {
        let rung0 = || Snapshot::capture(&mut probe());
        assert_eq!(Ladder::new(3, rung0()).steps, vec![0, 1, 2]);
        assert_eq!(Ladder::new(1000, rung0()).steps.len(), MAX_RUNGS);
    }
}
