//! Pins for the golden snapshot ladder.
//!
//! A pooled trial restores the highest golden rung at or below its
//! injection step instead of replaying the fault-free prefix from step 0
//! (`carolfi::pool`). That is pure performance work, held to three
//! properties here:
//!
//! * **restore:** for every kernel, a snapshot taken at any rung and
//!   restored into a target an earlier trial left corrupted in every
//!   declared field is indistinguishable from a fresh target stepped to that
//!   rung — the same bytes in every field `FaultTarget::state` declares,
//!   step state included, and the golden output once run on;
//! * **accounting twins:** for every outcome class a laddered trial
//!   produces exactly the result of the same trial on a fresh target that
//!   replays from step 0, `executed_steps` included;
//! * **persistence:** the ladder belongs to the pool, so a rung captured
//!   before a DUE rebuild still serves the trials after it;
//! * **convergence:** for every kernel, `converged` holds exactly for a
//!   state equal to the rung's — a fresh target stepped to the rung, but
//!   not one with a bit flipped in any declared field, whether a fault can
//!   reach it or not, or one step past it — and
//!   a trial that re-converges stops there with the golden suffix charged,
//!   which rests on a fault-free run finishing exactly at `total_steps`.

use phi_reliability::carolfi::campaign::execute_trial;
use phi_reliability::carolfi::fuel::watchdog_budget;
use phi_reliability::carolfi::record::{DueKind, OutcomeRecord};
use phi_reliability::carolfi::panic_guard::silence_panics;
use phi_reliability::carolfi::rng::fork;
use phi_reliability::carolfi::{
    run_trial_mut, CampaignConfig, DueCause, FaultApplicator, FaultTarget, InjectionDetail, Injection, Output, Snapshot,
    StepOutcome, TargetPool, TrialConfig, TrialKind, TrialOutcome, TrialRecord, VarClass, VarInfo, Variable,
};
use phi_reliability::carolfi::target::StateVisitor;
use phi_reliability::kernels::{build, golden, Benchmark, SizeClass};
use rand::Rng;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Every field `t` declares, in declaration order, with its `VarInfo` when
/// a fault can reach it: the step state too, which `variables()` leaves out.
fn fields(t: &mut dyn FaultTarget) -> Vec<(Option<VarInfo>, &mut [u8])> {
    struct Fields<'a>(Vec<(Option<VarInfo>, &'a mut [u8])>);
    impl<'a> StateVisitor<'a> for Fields<'a> {
        fn field(&mut self, info: Option<&VarInfo>, bytes: &'a mut [u8], _: usize, _: bool) -> ControlFlow<()> {
            self.0.push((info.copied(), bytes));
            ControlFlow::Continue(())
        }
    }
    let mut fields = Fields(Vec::new());
    let _ = t.state(&mut fields);
    fields.0
}

fn name(info: &Option<VarInfo>) -> &'static str {
    info.map_or("<step state>", |info| info.name)
}

fn state_bytes(t: &mut dyn FaultTarget) -> Vec<(&'static str, Vec<u8>)> {
    fields(t).into_iter().map(|(info, bytes)| (name(&info), bytes.to_vec())).collect()
}

/// The rung steps a campaign ladder uses: at most 16, evenly spaced.
fn rung_steps(total: usize) -> Vec<usize> {
    let n = 16.min(total.max(1));
    (0..n).map(|k| k * total / n).collect()
}

fn restore_matches_a_fresh_run(b: Benchmark, size: SizeClass) {
    let g = golden(b, size);
    let mut reference = build(b, size);
    let total = reference.total_steps();
    for (k, at) in rung_steps(total).into_iter().enumerate() {
        while reference.steps_executed() < at {
            assert_eq!(reference.step(), StepOutcome::Continue, "{b}: a fault-free run ends at its nominal step count");
        }
        let rung: Snapshot = reference.snapshot().unwrap_or_else(|| panic!("{b} must support snapshots"));

        // What an earlier trial leaves behind: a finished run with a random
        // byte of every declared field corrupted, step state included.
        let mut leftover = build(b, size);
        while leftover.step() == StepOutcome::Continue {}
        let mut rng = fork(0x5EED, k as u64);
        for (_, bytes) in fields(leftover.as_mut()) {
            if !bytes.is_empty() {
                let i = rng.gen_range(0..bytes.len());
                bytes[i] ^= rng.gen_range(1..=255u8);
            }
        }

        assert!(leftover.restore(&rung), "{b}: restore refused its own snapshot");
        assert_eq!(leftover.steps_executed(), at, "{b} rung {k}: step count");
        assert!(state_bytes(leftover.as_mut()) == state_bytes(reference.as_mut()), "{b} rung {k}: restored state differs");
        while leftover.step() == StepOutcome::Continue {}
        assert!(leftover.output().bits_equal(&g), "{b} rung {k}: the restored run must finish on the golden output");
    }
}

/// `converged` is the exact twin of `restore`: a fresh target stepped to a
/// rung converges with it; one flipped bit in any non-empty declared field,
/// or one more step, breaks that.
fn converged_holds_exactly_at_the_rung(b: Benchmark, size: SizeClass) {
    let mut reference = build(b, size);
    let mut fresh = build(b, size);
    let mut rng = fork(0xC0DE, b as u64);
    for at in rung_steps(reference.total_steps()) {
        while reference.steps_executed() < at {
            reference.step();
            fresh.step();
        }
        let rung = reference.snapshot().unwrap_or_else(|| panic!("{b} must support snapshots"));
        assert!(fresh.converged(&rung), "{b} at step {at}: a fresh target converges with the rung");
        let n = fields(fresh.as_mut()).len();
        for i in 0..n {
            let (name, byte, mask) = {
                let mut fields = fields(fresh.as_mut());
                let (info, bytes) = &mut fields[i];
                if bytes.is_empty() {
                    continue;
                }
                let byte = rng.gen_range(0..bytes.len());
                let mask = 1u8 << rng.gen_range(0..8);
                bytes[byte] ^= mask;
                (name(info), byte, mask)
            };
            assert!(!fresh.converged(&rung), "{b} at step {at}: a flipped bit in field {i} ({name}) went unseen");
            fields(fresh.as_mut())[i].1[byte] ^= mask;
        }
        assert!(fresh.converged(&rung), "{b} at step {at}: every flip was undone");
        let mut past = build(b, size);
        while past.steps_executed() <= at {
            past.step();
        }
        assert!(!past.converged(&rung), "{b}: a target one step past step {at} converged with it");
    }
}

#[test]
fn every_kernel_converges_exactly_at_its_rungs() {
    for size in [SizeClass::Test, SizeClass::Small] {
        for b in Benchmark::ALL {
            converged_holds_exactly_at_the_rung(b, size);
        }
    }
}

#[test]
fn fault_free_runs_are_done_exactly_at_their_step_count() {
    // The early exit charges `total_steps - rung` for the golden suffix:
    // that is what a run to the end executes only if a fault-free run
    // reports `Done` at exactly `total_steps`, never before or after.
    let expected = [(SizeClass::Test, [32, 6, 20, 9, 18, 12]), (SizeClass::Small, [80, 8, 120, 16, 24, 16])];
    for (size, steps) in expected {
        for (b, total) in Benchmark::ALL.into_iter().zip(steps) {
            let mut t = build(b, size);
            assert_eq!(t.total_steps(), total, "{b} at {size:?}");
            while t.step() == StepOutcome::Continue {}
            assert_eq!(t.steps_executed(), total, "{b} at {size:?}: Done at the last step");
        }
    }
}

/// Applies a fault that changes nothing (flips a bit twice): the trial's
/// state stays golden.
struct Null;
impl FaultApplicator for Null {
    fn apply(&mut self, vars: &mut [Variable<'_>], _: &mut rand::rngs::StdRng) -> Option<InjectionDetail> {
        vars[0].bytes[0] ^= 1;
        vars[0].bytes[0] ^= 1;
        Some(InjectionDetail {
            var_name: vars[0].info.name.into(),
            var_class: vars[0].info.class,
            frame: vars[0].info.frame.label().into(),
            thread: vars[0].info.thread,
            decl: String::new(),
            elem_index: 0,
            bits: vec![],
            mechanism: "null".into(),
        })
    }
}

#[test]
fn a_reconverged_trial_stops_at_its_rung_and_charges_the_golden_suffix() {
    for b in Benchmark::ALL {
        let g = golden(b, SizeClass::Test);
        let total = build(b, SizeClass::Test).total_steps();
        let steps = Arc::new(AtomicUsize::new(0));
        let counter = steps.clone();
        // `Counted` never converges: it runs every trial to the end, from
        // the same ladder.
        let reference = TargetPool::new(move || Counted { inner: build(b, SizeClass::Test), steps: counter.clone() });
        let pool = TargetPool::new(|| build(b, SizeClass::Test));
        // A hardware-masked trial at the last step captures every rung.
        let last = TrialConfig { inject_step: total - 1, ..Default::default() };
        let (mut target, ladder) = pool.take();
        run_trial_mut(&mut target, ladder, &g, &mut Decline, last, &mut fork(1, 0));

        let inject_step = rung_steps(total)[1];
        let cfg = TrialConfig { inject_step, ..Default::default() };
        let early = run_trial_mut(&mut target, ladder, &g, &mut Null, cfg, &mut fork(1, 0));
        assert_eq!(target.steps_executed(), inject_step, "{b}: the trial stopped at the rung it converged with");

        let (mut counted, counted_ladder) = reference.take();
        run_trial_mut(&mut counted, counted_ladder, &g, &mut Decline, last, &mut fork(1, 0));
        let before = steps.load(Ordering::Relaxed);
        let to_end = run_trial_mut(&mut counted, counted_ladder, &g, &mut Null, cfg, &mut fork(1, 0));
        assert_eq!(steps.load(Ordering::Relaxed) - before, total - inject_step, "{b}: the reference ran to the end");
        for r in [&early, &to_end] {
            assert_eq!(r.outcome, TrialOutcome::Masked, "{b}");
            assert_eq!(r.executed_steps, total, "{b}: the whole run is charged");
        }
        assert!(!early.fast_compare && to_end.fast_compare, "{b}: only the run to the end compares its output");
    }
}

#[test]
fn every_kernel_restores_any_rung_bit_identically() {
    for b in Benchmark::ALL {
        restore_matches_a_fresh_run(b, SizeClass::Test);
    }
    restore_matches_a_fresh_run(Benchmark::Hotspot, SizeClass::Small);
}

fn to_json(r: &TrialRecord) -> String {
    serde_json::to_string(r).expect("record serializes")
}

#[test]
fn laddered_trials_match_fresh_replays_in_every_outcome_class() {
    // NW at Test size yields masked, SDC, crash-DUE and timeout-DUE trials.
    let b = Benchmark::Nw;
    let g = golden(b, SizeClass::Test);
    let cfg = CampaignConfig { trials: 300, seed: 2017, n_windows: b.n_windows(), ..Default::default() };
    let total = build(b, SizeClass::Test).total_steps();
    let pool = TargetPool::new(|| build(b, SizeClass::Test));
    let kind = Injection::new(b.label(), &cfg);
    let pairs: Vec<(TrialRecord, TrialRecord)> = {
        let _quiet = silence_panics();
        (0..cfg.trials)
            .map(|trial| {
                let (laddered, _) = kind.run(&pool, &g, total, trial);
                (laddered, execute_trial(b.label(), &mut build(b, SizeClass::Test), &g, &cfg, total, trial).0)
            })
            .collect()
    };
    let mut seen = [0usize; 4];
    for (laddered, fresh) in &pairs {
        assert_eq!(to_json(laddered), to_json(fresh), "trial {}", laddered.trial);
        match &laddered.outcome {
            OutcomeRecord::Masked => seen[0] += 1,
            OutcomeRecord::Sdc(_) => seen[1] += 1,
            // NW's timeouts are its kernel-internal loop fuel running out
            // mid-step; the supervisor's watchdog has its own twin below.
            OutcomeRecord::Due(DueKind::Timeout) => seen[2] += 1,
            OutcomeRecord::Due(_) => seen[3] += 1,
            OutcomeRecord::HardwareMasked => unreachable!("CAROL-FI models always reach architectural state"),
        }
    }
    assert!(seen.iter().all(|&n| n > 0), "masked/SDC/timeout/crash counts {seen:?}");
    let ladder = pool.ladder().expect("kernels snapshot");
    assert_eq!(ladder.captured(), rung_steps(total).len(), "the campaign's prefixes captured every rung");
}

/// Declines every fault: the hardware-masked path.
struct Decline;
impl FaultApplicator for Decline {
    fn apply(&mut self, _: &mut [Variable<'_>], _: &mut rand::rngs::StdRng) -> Option<InjectionDetail> {
        None
    }
}

#[test]
fn hardware_masked_laddered_trials_count_their_restored_prefix() {
    let b = Benchmark::Hotspot;
    let g = golden(b, SizeClass::Test);
    let pool = TargetPool::new(|| build(b, SizeClass::Test));
    for inject_step in [19, 7, 19, 0, 12] {
        let cfg = TrialConfig { inject_step, ..Default::default() };
        let (mut target, ladder) = pool.take();
        let laddered = run_trial_mut(&mut target, ladder, &g, &mut Decline, cfg, &mut fork(1, 0));
        pool.release(target, false);
        let fresh = run_trial_mut(&mut build(b, SizeClass::Test), None, &g, &mut Decline, cfg, &mut fork(1, 0));
        assert_eq!(laddered.outcome, TrialOutcome::HardwareMasked);
        assert_eq!(fresh.outcome, TrialOutcome::HardwareMasked);
        assert_eq!(laddered.executed_steps, inject_step);
        assert_eq!(fresh.executed_steps, inject_step);
    }
}

/// Runs until `limit` steps, nominally `total`: a fault in `limit` spins
/// it until the supervisor's watchdog fires, or ends it early.
struct Endless {
    limit: u64,
    total: usize,
    done: usize,
}

impl Endless {
    fn new(total: usize) -> Self {
        Endless { limit: total as u64, total, done: 0 }
    }
}

impl FaultTarget for Endless {
    fn name(&self) -> &'static str {
        "endless"
    }
    fn total_steps(&self) -> usize {
        self.total
    }
    fn steps_executed(&self) -> usize {
        self.done
    }
    fn step(&mut self) -> StepOutcome {
        self.done += 1;
        if self.done as u64 >= self.limit {
            StepOutcome::Done
        } else {
            StepOutcome::Continue
        }
    }
    fn state<'a>(&'a mut self, v: &mut dyn StateVisitor<'a>) -> ControlFlow<()> {
        let Endless { limit, total: _, done } = self;
        v.scalar(None, done)?;
        v.scalar(VarInfo::local("limit", VarClass::ControlVariable, "loop", 0, file!(), line!()), limit)
    }
    fn output(&self) -> Output {
        Output::I32Grid { dims: [1, 1, 1], data: vec![0] }
    }
    fn snapshot(&mut self) -> Option<Snapshot> {
        Some(Snapshot::capture(self))
    }
}

/// Sets the loop limit out of reach.
struct Unbound;
impl FaultApplicator for Unbound {
    fn apply(&mut self, vars: &mut [Variable<'_>], _: &mut rand::rngs::StdRng) -> Option<InjectionDetail> {
        vars[0].bytes.copy_from_slice(&u64::MAX.to_le_bytes());
        Some(InjectionDetail {
            var_name: "limit".into(),
            var_class: vars[0].info.class,
            frame: vars[0].info.frame.label().into(),
            thread: vars[0].info.thread,
            decl: String::new(),
            elem_index: 0,
            bits: vec![],
            mechanism: "test".into(),
        })
    }
}

#[test]
fn watchdog_timeouts_charge_the_restored_prefix() {
    let g = Output::I32Grid { dims: [1, 1, 1], data: vec![0] };
    let pool = TargetPool::new(|| Endless::new(16));
    let max_steps = watchdog_budget(16, TrialConfig::default().watchdog_factor) as usize;
    let _quiet = silence_panics();
    for inject_step in [15, 14, 3, 15, 0, 9] {
        let cfg = TrialConfig { inject_step, ..Default::default() };
        let (mut target, ladder) = pool.take();
        let laddered = run_trial_mut(&mut target, ladder, &g, &mut Unbound, cfg, &mut fork(1, 0));
        pool.release(target, true); // a DUE: the next trial rebuilds
        let fresh = run_trial_mut(&mut Endless::new(16), None, &g, &mut Unbound, cfg, &mut fork(1, 0));
        for r in [&laddered, &fresh] {
            assert_eq!(r.outcome, TrialOutcome::Due(DueCause::Timeout), "inject at {inject_step}");
            assert_eq!(r.executed_steps, max_steps, "inject at {inject_step}: the whole run is charged");
        }
    }
    assert_eq!(pool.ladder().unwrap().captured(), 16, "every step of the short run is a rung");
}

/// Sets the loop limit to step 6.
struct Shorten;
impl FaultApplicator for Shorten {
    fn apply(&mut self, vars: &mut [Variable<'_>], _: &mut rand::rngs::StdRng) -> Option<InjectionDetail> {
        vars[0].bytes.copy_from_slice(&6u64.to_le_bytes());
        Some(InjectionDetail {
            var_name: "limit".into(),
            var_class: vars[0].info.class,
            frame: vars[0].info.frame.label().into(),
            thread: vars[0].info.thread,
            decl: String::new(),
            elem_index: 0,
            bits: vec![],
            mechanism: "test".into(),
        })
    }
}

#[test]
fn a_run_that_finishes_between_rungs_is_not_stepped_again() {
    // Rungs stand every 4 of 64 steps. A fault at rung 4 ends the run at
    // step 6, inside the segment towards rung 8: stepping the finished
    // target again would charge a seventh step.
    let g = Output::I32Grid { dims: [1, 1, 1], data: vec![0] };
    let pool = TargetPool::new(|| Endless::new(64));
    let (mut target, ladder) = pool.take();
    let last = TrialConfig { inject_step: 63, ..Default::default() };
    run_trial_mut(&mut target, ladder, &g, &mut Decline, last, &mut fork(1, 0));
    assert_eq!(ladder.unwrap().captured(), 16, "a hardware-masked trial at the last step captured every rung");
    let cfg = TrialConfig { inject_step: 4, ..Default::default() };
    let laddered = run_trial_mut(&mut target, ladder, &g, &mut Shorten, cfg, &mut fork(1, 0));
    let fresh = run_trial_mut(&mut Endless::new(64), None, &g, &mut Shorten, cfg, &mut fork(1, 0));
    for r in [&laddered, &fresh] {
        assert_eq!(r.outcome, TrialOutcome::Masked);
        assert_eq!(r.executed_steps, 6);
    }
    assert_eq!(target.steps_executed(), 6);
}

/// A kernel that counts the steps it actually runs, and runs every trial
/// to the end: the early exit's reference.
struct Counted {
    inner: Box<dyn FaultTarget>,
    steps: Arc<AtomicUsize>,
}

impl FaultTarget for Counted {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn total_steps(&self) -> usize {
        self.inner.total_steps()
    }
    fn steps_executed(&self) -> usize {
        self.inner.steps_executed()
    }
    fn step(&mut self) -> StepOutcome {
        self.steps.fetch_add(1, Ordering::Relaxed);
        self.inner.step()
    }
    fn state<'a>(&'a mut self, v: &mut dyn StateVisitor<'a>) -> ControlFlow<()> {
        self.inner.state(v)
    }
    fn output(&self) -> Output {
        self.inner.output()
    }
    fn snapshot(&mut self) -> Option<Snapshot> {
        self.inner.snapshot()
    }
    fn converged(&mut self, _: &Snapshot) -> bool {
        false
    }
}

#[test]
fn rungs_outlive_due_rebuilds() {
    let b = Benchmark::Nw;
    let g = golden(b, SizeClass::Test);
    let cfg = CampaignConfig { trials: 300, seed: 2017, n_windows: b.n_windows(), ..Default::default() };
    let total = build(b, SizeClass::Test).total_steps();
    let fresh = |trial: usize| execute_trial(b.label(), &mut build(b, SizeClass::Test), &g, &cfg, total, trial).0;
    let fresh_records: Vec<TrialRecord> = {
        let _quiet = silence_panics();
        (0..cfg.trials).map(fresh).collect()
    };
    let late = |r: &&TrialRecord| r.inject_step == total - 1 && !r.outcome.is_due();
    let mut lates = fresh_records.iter().filter(late);
    let (first, second) = (lates.next().expect("a late trial"), lates.next().expect("another late trial"));
    let due = fresh_records.iter().find(|r| r.outcome.is_due()).expect("a DUE trial");

    let steps = Arc::new(AtomicUsize::new(0));
    let counter = steps.clone();
    let pool = TargetPool::new(move || Counted { inner: build(b, SizeClass::Test), steps: counter.clone() });
    let kind = Injection::new(b.label(), &cfg);
    let _quiet = silence_panics();
    let run = |r: &TrialRecord| {
        let before = steps.load(Ordering::Relaxed);
        let (record, _) = kind.run(&pool, &g, total, r.trial);
        assert_eq!(to_json(&record), to_json(r), "trial {}", r.trial);
        steps.load(Ordering::Relaxed) - before
    };

    run(first);
    let rungs = pool.ladder().expect("kernels snapshot").captured();
    assert_eq!(rungs, rung_steps(total).len(), "a last-step prefix passes every rung");
    run(due);
    let rebuilds = pool.rebuilds();
    let ran = run(second);
    assert_eq!(pool.rebuilds(), rebuilds + 1, "the DUE dropped its target, so the next trial rebuilds");
    assert_eq!(pool.ladder().unwrap().captured(), rungs, "no rung was lost or recaptured");
    assert!(
        ran < second.executed_steps,
        "the rebuilt target started from a rung: ran {ran} of {} executed steps",
        second.executed_steps
    );
}
