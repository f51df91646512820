//! Pins for the golden snapshot ladder.
//!
//! A pooled trial restores the highest golden rung at or below its
//! injection step instead of replaying the fault-free prefix from step 0
//! (`carolfi::pool`). That is pure performance work, held to three
//! properties here:
//!
//! * **restore:** for every kernel, a snapshot taken at any rung and
//!   restored into a target an earlier trial left corrupted is
//!   indistinguishable from a fresh target stepped to that rung — the same
//!   `variables()` bytes and `steps_executed()`, and the golden output once
//!   run on;
//! * **accounting twins:** for every outcome class a laddered trial
//!   produces exactly the result of the same trial on a fresh target that
//!   replays from step 0, `executed_steps` included;
//! * **persistence:** the ladder belongs to the pool, so a rung captured
//!   before a DUE rebuild still serves the trials after it.

use phi_reliability::carolfi::campaign::execute_trial;
use phi_reliability::carolfi::fuel::watchdog_budget;
use phi_reliability::carolfi::record::{DueKind, OutcomeRecord};
use phi_reliability::carolfi::panic_guard::silence_panics;
use phi_reliability::carolfi::rng::fork;
use phi_reliability::carolfi::{
    run_trial_mut, CampaignConfig, DueCause, FaultApplicator, FaultTarget, InjectionDetail, Injection, Output, Snapshot,
    StepOutcome, TargetPool, TrialConfig, TrialKind, TrialOutcome, TrialRecord, VarClass, VarInfo, Variable,
};
use phi_reliability::kernels::{build, golden, Benchmark, SizeClass};
use rand::Rng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn state_bytes(t: &mut dyn FaultTarget) -> Vec<(&'static str, Vec<u8>)> {
    t.variables().into_iter().map(|v| (v.info.name, v.bytes.to_vec())).collect()
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

        // What an earlier trial leaves behind: a finished run with random
        // bytes of random variables corrupted.
        let mut leftover = build(b, size);
        while leftover.step() == StepOutcome::Continue {}
        let mut rng = fork(0x5EED, k as u64);
        {
            let mut vars = leftover.variables();
            for _ in 0..8 {
                let pick = rng.gen_range(0..vars.len());
                let v = &mut vars[pick];
                if !v.bytes.is_empty() {
                    let i = rng.gen_range(0..v.bytes.len());
                    v.bytes[i] ^= rng.gen_range(1..=255u8);
                }
            }
        }

        assert!(leftover.restore(&rung), "{b}: restore refused its own snapshot");
        assert_eq!(leftover.steps_executed(), at, "{b} rung {k}: step count");
        assert!(state_bytes(leftover.as_mut()) == state_bytes(reference.as_mut()), "{b} rung {k}: restored state differs");
        while leftover.step() == StepOutcome::Continue {}
        assert!(leftover.output().bits_equal(&g), "{b} rung {k}: the restored run must finish on the golden output");
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
                let (laddered, _) = kind.run(&pool, &g, total, trial, 0, false);
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

/// Runs until `limit` steps, nominally 16: a fault in `limit` spins it
/// until the supervisor's watchdog fires.
#[derive(Clone)]
struct Endless {
    limit: u64,
    done: usize,
}

impl FaultTarget for Endless {
    fn name(&self) -> &'static str {
        "endless"
    }
    fn total_steps(&self) -> usize {
        16
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
    fn variables(&mut self) -> Vec<Variable<'_>> {
        vec![Variable::from_scalar(
            VarInfo::local("limit", VarClass::ControlVariable, "loop", 0, file!(), line!()),
            &mut self.limit,
        )]
    }
    fn output(&self) -> Output {
        Output::I32Grid { dims: [1, 1, 1], data: vec![0] }
    }
    fn snapshot(&self) -> Option<Snapshot> {
        Some(Snapshot::new(self.clone()))
    }
    fn restore(&mut self, snapshot: &Snapshot) -> bool {
        let Some(s) = snapshot.get::<Endless>() else { return false };
        *self = s.clone();
        true
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
    let pool = TargetPool::new(|| Endless { limit: 16, done: 0 });
    let max_steps = watchdog_budget(16, TrialConfig::default().watchdog_factor) as usize;
    let _quiet = silence_panics();
    for inject_step in [15, 14, 3, 15, 0, 9] {
        let cfg = TrialConfig { inject_step, ..Default::default() };
        let (mut target, ladder) = pool.take();
        let laddered = run_trial_mut(&mut target, ladder, &g, &mut Unbound, cfg, &mut fork(1, 0));
        pool.release(target, true); // a DUE: the next trial rebuilds
        let fresh = run_trial_mut(&mut Endless { limit: 16, done: 0 }, None, &g, &mut Unbound, cfg, &mut fork(1, 0));
        for r in [&laddered, &fresh] {
            assert_eq!(r.outcome, TrialOutcome::Due(DueCause::Timeout), "inject at {inject_step}");
            assert_eq!(r.executed_steps, max_steps, "inject at {inject_step}: the whole run is charged");
        }
    }
    assert_eq!(pool.ladder().unwrap().captured(), 16, "every step of the short run is a rung");
}

/// A kernel that counts the steps it actually runs.
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
    fn variables(&mut self) -> Vec<Variable<'_>> {
        self.inner.variables()
    }
    fn output(&self) -> Output {
        self.inner.output()
    }
    fn snapshot(&self) -> Option<Snapshot> {
        self.inner.snapshot()
    }
    fn restore(&mut self, snapshot: &Snapshot) -> bool {
        self.inner.restore(snapshot)
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
        let (record, _) = kind.run(&pool, &g, total, r.trial, 0, false);
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
