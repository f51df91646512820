//! The Supervisor: runs one victim execution with one fault, classifies the
//! outcome.
//!
//! Mirrors CAROL-FI's workflow (paper §5.1):
//!
//! 1. launch the program (construct the [`FaultTarget`]);
//! 2. let it run at full speed until a pre-sampled interrupt time
//!    (`inject_step`);
//! 3. run the Flip-script (the [`FaultApplicator`]) against the enumerated
//!    thread/frame/variable state;
//! 4. resume at full speed, under a watchdog;
//! 5. on completion compare the output with the golden copy and log
//!    Masked / SDC / DUE.
//!
//! Crashes (panics) and watchdog expiries become DUEs; any output bit
//! mismatch becomes an SDC with a [`DiffSummary`]. A laddered trial whose
//! state re-converges to a golden rung after the fault ends Masked at that
//! rung instead of running the golden suffix ([`run_trial_mut`]).

use crate::fuel::{is_timeout, watchdog_budget, Fuel};
use crate::models::{FaultApplicator, InjectionDetail};
use crate::output::Output;
use crate::pool::Ladder;
use crate::record::{DiffSummary, DueKind};
use crate::target::{FaultTarget, StepOutcome};
use rand::rngs::StdRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Classified result of a single supervised run.
#[derive(Debug, Clone, PartialEq)]
pub enum TrialOutcome {
    /// Output bit-identical to golden.
    Masked,
    /// The applicator reported the fault never reached architectural state.
    HardwareMasked,
    /// Output mismatch.
    Sdc(DiffSummary),
    /// Crash or watchdog expiry.
    Due(DueCause),
}

/// Cause of a DUE.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DueCause {
    Panic(String),
    Timeout,
}

impl From<DueCause> for DueKind {
    fn from(c: DueCause) -> DueKind {
        match c {
            DueCause::Panic(message) => DueKind::Crash { message },
            DueCause::Timeout => DueKind::Timeout,
        }
    }
}

/// Supervisor knobs.
#[derive(Debug, Clone, Copy)]
pub struct TrialConfig {
    /// Step boundary at which the interrupt fires.
    pub inject_step: usize,
    /// Watchdog limit as a multiple of the nominal step count (CAROL-FI's
    /// user-defined time limit). 4× mirrors the paper's mean overhead
    /// headroom.
    ///
    /// The budget covers the *whole* run: pre-injection steps count against
    /// `max_steps = ceil(total × factor)` just like post-injection ones.
    /// This is deliberate, and pinned by a test
    /// (`late_injection_watchdog_budget_covers_the_whole_run`): CAROL-FI's
    /// real watchdog is a wall-clock limit on the entire victim execution,
    /// so a fault injected at step 0.9·N has ≈(factor − 0.9)·N steps of
    /// headroom, not factor·N — and the fault-free prefix can consume at
    /// most `total` of the budget, leaving at least (factor − 1)·N after any
    /// injection point. Charging the factor against post-injection steps
    /// only would also reclassify some late-window timeout DUEs and break
    /// bit-identity with every journaled campaign.
    pub watchdog_factor: f64,
}

impl Default for TrialConfig {
    fn default() -> Self {
        TrialConfig { inject_step: 0, watchdog_factor: 4.0 }
    }
}

/// Everything `run_trial` learned about one execution.
#[derive(Debug, Clone)]
pub struct TrialResult {
    pub outcome: TrialOutcome,
    /// What the applicator corrupted, if it reached architectural state.
    pub injection: Option<InjectionDetail>,
    /// Step boundary the fault was applied at.
    pub inject_step: usize,
    /// Steps the run executed before finishing or dying.
    pub executed_steps: usize,
    /// True when the bitwise fast-path compare alone classified the trial
    /// (output proven bit-identical without an elementwise scan); false for
    /// a trial that ended at a re-converged rung, which compares no output.
    /// Telemetry only — never serialized into a
    /// [`crate::record::TrialRecord`].
    pub fast_compare: bool,
}

/// How a trial's run ended, short of a crash or timeout.
enum RunEnd {
    /// The applicator declined: the fault never reached architectural state.
    HardwareMasked,
    /// The state matched a golden rung bit for bit, so the rest of the run
    /// is golden.
    Converged,
    /// The program finished with this output.
    Finished(Output),
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> DueCause {
    if is_timeout(payload.as_ref()) {
        return DueCause::Timeout;
    }
    let msg = if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    };
    DueCause::Panic(msg)
}

/// Runs one faulted execution of `target` and classifies it against `golden`.
///
/// The target is constructed by the caller (so beam trials can pre-configure
/// device state) and replays its fault-free prefix from step 0; `run_trial`
/// consumes it. Pooled campaign runners use [`run_trial_mut`] instead, which
/// borrows the target so it can be restored and reused.
pub fn run_trial<T: FaultTarget>(
    mut target: T,
    golden: &Output,
    applicator: &mut dyn FaultApplicator,
    cfg: TrialConfig,
    rng: &mut StdRng,
) -> TrialResult {
    run_trial_mut(&mut target, None, golden, applicator, cfg, rng)
}

/// [`run_trial`] over a borrowed target, started from the golden `ladder`
/// when one is given.
///
/// With a ladder, the target may hold any state a previous trial of the
/// campaign left (short of a DUE): the trial restores the highest captured
/// rung at or below the injection step and runs only the rest of the
/// fault-free prefix, capturing every missing rung it passes. The restored
/// steps count as executed, in `executed_steps` and against the watchdog
/// budget, so the result is bit-identical to replaying from step 0. After
/// the fault, the run goes rung by rung: at each captured rung at or after
/// the injection step, a state equal to the rung's bit for bit
/// ([`FaultTarget::converged`]) ends the trial Masked, with the golden
/// suffix charged as executed, so again the result is what a run to the
/// end gives. Without a ladder, the target must stand at step 0, replays
/// the whole prefix and runs to the end.
///
/// The caller keeps ownership, so a pooled target can be reused for the
/// next trial — unless the outcome was a DUE, after which the state may be
/// torn mid-`step` and the pool must rebuild via its factory.
pub fn run_trial_mut<T: FaultTarget>(
    target: &mut T,
    ladder: Option<&Ladder>,
    golden: &Output,
    applicator: &mut dyn FaultApplicator,
    cfg: TrialConfig,
    rng: &mut StdRng,
) -> TrialResult {
    let _trial_span = obs::span!("trial");
    let total = target.total_steps().max(1);
    // Whole-run watchdog budget, precomputed as an integer step count
    // (saturating u128 math — see `fuel::watchdog_budget`; the old f64
    // formula lost precision past 2^53 steps).
    let max_steps = watchdog_budget(total, cfg.watchdog_factor);
    let inject_step = cfg.inject_step.min(total.saturating_sub(1));

    let mut injection: Option<InjectionDetail> = None;
    // Both phases' fuel lives outside the unwind boundary so
    // `executed_steps` can be reconstructed after a crash or timeout. The
    // pre-injection phase is fault-free and was never subject to a timeout
    // check, so its fuel is effectively unbounded; its spend is charged
    // against the whole-run budget when the watchdog arms below.
    let mut pre_fuel = Fuel::new(u64::MAX);
    let mut post_budget = 0u64;
    let mut post_fuel = Fuel::new(0);

    // Start from the nearest golden rung. The restored steps are charged to
    // the prefix exactly as if they had run. A restore failing is a harness
    // bug, not a victim fault, so it stays outside the unwind boundary.
    let pre_span = obs::span!("pre_phase");
    let restored = ladder.map_or(0, |ladder| ladder.restore(target, inject_step));
    pre_fuel.burn(restored as u64);
    obs::incr("ladder/skipped_steps", restored as u64);

    let run = catch_unwind(AssertUnwindSafe(|| {
        // Phase 1: full speed until the interrupt — one fuel
        // decrement-and-branch per step, no supervisor bookkeeping —
        // stopping to capture any rung of the ladder still missing. If the
        // program finishes before the interrupt fires, CAROL-FI logs these
        // as faults injected at the very end; we apply the fault to the
        // final state so the output comparison still sees it (matches
        // injecting into a result buffer).
        let mut prefix = StepOutcome::Continue;
        if let Some(ladder) = ladder {
            for (rung, at) in ladder.missing(restored, inject_step) {
                prefix = target.run_until(at, &mut pre_fuel);
                if prefix == StepOutcome::Done {
                    break;
                }
                ladder.capture(rung, target);
            }
        }
        if prefix == StepOutcome::Continue {
            target.run_until(inject_step, &mut pre_fuel);
        }
        drop(pre_span);

        // Phase 2: the Flip-script.
        let mut vars = target.variables();
        {
            let _span = obs::span!("fault_apply");
            injection = applicator.apply(&mut vars, rng);
        }
        drop(vars);
        if injection.is_none() {
            return RunEnd::HardwareMasked; // no need to resume
        }

        // Phase 3: resume at full speed under the watchdog. The remaining
        // budget is the whole-run budget minus the fault-free prefix
        // (`Fuel::burn` zeroes itself before raising the timeout, so a DUE
        // reports exactly `max_steps` executed — identical to the old
        // check-then-step loop).
        let _span = obs::span!("post_phase");
        if target.steps_executed() >= inject_step {
            let spent_pre = u64::MAX - pre_fuel.remaining();
            post_budget = max_steps.saturating_sub(spent_pre);
            post_fuel = Fuel::new(post_budget);
            // With a ladder, go rung by rung. A state equal to a golden
            // rung's finishes as the golden run does, so the trial ends
            // Masked there, charged the `total - at` steps a run to the end
            // would execute (a fault-free run is `Done` exactly at
            // `total_steps`). A finished target is never stepped again.
            for (at, rung) in ladder.into_iter().flat_map(|ladder| ladder.captured_from(inject_step)) {
                if target.run_until(at, &mut post_fuel) == StepOutcome::Done {
                    return RunEnd::Finished(target.output());
                }
                if target.converged(rung) {
                    post_fuel.burn((total - at) as u64);
                    obs::incr("ladder/converged", 1);
                    return RunEnd::Converged;
                }
            }
            target.run_until(usize::MAX, &mut post_fuel);
        }
        RunEnd::Finished(target.output())
    }));
    let executed = ((u64::MAX - pre_fuel.remaining()) + (post_budget - post_fuel.remaining())) as usize;

    let mut fast_compare = false;
    let outcome = match run {
        Err(payload) => {
            let cause = panic_message(payload);
            if cause == DueCause::Timeout {
                obs::incr("watchdog.fired", 1);
            }
            TrialOutcome::Due(cause)
        }
        Ok(RunEnd::HardwareMasked) => TrialOutcome::HardwareMasked,
        Ok(RunEnd::Converged) => TrialOutcome::Masked,
        Ok(RunEnd::Finished(output)) => {
            let _span = obs::span!("compare");
            // Fast path: prove bit-identity word-at-a-time before paying for
            // an elementwise scan. `bits_equal` agrees with `mismatches` on
            // equality exactly (both compare bit patterns), so the recorded
            // outcome is unchanged — only the cost of reaching it.
            if output.bits_equal(golden) {
                fast_compare = true;
                obs::incr("compare/fast_path", 1);
                TrialOutcome::Masked
            } else {
                let mismatches = output.mismatches(golden);
                if mismatches.is_empty() {
                    TrialOutcome::Masked
                } else {
                    TrialOutcome::Sdc(DiffSummary::from_mismatches(&mismatches, output.dims()))
                }
            }
        }
    };

    TrialResult { outcome, injection, inject_step, executed_steps: executed, fast_compare }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{CarolFiApplicator, FaultModel};
    use crate::rng::fork;
    use crate::target::{StateVisitor, StepOutcome, VarClass, VarInfo, Variable};
    use std::ops::ControlFlow;

    /// A toy victim: sums a vector in `n` steps, output is the running sums.
    struct Summer {
        data: Vec<f64>,
        acc: Vec<f64>,
        cursor: u64,
        done: usize,
        crash_on_negative: bool,
    }

    impl Summer {
        fn new(n: usize) -> Self {
            Summer { data: (0..n).map(|i| i as f64).collect(), acc: vec![0.0; n], cursor: 0, done: 0, crash_on_negative: false }
        }
    }

    impl FaultTarget for Summer {
        fn name(&self) -> &'static str {
            "summer"
        }
        fn total_steps(&self) -> usize {
            self.data.len()
        }
        fn steps_executed(&self) -> usize {
            self.done
        }
        fn step(&mut self) -> StepOutcome {
            let i = self.cursor as usize; // corrupted cursor => OOB panic (DUE)
            let prev = if i == 0 { 0.0 } else { self.acc[i - 1] };
            let v = self.data[i];
            if self.crash_on_negative && v < 0.0 {
                panic!("negative input");
            }
            self.acc[i] = prev + v;
            self.cursor += 1;
            self.done += 1;
            if self.done >= self.data.len() {
                StepOutcome::Done
            } else {
                StepOutcome::Continue
            }
        }
        fn state<'a>(&'a mut self, v: &mut dyn StateVisitor<'a>) -> ControlFlow<()> {
            v.slice(VarInfo::global("data", VarClass::Matrix, file!(), line!()), &mut self.data)?;
            v.scalar(VarInfo::local("cursor", VarClass::ControlVariable, "sum_loop", 0, file!(), line!()), &mut self.cursor)
        }
        fn output(&self) -> Output {
            Output::F64Grid { dims: [self.acc.len(), 1, 1], data: self.acc.clone() }
        }
    }

    fn golden(n: usize) -> Output {
        let mut s = Summer::new(n);
        while s.step() == StepOutcome::Continue {}
        s.output()
    }

    struct NopApplicator;
    impl FaultApplicator for NopApplicator {
        fn apply(&mut self, _: &mut [Variable<'_>], _: &mut StdRng) -> Option<InjectionDetail> {
            None
        }
    }

    #[test]
    fn hardware_masked_when_applicator_declines() {
        let g = golden(16);
        let mut rng = fork(0, 0);
        let res = run_trial(Summer::new(16), &g, &mut NopApplicator, TrialConfig { inject_step: 4, ..Default::default() }, &mut rng);
        assert_eq!(res.outcome, TrialOutcome::HardwareMasked);
    }

    #[test]
    fn corrupting_unconsumed_data_yields_sdc() {
        let g = golden(16);
        let _quiet = crate::panic_guard::silence_panics();
        // Run many seeds; data corruption after step 2 must yield SDCs (any
        // later element change propagates to all following prefix sums) and
        // cursor corruption may yield DUEs. No trial may corrupt the harness.
        let mut sdc = 0;
        let mut due = 0;
        let mut masked = 0;
        for seed in 0..200 {
            let mut rng = fork(seed, 1);
            let mut app = CarolFiApplicator::new(FaultModel::Random);
            let res = run_trial(Summer::new(16), &g, &mut app, TrialConfig { inject_step: 2, ..Default::default() }, &mut rng);
            match res.outcome {
                TrialOutcome::Sdc(_) => sdc += 1,
                TrialOutcome::Due(_) => due += 1,
                TrialOutcome::Masked => masked += 1,
                TrialOutcome::HardwareMasked => unreachable!(),
            }
        }
        assert!(sdc > 0, "expected some SDCs, got sdc={sdc} due={due} masked={masked}");
        assert!(due > 0, "expected some DUEs from cursor corruption");
    }

    #[test]
    fn masked_when_fault_hits_already_consumed_data() {
        // Inject a Zero fault into data[0] after it was consumed: prefix sums
        // no longer read it, so the output is untouched => Masked.
        struct PinpointZero;
        impl FaultApplicator for PinpointZero {
            fn apply(&mut self, vars: &mut [Variable<'_>], _: &mut StdRng) -> Option<InjectionDetail> {
                let v = &mut vars[0]; // "data"
                for b in &mut v.bytes[0..8] {
                    *b = 0;
                }
                Some(InjectionDetail {
                    var_name: v.info.name.into(),
                    var_class: v.info.class,
                    frame: v.info.frame.label().into(),
                    thread: None,
                    decl: String::new(),
                    elem_index: 0,
                    bits: vec![],
                    mechanism: "zero".into(),
                })
            }
        }
        let g = golden(16);
        let mut rng = fork(3, 0);
        let res = run_trial(Summer::new(16), &g, &mut PinpointZero, TrialConfig { inject_step: 8, ..Default::default() }, &mut rng);
        // data[0] = 0.0 already, so zeroing it is bit-identical => Masked,
        // and the bitwise fast path alone proves it.
        assert_eq!(res.outcome, TrialOutcome::Masked);
        assert!(res.fast_compare, "masked trials classify via the fast path");
    }

    #[test]
    fn oob_cursor_becomes_crash_due() {
        struct HugeCursor;
        impl FaultApplicator for HugeCursor {
            fn apply(&mut self, vars: &mut [Variable<'_>], _: &mut StdRng) -> Option<InjectionDetail> {
                let v = &mut vars[1]; // "cursor"
                v.bytes.copy_from_slice(&u64::MAX.to_le_bytes());
                Some(InjectionDetail {
                    var_name: v.info.name.into(),
                    var_class: v.info.class,
                    frame: v.info.frame.label().into(),
                    thread: v.info.thread,
                    decl: String::new(),
                    elem_index: 0,
                    bits: vec![],
                    mechanism: "random".into(),
                })
            }
        }
        let _quiet = crate::panic_guard::silence_panics();
        let g = golden(16);
        let mut rng = fork(4, 0);
        let res = run_trial(Summer::new(16), &g, &mut HugeCursor, TrialConfig { inject_step: 4, ..Default::default() }, &mut rng);
        match res.outcome {
            TrialOutcome::Due(DueCause::Panic(msg)) => assert!(msg.contains("index out of bounds"), "{msg}"),
            other => panic!("expected crash DUE, got {other:?}"),
        }
    }

    #[test]
    fn stuck_cursor_becomes_timeout_due() {
        // A cursor pointing back to 0 re-executes forever (done stops
        // matching data.len() only via cursor; here `done` still advances —
        // so emulate a stuck step by resetting cursor below inject point and
        // relying on the watchdog max_steps).
        struct StuckCursor;
        impl FaultApplicator for StuckCursor {
            fn apply(&mut self, vars: &mut [Variable<'_>], _: &mut StdRng) -> Option<InjectionDetail> {
                let v = &mut vars[1];
                v.bytes.copy_from_slice(&0u64.to_le_bytes());
                Some(InjectionDetail {
                    var_name: v.info.name.into(),
                    var_class: v.info.class,
                    frame: v.info.frame.label().into(),
                    thread: v.info.thread,
                    decl: String::new(),
                    elem_index: 0,
                    bits: vec![],
                    mechanism: "zero".into(),
                })
            }
        }
        // Summer with `done` tied to cursor so resetting it loops forever.
        struct LoopySummer(Summer);
        impl FaultTarget for LoopySummer {
            fn name(&self) -> &'static str {
                "loopy"
            }
            fn total_steps(&self) -> usize {
                self.0.total_steps()
            }
            fn steps_executed(&self) -> usize {
                self.0.done
            }
            fn step(&mut self) -> StepOutcome {
                let i = self.0.cursor as usize;
                let prev = if i == 0 { 0.0 } else { self.0.acc[i - 1] };
                self.0.acc[i] = prev + self.0.data[i];
                self.0.cursor += 1;
                self.0.done += 1;
                if self.0.cursor as usize >= self.0.data.len() {
                    StepOutcome::Done
                } else {
                    StepOutcome::Continue
                }
            }
            fn state<'a>(&'a mut self, v: &mut dyn StateVisitor<'a>) -> ControlFlow<()> {
                self.0.state(v)
            }
            fn output(&self) -> Output {
                self.0.output()
            }
        }
        let _quiet = crate::panic_guard::silence_panics();
        let g = golden(16);
        let mut rng = fork(5, 0);
        let res = run_trial(
            LoopySummer(Summer::new(16)),
            &g,
            &mut StuckCursor,
            TrialConfig { inject_step: 8, watchdog_factor: 4.0 },
            &mut rng,
        );
        // Resetting cursor to 0 just recomputes the prefix (eventually Done)
        // — executed steps grow but finish under 4x. Output is recomputed
        // identically => Masked is acceptable; what we assert is that the
        // watchdog bound was respected and no hang occurred.
        assert!(res.executed_steps <= 4 * 16 + 1);
    }

    #[test]
    fn late_injection_watchdog_budget_covers_the_whole_run() {
        // Pins the watchdog accounting documented on
        // `TrialConfig::watchdog_factor`: pre-injection steps are charged
        // against `max_steps`, mirroring CAROL-FI's whole-run wall-clock
        // limit. Changing this would reclassify late-window timeout DUEs and
        // break bit-identity with journaled campaigns.
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
                if (self.done as u64) >= self.limit {
                    StepOutcome::Done
                } else {
                    StepOutcome::Continue
                }
            }
            fn state<'a>(&'a mut self, v: &mut dyn StateVisitor<'a>) -> ControlFlow<()> {
                v.scalar(VarInfo::local("limit", VarClass::ControlVariable, "loop", 0, file!(), line!()), &mut self.limit)
            }
            fn output(&self) -> Output {
                Output::F64Grid { dims: [1, 1, 1], data: vec![0.0] }
            }
        }
        struct MaxLimit;
        impl FaultApplicator for MaxLimit {
            fn apply(&mut self, vars: &mut [Variable<'_>], _: &mut StdRng) -> Option<InjectionDetail> {
                let v = &mut vars[0];
                v.bytes.copy_from_slice(&u64::MAX.to_le_bytes());
                Some(InjectionDetail {
                    var_name: v.info.name.into(),
                    var_class: v.info.class,
                    frame: v.info.frame.label().into(),
                    thread: v.info.thread,
                    decl: String::new(),
                    elem_index: 0,
                    bits: vec![],
                    mechanism: "test".into(),
                })
            }
        }
        let _quiet = crate::panic_guard::silence_panics();
        let g = Output::F64Grid { dims: [1, 1, 1], data: vec![0.0] };
        let mut rng = fork(9, 0);
        let res = run_trial(
            Endless { limit: 16, done: 0 },
            &g,
            &mut MaxLimit,
            TrialConfig { inject_step: 14, watchdog_factor: 4.0 },
            &mut rng,
        );
        assert_eq!(res.outcome, TrialOutcome::Due(DueCause::Timeout));
        // Budget is ceil(16 × 4.0) = 64 steps for the whole run: the 14
        // fault-free steps before the interrupt leave 50 of headroom after
        // it, not another full 64.
        assert_eq!(res.executed_steps, 64);
    }

    #[test]
    fn internal_crash_flag_becomes_due() {
        let _quiet = crate::panic_guard::silence_panics();
        let g = golden(16);
        struct MakeNegative;
        impl FaultApplicator for MakeNegative {
            fn apply(&mut self, vars: &mut [Variable<'_>], _: &mut StdRng) -> Option<InjectionDetail> {
                // Set data[15] = -1.0.
                let v = &mut vars[0];
                v.bytes[15 * 8..16 * 8].copy_from_slice(&(-1.0f64).to_le_bytes());
                Some(InjectionDetail {
                    var_name: v.info.name.into(),
                    var_class: v.info.class,
                    frame: v.info.frame.label().into(),
                    thread: None,
                    decl: String::new(),
                    elem_index: 15,
                    bits: vec![],
                    mechanism: "test".into(),
                })
            }
        }
        let mut s = Summer::new(16);
        s.crash_on_negative = true;
        let mut rng = fork(6, 0);
        let res = run_trial(s, &g, &mut MakeNegative, TrialConfig { inject_step: 4, ..Default::default() }, &mut rng);
        assert!(matches!(res.outcome, TrialOutcome::Due(DueCause::Panic(_))));
    }
}
