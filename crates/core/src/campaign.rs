//! Campaign orchestration: thousands of supervised trials, in parallel,
//! deterministically.
//!
//! The paper injects "at least 10,000 faults into each of the selected
//! benchmarks" (§6) so the worst-case 95 % statistical error stays below
//! 1.96 %. A [`run_campaign`] call reproduces one benchmark's campaign:
//! trials are distributed round-robin over the four fault models, injection
//! times are sampled uniformly over the benchmark's step timeline, and every
//! trial runs under its own RNG stream so results do not depend on worker
//! scheduling.

use crate::models::{CarolFiApplicator, FaultModel};
use crate::orchestrator::{run_in_memory, TrialKind};
use crate::output::Output;
use crate::pool::{Ladder, TargetPool};
use crate::record::{DueKind, OutcomeRecord, TrialRecord};
use crate::select::VariableSelector;
use crate::supervisor::{run_trial_mut, TrialConfig, TrialOutcome};
use crate::target::FaultTarget;
use rand::rngs::StdRng;
use rand::Rng;
use store::CampaignMeta;

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Number of injections.
    pub trials: usize,
    /// Fault models to cycle through (defaults to all four).
    pub models: Vec<FaultModel>,
    /// Master seed; campaigns with equal seeds are bit-identical.
    pub seed: u64,
    /// Worker threads (0 ⇒ all available cores).
    pub workers: usize,
    /// Watchdog limit as a multiple of nominal steps.
    pub watchdog_factor: f64,
    /// Number of execution-time windows for the Fig. 6 analysis.
    pub n_windows: usize,
    /// Variable-selection policy.
    pub selector: VariableSelector,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            trials: 1000,
            models: FaultModel::ALL.to_vec(),
            seed: 0x00CA_01F1,
            workers: 0,
            watchdog_factor: 4.0,
            n_windows: 4,
            selector: VariableSelector::default(),
        }
    }
}

/// A completed campaign: per-trial records plus aggregate counters.
#[derive(Debug, Clone)]
pub struct Campaign {
    pub benchmark: String,
    pub records: Vec<TrialRecord>,
    /// Campaign-level gauges (throughput, utilization, outcome counts).
    /// Rate gauges are zero when the report was rebuilt from records alone.
    pub report: obs::CampaignReport,
}

/// Builds the campaign report from finished records, each counted under
/// [`TrialRecord::outcome_key`] (used by the engine and by callers holding
/// only the records, such as `fig5_fault_models`' telemetry tables; such
/// reports carry no timing).
pub fn report_for(benchmark: &str, records: &[TrialRecord], workers: usize, busy_ns: u64, wall_ns: u64) -> obs::CampaignReport {
    let mut builder = obs::ReportBuilder::new(benchmark, workers);
    for r in records {
        builder.record_outcome(r.outcome_key(), matches!(r.outcome, OutcomeRecord::Due(DueKind::Timeout)));
    }
    builder.add_busy_ns(busy_ns);
    builder.finish(wall_ns)
}

impl Campaign {
    /// (masked, sdc, due) counts — the Fig. 4 aggregates.
    pub fn outcome_counts(&self) -> (usize, usize, usize) {
        let mut masked = 0;
        let mut sdc = 0;
        let mut due = 0;
        for r in &self.records {
            match &r.outcome {
                OutcomeRecord::Masked | OutcomeRecord::HardwareMasked => masked += 1,
                OutcomeRecord::Sdc(_) => sdc += 1,
                OutcomeRecord::Due(_) => due += 1,
            }
        }
        (masked, sdc, due)
    }

    /// Fraction of trials with the given predicate outcome.
    pub fn fraction(&self, pred: impl Fn(&OutcomeRecord) -> bool) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().filter(|r| pred(&r.outcome)).count() as f64 / self.records.len() as f64
    }

    /// SDC fraction (the SDC PVF over the whole campaign).
    pub fn sdc_fraction(&self) -> f64 {
        self.fraction(OutcomeRecord::is_sdc)
    }

    /// DUE fraction.
    pub fn due_fraction(&self) -> f64 {
        self.fraction(OutcomeRecord::is_due)
    }

    /// Masked fraction.
    pub fn masked_fraction(&self) -> f64 {
        self.fraction(OutcomeRecord::is_masked)
    }
}

/// Assigns a step to one of `n_windows` equal-length time windows.
pub fn window_of(step: usize, total_steps: usize, n_windows: usize) -> usize {
    if total_steps == 0 || n_windows == 0 {
        return 0;
    }
    ((step * n_windows) / total_steps).min(n_windows - 1)
}

/// Trial `trial`'s record before it runs — every field its campaign-global
/// index fixes (fault model, injection step, time window), outcome still
/// `Masked` with nothing injected or executed — plus its fault model and
/// its RNG stream, positioned after the injection-time draw.
fn prepare(benchmark: &str, cfg: &CampaignConfig, total_steps: usize, trial: usize) -> (StdRng, FaultModel, TrialRecord) {
    let mut rng = crate::rng::fork(cfg.seed, trial as u64);
    let model = cfg.models[trial % cfg.models.len()];
    let inject_step = rng.gen_range(0..total_steps);
    let record = TrialRecord {
        trial,
        benchmark: benchmark.to_string(),
        model: Some(model),
        mechanism: model.label().to_string(),
        inject_step,
        total_steps,
        window: window_of(inject_step, total_steps, cfg.n_windows),
        n_windows: cfg.n_windows,
        injection: None,
        outcome: OutcomeRecord::Masked,
        executed_steps: 0,
    };
    (rng, model, record)
}

/// The (fault-model index, time-window) stratum of a trial, derived from
/// its campaign-global index *without executing it*: the same
/// `rng::fork(cfg.seed, trial)` fork, `trial % models.len()` model pick and
/// first `gen_range(0..total_steps)` draw that [`execute_trial`] performs.
/// This is what lets the adaptive planner stratify the whole trial horizon
/// up front while staying bit-compatible with the fixed-count campaign: a
/// trial keeps exactly the model and window it would have had anyway.
pub fn trial_stratum(cfg: &CampaignConfig, total_steps: usize, trial: usize) -> (usize, usize) {
    let mut rng = crate::rng::fork(cfg.seed, trial as u64);
    let model_idx = trial % cfg.models.len();
    let inject_step = rng.gen_range(0..total_steps);
    (model_idx, window_of(inject_step, total_steps, cfg.n_windows))
}

/// Executes one trial of the campaign described by `cfg` and returns its
/// record, plus whether the bitwise fast-path compare alone classified it
/// (telemetry for the campaign report; never part of the record).
///
/// `trial` is the trial's campaign-global index, which fully determines its
/// RNG stream (`rng::fork(cfg.seed, trial)`), its fault model
/// (`trial % models.len()`) and its injection time — the property the
/// sharded/resumable engine relies on to merge partial runs into an
/// aggregate bit-identical to the single-shot campaign. The target must
/// stand at step 0 and replays the fault-free prefix; pooled runners start
/// from the golden ladder instead ([`TrialKind::run`]), with the same record
/// bits. Like them it counts and announces nothing: the engine does, once,
/// for each record it accepts.
pub fn execute_trial<T: FaultTarget>(
    benchmark: &str,
    target: &mut T,
    golden: &Output,
    cfg: &CampaignConfig,
    total_steps: usize,
    trial: usize,
) -> (TrialRecord, bool) {
    Injection::new(benchmark, cfg).execute(target, None, golden, total_steps, trial)
}

/// The injection [`TrialKind`]: the trials of one CAROL-FI campaign over
/// `cfg` against `benchmark`, journaled under the `inject` kind tag.
#[derive(Debug, Clone, Copy)]
pub struct Injection<'a> {
    benchmark: &'a str,
    cfg: &'a CampaignConfig,
}

impl<'a> Injection<'a> {
    pub fn new(benchmark: &'a str, cfg: &'a CampaignConfig) -> Self {
        assert!(!cfg.models.is_empty(), "campaign needs at least one fault model");
        Injection { benchmark, cfg }
    }

    /// Runs trial `trial` on `target`, from the nearest rung of `ladder`
    /// (see [`run_trial_mut`]); the body of [`execute_trial`].
    fn execute<T: FaultTarget>(
        &self,
        target: &mut T,
        ladder: Option<&Ladder>,
        golden: &Output,
        total_steps: usize,
        trial: usize,
    ) -> (TrialRecord, bool) {
        let (benchmark, cfg) = (self.benchmark, self.cfg);
        let (mut rng, model, mut record) = prepare(benchmark, cfg, total_steps, trial);
        let mut applicator = CarolFiApplicator { model, selector: cfg.selector.clone() };
        let result = run_trial_mut(
            target,
            ladder,
            golden,
            &mut applicator,
            TrialConfig { inject_step: record.inject_step, watchdog_factor: cfg.watchdog_factor },
            &mut rng,
        );
        record.outcome = match result.outcome {
            TrialOutcome::Masked => OutcomeRecord::Masked,
            TrialOutcome::HardwareMasked => OutcomeRecord::HardwareMasked,
            TrialOutcome::Sdc(s) => OutcomeRecord::Sdc(s),
            TrialOutcome::Due(c) => OutcomeRecord::Due(c.into()),
        };
        record.injection = result.injection;
        record.executed_steps = result.executed_steps;
        (record, result.fast_compare)
    }
}

impl TrialKind for Injection<'_> {
    type Campaign = Campaign;

    fn meta(&self, shards: usize) -> CampaignMeta {
        CampaignMeta {
            kind: "inject".into(),
            benchmark: self.benchmark.into(),
            seed: self.cfg.seed,
            trials: self.cfg.trials,
            shards,
            n_windows: self.cfg.n_windows,
            version: store::journal::FORMAT_VERSION,
        }
    }

    fn workers(&self) -> usize {
        self.cfg.workers
    }

    fn run<T: FaultTarget, F: Fn() -> T>(
        &self,
        pool: &TargetPool<T, F>,
        golden: &Output,
        total_steps: usize,
        trial: usize,
    ) -> (TrialRecord, bool) {
        let (mut target, ladder) = pool.take();
        let out = self.execute(&mut target, ladder, golden, total_steps, trial);
        pool.release(target, out.0.outcome.is_due());
        out
    }

    fn synth_due(&self, total_steps: usize, trial: usize, kind: DueKind) -> TrialRecord {
        let (_, _, record) = prepare(self.benchmark, self.cfg, total_steps, trial);
        TrialRecord { outcome: OutcomeRecord::Due(kind), ..record }
    }

    fn finish(&self, records: Vec<TrialRecord>, report: obs::CampaignReport) -> Campaign {
        Campaign { benchmark: self.benchmark.to_string(), records, report }
    }
}

/// Runs an injection campaign in memory against targets built by `factory`
/// (see [`run_in_memory`]). `golden` must be the output of a fault-free run
/// of `factory()`.
pub fn run_campaign<T, F>(benchmark: &str, factory: F, golden: &Output, cfg: &CampaignConfig) -> Campaign
where
    T: FaultTarget,
    F: Fn() -> T + Sync,
{
    run_in_memory(&Injection::new(benchmark, cfg), factory, golden)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::{Snapshot, StateVisitor, StepOutcome, VarClass, VarInfo};
    use std::ops::ControlFlow;

    /// Tiny deterministic victim for campaign-level tests.
    struct Victim {
        data: Vec<u32>,
        ctrl: u64,
        done: usize,
    }
    impl Victim {
        fn new() -> Self {
            Victim { data: (0..64u32).collect(), ctrl: 0, done: 0 }
        }
    }
    impl FaultTarget for Victim {
        fn name(&self) -> &'static str {
            "victim"
        }
        fn total_steps(&self) -> usize {
            8
        }
        fn steps_executed(&self) -> usize {
            self.done
        }
        fn step(&mut self) -> StepOutcome {
            let base = (self.ctrl as usize) * 8; // corrupted ctrl => OOB
            for i in 0..8 {
                self.data[base + i] = self.data[base + i].wrapping_mul(3).wrapping_add(1);
            }
            self.ctrl += 1;
            self.done += 1;
            if self.done >= 8 {
                StepOutcome::Done
            } else {
                StepOutcome::Continue
            }
        }
        fn state<'a>(&'a mut self, v: &mut dyn StateVisitor<'a>) -> ControlFlow<()> {
            let Victim { data, ctrl, done } = self;
            v.scalar(None, done)?;
            v.slice(VarInfo::global("data", VarClass::Matrix, file!(), line!()), data)?;
            v.scalar(VarInfo::local("ctrl", VarClass::ControlVariable, "loop", 0, file!(), line!()), ctrl)
        }
        fn output(&self) -> Output {
            Output::I32Grid { dims: [8, 8, 1], data: self.data.iter().map(|&x| x as i32).collect() }
        }
        fn snapshot(&mut self) -> Option<Snapshot> {
            Some(Snapshot::capture(self))
        }
    }

    /// Trials that ended at a re-converged rung, counted by [`Counting`].
    static CONVERGED: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

    /// A [`Victim`] that counts its convergences into [`CONVERGED`]: a
    /// trial ends at its first one.
    struct Counting(Victim);
    impl FaultTarget for Counting {
        fn name(&self) -> &'static str {
            self.0.name()
        }
        fn total_steps(&self) -> usize {
            self.0.total_steps()
        }
        fn steps_executed(&self) -> usize {
            self.0.steps_executed()
        }
        fn step(&mut self) -> StepOutcome {
            self.0.step()
        }
        fn state<'a>(&'a mut self, v: &mut dyn StateVisitor<'a>) -> ControlFlow<()> {
            self.0.state(v)
        }
        fn output(&self) -> Output {
            self.0.output()
        }
        fn snapshot(&mut self) -> Option<Snapshot> {
            self.0.snapshot()
        }
        fn converged(&mut self, snapshot: &Snapshot) -> bool {
            let converged = self.0.converged(snapshot);
            CONVERGED.fetch_add(converged as u64, std::sync::atomic::Ordering::Relaxed);
            converged
        }
    }

    fn golden() -> Output {
        let mut v = Victim::new();
        while v.step() == StepOutcome::Continue {}
        v.output()
    }

    #[test]
    fn campaign_is_deterministic_across_worker_counts() {
        let g = golden();
        let mut cfg = CampaignConfig { trials: 64, seed: 99, ..Default::default() };
        cfg.workers = 1;
        let a = run_campaign("victim", Victim::new, &g, &cfg);
        cfg.workers = 4;
        let b = run_campaign("victim", Victim::new, &g, &cfg);
        assert_eq!(a.records.len(), b.records.len());
        for (ra, rb) in a.records.iter().zip(&b.records) {
            assert_eq!(ra.trial, rb.trial);
            assert_eq!(ra.model, rb.model);
            assert_eq!(ra.inject_step, rb.inject_step);
            assert_eq!(ra.outcome.label(), rb.outcome.label());
        }
    }

    #[test]
    fn campaign_produces_all_outcome_kinds() {
        let g = golden();
        let cfg = CampaignConfig { trials: 400, seed: 7, ..Default::default() };
        let c = run_campaign("victim", Victim::new, &g, &cfg);
        let (masked, sdc, due) = c.outcome_counts();
        assert_eq!(masked + sdc + due, 400);
        assert!(sdc > 0, "sdc={sdc}");
        assert!(due > 0, "due={due} (ctrl corruption should OOB)");
        assert!((c.sdc_fraction() + c.due_fraction() + c.masked_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn models_are_distributed_round_robin() {
        let g = golden();
        let cfg = CampaignConfig { trials: 40, seed: 1, ..Default::default() };
        let c = run_campaign("victim", Victim::new, &g, &cfg);
        for m in FaultModel::ALL {
            let n = c.records.iter().filter(|r| r.model == Some(m)).count();
            assert_eq!(n, 10);
        }
    }

    #[test]
    fn campaign_report_matches_records() {
        let g = golden();
        let cfg = CampaignConfig { trials: 100, seed: 7, workers: 4, ..Default::default() };
        let c = run_campaign("victim", Victim::new, &g, &cfg);
        assert_eq!(c.report.trials, 100);
        assert_eq!(c.report.label, "victim");
        assert!(c.report.wall_ns > 0);
        assert!(c.report.trials_per_sec() > 0.0);
        assert!(c.report.utilization() > 0.0);
        // Outcome keys aggregate to the same totals as the records.
        let (masked, sdc, due) = c.outcome_counts();
        let by_key = |suffix: &str| -> usize {
            c.report.outcomes.iter().filter(|(k, _)| k.ends_with(suffix)).map(|(_, n)| n).sum()
        };
        assert_eq!(by_key("/sdc"), sdc);
        assert_eq!(by_key("/due"), due);
        assert_eq!(by_key("/masked") + by_key("/hw-masked"), masked);
        let timeouts = c.records.iter().filter(|r| matches!(r.outcome, OutcomeRecord::Due(DueKind::Timeout))).count();
        assert_eq!(c.report.watchdog_fires, timeouts);
    }

    #[test]
    fn report_degrades_model_less_records_to_unknown_keys() {
        // Regression: `report_for` used to panic on records with
        // `model: None` (beam-shaped or hand-edited journals fed back
        // through parse_logs).
        let g = golden();
        let cfg = CampaignConfig { trials: 6, seed: 3, ..Default::default() };
        let mut records = run_campaign("victim", Victim::new, &g, &cfg).records;
        for r in &mut records {
            r.model = None;
        }
        let report = report_for("victim", &records, 1, 0, 0);
        assert_eq!(report.trials, 6);
        let unknown: usize = report.outcomes.iter().filter(|(k, _)| k.starts_with("unknown/")).map(|(_, n)| n).sum();
        assert_eq!(unknown, 6, "every model-less record lands under unknown/<outcome>: {:?}", report.outcomes);
    }

    #[test]
    fn pool_and_fastpath_gauges_account_for_every_trial() {
        let g = golden();
        let cfg = CampaignConfig { trials: 120, seed: 7, workers: 4, ..Default::default() };
        let c = run_campaign("victim", || Counting(Victim::new()), &g, &cfg);
        // Every trial acquires exactly one target.
        assert_eq!(c.report.pool_hits + c.report.pool_rebuilds, 120);
        assert!(c.report.pool_hits > 0, "snapshotting targets must be reused");
        // Every DUE drops its (possibly torn) instance, so the pool must
        // have rebuilt at least once per DUE, up to the instances still idle
        // at the end (bounded by the worker count plus the seeded probe).
        let dues = c.records.iter().filter(|r| r.outcome.is_due()).count() as u64;
        assert!(c.report.pool_rebuilds + 1 + 4 >= dues, "rebuilds {} vs dues {dues}", c.report.pool_rebuilds);
        // Every Masked outcome either re-converged to a golden rung, which
        // ends the trial before any compare, or is proven by the bitwise
        // fast path alone (HardwareMasked skips the compare entirely).
        let masked = c.records.iter().filter(|r| matches!(r.outcome, OutcomeRecord::Masked)).count() as u64;
        let converged = CONVERGED.load(std::sync::atomic::Ordering::Relaxed);
        assert!(converged > 0, "the victim's masked trials re-converge");
        assert_eq!(c.report.fast_path_compares + converged, masked);
        let shown = c.report.to_string();
        assert!(shown.contains("pool reuse"), "report display surfaces the pool gauges:\n{shown}");
    }

    #[test]
    fn jsonl_recorder_sees_every_trial_with_gapless_seq() {
        let g = golden();
        let buf = obs::SharedBuf::new();
        obs::install(std::sync::Arc::new(obs::JsonlRecorder::new(buf.clone())));
        let cfg = CampaignConfig { trials: 64, seed: 11, workers: 4, ..Default::default() };
        let c = run_campaign("victim-telemetry", Victim::new, &g, &cfg);
        if let Some(rec) = obs::uninstall() {
            drop(rec); // drop flushes
        }
        assert_eq!(c.records.len(), 64);

        #[derive(serde::Deserialize)]
        struct Line {
            seq: u64,
            kind: String,
            data: TrialRecord,
        }
        let text = String::from_utf8(buf.contents()).unwrap();
        let mut seqs = Vec::new();
        let mut mine = 0usize;
        for line in text.lines() {
            // Every line parses standalone; concurrent tests may interleave
            // their own trial events, so filter by benchmark for the count.
            let parsed: Line = serde_json::from_str(line).expect("torn JSONL line");
            assert_eq!(parsed.kind, "trial");
            seqs.push(parsed.seq);
            if parsed.data.benchmark == "victim-telemetry" {
                mine += 1;
            }
        }
        assert_eq!(mine, 64, "one event per trial");
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..seqs.len() as u64).collect::<Vec<_>>(), "seq numbers are gapless");
    }

    #[test]
    fn windows_partition_the_timeline() {
        assert_eq!(window_of(0, 8, 4), 0);
        assert_eq!(window_of(7, 8, 4), 3);
        assert_eq!(window_of(4, 8, 4), 2);
        assert_eq!(window_of(100, 8, 4), 3); // clamped
        for r in run_campaign("victim", Victim::new, &golden(), &CampaignConfig { trials: 32, ..Default::default() }).records {
            assert!(r.window < r.n_windows);
        }
    }
}
