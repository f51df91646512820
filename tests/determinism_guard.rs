//! The determinism guard for the trial hot path.
//!
//! Target pooling (`FaultTarget::restore` instead of `factory()` per
//! trial), the golden snapshot ladder (a trial starts from the nearest
//! golden rung instead of step 0), the masked early exit (a trial whose
//! state re-converges to a golden rung ends there) and the bitwise
//! fast-path compare are pure performance work: they must not change a
//! single bit of any record. This suite pins that invariant:
//!
//! * a pooled, laddered campaign at `workers = 1` equals one at
//!   `workers = 8` equals a hand-rolled factory-per-trial loop that replays
//!   from step 0 and runs every trial to the end, bit for bit in serialized
//!   form, for every benchmark, injection and beam campaigns alike, with
//!   every kernel ending some trials early;
//! * the fast path (`Output::bits_equal`) agrees with the elementwise
//!   `mismatches()` scan on *equality* for arbitrary buffers, including NaN
//!   payloads and signed zeros (proptest).

use phi_reliability::beamsim::campaign::engine_for;
use phi_reliability::beamsim::{run_beam_campaign, BeamConfig, Strikes};
use phi_reliability::carolfi::campaign::execute_trial;
use phi_reliability::carolfi::fuel::Fuel;
use phi_reliability::carolfi::{
    run_campaign, run_stored, CampaignConfig, Executor, FaultTarget, Injection, IsolateConfig, Output, Snapshot,
    StepOutcome, StoreConfig, TargetPool, TrialKind, TrialRecord,
};
use phi_reliability::carolfi::target::StateVisitor;
use phi_reliability::kernels::{build, golden, Benchmark, SizeClass};
use proptest::prelude::*;
use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn to_json(records: &[TrialRecord]) -> Vec<String> {
    records.iter().map(|r| serde_json::to_string(r).expect("record serializes")).collect()
}

/// A kernel that counts, into `converged`, the trials that ended at a
/// re-converged rung: a trial ends at its first convergence.
struct Watched {
    inner: Box<dyn FaultTarget>,
    converged: Arc<AtomicUsize>,
}

impl FaultTarget for Watched {
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
        self.inner.step()
    }
    fn run_until(&mut self, step_bound: usize, fuel: &mut Fuel) -> StepOutcome {
        self.inner.run_until(step_bound, fuel)
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
    fn converged(&mut self, snapshot: &Snapshot) -> bool {
        let converged = self.inner.converged(snapshot);
        self.converged.fetch_add(converged as usize, Ordering::Relaxed);
        converged
    }
}

/// A kernel that does not opt into snapshots: a pool builds a fresh one for
/// every trial, which replays its prefix from step 0 and runs to the end.
struct Bare(Box<dyn FaultTarget>);

impl FaultTarget for Bare {
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
    fn run_until(&mut self, step_bound: usize, fuel: &mut Fuel) -> StepOutcome {
        self.0.run_until(step_bound, fuel)
    }
    fn state<'a>(&'a mut self, v: &mut dyn StateVisitor<'a>) -> ControlFlow<()> {
        self.0.state(v)
    }
    fn output(&self) -> Output {
        self.0.output()
    }
}

#[test]
fn pooled_campaigns_are_bit_identical_for_any_worker_count() {
    for b in Benchmark::ALL {
        let g = golden(b, SizeClass::Test);
        let cfg1 = CampaignConfig { trials: 60, seed: 29, workers: 1, n_windows: b.n_windows(), ..Default::default() };
        let cfg8 = CampaignConfig { workers: 8, ..cfg1.clone() };
        let one = run_campaign(b.label(), || build(b, SizeClass::Test), &g, &cfg1);
        let eight = run_campaign(b.label(), || build(b, SizeClass::Test), &g, &cfg8);
        assert_eq!(to_json(&one.records), to_json(&eight.records), "{b}: worker count changed the records");
        assert!(one.report.pool_hits > 0, "{b}: pooling never engaged");
    }
}

#[test]
fn pooled_records_match_a_factory_per_trial_loop() {
    // The seed's semantics: a fresh `factory()` target per trial, replaying
    // its prefix from step 0 and running to the end. Pooled, laddered
    // trials, some ending early at a re-converged rung, must reproduce
    // those records exactly — the contract `FaultTarget::restore` and
    // `FaultTarget::converged` are held to.
    for b in Benchmark::ALL {
        let g = golden(b, SizeClass::Test);
        let cfg = CampaignConfig { trials: 60, seed: 29, workers: 4, n_windows: b.n_windows(), ..Default::default() };
        let converged = Arc::new(AtomicUsize::new(0));
        let watched = || Watched { inner: build(b, SizeClass::Test), converged: converged.clone() };
        let pooled = run_campaign(b.label(), watched, &g, &cfg);

        let total_steps = build(b, SizeClass::Test).total_steps().max(1);
        let fresh: Vec<TrialRecord> = (0..cfg.trials)
            .map(|trial| {
                let mut target = build(b, SizeClass::Test);
                execute_trial(b.label(), &mut target, &g, &cfg, total_steps, trial).0
            })
            .collect();
        assert_eq!(to_json(&pooled.records), to_json(&fresh), "{b}: pooling changed the records");
        assert!(converged.load(Ordering::Relaxed) > 0, "{b}: no trial ended early, so the pin shows nothing");
    }
}

#[test]
fn pooled_beam_records_match_a_factory_per_trial_loop() {
    // The same pin for beam strikes: most are benign and never execute, so
    // the campaigns are larger.
    for b in Benchmark::BEAM {
        let g = golden(b, SizeClass::Test);
        let cfg = BeamConfig {
            strikes: 400,
            seed: 29,
            workers: 4,
            n_windows: b.n_windows(),
            engine: engine_for(b.label()),
            ..Default::default()
        };
        let converged = Arc::new(AtomicUsize::new(0));
        let watched = || Watched { inner: build(b, SizeClass::Test), converged: converged.clone() };
        let pooled = run_beam_campaign(b.label(), watched, &g, &cfg);

        let total_steps = build(b, SizeClass::Test).total_steps().max(1);
        let bare = TargetPool::new(|| Bare(build(b, SizeClass::Test)));
        let kind = Strikes::new(b.label(), &cfg);
        let fresh: Vec<TrialRecord> = {
            let _quiet = phi_reliability::carolfi::panic_guard::silence_panics();
            (0..cfg.strikes).map(|strike| kind.run(&bare, &g, total_steps, strike, 0, false).0).collect()
        };
        assert_eq!(bare.hits(), 0, "{b}: every reference strike ran on a fresh target");
        assert_eq!(to_json(&pooled.records), to_json(&fresh), "{b}: pooling changed the beam records");
        assert!(converged.load(Ordering::Relaxed) > 0, "{b}: no strike ended early, so the pin shows nothing");
    }
}

/// Worker entry for the isolated-campaign pin below: when this test binary
/// is re-exec'd by a warden (socket env set) it serves real kernel trials by
/// global index; in an ordinary test run it is a no-op. Spec format (CSV,
/// since this crate keeps records opaque): `<benchmark>,<seed>,<trials>`.
#[test]
fn isolated_worker_entry() {
    let Some(spec) = phi_reliability::carolfi::warden::worker_spec() else { return };
    let mut parts = spec.split(',');
    let label = parts.next().expect("spec benchmark").to_string();
    let seed: u64 = parts.next().expect("spec seed").parse().expect("spec seed");
    let trials: usize = parts.next().expect("spec trials").parse().expect("spec trials");
    let b = Benchmark::from_label(&label).expect("spec names a known benchmark");
    let cfg = CampaignConfig { trials, seed, n_windows: b.n_windows(), ..Default::default() };
    let g = golden(b, SizeClass::Test);
    let total_steps = build(b, SizeClass::Test).total_steps().max(1);
    let result = phi_reliability::carolfi::warden::serve(|trial, _attempt| {
        let mut target = build(b, SizeClass::Test);
        execute_trial(b.label(), &mut target, &g, &cfg, total_steps, trial).0
    });
    std::process::exit(if result.is_ok() { 0 } else { 1 });
}

#[test]
fn isolated_campaigns_are_bit_identical_to_in_process() {
    // Process isolation (`--isolate`) is pure supervision: for well-behaved
    // victims not a single bit of any record may change — the same contract
    // pooling and the fast-path compare are held to above.
    for b in [Benchmark::Hotspot, Benchmark::Dgemm] {
        let g = golden(b, SizeClass::Test);
        let cfg = CampaignConfig { trials: 40, seed: 29, workers: 2, n_windows: b.n_windows(), ..Default::default() };
        let in_process = run_campaign(b.label(), || build(b, SizeClass::Test), &g, &cfg);

        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/test-determinism-isolated").join(b.label());
        let _ = std::fs::remove_dir_all(&dir);
        let mut sc = StoreConfig::new(dir);
        sc.shards = 2;
        let mut iso = IsolateConfig::new(
            std::env::current_exe().expect("test binary path"),
            vec!["isolated_worker_entry".into(), "--exact".into(), "--test-threads=1".into(), "--nocapture".into()],
            format!("{},{},{}", b.label(), cfg.seed, cfg.trials),
        );
        iso.backoff_base = std::time::Duration::from_millis(1);
        iso.backoff_cap = std::time::Duration::from_millis(10);
        let isolated = run_stored(&Injection::new(b.label(), &cfg), || build(b, SizeClass::Test), Executor::Warden(&iso), &sc)
            .expect("isolated campaign runs")
            .expect_complete();
        assert_eq!(to_json(&in_process.records), to_json(&isolated.records), "{b}: process isolation changed the records");
    }
}

proptest! {
    #[test]
    fn fast_path_equality_agrees_with_mismatch_scan_f64(
        bits_a in proptest::collection::vec(any::<u64>(), 1..40),
        flip in any::<bool>(),
        flip_at in any::<usize>(),
        flip_bit in 0u32..64,
    ) {
        // Arbitrary u64 bit patterns reinterpreted as f64 cover NaN payloads,
        // infinities, signed zeros and subnormals.
        let data_a: Vec<f64> = bits_a.iter().map(|&b| f64::from_bits(b)).collect();
        let mut data_b = data_a.clone();
        if flip {
            let i = flip_at % data_b.len();
            data_b[i] = f64::from_bits(data_b[i].to_bits() ^ (1u64 << flip_bit));
        }
        let dims = [data_a.len(), 1, 1];
        let a = Output::F64Grid { dims, data: data_a };
        let b = Output::F64Grid { dims, data: data_b };
        prop_assert_eq!(a.bits_equal(&b), b.mismatches(&a).is_empty());
        prop_assert_eq!(b.bits_equal(&a), a.mismatches(&b).is_empty());
    }

    #[test]
    fn fast_path_equality_agrees_with_mismatch_scan_f32(
        bits_a in proptest::collection::vec(any::<u32>(), 1..40),
        flip in any::<bool>(),
        flip_at in any::<usize>(),
        flip_bit in 0u32..32,
    ) {
        // f32 grids have a 4-byte element, exercising the non-multiple-of-8
        // tail of the wordwise comparison.
        let data_a: Vec<f32> = bits_a.iter().map(|&b| f32::from_bits(b)).collect();
        let mut data_b = data_a.clone();
        if flip {
            let i = flip_at % data_b.len();
            data_b[i] = f32::from_bits(data_b[i].to_bits() ^ (1u32 << flip_bit));
        }
        let dims = [data_a.len(), 1, 1];
        let a = Output::F32Grid { dims, data: data_a };
        let b = Output::F32Grid { dims, data: data_b };
        prop_assert_eq!(a.bits_equal(&b), b.mismatches(&a).is_empty());
    }

    #[test]
    fn fast_path_equality_agrees_with_mismatch_scan_i32(
        data_a in proptest::collection::vec(any::<i32>(), 1..40),
        flip in any::<bool>(),
        flip_at in any::<usize>(),
        flip_bit in 0u32..32,
    ) {
        let mut data_b = data_a.clone();
        if flip {
            let i = flip_at % data_b.len();
            data_b[i] ^= 1i32 << flip_bit;
        }
        let dims = [data_a.len(), 1, 1];
        let a = Output::I32Grid { dims, data: data_a };
        let b = Output::I32Grid { dims, data: data_b };
        prop_assert_eq!(a.bits_equal(&b), b.mismatches(&a).is_empty());
    }
}
