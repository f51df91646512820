//! Trial hot path — pins the three per-trial optimisations this repo makes
//! over a naive CAROL-FI reproduction:
//!
//! * **Pooled targets**: `TargetPool::acquire` serves a recycled instance
//!   via an in-place `FaultTarget::restore` of the pristine snapshot (a
//!   handful of `memcpy`s) instead of a full `factory()` reconstruction
//!   (allocations + RNG input regeneration). The `provisioning/*` pair
//!   isolates that ratio; the `full_trial/{factory_per_trial,pooled}` pair
//!   shows what it buys end to end.
//! * **Golden snapshot ladder**: a laddered trial restores the pool's
//!   highest golden rung at or below its injection step instead of
//!   replaying the fault-free prefix from step 0. The
//!   `full_trial/{laddered,replayed}` pair injects late (HotSpot at Test,
//!   step 19 of 20), where the prefix is nearly the whole run.
//! * **Masked early exit**: a laddered trial whose state re-converges to a
//!   golden rung after its fault ends there instead of running the golden
//!   suffix. The `full_trial/{converged,run_to_end}` pair runs the same
//!   early HotSpot trial (a fault that changes nothing, at step 2 of 20)
//!   from the pool's ladder, on the kernel and on a wrapper whose
//!   `converged` is always false and so runs to the end. The compare
//!   checks the one-element fields before the arrays and stops at the first
//!   difference: the JSON's `mismatch_compare_speedup` times `converged` on
//!   a HotSpot Test target equal to a rung over the same call with one
//!   control scalar flipped, the compare every SDC, DUE and not yet
//!   re-converged trial pays at each later rung.
//! * **Bitwise fast-path compare**: `Output::bits_equal` classifies the
//!   (overwhelmingly common) masked outcome with a chunked `u64` word scan,
//!   only falling back to the elementwise `mismatches()` walk — which
//!   allocates coordinates and computes relative errors — on inequality.
//! * **Direct record codec**: `serde_json::to_string` writes a record's
//!   JSON straight to a buffer instead of lowering it to a content tree
//!   and rendering that. The `record_codec/{direct,tree}` pair encodes a
//!   fixed record mix both ways.
//! * **HotSpot's pristine-control pass**: `run_until` sweeps the grid in
//!   one pass while the control state is one a clean run could have. The
//!   JSON's `stencil_speedup` times a fault-free HotSpot Test run by a
//!   `step()` loop over the same run by `run_until`.
//! * **Table-driven quantizer**: `sig6_f32` rounds to 6 significant digits
//!   without libm calls. The JSON's `quantize_speedup` times the formula
//!   (`sig_digits_f32(v, 6)`) over `sig6_f32` on one HotSpot Test output.
//!
//! With `TRIAL_HOT_PATH_JSON=<path>`, a machine-readable baseline
//! (`pooled`/`factory`/`laddered` trials-per-second, the compare timings,
//! and the ladder, codec, early-exit, mismatch-compare, stencil and
//! quantizer speedups) is written after the criterion run — `./ci` uses
//! this to track the speedup.

use beamsim::campaign::engine_for;
use beamsim::{run_beam_campaign, BeamConfig};
use carolfi::fuel::Fuel;
use carolfi::supervisor::{run_trial, run_trial_mut, TrialConfig};
use carolfi::target::{FaultTarget, Snapshot, StateVisitor, StepOutcome, Variable};
use carolfi::{run_campaign, CampaignConfig, InjectionDetail, Output, TargetPool, TrialRecord};
use criterion::{criterion_group, Criterion};
use kernels::hotspot::{Hotspot, HotspotParams};
use kernels::quantize::{sig6_f32, sig_digits_f32};
use kernels::{build, golden, Benchmark, SizeClass};
use std::hint::black_box;
use std::ops::ControlFlow;
use std::time::Instant;

/// Applies a fault that changes nothing (flips a bit twice), so every trial
/// runs to completion and classifies Masked — the dominant, hot outcome.
struct NullFault;
impl carolfi::models::FaultApplicator for NullFault {
    fn apply(&mut self, vars: &mut [Variable<'_>], _: &mut rand::rngs::StdRng) -> Option<InjectionDetail> {
        let v = &mut vars[0];
        v.bytes[0] ^= 1;
        v.bytes[0] ^= 1;
        Some(InjectionDetail {
            var_name: v.info.name.into(),
            var_class: v.info.class,
            frame: v.info.frame.label().into(),
            thread: v.info.thread,
            decl: String::new(),
            elem_index: 0,
            bits: vec![],
            mechanism: "null".into(),
        })
    }
}

const BENCH: Benchmark = Benchmark::Dgemm;

fn bench_provisioning(c: &mut Criterion) {
    let mut group = c.benchmark_group("provisioning");
    group.sample_size(30);

    group.bench_function("factory_build", |bench| {
        bench.iter(|| black_box(build(BENCH, SizeClass::Test).total_steps()));
    });

    group.bench_function("pooled_reset", |bench| {
        let pool = TargetPool::new(|| build(BENCH, SizeClass::Test));
        pool.seed(build(BENCH, SizeClass::Test));
        bench.iter(|| {
            let t = pool.acquire();
            let steps = t.total_steps();
            pool.release(t, false);
            black_box(steps)
        });
    });
    group.finish();
}

fn run_one_pooled<F: Fn() -> Box<dyn FaultTarget>>(pool: &TargetPool<Box<dyn FaultTarget>, F>, gold: &carolfi::Output) -> usize {
    let mut rng = carolfi::rng::fork(1, 0);
    let mut target = pool.acquire();
    let r = run_trial_mut(&mut target, None, gold, &mut NullFault, TrialConfig { inject_step: 2, ..Default::default() }, &mut rng);
    pool.release(target, false);
    r.executed_steps
}

/// The late-injection pair's benchmark and injection step: HotSpot at Test
/// runs 20 steps, so a fault at step 19 follows a 19-step fault-free prefix.
const LATE: Benchmark = Benchmark::Hotspot;
const LATE_STEP: usize = 19;

/// One late-injection trial on a pooled target, from the pool's golden
/// ladder or replaying the prefix from step 0.
fn run_one_late<F: Fn() -> Box<dyn FaultTarget>>(pool: &TargetPool<Box<dyn FaultTarget>, F>, gold: &carolfi::Output, laddered: bool) -> usize {
    let mut rng = carolfi::rng::fork(1, 0);
    let cfg = TrialConfig { inject_step: LATE_STEP, ..Default::default() };
    let (mut target, ladder) = if laddered { pool.take() } else { (pool.acquire(), None) };
    let r = run_trial_mut(&mut target, ladder, gold, &mut NullFault, cfg, &mut rng);
    pool.release(target, false);
    r.executed_steps
}

fn late_pool() -> TargetPool<Box<dyn FaultTarget>, impl Fn() -> Box<dyn FaultTarget>> {
    let pool = TargetPool::new(|| build(LATE, SizeClass::Test));
    pool.seed(build(LATE, SizeClass::Test));
    pool
}

/// The early-exit pair's injection step: HotSpot at Test has a rung at
/// step 2, so a fault there that changes nothing re-converges at once.
const EARLY_STEP: usize = 2;

/// A kernel with every method forwarded but `converged`, which is always
/// false, so each trial runs to the end: the early exit's reference.
struct RunToEnd(Box<dyn FaultTarget>);

impl FaultTarget for RunToEnd {
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
    fn snapshot(&mut self) -> Option<Snapshot> {
        self.0.snapshot()
    }
    fn converged(&mut self, _: &Snapshot) -> bool {
        false
    }
}

fn run_to_end_pool() -> TargetPool<RunToEnd, impl Fn() -> RunToEnd> {
    let pool = TargetPool::new(|| RunToEnd(build(LATE, SizeClass::Test)));
    pool.seed(RunToEnd(build(LATE, SizeClass::Test)));
    pool
}

/// One early-injection trial from the pool's golden ladder.
fn run_one_early<T: FaultTarget, F: Fn() -> T>(pool: &TargetPool<T, F>, gold: &Output) -> usize {
    let mut rng = carolfi::rng::fork(1, 0);
    let cfg = TrialConfig { inject_step: EARLY_STEP, ..Default::default() };
    let (mut target, ladder) = pool.take();
    let r = run_trial_mut(&mut target, ladder, gold, &mut NullFault, cfg, &mut rng);
    pool.release(target, false);
    r.executed_steps
}

fn run_one_factory(gold: &carolfi::Output) -> usize {
    let mut rng = carolfi::rng::fork(1, 0);
    let r = run_trial(build(BENCH, SizeClass::Test), gold, &mut NullFault, TrialConfig { inject_step: 2, ..Default::default() }, &mut rng);
    r.executed_steps
}

fn bench_full_trial(c: &mut Criterion) {
    let gold = golden(BENCH, SizeClass::Test);
    let mut group = c.benchmark_group("full_trial");
    group.sample_size(20);

    group.bench_function("factory_per_trial", |bench| {
        bench.iter(|| black_box(run_one_factory(&gold)));
    });

    group.bench_function("pooled", |bench| {
        let pool = TargetPool::new(|| build(BENCH, SizeClass::Test));
        pool.seed(build(BENCH, SizeClass::Test));
        bench.iter(|| black_box(run_one_pooled(&pool, &gold)));
    });

    let late_gold = golden(LATE, SizeClass::Test);
    for (name, laddered) in [("laddered", true), ("replayed", false)] {
        group.bench_function(name, |bench| {
            let pool = late_pool();
            bench.iter(|| black_box(run_one_late(&pool, &late_gold, laddered)));
        });
    }
    group.bench_function("converged", |bench| {
        let pool = late_pool();
        bench.iter(|| black_box(run_one_early(&pool, &late_gold)));
    });
    group.bench_function("run_to_end", |bench| {
        let pool = run_to_end_pool();
        bench.iter(|| black_box(run_one_early(&pool, &late_gold)));
    });
    group.finish();
}

fn bench_compare(c: &mut Criterion) {
    // Two bit-identical outputs: the masked case both compare paths must
    // classify. The fast path scans u64 words; the elementwise walk decodes
    // every scalar and checks its bits.
    let gold = golden(BENCH, SizeClass::Test);
    let same = golden(BENCH, SizeClass::Test);
    let mut group = c.benchmark_group("compare");
    group.sample_size(30);

    group.bench_function("fast_path_bits_equal", |bench| {
        bench.iter(|| black_box(same.bits_equal(&gold)));
    });

    group.bench_function("elementwise_scan", |bench| {
        bench.iter(|| black_box(same.mismatches(&gold).is_empty()));
    });
    group.finish();
}

/// The codec pair's record mix: a Test-size DGEMM injection campaign and a
/// HotSpot beam campaign at a fixed seed.
fn codec_records() -> Vec<TrialRecord> {
    let (dgemm, hotspot) = (Benchmark::Dgemm, Benchmark::Hotspot);
    let inject =
        CampaignConfig { trials: 120, seed: 2017, workers: 1, n_windows: dgemm.n_windows(), ..Default::default() };
    let gold = golden(dgemm, SizeClass::Test);
    let mut records = run_campaign(dgemm.label(), || build(dgemm, SizeClass::Test), &gold, &inject).records;
    let beam = BeamConfig {
        strikes: 200,
        seed: 2017,
        workers: 1,
        n_windows: hotspot.n_windows(),
        engine: engine_for(hotspot.label()),
        ..Default::default()
    };
    let gold = golden(hotspot, SizeClass::Test);
    records.extend(run_beam_campaign(hotspot.label(), || build(hotspot, SizeClass::Test), &gold, &beam).records);
    records
}

/// Encodes every record directly (`serde_json::to_string`) or through the
/// content-tree reference; returns the bytes written.
fn encode_all(records: &[TrialRecord], direct: bool) -> usize {
    records
        .iter()
        .map(|r| {
            if direct {
                serde_json::to_string(r).expect("records serialize").len()
            } else {
                let mut out = String::new();
                serde::__private::write_content(&mut out, &serde::__private::to_content(r).expect("records lower"));
                out.len()
            }
        })
        .sum()
}

fn bench_record_codec(c: &mut Criterion) {
    let records = codec_records();
    let mut group = c.benchmark_group("record_codec");
    group.sample_size(20);
    for (name, direct) in [("direct", true), ("tree", false)] {
        group.bench_function(name, |bench| bench.iter(|| black_box(encode_all(&records, direct))));
    }
    group.finish();
}

/// Wall-clock trials/sec over `n` trials for the JSON baseline.
fn measure_trials_per_sec(n: usize, pooled: bool) -> f64 {
    let gold = golden(BENCH, SizeClass::Test);
    let pool = TargetPool::new(|| build(BENCH, SizeClass::Test));
    pool.seed(build(BENCH, SizeClass::Test));
    let start = Instant::now();
    for _ in 0..n {
        if pooled {
            black_box(run_one_pooled(&pool, &gold));
        } else {
            black_box(run_one_factory(&gold));
        }
    }
    n as f64 / start.elapsed().as_secs_f64()
}

/// Wall-clock late-injection trials/sec over `n` laddered trials.
fn measure_laddered_trials_per_sec(n: usize) -> f64 {
    let gold = golden(LATE, SizeClass::Test);
    let pool = late_pool();
    let start = Instant::now();
    for _ in 0..n {
        black_box(run_one_late(&pool, &gold, true));
    }
    n as f64 / start.elapsed().as_secs_f64()
}

/// Runs `h` from the pristine snapshot to the end, by `run_until` or by a
/// `step()` loop.
fn run_hotspot(h: &mut Hotspot, pristine: &Snapshot, run_until: bool) -> bool {
    h.restore(pristine);
    if run_until {
        h.run_until(usize::MAX, &mut Fuel::new(u64::MAX)) == StepOutcome::Done
    } else {
        while h.step() == StepOutcome::Continue {}
        true
    }
}

/// Quantizes every value with `q`; the XOR of the results' bits keeps the
/// work observable.
fn quantize_all(values: &[f32], q: impl Fn(f32) -> f32) -> bool {
    values.iter().fold(0u32, |acc, &v| acc ^ q(v).to_bits()) != 1
}

fn time_ns<F: FnMut() -> bool>(n: usize, mut f: F) -> f64 {
    let start = Instant::now();
    for _ in 0..n {
        black_box(f());
    }
    start.elapsed().as_secs_f64() * 1e9 / n as f64
}

fn emit_json(path: &str) {
    let trials = 200;
    let factory_tps = measure_trials_per_sec(trials, false);
    let pooled_tps = measure_trials_per_sec(trials, true);
    let laddered_tps = measure_laddered_trials_per_sec(trials);

    // Provisioning in isolation: what a trial pays before its first step, a
    // factory build and a pooled reset alternated within one run like the
    // ladder pair below. Full-trial speedup is Amdahl-bounded by the
    // provisioning fraction (build is 3–18% of a Test-size trial), so this
    // is the ratio pooling is pinned on; the trials/sec pair above reports
    // the end-to-end gain. A reset is about 1/8 of a build, so it repeats
    // more often per round to weigh about as much.
    let pool = TargetPool::new(|| build(BENCH, SizeClass::Test));
    pool.seed(build(BENCH, SizeClass::Test));
    let reset = || {
        let t = pool.acquire();
        let steps = t.total_steps();
        pool.release(t, false);
        steps > 0
    };
    let (mut build_ns, mut reset_ns) = (0.0, 0.0);
    for _ in 0..200 {
        build_ns += time_ns(1, || build(BENCH, SizeClass::Test).total_steps() > 0) / 200.0;
        reset_ns += time_ns(8, &reset) / 200.0;
    }

    let gold = golden(BENCH, SizeClass::Test);
    let same = golden(BENCH, SizeClass::Test);
    let fast_ns = time_ns(2000, || same.bits_equal(&gold));
    let scan_ns = time_ns(2000, || same.mismatches(&gold).is_empty());

    // The late-injection trial from the pool's ladder and replayed from
    // step 0, alternated within one run, so the ratio holds however fast
    // the host happens to be. A laddered trial is about 1/4 of a replayed
    // one, so it repeats more often per round to weigh about as much.
    let late_gold = golden(LATE, SizeClass::Test);
    let late = late_pool();
    let (mut laddered_ns, mut replayed_ns) = (0.0, 0.0);
    for _ in 0..100 {
        laddered_ns += time_ns(4, || run_one_late(&late, &late_gold, true) > 0);
        replayed_ns += time_ns(1, || run_one_late(&late, &late_gold, false) > 0);
    }
    // Both encodes of the same mix, alternated within one run like the
    // ladder pair.
    let records = codec_records();
    let (mut direct_ns, mut tree_ns) = (0.0, 0.0);
    for _ in 0..50 {
        direct_ns += time_ns(1, || encode_all(&records, true) > 0);
        tree_ns += time_ns(1, || encode_all(&records, false) > 0);
    }
    // The same early trial ending at its re-converged rung and running to
    // the end, alternated within one run like the codec pair. A converged
    // trial is about 1/50 of one run to the end, so it repeats more often
    // per round to weigh about as much in the wall clock.
    let (early, to_end) = (late_pool(), run_to_end_pool());
    let (mut converged_ns, mut run_to_end_ns) = (0.0, 0.0);
    for _ in 0..100 {
        converged_ns += time_ns(32, || run_one_early(&early, &late_gold) > 0);
        run_to_end_ns += time_ns(2, || run_one_early(&to_end, &late_gold) > 0);
    }
    // `converged` on a HotSpot Test target standing at its rung at step 10
    // and on the same target with one bit of thread 0's `iter_local`
    // flipped, alternated within one run. The mismatch stops at that
    // control scalar, well before the arrays, so it repeats more often per
    // round.
    let mut rung_target = Hotspot::new(HotspotParams::test());
    rung_target.run_until(10, &mut Fuel::new(u64::MAX));
    let rung = rung_target.snapshot().expect("hotspot snapshots");
    let iter_local = rung_target
        .variables()
        .iter()
        .position(|v| v.info.name == "iter_local" && v.info.thread == Some(0))
        .expect("thread 0 declares iter_local");
    let (mut matching_ns, mut mismatching_ns) = (0.0, 0.0);
    for _ in 0..200 {
        matching_ns += time_ns(8, || rung_target.converged(&rung));
        rung_target.variables()[iter_local].bytes[0] ^= 1;
        mismatching_ns += time_ns(64, || !rung_target.converged(&rung));
        rung_target.variables()[iter_local].bytes[0] ^= 1;
    }
    // A fault-free HotSpot Test run by a `step()` loop and by `run_until`,
    // which takes the pristine-control pass on every step, alternated
    // within one run. The pass is about 1/4 of the loop, so it repeats
    // more often per round.
    let mut hot = Hotspot::new(HotspotParams::test());
    let start = hot.snapshot().expect("hotspot snapshots");
    let (mut stepped_ns, mut run_until_ns) = (0.0, 0.0);
    for _ in 0..200 {
        stepped_ns += time_ns(1, || run_hotspot(&mut hot, &start, false));
        run_until_ns += time_ns(4, || run_hotspot(&mut hot, &start, true));
    }
    // The formula and the table quantizer on one HotSpot Test output, its
    // unquantized final grid, alternated like the stencil pair.
    let grid = Hotspot::reference(HotspotParams::test());
    let (mut formula_ns, mut table_ns) = (0.0, 0.0);
    for _ in 0..200 {
        formula_ns += time_ns(1, || quantize_all(&grid, |v| sig_digits_f32(v, 6)));
        table_ns += time_ns(3, || quantize_all(&grid, sig6_f32));
    }
    let body = format!(
        "{{\n  \"benchmark\": \"{}\",\n  \"size\": \"test\",\n  \"trials\": {},\n  \
         \"factory_trials_per_sec\": {:.3},\n  \"pooled_trials_per_sec\": {:.3},\n  \
         \"pooled_speedup\": {:.3},\n  \"factory_build_ns\": {:.1},\n  \
         \"pooled_reset_ns\": {:.1},\n  \"provisioning_speedup\": {:.3},\n  \
         \"fast_path_compare_ns\": {:.1},\n  \
         \"elementwise_scan_ns\": {:.1},\n  \"compare_speedup\": {:.3},\n  \
         \"laddered_trials_per_sec\": {:.3},\n  \"ladder_speedup\": {:.3},\n  \
         \"codec_speedup\": {:.3},\n  \"early_exit_speedup\": {:.3},\n  \
         \"mismatch_compare_speedup\": {:.3},\n  \
         \"stencil_speedup\": {:.3},\n  \"quantize_speedup\": {:.3}\n}}\n",
        BENCH.label(),
        trials,
        factory_tps,
        pooled_tps,
        pooled_tps / factory_tps,
        build_ns,
        reset_ns,
        build_ns / reset_ns,
        fast_ns,
        scan_ns,
        scan_ns / fast_ns,
        laddered_tps,
        replayed_ns / laddered_ns,
        tree_ns / direct_ns,
        run_to_end_ns / converged_ns,
        matching_ns / mismatching_ns,
        stepped_ns / run_until_ns,
        formula_ns / table_ns,
    );
    std::fs::write(path, body).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("trial_hot_path baseline written to {path}");
}

criterion_group!(benches, bench_provisioning, bench_full_trial, bench_compare, bench_record_codec);

fn main() {
    benches();
    if let Ok(path) = std::env::var("TRIAL_HOT_PATH_JSON") {
        emit_json(&path);
    }
}
