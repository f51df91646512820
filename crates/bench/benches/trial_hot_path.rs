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
//! * **Bitwise fast-path compare**: `Output::bits_equal` classifies the
//!   (overwhelmingly common) masked outcome with a chunked `u64` word scan,
//!   only falling back to the elementwise `mismatches()` walk — which
//!   allocates coordinates and computes relative errors — on inequality.
//!
//! With `TRIAL_HOT_PATH_JSON=<path>`, a machine-readable baseline
//! (`pooled`/`factory`/`laddered` trials-per-second and the compare
//! timings) is written after the criterion run — `./ci` uses this to track
//! the speedup.

use carolfi::supervisor::{run_trial, run_trial_mut, TrialConfig};
use carolfi::target::{FaultTarget, Variable};
use carolfi::{InjectionDetail, TargetPool};
use criterion::{criterion_group, Criterion};
use kernels::{build, golden, Benchmark, SizeClass};
use std::hint::black_box;
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

    // Provisioning in isolation: what a trial pays before its first step.
    // Full-trial speedup is Amdahl-bounded by the provisioning fraction
    // (build is 3–18% of a Test-size trial), so this is the ratio pooling
    // is pinned on; the trials/sec pair above reports the end-to-end gain.
    let build_ns = {
        let start = Instant::now();
        for _ in 0..200 {
            black_box(build(BENCH, SizeClass::Test).total_steps());
        }
        start.elapsed().as_secs_f64() * 1e9 / 200.0
    };
    let reset_ns = {
        let pool = TargetPool::new(|| build(BENCH, SizeClass::Test));
        pool.seed(build(BENCH, SizeClass::Test));
        let start = Instant::now();
        for _ in 0..200 {
            let t = pool.acquire();
            black_box(t.total_steps());
            pool.release(t, false);
        }
        start.elapsed().as_secs_f64() * 1e9 / 200.0
    };

    let gold = golden(BENCH, SizeClass::Test);
    let same = golden(BENCH, SizeClass::Test);
    let fast_ns = time_ns(2000, || same.bits_equal(&gold));
    let scan_ns = time_ns(2000, || same.mismatches(&gold).is_empty());
    let body = format!(
        "{{\n  \"benchmark\": \"{}\",\n  \"size\": \"test\",\n  \"trials\": {},\n  \
         \"factory_trials_per_sec\": {:.3},\n  \"pooled_trials_per_sec\": {:.3},\n  \
         \"pooled_speedup\": {:.3},\n  \"factory_build_ns\": {:.1},\n  \
         \"pooled_reset_ns\": {:.1},\n  \"provisioning_speedup\": {:.3},\n  \
         \"fast_path_compare_ns\": {:.1},\n  \
         \"elementwise_scan_ns\": {:.1},\n  \"compare_speedup\": {:.3},\n  \
         \"laddered_trials_per_sec\": {:.3}\n}}\n",
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
    );
    std::fs::write(path, body).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("trial_hot_path baseline written to {path}");
}

criterion_group!(benches, bench_provisioning, bench_full_trial, bench_compare);

fn main() {
    benches();
    if let Ok(path) = std::env::var("TRIAL_HOT_PATH_JSON") {
        emit_json(&path);
    }
}
