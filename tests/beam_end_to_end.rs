//! End-to-end integration tests for the beam-experiment pipeline:
//! device model → strike effects → kernels → FIT/spatial analysis, and the
//! beam kind on the campaign engine's stored, resumed and isolated
//! backends.

use phi_reliability::beamsim::campaign::{engine_for, mca_from_records};
use phi_reliability::beamsim::{run_beam_campaign, BeamCampaign, BeamConfig, Strikes};
use phi_reliability::carolfi::{run_stored, Executor, FaultTarget, IsolateConfig, StoreConfig, StoredRun, TrialKind};
use phi_reliability::kernels::{build, golden, Benchmark, SizeClass};
use phi_reliability::sdc_analysis::spatial::{self, SpatialPattern};
use phi_reliability::sdc_analysis::tolerance::{paper_tolerances, ToleranceCurve};
use std::path::PathBuf;

fn mini_beam(b: Benchmark, strikes: usize, seed: u64) -> BeamCampaign {
    let g = golden(b, SizeClass::Test);
    let cfg = BeamConfig { strikes, seed, n_windows: b.n_windows(), engine: engine_for(b.label()), ..Default::default() };
    run_beam_campaign(b.label(), || build(b, SizeClass::Test), &g, &cfg)
}

#[test]
fn all_beam_benchmarks_produce_finite_fit() {
    for b in Benchmark::BEAM {
        let c = mini_beam(b, 500, 71);
        let sdc = c.fit_sdc().fit();
        let due = c.fit_due().fit();
        assert!(sdc.is_finite() && sdc >= 0.0, "{b}");
        assert!(due.is_finite() && due >= 0.0, "{b}");
        assert!(c.error_rate_per_strike() < 0.6, "{b}: too many strikes become errors");
    }
}

#[test]
fn cubic_patterns_appear_only_for_lavamd() {
    // Paper §4.3: "LavaMD is the only benchmark working with three
    // dimensional simulations, it is the only one that can exhibit a cubic
    // error pattern."
    for b in Benchmark::BEAM {
        let c = mini_beam(b, 1200, 73);
        let hist = spatial::histogram(c.sdc_summaries());
        let cubic = hist.get(&SpatialPattern::Cubic).copied().unwrap_or(0);
        if b == Benchmark::Lavamd {
            assert!(cubic > 0, "lavamd should show cubic patterns");
        } else {
            assert_eq!(cubic, 0, "{b} cannot be cubic (2-D output)");
        }
    }
}

#[test]
fn multi_element_sdcs_dominate_for_stencil_codes() {
    // Paper §2.1/§4.3: well under half of corrupted executions have a
    // single wrong element; iterative codes spread errors.
    for b in [Benchmark::Hotspot, Benchmark::Clamr] {
        let c = mini_beam(b, 1500, 79);
        let summaries = c.sdc_summaries();
        if summaries.len() < 20 {
            continue;
        }
        let single = summaries.iter().filter(|s| s.wrong == 1).count();
        assert!(
            (single as f64) < 0.3 * summaries.len() as f64,
            "{b}: {single}/{} single-element SDCs",
            summaries.len()
        );
    }
}

#[test]
fn ecc_absorbs_cache_strikes() {
    let c = mini_beam(Benchmark::Dgemm, 1000, 83);
    // With ~50 of 100 area weight on SECDED caches and a low double-bit
    // rate, corrected events must dominate machine checks.
    assert!(c.mca.corrected_count() > 10 * c.mca.uncorrectable_count().max(1) / 2);
}

#[test]
fn tolerance_curves_are_monotone_for_every_benchmark() {
    for b in Benchmark::BEAM {
        let c = mini_beam(b, 800, 89);
        let summaries = c.sdc_summaries();
        let curve = ToleranceCurve::from_summaries(b.label(), summaries.iter().copied(), &paper_tolerances());
        let red = curve.fit_reduction_percent();
        for w in red.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "{b}: non-monotone {red:?}");
        }
    }
}

#[test]
fn beam_campaigns_are_deterministic() {
    let a = mini_beam(Benchmark::Hotspot, 300, 97);
    let b = mini_beam(Benchmark::Hotspot, 300, 97);
    assert_eq!(a.fit_sdc().events, b.fit_sdc().events);
    assert_eq!(a.fit_due().events, b.fit_due().events);
}

#[test]
fn ecc_off_ablation_raises_the_error_rate() {
    // DESIGN.md ablation: "FIT contribution of protected arrays".
    use phi_reliability::phidev::resources::ResourceInventory;
    use phi_reliability::phidev::strike::{StrikeEngine, StrikeTuning};
    let g = golden(Benchmark::Lud, SizeClass::Test);
    let on = mini_beam(Benchmark::Lud, 1200, 101);
    let cfg_off = BeamConfig {
        strikes: 1200,
        seed: 101,
        n_windows: 4,
        engine: StrikeEngine::new(ResourceInventory::knc3120a_ecc_off(), StrikeTuning::default()),
        ..Default::default()
    };
    let off = run_beam_campaign("lud", || build(Benchmark::Lud, SizeClass::Test), &g, &cfg_off);
    assert!(
        off.error_rate_per_strike() > on.error_rate_per_strike(),
        "ECC off ({}) must beat ECC on ({})",
        off.error_rate_per_strike(),
        on.error_rate_per_strike()
    );
}

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/test-beam-e2e").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn sharded_beam_campaign_matches_single_shot_including_mca() {
    let b = Benchmark::Dgemm;
    let g = golden(b, SizeClass::Test);
    let cfg = BeamConfig { strikes: 240, seed: 11, n_windows: b.n_windows(), ..Default::default() };
    let single = run_beam_campaign(b.label(), || build(b, SizeClass::Test), &g, &cfg);

    let mut sc = StoreConfig::new(tmp("shards-5"));
    sc.shards = 5;
    let stored = run_stored(&Strikes::new(b.label(), &cfg), || build(b, SizeClass::Test), Executor::Pool(&g), &sc)
        .unwrap()
        .expect_complete();
    assert_eq!(single.records.len(), stored.records.len());
    for (x, y) in single.records.iter().zip(&stored.records) {
        assert_eq!(x.trial, y.trial);
        assert_eq!(x.mechanism, y.mechanism);
        assert_eq!(x.outcome, y.outcome);
    }
    assert_eq!(single.mca.events(), stored.mca.events(), "MCA log must survive the journal round-trip");
    assert_eq!(single.report.outcomes, stored.report.outcomes);
}

#[test]
fn interrupted_beam_campaign_resumes_bit_identically() {
    let b = Benchmark::Nw;
    let g = golden(b, SizeClass::Test);
    let cfg = BeamConfig { strikes: 150, seed: 3, n_windows: b.n_windows(), ..Default::default() };
    let uninterrupted = run_beam_campaign(b.label(), || build(b, SizeClass::Test), &g, &cfg);

    let mut sc = StoreConfig::new(tmp("interrupt"));
    sc.shards = 3;
    sc.checkpoint_every = 10;
    sc.budget = Some(40);
    let mut rounds = 0;
    let stored = loop {
        rounds += 1;
        assert!(rounds < 30, "campaign never completed");
        match run_stored(&Strikes::new(b.label(), &cfg), || build(b, SizeClass::Test), Executor::Pool(&g), &sc).unwrap() {
            StoredRun::Complete(c) => break c,
            StoredRun::Paused { .. } => sc.resume = true,
        }
    };
    assert!(rounds > 1, "budget of 40/150 should pause at least once");
    assert_eq!(uninterrupted.records.len(), stored.records.len());
    for (x, y) in uninterrupted.records.iter().zip(&stored.records) {
        assert_eq!(x.mechanism, y.mechanism);
        assert_eq!(x.inject_step, y.inject_step);
        assert_eq!(x.outcome, y.outcome);
    }
    assert_eq!(uninterrupted.mca.events(), stored.mca.events());
}

/// Worker entry for the isolated beam test below: when spawned by a warden
/// (socket env set) it serves real strike-executions by global index,
/// aborting on the scripted strike; as an ordinary test run it is a no-op.
/// Spec format: `<mode>,<seed>,<strikes>`.
#[test]
fn beam_isolated_worker_entry() {
    let Some(spec) = phi_reliability::carolfi::warden::worker_spec() else { return };
    let mut parts = spec.split(',');
    let mode = parts.next().unwrap().to_string();
    let seed: u64 = parts.next().unwrap().parse().unwrap();
    let strikes: usize = parts.next().unwrap().parse().unwrap();
    let b = Benchmark::Dgemm;
    let cfg = BeamConfig { strikes, seed, n_windows: b.n_windows(), ..Default::default() };
    let g = golden(b, SizeClass::Test);
    let factory = || build(b, SizeClass::Test);
    let probe = factory();
    let total_steps = probe.total_steps().max(1);
    let pool = phi_reliability::carolfi::TargetPool::new(&factory);
    pool.seed(probe);
    let abort_on: Option<usize> = mode.strip_prefix("abort-").map(|n| n.parse().unwrap());
    let kind = Strikes::new(b.label(), &cfg);
    let result = phi_reliability::carolfi::warden::serve(|strike, attempt| {
        if abort_on == Some(strike) {
            std::process::abort();
        }
        kind.run(&pool, &g, total_steps, strike, attempt, false).0
    });
    std::process::exit(if result.is_ok() { 0 } else { 1 });
}

#[test]
fn isolated_beam_campaign_matches_in_process_and_quarantines_deaths() {
    use phi_reliability::carolfi::record::{DueKind, OutcomeRecord};
    let b = Benchmark::Dgemm;
    let g = golden(b, SizeClass::Test);
    let cfg = BeamConfig { strikes: 60, seed: 11, workers: 2, n_windows: b.n_windows(), ..Default::default() };
    let reference = run_beam_campaign(b.label(), || build(b, SizeClass::Test), &g, &cfg);

    let mut sc = StoreConfig::new(tmp("isolated"));
    sc.shards = 2;
    let mut iso = IsolateConfig::new(
        std::env::current_exe().expect("test binary path"),
        vec!["beam_isolated_worker_entry".into(), "--exact".into(), "--test-threads=1".into(), "--nocapture".into()],
        format!("abort-7,{},{}", cfg.seed, cfg.strikes),
    );
    iso.backoff_base = std::time::Duration::from_millis(1);
    iso.backoff_cap = std::time::Duration::from_millis(10);

    let stored = run_stored(&Strikes::new(b.label(), &cfg), || build(b, SizeClass::Test), Executor::Warden(&iso), &sc)
        .unwrap()
        .expect_complete();
    assert_eq!(stored.records.len(), cfg.strikes);
    assert_eq!(stored.records[7].outcome, OutcomeRecord::Due(DueKind::Signal { signo: 6 }), "SIGABRT strike");
    for (x, y) in reference.records.iter().zip(&stored.records) {
        assert_eq!(x.trial, y.trial);
        assert_eq!(x.mechanism, y.mechanism, "strike identity is deterministic even for quarantined strikes");
        assert_eq!(x.inject_step, y.inject_step);
        if x.trial != 7 {
            assert_eq!(x.outcome, y.outcome, "strike {}", x.trial);
        }
    }
    // MCA reconstruction rests only on mechanism labels, which survive
    // quarantine, so it must match the in-process log.
    assert_eq!(stored.mca.events(), mca_from_records(&cfg.engine, &reference.records).events());
}
