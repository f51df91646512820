//! End-to-end integration tests for the CAROL-FI injection pipeline:
//! kernels → injector → records → analysis, spanning every workspace crate.

use phi_reliability::carolfi::{run_campaign, Campaign, CampaignConfig};
use phi_reliability::kernels::{build, golden, Benchmark, SizeClass};
use phi_reliability::sdc_analysis::pvf::{by_model, by_window, OutcomeBreakdown, PvfKind};

fn mini_campaign(b: Benchmark, trials: usize, seed: u64) -> Campaign {
    let g = golden(b, SizeClass::Test);
    let cfg = CampaignConfig { trials, seed, n_windows: b.n_windows(), ..Default::default() };
    run_campaign(b.label(), || build(b, SizeClass::Test), &g, &cfg)
}

#[test]
fn every_benchmark_survives_a_campaign() {
    for b in Benchmark::ALL {
        let c = mini_campaign(b, 120, 17);
        assert_eq!(c.records.len(), 120, "{b}");
        let (m, s, d) = c.outcome_counts();
        assert_eq!(m + s + d, 120, "{b}");
        // Every benchmark must show at least some masking and some harm.
        assert!(m > 0, "{b}: nothing masked");
        assert!(s + d > 0, "{b}: nothing harmful in 120 trials");
    }
}

#[test]
fn campaigns_are_deterministic_per_seed() {
    let a = mini_campaign(Benchmark::Hotspot, 80, 5);
    let b = mini_campaign(Benchmark::Hotspot, 80, 5);
    for (x, y) in a.records.iter().zip(&b.records) {
        assert_eq!(x.outcome, y.outcome);
        assert_eq!(x.inject_step, y.inject_step);
    }
    let c = mini_campaign(Benchmark::Hotspot, 80, 6);
    let differs = a.records.iter().zip(&c.records).any(|(x, y)| x.outcome != y.outcome || x.inject_step != y.inject_step);
    assert!(differs, "different seeds must differ");
}

#[test]
fn dgemm_is_the_least_masked_benchmark() {
    // Paper Fig. 4: "the majority of injected faults are masked during
    // computation (except for DGEMM)".
    let masked: Vec<(Benchmark, f64)> = Benchmark::ALL
        .into_iter()
        .map(|b| {
            let c = mini_campaign(b, 500, 23);
            (b, c.masked_fraction())
        })
        .collect();
    let dgemm = masked.iter().find(|(b, _)| *b == Benchmark::Dgemm).expect("present").1;
    for &(b, frac) in &masked {
        if b != Benchmark::Dgemm {
            assert!(frac > dgemm - 0.02, "{b} masked {frac} should exceed dgemm {dgemm}");
        }
    }
}

#[test]
fn zero_model_suppresses_dues() {
    // Paper Fig. 5b: "the Zero model provides lower DUE" — zeroed pointers
    // and indices are valid.
    use phi_reliability::carolfi::models::FaultModel;
    let mut zero_due = 0.0;
    let mut other_due = 0.0;
    for b in [Benchmark::Dgemm, Benchmark::Lud, Benchmark::Nw] {
        let c = mini_campaign(b, 600, 31);
        let due = by_model(&c.records, PvfKind::Due);
        zero_due += due.get(FaultModel::Zero).map(|p| p.percent()).unwrap_or(0.0);
        other_due += due.get(FaultModel::Random).map(|p| p.percent()).unwrap_or(0.0);
    }
    assert!(zero_due < other_due, "zero {zero_due} vs random {other_due}");
}

#[test]
fn records_roundtrip_through_the_log_format() {
    let c = mini_campaign(Benchmark::Lavamd, 60, 41);
    // One JSON line per record, the public-repository log format.
    let log: String = c.records.iter().map(|r| serde_json::to_string(r).expect("write") + "\n").collect();
    let back: Vec<phi_reliability::carolfi::record::TrialRecord> =
        log.lines().map(|line| serde_json::from_str(line).expect("read")).collect();
    assert_eq!(back.len(), c.records.len());
    for (x, y) in c.records.iter().zip(&back) {
        // NaN-carrying mismatch samples break bitwise PartialEq; compare the
        // structure instead.
        assert_eq!(x.outcome.label(), y.outcome.label());
        if let (
            phi_reliability::carolfi::record::OutcomeRecord::Sdc(a),
            phi_reliability::carolfi::record::OutcomeRecord::Sdc(b),
        ) = (&x.outcome, &y.outcome)
        {
            assert_eq!(a.wrong, b.wrong);
            assert_eq!(a.distinct, b.distinct);
            assert_eq!(a.max_rel_err.to_bits(), b.max_rel_err.to_bits());
        }
        assert_eq!(x.mechanism, y.mechanism);
        assert_eq!(x.window, y.window);
    }
}

#[test]
fn analysis_tables_cover_all_records() {
    let c = mini_campaign(Benchmark::Clamr, 300, 53);
    let bd = OutcomeBreakdown::of(&c.records);
    assert_eq!(bd.trials, 300);
    let windows = by_window(&c.records, PvfKind::Sdc);
    let total: usize = windows.groups.values().map(|p| p.trials).sum();
    assert_eq!(total, 300, "window grouping must partition the records");
    for w in windows.groups.keys() {
        assert!(*w < Benchmark::Clamr.n_windows());
    }
}

#[test]
fn watchdog_and_crash_dues_both_occur_in_the_wild() {
    use phi_reliability::carolfi::record::{DueKind, OutcomeRecord};
    let mut crash = 0;
    let mut _timeout = 0;
    for b in [Benchmark::Dgemm, Benchmark::Clamr, Benchmark::Nw] {
        let c = mini_campaign(b, 700, 61);
        for r in &c.records {
            match &r.outcome {
                OutcomeRecord::Due(DueKind::Crash { .. }) => crash += 1,
                OutcomeRecord::Due(DueKind::Timeout) => _timeout += 1,
                _ => {}
            }
        }
    }
    assert!(crash > 0, "no crash DUEs in 2100 trials");
}
