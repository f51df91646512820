//! Calibration diagnostics: per-class and per-model PVFs per benchmark.
//!
//! Usage: `diagnose [trials]` (default 1000 per benchmark); a malformed or
//! zero count exits 2. Size and seed are fixed: `PHI_SIZE` or `PHI_SEED`
//! set exits 2.
use carolfi::{run_campaign, CampaignConfig};
use kernels::{build, golden, Benchmark, SizeClass};
use sdc_analysis::pvf::{self, OutcomeBreakdown, PvfKind};

/// The campaigns' fixed seed.
const SEED: u64 = 42;

fn main() {
    bench::refuse_size_and_seed();
    let trials = bench::positive_or_exit(std::env::args().nth(1), "trials", 1000);
    let size = SizeClass::Small;
    println!("trials/benchmark = {trials}, size = {size:?}, seed = {SEED}");
    for b in Benchmark::ALL {
        let g = golden(b, size);
        let cfg = CampaignConfig { trials, seed: SEED, n_windows: b.n_windows(), ..Default::default() };
        let c = run_campaign(b.label(), || build(b, size), &g, &cfg);
        let bd = OutcomeBreakdown::of(&c.records);
        println!("=== {} masked={:.1}% sdc={:.1}% due={:.1}%", b, bd.masked_pct(), bd.sdc_pct(), bd.due_pct());
        let sdc_c = pvf::by_class(&c.records, PvfKind::Sdc);
        let due_c = pvf::by_class(&c.records, PvfKind::Due);
        for (class, p) in &sdc_c.groups {
            let d = due_c.get(*class).map(|p| p.percent()).unwrap_or(0.0);
            println!("   class {:12} n={:5} sdc={:5.1}% due={:5.1}%", class.label(), p.trials, p.percent(), d);
        }
        let sdc_m = pvf::by_model(&c.records, PvfKind::Sdc);
        let due_m = pvf::by_model(&c.records, PvfKind::Due);
        for (m, p) in &sdc_m.groups {
            let d = due_m.get(*m).map(|p| p.percent()).unwrap_or(0.0);
            println!("   model {:12} n={:5} sdc={:5.1}% due={:5.1}%", m.label(), p.trials, p.percent(), d);
        }
        let sdc_w = pvf::by_window(&c.records, PvfKind::Sdc);
        let due_w = pvf::by_window(&c.records, PvfKind::Due);
        let ws: Vec<String> = sdc_w.groups.iter().map(|(w, p)| {
            let d = due_w.get(*w).map(|p| p.percent()).unwrap_or(0.0);
            format!("w{w}:{:.0}/{:.0}", p.percent(), d)
        }).collect();
        println!("   windows sdc/due: {}", ws.join(" "));
    }
}
