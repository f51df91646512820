//! §7 future-work validation: run the *same* injection campaign against the
//! plain benchmarks and against their DWC-control-hardened versions, and
//! measure what the mitigation buys.
//!
//! Expected effect (and what the §6 analysis predicts): control-variable
//! faults that previously caused SDCs, wild crashes or watchdog timeouts
//! become immediate, attributable *detections* (DUEs with a DWC message —
//! recoverable by checkpoint/restart); data-class faults are untouched, so
//! the SDC rate drops by roughly the control class's SDC share while the
//! masked fraction stays put.

use carolfi::record::{DueKind, OutcomeRecord};
use carolfi::{run_campaign, Campaign, CampaignConfig};
use kernels::{build, golden, Benchmark, SizeClass};
use mitigation::dwc_target::{DwcControls, DWC_DETECTION};
use sdc_analysis::pvf::OutcomeBreakdown;

fn summarise(c: &Campaign) -> (f64, f64, f64, f64) {
    let bd = OutcomeBreakdown::of(&c.records);
    let detected = c
        .records
        .iter()
        .filter(|r| matches!(&r.outcome, OutcomeRecord::Due(DueKind::Crash { message }) if message.contains(DWC_DETECTION)))
        .count();
    (bd.masked_pct(), bd.sdc_pct(), bd.due_pct(), 100.0 * detected as f64 / bd.trials as f64)
}

fn control_sdc_share(c: &Campaign) -> f64 {
    let ctrl_sdc = c
        .records
        .iter()
        .filter(|r| {
            r.outcome.is_sdc()
                && r.injection.as_ref().map(|i| i.var_class == carolfi::target::VarClass::ControlVariable).unwrap_or(false)
        })
        .count();
    100.0 * ctrl_sdc as f64 / c.records.len() as f64
}

fn main() {
    let trials = bench::positive_env("PHI_TRIALS", 2500);
    let size = SizeClass::Small;
    println!("Hardening validation — DWC on control variables (paper §6 recommendation, §7 future work)");
    println!("trials/benchmark = {trials}\n");
    println!(
        "{:9} {:>9} {:>7} {:>7} {:>7} {:>10} | {:>7} {:>7} {:>7} {:>10}",
        "bench", "variant", "masked", "SDC", "DUE", "detected", "masked", "SDC", "DUE", "detected"
    );
    bench::rule(100);
    for b in [Benchmark::Dgemm, Benchmark::Lud, Benchmark::Hotspot] {
        let g = golden(b, size);
        let cfg = CampaignConfig { trials, seed: 77, n_windows: b.n_windows(), ..Default::default() };
        let plain = run_campaign(b.label(), || build(b, size), &g, &cfg);
        let hardened = run_campaign(b.label(), || DwcControls::new(build(b, size)), &g, &cfg);
        let (pm, ps, pd, pdet) = summarise(&plain);
        let (hm, hs, hd, hdet) = summarise(&hardened);
        println!(
            "{:9} plain → DWC: {:6.1} {:6.1} {:6.1} {:9.1}% | {:6.1} {:6.1} {:6.1} {:9.1}%",
            b.label(),
            pm,
            ps,
            pd,
            pdet,
            hm,
            hs,
            hd,
            hdet
        );
        println!(
            "{:9}   control-SDC contribution: {:4.1}% → {:4.1}%",
            "",
            control_sdc_share(&plain),
            control_sdc_share(&hardened)
        );
    }
    bench::rule(100);
    println!("\nReading: the hardened column's 'detected' DUEs carry the DWC signature and are");
    println!("recoverable by restart; the control class's silent-corruption contribution collapses");
    println!("to zero. Note the over-detection cost: DWC cannot tell live control state from dead");
    println!("cursors, so faults that would have been masked also trip the comparator — the");
    println!("classic detection-vs-availability trade-off selective hardening navigates.");
}
