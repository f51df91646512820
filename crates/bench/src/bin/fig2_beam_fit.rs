//! Figure 2 — "Benchmarks FIT and spatial distribution."
//!
//! Regenerates the beam-experiment figure: per-benchmark SDC and DUE FIT
//! rates at sea level, with the SDC bar split into the five spatial error
//! patterns (cubic / square / line / single / random), plus the §4.2
//! machine-scale extrapolations (Trinity and 10× exascale).

use bench::{beam_campaign, rule};
use kernels::Benchmark;
use sdc_analysis::fit::MachineProjection;
use sdc_analysis::spatial::{self, SpatialPattern};

fn main() {
    let fig = bench::figure_setup();
    println!("Figure 2 reproduction — SDC/DUE FIT and spatial distribution (sea level)");
    println!("strikes/benchmark = {}, size = {:?}, seed = {}\n", fig.cfg.strikes, fig.cfg.size, fig.cfg.seed);
    println!(
        "{:9} {:>9} {:>9} {:>17} {:>8}   SDC split by pattern (FIT)",
        "bench", "SDC FIT", "DUE FIT", "SDC 95% CI", "multi%"
    );
    rule(110);

    let mut max_sdc_fit = 0.0f64;
    let mut max_sdc_bench = Benchmark::Clamr;
    let mut max_due_fit = 0.0f64;
    let mut max_due_bench = Benchmark::Clamr;

    let mut reports = Vec::new();
    for b in Benchmark::BEAM {
        let c = beam_campaign(b, &fig);
        if fig.telemetry.is_some() {
            reports.push(c.report.clone());
        }
        let sdc = c.fit_sdc();
        let due = c.fit_due();
        let iv = sdc.fit_interval();
        let summaries = c.sdc_summaries();
        let hist = spatial::histogram(summaries.iter().copied());
        let total_sdc = summaries.len().max(1);
        let split: Vec<String> = SpatialPattern::ALL
            .iter()
            .filter_map(|p| hist.get(p).map(|&n| format!("{}={:.1}", p.label(), sdc.fit() * n as f64 / total_sdc as f64)))
            .collect();
        let multi = summaries.iter().filter(|s| s.wrong > 1).count();
        println!(
            "{:9} {:9.1} {:9.1} [{:6.1}, {:6.1}] {:7.1}%   {}",
            b.label(),
            sdc.fit(),
            due.fit(),
            iv.lo,
            iv.hi,
            100.0 * multi as f64 / total_sdc as f64,
            split.join(" ")
        );
        if sdc.fit() > max_sdc_fit {
            max_sdc_fit = sdc.fit();
            max_sdc_bench = b;
        }
        if due.fit() > max_due_fit {
            max_due_fit = due.fit();
            max_due_bench = b;
        }
    }

    rule(110);
    println!("\n§4.2 machine-scale extrapolation (19,000 boards at sea level):");
    let sdc_proj = MachineProjection::trinity(max_sdc_fit);
    let due_proj = MachineProjection::trinity(max_due_fit);
    println!("  one {} SDC every {:5.1} days; one {} DUE every {:5.1} days", max_sdc_bench, sdc_proj.mtbf_days(), max_due_bench, due_proj.mtbf_days());
    let exa = sdc_proj.scaled(10);
    println!("  hypothetical exascale machine (10x boards): one SDC every {:4.1} days", exa.mtbf_days());
    println!("\nPaper shape targets: LUD & HotSpot highest SDC FIT (max ≈193); HotSpot highest DUE;");
    println!("DGEMM & LavaMD lowest DUE; CLAMR lowest SDC with SDC ≈ DUE; <10% single-element SDCs;");
    println!("cubic pattern only for LavaMD; Trinity-scale events every ~11-12 days.");

    if !reports.is_empty() {
        println!();
        for r in &reports {
            print!("{r}");
        }
    }
    bench::print_telemetry(fig.telemetry);
}
