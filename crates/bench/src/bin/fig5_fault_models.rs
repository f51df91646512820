//! Figures 5a/5b — "The PVF of the benchmarks for the different fault
//! models."
//!
//! Per benchmark and per fault model (Single, Double, Random, Zero), the SDC
//! and DUE Program Vulnerability Factors of the injection campaign.

use bench::{injection_records, pvf_row, rule};
use carolfi::models::FaultModel;
use carolfi::record::TrialRecord;
use kernels::Benchmark;
use sdc_analysis::pvf::PvfKind;

fn print_table(kind: PvfKind, corpus: &[(Benchmark, Vec<TrialRecord>)]) {
    let title = match kind {
        PvfKind::Sdc => "Figure 5a — SDC PVF per fault model [%]",
        PvfKind::Due => "Figure 5b — DUE PVF per fault model [%]",
    };
    println!("{title}");
    print!("{:9}", "bench");
    for m in FaultModel::ALL {
        print!(" {:>8}", m.label());
    }
    println!();
    rule(9 + 9 * 4);
    for (b, records) in corpus {
        // The same row the campaign service persists in its result
        // documents — byte-comparable by construction.
        println!("{}", pvf_row(b.label(), records, kind));
    }
    rule(9 + 9 * 4);
    println!();
}

fn main() {
    let fig = bench::figure_setup();
    println!("Figures 5a/5b reproduction — fault-model PVFs");
    println!("trials/benchmark = {}, size = {:?}, seed = {}\n", fig.cfg.trials, fig.cfg.size, fig.cfg.seed);
    // One campaign per benchmark, shared by both tables and the telemetry
    // footer (a journal-backed campaign can only be opened once per run).
    let corpus: Vec<(Benchmark, Vec<TrialRecord>)> =
        Benchmark::ALL.into_iter().map(|b| (b, injection_records(b, &fig))).collect();
    print_table(PvfKind::Sdc, &corpus);
    print_table(PvfKind::Due, &corpus);
    println!("Paper shape targets: Zero model yields the lowest DUE everywhere (zeroed values are");
    println!("valid pointers/indices); DGEMM & LUD (algebraic class) show similar model profiles;");
    println!("NW: Zero ⇒ (almost) no SDCs, Single the highest SDC, Double/Random the highest DUE.");

    if fig.telemetry.is_some() {
        println!();
        for (b, records) in &corpus {
            // A report rebuilt from the records alone has no timing; it
            // still gives the per-model outcome counts behind the tables.
            print!("{}", carolfi::campaign::report_for(b.label(), records, 0, 0, 0));
        }
    }
    bench::print_telemetry(fig.telemetry);
}
