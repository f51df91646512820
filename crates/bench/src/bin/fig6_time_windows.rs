//! Figures 6a/6b — "The dependence of the PVF of the benchmarks on the
//! execution time window."
//!
//! Per benchmark, the SDC/DUE PVF of each execution-time window (CLAMR: 9
//! windows; DGEMM & HotSpot: 5; LUD & NW: 4 — paper §6). As the paper notes,
//! these are per-window PVFs, not contributions, so rows can sum past 100%.

use bench::{injection_records, rule};
use carolfi::record::TrialRecord;
use kernels::Benchmark;
use sdc_analysis::pvf::{by_window, PvfKind};

/// The benchmarks shown in the paper's Fig. 6 (LavaMD is not plotted).
const FIG6: [Benchmark; 5] = [Benchmark::Clamr, Benchmark::Dgemm, Benchmark::Hotspot, Benchmark::Lud, Benchmark::Nw];

fn print_table(kind: PvfKind, corpus: &[(Benchmark, Vec<TrialRecord>)]) {
    let title = match kind {
        PvfKind::Sdc => "Figure 6a — SDC PVF per execution-time window [%]",
        PvfKind::Due => "Figure 6b — DUE PVF per execution-time window [%]",
    };
    println!("{title}");
    println!("{:9} w1 .. wN", "bench");
    rule(88);
    for (b, records) in corpus {
        let table = by_window(records, kind);
        let cells: Vec<String> = (0..b.n_windows())
            .map(|w| table.get(w).map(|p| format!("{:5.1}", p.percent())).unwrap_or_else(|| "    -".into()))
            .collect();
        println!("{:9} {}", b.label(), cells.join(" "));
    }
    rule(88);
    println!();
}

fn main() {
    let fig = bench::figure_setup();
    println!("Figures 6a/6b reproduction — time-window PVFs");
    println!("trials/benchmark = {}, size = {:?}, seed = {}\n", fig.cfg.trials, fig.cfg.size, fig.cfg.seed);
    // One campaign per benchmark, shared by both tables (a journal-backed
    // campaign can only be opened once per run).
    let corpus: Vec<(Benchmark, Vec<TrialRecord>)> =
        FIG6.into_iter().map(|b| (b, injection_records(b, &fig))).collect();
    print_table(PvfKind::Sdc, &corpus);
    print_table(PvfKind::Due, &corpus);
    println!("Paper shape targets: DGEMM SDC flat across windows with DUE lower at the start;");
    println!("CLAMR most sensitive around window 3 (active-cell maximum); LUD most critical");
    println!("mid-run; NW DUE lower in the first window while the wavefront is still small.");
    bench::print_telemetry(fig.telemetry);
}
