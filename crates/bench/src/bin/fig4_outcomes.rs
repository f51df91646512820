//! Figure 4 — "Outcomes of fault injections."
//!
//! Regenerates the Masked / SDC / DUE percentage per benchmark over the
//! CAROL-FI injection campaign (≥10,000 faults per benchmark at paper
//! scale; the default harness size uses PHI_TRIALS injections).
//!
//! With `--store <dir>` the campaigns run sharded against a durable
//! journal and can be interrupted and resumed (`--resume`); see
//! README "Resumable campaigns". `--telemetry` prints the counter/span
//! footer (merged across `--isolate` workers); `--monitor <socket>` serves
//! live status for `phi-top` (README "Live monitoring").

use bench::{injection_records, rule};
use kernels::Benchmark;
use sdc_analysis::pvf::OutcomeBreakdown;
use sdc_analysis::stats::normal_margin95;

fn main() {
    let fig = bench::figure_setup();
    println!("Figure 4 reproduction — outcomes of fault injections");
    println!("trials/benchmark = {}, size = {:?}, seed = {}\n", fig.cfg.trials, fig.cfg.size, fig.cfg.seed);
    println!("{:9} {:>9} {:>9} {:>9} {:>12}", "bench", "masked%", "SDC%", "DUE%", "±95% (worst)");
    rule(54);
    for b in Benchmark::ALL {
        let records = injection_records(b, &fig);
        let bd = OutcomeBreakdown::of(&records);
        let margin = normal_margin95(0.5, bd.trials) * 100.0;
        println!("{:9} {:9.1} {:9.1} {:9.1} {:11.2}%", b.label(), bd.masked_pct(), bd.sdc_pct(), bd.due_pct(), margin);
    }
    rule(54);
    println!("\nPaper shape targets: majority masked for every benchmark except DGEMM (≈40%);");
    println!("LavaMD the most masked (≈85%); CLAMR & HotSpot ≈75%; LUD & NW balanced SDC/DUE.");
    bench::print_telemetry(fig.telemetry);
}
