//! §6 in-text per-variable-class table.
//!
//! The paper grades each benchmark's variable classes by criticality:
//! DGEMM matrices 43% SDC / 19% DUE vs control 38% / 38%; CLAMR Sort 39/43,
//! Tree 20/41, other mesh 33/28; HotSpot control+constants ≈30/40; LavaMD's
//! charge+distance arrays responsible for 57% of SDCs and 11% of DUEs;
//! LUD matrices 54/28, control 24/36. This binary prints the same
//! conditional rates and event shares from the injection campaign.
//!
//! Pointer-typed variables (the C arrays' base pointers) are reported both
//! separately and folded into their array's class, since at GDB level the
//! paper's "matrices" include the pointer variables that name them.
//!
//! It runs the same injection campaigns as `fig4_outcomes`;
//! `--store R --resume` reads the journals a finished
//! `fig4_outcomes --store R` left instead of recomputing them.

use bench::{injection_records, rule};
use carolfi::target::VarClass;
use kernels::Benchmark;
use sdc_analysis::pvf::{by_class, event_share_by_class, PvfKind};

fn main() {
    let fig = bench::figure_setup();
    println!("§6 per-variable-class criticality (conditional rates over injections into the class)");
    println!("trials/benchmark = {}, size = {:?}, seed = {}\n", fig.cfg.trials, fig.cfg.size, fig.cfg.seed);

    for b in Benchmark::ALL {
        let records = injection_records(b, &fig);
        let sdc = by_class(&records, PvfKind::Sdc);
        let due = by_class(&records, PvfKind::Due);
        let share_sdc = event_share_by_class(&records, PvfKind::Sdc);
        let share_due = event_share_by_class(&records, PvfKind::Due);
        println!("{}:", b.label());
        println!("  {:14} {:>7} {:>8} {:>8} {:>10} {:>10}", "class", "inj", "SDC%", "DUE%", "SDC share", "DUE share");
        rule(64);
        let mut classes: Vec<VarClass> = sdc.groups.keys().copied().collect();
        classes.sort();
        for class in classes {
            let s = sdc.get(class).expect("grouped");
            let d = due.get(class).map(|p| p.percent()).unwrap_or(0.0);
            println!(
                "  {:14} {:7} {:8.1} {:8.1} {:9.1}% {:9.1}%",
                class.label(),
                s.trials,
                s.percent(),
                d,
                100.0 * share_sdc.get(&class).copied().unwrap_or(0.0),
                100.0 * share_due.get(&class).copied().unwrap_or(0.0),
            );
        }
        println!();
    }
    println!("Paper anchors: DGEMM matrices 43/19, control 38/38; CLAMR sort 39/43, tree 20/41,");
    println!("mesh-other 33/28; HotSpot control+constant ≈30/40; LavaMD charge/distance arrays");
    println!("carry 57% of SDCs and 11% of DUEs; LUD matrices 54/28, control 24/36.");
    bench::print_telemetry(fig.telemetry);
}
