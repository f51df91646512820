//! Figure 3 — "FIT decrease rate as a function of relative error tolerance."
//!
//! For every beam benchmark, prints the SDC-FIT reduction (%) when outputs
//! within a relative tolerance of the golden value are accepted, over the
//! paper's 0.1%–15% tolerance grid, plus the headline numbers the paper
//! quotes (HotSpot −85% at 0.5%, ×20 MTBF at 2%; ≥25% drop for everyone at
//! the smallest tolerance; CLAMR and DGEMM flattest).
//!
//! It runs the same beam campaigns as `fig2_beam_fit`; `--store R --resume`
//! reads the journals `fig2_beam_fit --store R` finished instead of
//! recomputing them.

use bench::{beam_campaign, rule};
use kernels::Benchmark;
use sdc_analysis::tolerance::{paper_tolerances, ToleranceCurve};

fn main() {
    let fig = bench::figure_setup();
    let tolerances = paper_tolerances();
    println!("Figure 3 reproduction — SDC FIT reduction vs tolerated relative error");
    println!("strikes/benchmark = {}, size = {:?}, seed = {}\n", fig.cfg.strikes, fig.cfg.size, fig.cfg.seed);
    print!("{:9}", "bench");
    for t in &tolerances {
        print!(" {:>7}", format!("{:.1}%", t * 100.0));
    }
    println!("   (FIT reduction %)");
    rule(9 + 8 * tolerances.len() + 20);

    let mut curves = Vec::new();
    for b in Benchmark::BEAM {
        let c = beam_campaign(b, &fig);
        let summaries = c.sdc_summaries();
        let curve = ToleranceCurve::from_summaries(b.label(), summaries.iter().copied(), &tolerances);
        print!("{:9}", b.label());
        for r in curve.fit_reduction_percent() {
            print!(" {:7.1}", r);
        }
        println!();
        curves.push(curve);
    }
    rule(9 + 8 * tolerances.len() + 20);

    // Headline checks. The grid positions are located by nearest match, not
    // exact float equality — a regenerated or user-supplied tolerance grid
    // (e.g. parsed from a config where 0.005 prints as 0.0050000001) must
    // not panic the figure binary.
    let nearest = |grid: &[f64], want: f64| -> Option<usize> {
        let (idx, dist) = grid
            .iter()
            .enumerate()
            .map(|(i, &t)| (i, (t - want).abs()))
            .min_by(|a, b| a.1.total_cmp(&b.1))?;
        (dist <= want * 0.1).then_some(idx)
    };
    println!();
    for curve in &curves {
        let red = curve.fit_reduction_percent();
        if curve.benchmark == "hotspot" {
            if let (Some(idx_half), Some(idx2)) = (nearest(&tolerances, 0.005), nearest(&tolerances, 0.02)) {
                println!("hotspot: −{:.0}% at 0.5% tolerance (paper: −85%); MTBF ×{:.1} at 2% (paper: ×20)", red[idx_half], curve.mtbf_gain(idx2));
            } else {
                println!("hotspot: tolerance grid lacks the 0.5%/2% headline points; skipping the paper comparison");
            }
        }
        if curve.benchmark == "clamr" || curve.benchmark == "dgemm" {
            println!("{}: −{:.0}% at 15% tolerance (paper: among the smallest decreases)", curve.benchmark, red[red.len() - 1]);
        }
    }
    println!("\nPaper shape targets: every benchmark drops ≥25% already at small tolerances;");
    println!("HotSpot collapses fastest (stencil attenuation); CLAMR & DGEMM flattest; curves saturate.");
    bench::print_telemetry(fig.telemetry);
}
