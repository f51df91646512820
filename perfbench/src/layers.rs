//! Metric names, and the per-layer profile of a traced run.
//!
//! The traced rounds read the program's own spans and counters through
//! `obs::merged_snapshot()` (which folds in warden workers' relayed
//! frames) plus the benchmark's `bench.*` spans around the public calls it
//! makes. Counts and totals are per traced round, so they do not depend on
//! how many rounds fitted into the run. `obs` histograms use log2 buckets:
//! every p50 and p99 here is accurate to a factor of two only.

use crate::workloads::Round;
use obs::{HistData, MetricsSnapshot};

/// End-to-end metrics: name and unit. Every workload reports all of them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("trials_per_s", "trials/s"),
    ("setup_s", "s"),
    ("campaign_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("verified_frac", "ratio"),
];

/// Per-layer metrics: name and unit, grouped by layer.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("kernels.golden_s", "s"),
    ("kernels.golden_calls", "count"),
    ("supervisor.trial_ns.p50", "ns"),
    ("supervisor.trial_ns.p99", "ns"),
    ("supervisor.fault_apply_ns.p50", "ns"),
    ("supervisor.compare_ns.p50", "ns"),
    ("supervisor.fast_compare_ratio", "ratio"),
    ("supervisor.watchdog_fires", "count"),
    ("supervisor.share", "ratio"),
    ("pool.hit_ratio", "ratio"),
    ("pool.rebuilds", "count"),
    ("store.append_ns.p50", "ns"),
    ("store.append_ns.p99", "ns"),
    ("store.appends_per_flush", "count"),
    ("store.sync_ns.p50", "ns"),
    ("store.syncs", "count"),
    ("store.bytes_per_trial", "B"),
    ("store.share", "ratio"),
    ("store.scan_s", "s"),
    ("store.scans", "count"),
    ("beam.strikes", "count"),
    ("beam.hw_masked_ratio", "ratio"),
    ("planner.batches", "count"),
    ("planner.trials_used", "count"),
    ("planner.horizon_ratio", "ratio"),
    ("serve.slices", "count"),
    ("serve.slice_s.p50", "s"),
    ("serve.queue_wait_s", "s"),
    ("serve.submit_rtt_ns", "ns"),
    ("serve.events_dropped", "count"),
    ("warden.roundtrip_ns.p50", "ns"),
    ("warden.roundtrip_ns.p99", "ns"),
    ("warden.spawned", "count"),
    ("warden.retries", "count"),
    ("warden.metric_frames", "count"),
    ("dist.trial_rtt_ns.p50", "ns"),
    ("dist.compute_share", "ratio"),
    ("dist.leases_granted", "count"),
    ("dist.useful_ratio", "ratio"),
    ("dist.net_retries", "count"),
    ("spec.result_ns", "ns"),
    ("obs.overhead_ratio", "ratio"),
];

/// Spans shown in the profile table: span name, layer, and the spans that
/// run nested inside it on the same thread (subtracted for self time).
const SPANS: [(&str, &str, &[&str]); 15] = [
    ("golden", "kernels", &[]),
    ("bench.golden", "kernels", &[]),
    ("trial", "supervisor", &["fault_apply", "compare"]),
    ("fault_apply", "supervisor", &[]),
    ("compare", "supervisor", &[]),
    ("store.append", "store", &[]),
    ("store.sync", "store", &[]),
    ("store.scan", "store", &[]),
    ("bench.run_spec", "spec", &["golden", "store.scan"]),
    ("bench.spec_result", "spec", &[]),
    ("bench.run_slice", "serve", &["golden", "store.scan"]),
    ("bench.submit_rtt", "serve", &[]),
    ("trial_wall", "warden", &["trial"]),
    ("bench.dist_runner", "dist", &["trial"]),
    ("bench.dist_gap", "dist", &[]),
];

/// Everything the traced rounds measured.
#[derive(Default)]
pub struct Tally {
    /// Threads that run trials, the base of every share.
    workers: usize,
    rounds: u64,
    wall_s: f64,
    trials: u64,
    strikes: u64,
    hw_masked: u64,
    planner_trials: u64,
    planner_horizon: u64,
    journal_bytes: u64,
    queue_wait_s: Vec<f64>,
    leases_granted: u64,
    merged: u64,
    duplicates: u64,
    executor_wall_s: f64,
    snap: MetricsSnapshot,
}

impl Tally {
    pub fn new(workers: usize) -> Self {
        Tally {
            workers,
            ..Tally::default()
        }
    }

    /// Books one traced round and the metrics it recorded.
    pub fn add(&mut self, r: &Round, delta: &MetricsSnapshot) {
        self.rounds += 1;
        self.wall_s += r.wall_s;
        self.trials += r.trials;
        self.strikes += r.strikes;
        self.hw_masked += r.hw_masked;
        self.planner_trials += r.planner_trials;
        self.planner_horizon += r.planner_horizon;
        self.journal_bytes += r.journal_bytes;
        self.queue_wait_s.extend(&r.queue_wait_s);
        self.leases_granted += r.leases_granted;
        self.merged += r.merged;
        self.duplicates += r.duplicates;
        self.executor_wall_s += r.executor_wall_s;
        self.snap.merge(delta);
    }

    fn hist(&self, name: &str) -> HistData {
        self.snap.hists.get(name).cloned().unwrap_or_default()
    }

    fn per_round(&self, v: f64) -> f64 {
        ratio(v, self.rounds as f64)
    }

    fn counter(&self, name: &str) -> f64 {
        self.per_round(self.snap.counter(name) as f64)
    }

    /// Share of the worker threads' wall time spent inside `spans`.
    fn share(&self, spans: &[&str]) -> f64 {
        let busy: u64 = spans.iter().map(|s| self.hist(s).sum_ns).sum();
        ratio(busy as f64 / 1e9, self.wall_s * self.workers as f64)
    }

    fn self_ns(&self, span: &str, children: &[&str]) -> u64 {
        let nested: u64 = children.iter().map(|c| self.hist(c).sum_ns).sum();
        self.hist(span).sum_ns.saturating_sub(nested)
    }

    /// Every per-layer metric, in [`PER_LAYER`] order.
    pub fn metrics(&self, overhead_ratio: f64) -> Vec<f64> {
        let p = |span: &str, q: f64| self.hist(span).percentile(q) as f64;
        let golden = [self.hist("golden"), self.hist("bench.golden")];
        let compares = self.hist("compare").count as f64;
        let hits = self.snap.counter("pool/hits") as f64;
        let rebuilds = self.snap.counter("pool/rebuilds") as f64;
        let spec_result = self.hist("bench.spec_result");
        let values = vec![
            self.per_round(golden.iter().map(|h| h.sum_ns as f64 / 1e9).sum()),
            self.per_round(golden.iter().map(|h| h.count as f64).sum()),
            p("trial", 0.5),
            p("trial", 0.99),
            p("fault_apply", 0.5),
            p("compare", 0.5),
            ratio(self.snap.counter("compare/fast_path") as f64, compares),
            self.counter("watchdog.fired"),
            self.share(&["trial"]),
            ratio(hits, hits + rebuilds),
            self.per_round(rebuilds),
            p("store.append", 0.5),
            p("store.append", 0.99),
            ratio(
                self.snap.counter("store/appends") as f64,
                self.snap.counter("store/batch_flushes") as f64,
            ),
            p("store.sync", 0.5),
            self.per_round(self.hist("store.sync").count as f64),
            ratio(self.journal_bytes as f64, self.trials as f64),
            self.share(&["store.append", "store.sync"]),
            self.per_round(self.hist("store.scan").sum_ns as f64 / 1e9),
            self.per_round(self.hist("store.scan").count as f64),
            self.per_round(self.strikes as f64),
            ratio(self.hw_masked as f64, self.strikes as f64),
            self.counter("planner/batches"),
            self.per_round(self.planner_trials as f64),
            ratio(self.planner_trials as f64, self.planner_horizon as f64),
            self.per_round(self.hist("bench.run_slice").count as f64),
            p("bench.run_slice", 0.5) / 1e9,
            ratio(
                self.queue_wait_s.iter().sum(),
                self.queue_wait_s.len() as f64,
            ),
            p("bench.submit_rtt", 0.5),
            self.counter("serve/events_dropped"),
            p("trial_wall", 0.5),
            p("trial_wall", 0.99),
            self.counter("warden/spawned"),
            self.counter("warden/retries"),
            self.counter("warden/metric_frames"),
            p("bench.dist_gap", 0.5),
            ratio(
                self.hist("bench.dist_runner").sum_ns as f64 / 1e9,
                self.executor_wall_s,
            ),
            self.per_round(self.leases_granted as f64),
            ratio(self.merged as f64, (self.merged + self.duplicates) as f64),
            self.counter("dist/net_retries"),
            spec_result.mean_ns() as f64,
            overhead_ratio,
        ];
        debug_assert_eq!(values.len(), PER_LAYER.len());
        values
    }

    /// The profile table: per span, count and total per round, self time,
    /// p50, p99 and share of the worker threads' wall time.
    pub fn table(&self) -> String {
        let mut out = format!(
            "per-layer profile: {} traced rounds, {:.3} s wall, {} trials, {} workers (per round; p50/p99 from log2 \
             buckets, accurate to a factor of 2)\n",
            self.rounds, self.wall_s, self.trials, self.workers
        );
        out.push_str(&format!(
            "{:<11} {:<18} {:>10} {:>10} {:>10} {:>12} {:>12} {:>7}\n",
            "layer", "span", "count", "total_s", "self_s", "p50_ns~2x", "p99_ns~2x", "share"
        ));
        for (span, layer, children) in SPANS {
            let h = self.hist(span);
            if h.count == 0 {
                continue;
            }
            out.push_str(&format!(
                "{:<11} {:<18} {:>10.1} {:>10.4} {:>10.4} {:>12} {:>12} {:>7.3}\n",
                layer,
                span,
                self.per_round(h.count as f64),
                self.per_round(h.sum_ns as f64 / 1e9),
                self.per_round(self.self_ns(span, children) as f64 / 1e9),
                h.percentile(0.5),
                h.percentile(0.99),
                self.share(&[span]),
            ));
        }
        out.push_str("counters (per round):\n");
        for (name, value) in &self.snap.counters {
            out.push_str(&format!(
                "  {:<44} {:>12.1}\n",
                name,
                self.per_round(*value as f64)
            ));
        }
        out
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_empty_tally_reports_every_metric() {
        let values = Tally::default().metrics(1.0);
        assert_eq!(values.len(), PER_LAYER.len());
        assert!(values.iter().all(|v| v.is_finite()));
    }
}
