//! Campaign-level gauges: one summary struct per finished campaign.
//!
//! Unlike the recorder plumbing (opt-in, global), a [`CampaignReport`] is
//! always computed — the campaign runners fill one in as they go and attach
//! it to the returned `Campaign`/`BeamCampaign`, so throughput and
//! utilization are available even with telemetry off. The struct stays
//! domain-agnostic: outcome keys are strings chosen by the caller
//! (`"single/sdc"`, `"beam:vpu/due"`, ...).

use std::fmt;

/// Summary gauges for one campaign run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignReport {
    /// Benchmark or campaign label.
    pub label: String,
    /// Trials (or strikes) executed.
    pub trials: usize,
    /// Wall-clock duration of the whole campaign.
    pub wall_ns: u64,
    /// Worker threads used.
    pub workers: usize,
    /// Sum over workers of time spent inside trials.
    pub busy_ns: u64,
    /// Watchdog-terminated trials (timeout DUEs).
    pub watchdog_fires: usize,
    /// Target-pool trials served by a pooled target restored in place
    /// instead of a fresh factory construction. Zero for reports rebuilt
    /// from records alone.
    pub pool_hits: u64,
    /// Target-pool trials that built a fresh target (cold start, target
    /// without snapshot support, or rebuild after a DUE left state torn).
    pub pool_rebuilds: u64,
    /// Trials classified by the chunked bitwise compare alone, without an
    /// elementwise mismatch scan.
    pub fast_path_compares: u64,
    /// Strata the adaptive planner tracked; 0 for fixed-count campaigns
    /// (which hides the planner gauges from `Display`).
    pub strata_total: usize,
    /// Strata whose widest outcome-class CI still exceeded the target when
    /// the campaign ended (0 = every stratum converged).
    pub strata_open: usize,
    /// Widest outcome-class CI width across strata at campaign end.
    pub widest_ci: f64,
    /// Outcome counts keyed by caller-chosen labels, sorted by key.
    pub outcomes: Vec<(String, usize)>,
}

impl CampaignReport {
    /// Throughput in trials per second; 0 when wall time was not measured
    /// (e.g. records loaded from a cache).
    pub fn trials_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.trials as f64 / (self.wall_ns as f64 / 1e9)
        }
    }

    /// Fraction of worker capacity spent inside trials, in `[0, 1]`.
    /// 0 when wall time was not measured.
    pub fn utilization(&self) -> f64 {
        let capacity = self.wall_ns.saturating_mul(self.workers as u64);
        if capacity == 0 {
            0.0
        } else {
            (self.busy_ns as f64 / capacity as f64).min(1.0)
        }
    }

    /// Count for one outcome key (0 when absent).
    pub fn outcome(&self, key: &str) -> usize {
        self.outcomes.iter().find(|(k, _)| k == key).map_or(0, |&(_, n)| n)
    }

    /// Fraction of pooled acquisitions served by an in-place restore
    /// instead of a factory rebuild, in `[0, 1]`; 0 when the run didn't
    /// pool.
    pub fn pool_reuse(&self) -> f64 {
        let total = self.pool_hits + self.pool_rebuilds;
        if total == 0 {
            0.0
        } else {
            self.pool_hits as f64 / total as f64
        }
    }
}

impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "campaign report: {}", self.label)?;
        writeln!(f, "  trials          {:>10}", self.trials)?;
        if self.wall_ns > 0 {
            writeln!(f, "  wall time       {:>10.2}s", self.wall_ns as f64 / 1e9)?;
            writeln!(f, "  throughput      {:>10.1} trials/s", self.trials_per_sec())?;
            writeln!(f, "  workers         {:>10}", self.workers)?;
            writeln!(f, "  utilization     {:>10.1}%", self.utilization() * 100.0)?;
        }
        writeln!(f, "  watchdog fires  {:>10}", self.watchdog_fires)?;
        if self.pool_hits + self.pool_rebuilds > 0 {
            writeln!(
                f,
                "  pool reuse      {:>10.1}%  ({} hits, {} rebuilds)",
                self.pool_reuse() * 100.0,
                self.pool_hits,
                self.pool_rebuilds
            )?;
        }
        if self.fast_path_compares > 0 {
            let pct = if self.trials > 0 { 100.0 * self.fast_path_compares as f64 / self.trials as f64 } else { 0.0 };
            writeln!(f, "  fast-path cmp   {:>10}  ({:>5.1}% of trials)", self.fast_path_compares, pct)?;
        }
        if self.strata_total > 0 {
            writeln!(
                f,
                "  planner         {:>6}/{} strata converged, widest ci {:.4}",
                self.strata_total - self.strata_open.min(self.strata_total),
                self.strata_total,
                self.widest_ci
            )?;
        }
        if !self.outcomes.is_empty() {
            writeln!(f, "  outcomes")?;
            for (key, n) in &self.outcomes {
                let pct = if self.trials > 0 { 100.0 * *n as f64 / self.trials as f64 } else { 0.0 };
                writeln!(f, "    {:<28} {:>8}  ({:>5.1}%)", key, n, pct)?;
            }
        }
        Ok(())
    }
}

/// Incremental builder used by the campaign runners: workers feed outcome
/// labels and busy time through it, then `finish` sorts and seals.
#[derive(Debug, Default)]
pub struct ReportBuilder {
    report: CampaignReport,
}

impl ReportBuilder {
    pub fn new(label: impl Into<String>, workers: usize) -> Self {
        ReportBuilder {
            report: CampaignReport { label: label.into(), workers, ..CampaignReport::default() },
        }
    }

    pub fn record_outcome(&mut self, key: impl Into<String>, watchdog: bool) {
        self.report.trials += 1;
        if watchdog {
            self.report.watchdog_fires += 1;
        }
        let key = key.into();
        match self.report.outcomes.iter_mut().find(|(k, _)| *k == key) {
            Some((_, n)) => *n += 1,
            None => self.report.outcomes.push((key, 1)),
        }
    }

    pub fn add_busy_ns(&mut self, ns: u64) {
        self.report.busy_ns += ns;
    }

    pub fn finish(mut self, wall_ns: u64) -> CampaignReport {
        self.report.wall_ns = wall_ns;
        self.report.outcomes.sort_by(|a, b| a.0.cmp(&b.0));
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CampaignReport {
        let mut b = ReportBuilder::new("hotspot", 4);
        for _ in 0..6 {
            b.record_outcome("single/sdc", false);
        }
        for _ in 0..3 {
            b.record_outcome("single/masked", false);
        }
        b.record_outcome("single/due-timeout", true);
        b.add_busy_ns(2_000_000_000);
        b.finish(1_000_000_000)
    }

    #[test]
    fn builder_counts_and_sorts_outcomes() {
        let r = sample();
        assert_eq!(r.trials, 10);
        assert_eq!(r.watchdog_fires, 1);
        assert_eq!(
            r.outcomes,
            vec![
                ("single/due-timeout".to_string(), 1),
                ("single/masked".to_string(), 3),
                ("single/sdc".to_string(), 6),
            ]
        );
        assert_eq!(r.outcome("single/sdc"), 6);
        assert_eq!(r.outcome("absent"), 0);
    }

    #[test]
    fn gauges_derive_from_raw_fields() {
        let r = sample();
        assert!((r.trials_per_sec() - 10.0).abs() < 1e-9);
        assert!((r.utilization() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn cache_loaded_reports_have_zero_rates() {
        let mut b = ReportBuilder::new("cached", 0);
        b.record_outcome("single/sdc", false);
        let r = b.finish(0);
        assert_eq!(r.trials_per_sec(), 0.0);
        assert_eq!(r.utilization(), 0.0);
    }

    #[test]
    fn display_includes_label_and_percentages() {
        let s = sample().to_string();
        assert!(s.contains("hotspot"));
        assert!(s.contains("single/sdc"));
        assert!(s.contains("60.0%"));
        assert!(s.contains("watchdog fires"));
        // Hot-path gauges stay hidden when the run didn't pool...
        assert!(!s.contains("pool reuse"));
        assert!(!s.contains("fast-path cmp"));
        // ...and planner gauges when the campaign was fixed-count.
        assert!(!s.contains("planner"));
    }

    #[test]
    fn planner_gauges_display_when_present() {
        let mut r = sample();
        r.strata_total = 16;
        r.strata_open = 2;
        r.widest_ci = 0.0625;
        let s = r.to_string();
        assert!(s.contains("14/16 strata converged"), "{s}");
        assert!(s.contains("widest ci 0.0625"), "{s}");
    }

    #[test]
    fn hot_path_gauges_display_when_present() {
        let mut r = sample();
        r.pool_hits = 9;
        r.pool_rebuilds = 1;
        r.fast_path_compares = 3;
        assert!((r.pool_reuse() - 0.9).abs() < 1e-9);
        let s = r.to_string();
        assert!(s.contains("pool reuse"), "{s}");
        assert!(s.contains("9 hits, 1 rebuilds"), "{s}");
        assert!(s.contains("fast-path cmp"), "{s}");
    }

    #[test]
    fn pool_reuse_is_zero_without_pooling() {
        assert_eq!(sample().pool_reuse(), 0.0);
    }
}
