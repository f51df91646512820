//! Cross-process metrics aggregation.
//!
//! [`CounterRecorder`] is process-local; a sharded or `--isolate` campaign
//! has many processes each holding a slice of the telemetry. This module is
//! the merge side: [`MetricsSnapshot`] is a portable, name-keyed value type
//! (no `&'static str`, no atomics) that any process can serialize and ship,
//! and [`MetricsHub`] folds *cumulative* snapshots from many sources into
//! one aggregate. The supervisor keys sources by worker identity; a source
//! that re-sends replaces its previous contribution, so totals never
//! double-count a worker that reports repeatedly, while a *new* source (a
//! respawned worker) accumulates on top of whatever its predecessors left
//! behind.
//!
//! Like the rest of `phi-obs` this is `std`-only; the wire encoding of a
//! snapshot lives with the transport (the warden frame protocol in
//! `carolfi`), not here.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Mutex;

use crate::counters::fmt_ns;

/// Portable contents of one latency histogram, keyed externally by name:
/// what [`crate::CounterRecorder::snapshot`] reads out of its atomic
/// buckets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistData {
    pub count: u64,
    pub sum_ns: u64,
    pub max_ns: u64,
    /// `(upper_bound_ns, count)` for every non-empty log₂ bucket, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistData {
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Interpolated q-percentile estimate: walks the cumulative bucket
    /// counts to the bucket containing the target rank, then interpolates
    /// linearly within that bucket's range — `[0, 1)` for bucket 0 (upper
    /// 1), `[upper/2, upper)` for every other. One log₂ bucket of true
    /// resolution, capped at the exact observed max.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q.clamp(0.0, 1.0)).max(1.0).min(self.count as f64);
        let mut seen = 0u64;
        for &(upper, n) in &self.buckets {
            let below = seen;
            seen += n;
            if (seen as f64) >= target {
                let lower = if upper <= 1 { 0 } else { upper / 2 };
                let frac = (target - below as f64) / n as f64;
                let est = lower as f64 + frac * (upper - lower) as f64;
                return (est as u64).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Adds `other`'s observations to this histogram.
    pub fn merge(&mut self, other: &HistData) {
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        self.buckets = merge_buckets(&self.buckets, &other.buckets, |a, b| a + b);
    }

    /// Observations in `newer` but not in `older`, assuming both are
    /// cumulative snapshots of the same histogram. A shrinking count means
    /// the source restarted (counter rotation): the delta is then `newer`
    /// wholesale.
    pub fn delta(newer: &HistData, older: &HistData) -> HistData {
        if newer.count < older.count {
            return newer.clone();
        }
        HistData {
            count: newer.count - older.count,
            sum_ns: newer.sum_ns.saturating_sub(older.sum_ns),
            max_ns: newer.max_ns,
            buckets: merge_buckets(&newer.buckets, &older.buckets, |n, o| n.saturating_sub(o))
                .into_iter()
                .filter(|&(_, n)| n > 0)
                .collect(),
        }
    }
}

/// Merge-walk two ascending `(upper, count)` bucket lists, combining counts
/// of equal uppers with `op` (missing buckets count 0).
fn merge_buckets(a: &[(u64, u64)], b: &[(u64, u64)], op: impl Fn(u64, u64) -> u64) -> Vec<(u64, u64)> {
    let (mut i, mut j) = (0, 0);
    let mut out = Vec::with_capacity(a.len().max(b.len()));
    while i < a.len() || j < b.len() {
        let (upper, n) = match (a.get(i), b.get(j)) {
            (Some(&(ua, na)), Some(&(ub, nb))) if ua == ub => {
                i += 1;
                j += 1;
                (ua, op(na, nb))
            }
            (Some(&(ua, na)), Some(&(ub, _))) if ua < ub => {
                i += 1;
                (ua, op(na, 0))
            }
            (Some(_), Some(&(ub, nb))) => {
                j += 1;
                (ub, op(0, nb))
            }
            (Some(&(ua, na)), None) => {
                i += 1;
                (ua, op(na, 0))
            }
            (None, Some(&(ub, nb))) => {
                j += 1;
                (ub, op(0, nb))
            }
            (None, None) => unreachable!(),
        };
        out.push((upper, n));
    }
    out
}

/// Point-in-time value of every counter and histogram of one source, as an
/// owned, order-independent value. Name-sorted by construction (`BTreeMap`),
/// so two snapshots with the same contents compare equal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub hists: BTreeMap<String, HistData>,
}

impl MetricsSnapshot {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.hists.is_empty()
    }

    /// Value of one counter (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Adds every counter and histogram of `other` into `self`.
    /// Commutative and associative up to equal results (proptested in
    /// `tests/hub_properties.rs`).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, hist) in &other.hists {
            self.hists.entry(name.clone()).or_default().merge(hist);
        }
    }

    /// `newer - older` for two cumulative snapshots of the same source.
    /// Reset-aware per name: a counter that shrank is taken wholesale from
    /// `newer` (the source rotated), so deltas are never negative.
    pub fn delta(newer: &MetricsSnapshot, older: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::new();
        for (name, &value) in &newer.counters {
            let base = older.counter(name);
            let d = if value >= base { value - base } else { value };
            if d > 0 {
                out.counters.insert(name.clone(), d);
            }
        }
        for (name, hist) in &newer.hists {
            let d = match older.hists.get(name) {
                Some(old) => HistData::delta(hist, old),
                None => hist.clone(),
            };
            if d.count > 0 {
                out.hists.insert(name.clone(), d);
            }
        }
        out
    }
}

impl fmt::Display for MetricsSnapshot {
    /// The `--telemetry` footer: counters first, then a per-span latency
    /// table with interpolated percentiles.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "telemetry {}", "─".repeat(60))?;
        if !self.counters.is_empty() {
            writeln!(f, "  counters")?;
            for (name, value) in &self.counters {
                writeln!(f, "    {:<44} {:>12}", name, value)?;
            }
        }
        if !self.hists.is_empty() {
            writeln!(
                f,
                "  {:<22} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}",
                "spans", "count", "mean", "p50", "p95", "p99", "max"
            )?;
            for (name, h) in &self.hists {
                writeln!(
                    f,
                    "    {:<20} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}",
                    name,
                    h.count,
                    fmt_ns(h.mean_ns()),
                    fmt_ns(h.percentile(0.50)),
                    fmt_ns(h.percentile(0.95)),
                    fmt_ns(h.percentile(0.99)),
                    fmt_ns(h.max_ns),
                )?;
            }
        }
        if self.is_empty() {
            writeln!(f, "  (no events recorded)")?;
        }
        Ok(())
    }
}

/// Aggregator of cumulative [`MetricsSnapshot`]s from many sources (the
/// local process, shard workers, isolated warden workers). [`fold`] with the
/// same source key *replaces* that source's contribution — sources ship
/// cumulative state, so re-reports are idempotent — while distinct keys add
/// up. A respawned worker gets a fresh key, so everything its predecessors
/// reported stays in the totals.
///
/// [`fold`]: MetricsHub::fold
pub struct MetricsHub {
    sources: Mutex<BTreeMap<String, MetricsSnapshot>>,
}

impl MetricsHub {
    pub const fn new() -> Self {
        MetricsHub { sources: Mutex::new(BTreeMap::new()) }
    }

    /// Records `cumulative` as the latest state of `source`.
    pub fn fold(&self, source: &str, cumulative: MetricsSnapshot) {
        let mut sources = self.sources.lock().unwrap_or_else(|e| e.into_inner());
        sources.insert(source.to_string(), cumulative);
    }

    /// Sum over the latest snapshot of every source.
    pub fn merged(&self) -> MetricsSnapshot {
        let sources = self.sources.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = MetricsSnapshot::new();
        for snap in sources.values() {
            out.merge(snap);
        }
        out
    }

    /// Source keys currently folded, sorted.
    pub fn sources(&self) -> Vec<String> {
        self.sources.lock().unwrap_or_else(|e| e.into_inner()).keys().cloned().collect()
    }

    /// Drops every source (tests and campaign boundaries).
    pub fn clear(&self) {
        self.sources.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
}

impl Default for MetricsHub {
    fn default() -> Self {
        Self::new()
    }
}

static HUB: MetricsHub = MetricsHub::new();

/// The process-global hub. Supervisors fold worker snapshots here; the
/// monitor endpoint and the `--telemetry` footer read [`merged_snapshot`].
pub fn hub() -> &'static MetricsHub {
    &HUB
}

/// Local recorder state (if the installed recorder keeps any) merged with
/// everything folded into the global hub — the whole-campaign view.
pub fn merged_snapshot() -> MetricsSnapshot {
    let mut snap = crate::snapshot().unwrap_or_default();
    snap.merge(&hub().merged());
    snap
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(counters: &[(&str, u64)], hist_ns: &[u64]) -> MetricsSnapshot {
        let rec = crate::CounterRecorder::new();
        // Names must be 'static for the recorder; route through fixed ones.
        for &(name, by) in counters {
            let name: &'static str = ["a", "b", "c", "d"][["a", "b", "c", "d"].iter().position(|&n| n == name).unwrap()];
            crate::Recorder::incr(&rec, name, by);
        }
        for &ns in hist_ns {
            crate::Recorder::observe_ns(&rec, "h", ns);
        }
        rec.snapshot()
    }

    #[test]
    fn merge_sums_counters_and_histograms() {
        let mut x = snap(&[("a", 2), ("b", 1)], &[5, 1000]);
        let y = snap(&[("a", 3), ("c", 7)], &[5]);
        x.merge(&y);
        assert_eq!(x.counter("a"), 5);
        assert_eq!(x.counter("b"), 1);
        assert_eq!(x.counter("c"), 7);
        let h = &x.hists["h"];
        assert_eq!(h.count, 3);
        assert_eq!(h.sum_ns, 1010);
        assert_eq!(h.max_ns, 1000);
        assert_eq!(h.buckets, vec![(8, 2), (1024, 1)]);
    }

    #[test]
    fn delta_is_exact_for_growing_sources_and_reset_aware() {
        let older = snap(&[("a", 2)], &[5]);
        let newer = snap(&[("a", 6), ("b", 1)], &[5, 5, 1000]);
        let d = MetricsSnapshot::delta(&newer, &older);
        assert_eq!(d.counter("a"), 4);
        assert_eq!(d.counter("b"), 1);
        assert_eq!(d.hists["h"].count, 2);
        assert_eq!(d.hists["h"].sum_ns, 1005);
        assert_eq!(d.hists["h"].buckets, vec![(8, 1), (1024, 1)]);

        // A shrinking counter means the source restarted: take newer as-is.
        let restarted = snap(&[("a", 1)], &[5]);
        let d = MetricsSnapshot::delta(&restarted, &newer);
        assert_eq!(d.counter("a"), 1);
        assert_eq!(d.hists["h"].count, 1);
    }

    #[test]
    fn hub_refold_replaces_but_new_sources_accumulate() {
        let hub = MetricsHub::new();
        hub.fold("w-1", snap(&[("a", 5)], &[]));
        hub.fold("w-1", snap(&[("a", 7)], &[])); // cumulative re-report
        assert_eq!(hub.merged().counter("a"), 7);
        hub.fold("w-2", snap(&[("a", 2)], &[]));
        assert_eq!(hub.merged().counter("a"), 9);
        assert_eq!(hub.sources(), vec!["w-1".to_string(), "w-2".to_string()]);
        hub.clear();
        assert!(hub.merged().is_empty());
    }

    #[test]
    fn display_renders_percentile_columns() {
        let s = snap(&[("a", 3)], &[1500]);
        let text = s.to_string();
        assert!(text.contains("p95"), "{text}");
        assert!(text.contains("1.5us"), "{text}");
        assert!(!text.contains('█'), "bucket bars were removed from the footer:\n{text}");
    }
}
