//! Lock-free counters and log₂ latency histograms.
//!
//! Registration (first observation of a name) takes a mutex; every later
//! observation of the same name is wait-free: a linear scan over at most
//! `len` published slots followed by a relaxed `fetch_add`. The name tables
//! are append-only — slots are published by a release store of `len` after
//! the `OnceLock` name is set, so readers that see index `i < len` always
//! see its name initialized.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::hub::{HistData, MetricsSnapshot};
use crate::Recorder;

/// Max distinct counter names. Campaign instrumentation uses well under
/// this; overflowing names are silently dropped (telemetry must never
/// panic a worker).
const MAX_COUNTERS: usize = 256;

/// Max distinct span/histogram names.
const MAX_HISTS: usize = 64;

/// Histogram buckets: bucket `i` counts durations in `[2^(i-1), 2^i)` ns
/// (bucket 0 is exactly 0 ns). 40 buckets cover up to ~9 minutes, far past
/// any single trial phase.
pub const HIST_BUCKETS: usize = 40;

struct Hist {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Hist {
    fn new() -> Self {
        Hist {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    fn record(&self, ns: u64) {
        let idx = bucket_index(ns);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }
}

/// Bucket for a duration: 0 → 0, otherwise 1 + floor(log₂ ns), clamped.
fn bucket_index(ns: u64) -> usize {
    ((64 - ns.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// Inclusive-exclusive upper bound of bucket `i` in nanoseconds.
fn bucket_upper_ns(idx: usize) -> u64 {
    if idx == 0 {
        1
    } else {
        1u64 << idx
    }
}

/// Append-only name → slot registry shared by the counter and histogram
/// tables.
struct SlotTable {
    names: Vec<OnceLock<&'static str>>,
    len: AtomicUsize,
    register: Mutex<()>,
}

impl SlotTable {
    fn new(capacity: usize) -> Self {
        SlotTable {
            names: (0..capacity).map(|_| OnceLock::new()).collect(),
            len: AtomicUsize::new(0),
            register: Mutex::new(()),
        }
    }

    /// Slot for `name`, registering it on first use. `None` when the table
    /// is full.
    fn slot(&self, name: &'static str) -> Option<usize> {
        let published = self.len.load(Ordering::Acquire);
        if let Some(i) = self.find(name, published) {
            return Some(i);
        }
        let _guard = self.register.lock().unwrap_or_else(|e| e.into_inner());
        // Re-scan: another thread may have registered `name` between our
        // fast-path scan and taking the lock.
        let published = self.len.load(Ordering::Acquire);
        if let Some(i) = self.find(name, published) {
            return Some(i);
        }
        if published == self.names.len() {
            return None;
        }
        self.names[published].set(name).ok()?;
        self.len.store(published + 1, Ordering::Release);
        Some(published)
    }

    fn find(&self, name: &str, upto: usize) -> Option<usize> {
        (0..upto).find(|&i| self.names[i].get().copied() == Some(name))
    }

    fn snapshot(&self) -> Vec<(usize, &'static str)> {
        let published = self.len.load(Ordering::Acquire);
        (0..published).filter_map(|i| self.names[i].get().map(|&n| (i, n))).collect()
    }
}

/// In-memory metrics recorder: atomic counters plus log₂-bucket latency
/// histograms, both keyed by `&'static str` names. `Display` renders the
/// diagnose-style report behind the figure binaries' `--telemetry` flag.
pub struct CounterRecorder {
    counter_slots: SlotTable,
    counter_values: Vec<AtomicU64>,
    hist_slots: SlotTable,
    hists: Vec<Hist>,
}

impl CounterRecorder {
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        CounterRecorder {
            counter_slots: SlotTable::new(MAX_COUNTERS),
            counter_values: (0..MAX_COUNTERS).map(|_| AtomicU64::new(0)).collect(),
            hist_slots: SlotTable::new(MAX_HISTS),
            hists: (0..MAX_HISTS).map(|_| Hist::new()).collect(),
        }
    }

    /// Value of one counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        let published = self.counter_slots.len.load(Ordering::Acquire);
        self.counter_slots.find(name, published).map_or(0, |i| self.counter_values[i].load(Ordering::Relaxed))
    }

    /// Owned, portable snapshot of every counter and histogram — the value
    /// a worker ships to the supervisor's [`crate::MetricsHub`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        for (i, name) in self.counter_slots.snapshot() {
            snap.counters.insert(name.to_string(), self.counter_values[i].load(Ordering::Relaxed));
        }
        for (i, name) in self.hist_slots.snapshot() {
            let h = &self.hists[i];
            let buckets = (0..HIST_BUCKETS)
                .filter_map(|b| {
                    let n = h.buckets[b].load(Ordering::Relaxed);
                    (n > 0).then(|| (bucket_upper_ns(b), n))
                })
                .collect();
            let data = HistData {
                count: h.count.load(Ordering::Relaxed),
                sum_ns: h.sum_ns.load(Ordering::Relaxed),
                max_ns: h.max_ns.load(Ordering::Relaxed),
                buckets,
            };
            snap.hists.insert(name.to_string(), data);
        }
        snap
    }
}

impl Recorder for CounterRecorder {
    fn incr(&self, counter: &'static str, by: u64) {
        if let Some(i) = self.counter_slots.slot(counter) {
            self.counter_values[i].fetch_add(by, Ordering::Relaxed);
        }
    }

    fn observe_ns(&self, span: &'static str, ns: u64) {
        if let Some(i) = self.hist_slots.slot(span) {
            self.hists[i].record(ns);
        }
    }

    fn event(&self, kind: &'static str, _payload_json: &str) {
        // Metrics mode keeps a volume counter per event kind rather than the
        // payloads themselves; pair with a JsonlRecorder for full export.
        if let Some(i) = self.counter_slots.slot(kind) {
            self.counter_values[i].fetch_add(1, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> Option<MetricsSnapshot> {
        Some(CounterRecorder::snapshot(self))
    }
}

pub(crate) fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}us", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

impl fmt::Display for CounterRecorder {
    /// Diagnose-style report: counters first, then a per-span latency table
    /// with interpolated percentiles (the [`MetricsSnapshot`] renderer, so
    /// local-only and hub-merged footers read identically).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        CounterRecorder::snapshot(self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bucket_boundaries_are_log2() {
        // Bucket 0 is exactly zero; each later bucket is [2^(i-1), 2^i).
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        // Upper bounds match: a value lands strictly below its bucket bound.
        for ns in [0u64, 1, 2, 3, 7, 8, 1000, 123_456_789] {
            let idx = bucket_index(ns);
            assert!(ns < bucket_upper_ns(idx), "ns={ns} idx={idx}");
            if idx > 1 {
                assert!(ns >= bucket_upper_ns(idx - 1), "ns={ns} idx={idx}");
            }
        }
    }

    #[test]
    fn histogram_aggregates_are_exact() {
        let rec = CounterRecorder::new();
        for ns in [0u64, 1, 5, 5, 1000] {
            rec.observe_ns("h", ns);
        }
        let snap = rec.snapshot();
        let h = &snap.hists["h"];
        assert_eq!(h.count, 5);
        assert_eq!(h.sum_ns, 1011);
        assert_eq!(h.max_ns, 1000);
        assert_eq!(h.mean_ns(), 202);
        // Buckets: 0ns → b0; 1 → b1; 5,5 → b3; 1000 → b10.
        assert_eq!(h.buckets, vec![(1, 1), (2, 1), (8, 2), (1024, 1)]);
    }

    #[test]
    fn concurrent_increments_from_many_threads_lose_nothing() {
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        let rec = Arc::new(CounterRecorder::new());
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let rec = Arc::clone(&rec);
                s.spawn(move || {
                    // All threads race on the shared counter AND register
                    // their own, exercising both slot paths concurrently.
                    let own: &'static str = ["t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"][t];
                    for _ in 0..PER_THREAD {
                        rec.incr("shared", 1);
                        rec.incr(own, 1);
                        rec.observe_ns("span", 100);
                    }
                });
            }
        });
        assert_eq!(rec.counter("shared"), THREADS as u64 * PER_THREAD);
        for t in 0..THREADS {
            assert_eq!(rec.counter(["t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"][t]), PER_THREAD);
        }
        assert_eq!(rec.snapshot().hists["span"].count, THREADS as u64 * PER_THREAD);
    }

    #[test]
    fn slot_table_overflow_drops_silently() {
        let table = SlotTable::new(2);
        // Leak two distinct names to get 'static strs beyond literals.
        assert_eq!(table.slot("a"), Some(0));
        assert_eq!(table.slot("b"), Some(1));
        assert_eq!(table.slot("c"), None);
        assert_eq!(table.slot("a"), Some(0), "existing names still resolve when full");
    }

    #[test]
    fn event_counts_per_kind() {
        let rec = CounterRecorder::new();
        rec.event("trial", "{\"x\":1}");
        rec.event("trial", "{\"x\":2}");
        assert_eq!(rec.counter("trial"), 2);
    }

    #[test]
    fn percentiles_interpolate_within_known_distributions() {
        // 1000 observations uniform over [0, 1000): percentile(q) should
        // track q*1000 to within one log₂ bucket of the true value.
        let rec = CounterRecorder::new();
        for ns in 0..1000u64 {
            rec.observe_ns("u", ns);
        }
        let snap = rec.snapshot();
        let h = &snap.hists["u"];
        for (q, exact) in [(0.50, 500u64), (0.95, 950), (0.99, 990)] {
            let est = h.percentile(q);
            assert!(est <= h.max_ns, "q={q} est={est}");
            // True value and estimate must share an order of magnitude: the
            // estimate may be off by at most the containing bucket's width.
            let err = est.abs_diff(exact);
            assert!(err <= exact / 2 + 1, "q={q} exact={exact} est={est}");
        }
        assert_eq!(h.percentile(1.0), 999, "p100 is capped at the exact max");

        // Constant distribution: every percentile lands in the single
        // bucket [64, 128) and is capped at the observed max.
        let rec = CounterRecorder::new();
        for _ in 0..100 {
            rec.observe_ns("c", 100);
        }
        let snap = rec.snapshot();
        let h = &snap.hists["c"];
        for q in [0.01, 0.5, 0.99, 1.0] {
            let est = h.percentile(q);
            assert!((64..=100).contains(&est), "q={q} est={est}");
        }

        // Bimodal: 90 fast (≈8ns) + 10 slow (≈1µs). p50 stays in the fast
        // mode's bucket, p99 in the slow mode's.
        let rec = CounterRecorder::new();
        for _ in 0..90 {
            rec.observe_ns("b", 8);
        }
        for _ in 0..10 {
            rec.observe_ns("b", 1000);
        }
        let snap = rec.snapshot();
        let h = &snap.hists["b"];
        assert!((8..16).contains(&h.percentile(0.5)), "p50={}", h.percentile(0.5));
        assert!((512..=1000).contains(&h.percentile(0.99)), "p99={}", h.percentile(0.99));

        // Monotone in q.
        let mut prev = 0;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            let est = h.percentile(q);
            assert!(est >= prev, "q={q}: {est} < {prev}");
            prev = est;
        }
    }

    #[test]
    fn percentile_of_empty_and_zero_histograms() {
        let rec = CounterRecorder::new();
        rec.observe_ns("zeros", 0);
        rec.observe_ns("zeros", 0);
        let snap = rec.snapshot();
        let h = &snap.hists["zeros"];
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.percentile(1.0), 0);
        assert_eq!(HistData::default().percentile(0.5), 0);
    }

    #[test]
    fn display_renders_counters_and_spans() {
        let rec = CounterRecorder::new();
        rec.incr("outcomes.sdc", 3);
        rec.observe_ns("trial", 1500);
        let s = rec.to_string();
        assert!(s.contains("outcomes.sdc"));
        assert!(s.contains("trial"));
        assert!(s.contains("1.5us"));
    }
}
