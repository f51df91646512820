//! Campaign telemetry for the injection and beam pipelines.
//!
//! Observability layer in the spirit of the paper's experimental logging
//! discipline (§4.1: every run is logged; the analysis is only as good as
//! the telemetry). The design constraints, in order:
//!
//! 1. **Near-zero cost when off.** Telemetry is opt-in; campaign hot paths
//!    ([`carolfi::supervisor::run_trial`] runs millions of steps) must pay a
//!    single relaxed atomic load per event when no recorder is installed.
//!    `crates/bench/benches/telemetry_overhead.rs` holds that claim to
//!    account.
//! 2. **Zero dependencies.** `phi-obs` sits below every other crate
//!    (carolfi, beamsim, bench all record into it), so it uses only `std`.
//! 3. **Domain-agnostic.** Events are `&'static str` names, payloads are
//!    pre-serialized JSON; nothing in here knows what a trial is.
//!
//! Three recorders ship with the crate:
//!
//! * [`NullRecorder`] — explicit no-op (the implicit default is "nothing
//!   installed", which is cheaper still);
//! * [`CounterRecorder`] — lock-free atomic counters and log₂-bucket latency
//!   histograms keyed by static names, with a diagnose-style pretty printer
//!   (the `--telemetry` flag of the figure binaries);
//! * [`JsonlRecorder`] — buffered, thread-safe JSONL event stream with
//!   gapless per-event sequence numbers, the machine-readable export.
//!
//! Instrumentation sites use the free functions ([`incr`], [`observe_ns`],
//! [`event`]) and the [`span!`] guard macro; all of them forward to the
//! globally [`install`]ed recorder, if any.

mod counters;
mod hub;
mod jsonl;
mod report;

pub use counters::{CounterRecorder, HIST_BUCKETS};
pub use hub::{hub, merged_snapshot, HistData, MetricsHub, MetricsSnapshot};
pub use jsonl::{JsonlRecorder, SharedBuf};
pub use report::{CampaignReport, ReportBuilder};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// Sink for telemetry. Implementations must be cheap and non-blocking-ish:
/// they are called from campaign worker threads.
pub trait Recorder: Send + Sync {
    /// Adds `by` to the named monotonic counter.
    fn incr(&self, counter: &'static str, by: u64);

    /// Records one duration observation for the named span.
    fn observe_ns(&self, span: &'static str, ns: u64);

    /// Records a structured event; `payload_json` must be valid JSON (the
    /// callers serialize with `serde_json` before handing it over).
    fn event(&self, kind: &'static str, payload_json: &str);

    /// Point-in-time aggregate state, for recorders that keep any (the
    /// [`CounterRecorder`] does; streaming recorders return `None`). This
    /// is what isolated workers ship to the supervisor's [`MetricsHub`].
    fn snapshot(&self) -> Option<MetricsSnapshot> {
        None
    }
}

/// A recorder that drops everything. Useful to keep the enabled-path code
/// exercised (e.g. in overhead benches) without accumulating state.
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn incr(&self, _: &'static str, _: u64) {}
    fn observe_ns(&self, _: &'static str, _: u64) {}
    fn event(&self, _: &'static str, _: &str) {}
}

/// Fast-path gate. `false` (the default) means every telemetry call is a
/// single relaxed load and a predictable branch.
static ENABLED: AtomicBool = AtomicBool::new(false);

static RECORDER: RwLock<Option<Arc<dyn Recorder>>> = RwLock::new(None);

/// Installs `recorder` as the global sink and enables telemetry.
pub fn install(recorder: Arc<dyn Recorder>) {
    *RECORDER.write().unwrap_or_else(|e| e.into_inner()) = Some(recorder);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Disables telemetry and returns the previously installed recorder (so a
/// caller can drain/flush/print it).
pub fn uninstall() -> Option<Arc<dyn Recorder>> {
    ENABLED.store(false, Ordering::SeqCst);
    RECORDER.write().unwrap_or_else(|e| e.into_inner()).take()
}

/// Whether a recorder is installed. Instrumentation sites may use this to
/// skip *preparing* expensive payloads (e.g. serializing a record) — the
/// recording functions below already gate themselves.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

#[cold]
#[inline(never)]
fn with_recorder(f: impl FnOnce(&dyn Recorder)) {
    if let Some(r) = RECORDER.read().unwrap_or_else(|e| e.into_inner()).as_ref() {
        f(&**r);
    }
}

/// Adds `by` to a named counter on the installed recorder, if any.
#[inline]
pub fn incr(counter: &'static str, by: u64) {
    if enabled() {
        with_recorder(|r| r.incr(counter, by));
    }
}

/// Records a span duration on the installed recorder, if any.
#[inline]
pub fn observe_ns(span: &'static str, ns: u64) {
    if enabled() {
        with_recorder(|r| r.observe_ns(span, ns));
    }
}

/// Records a structured JSON event on the installed recorder, if any.
#[inline]
pub fn event(kind: &'static str, payload_json: &str) {
    if enabled() {
        with_recorder(|r| r.event(kind, payload_json));
    }
}

/// Snapshot of the installed recorder's aggregate state, if it keeps any.
/// Off the hot path (called at monitor/footer cadence), so it reads the
/// recorder lock directly rather than the `enabled` gate.
pub fn snapshot() -> Option<MetricsSnapshot> {
    RECORDER.read().unwrap_or_else(|e| e.into_inner()).as_ref().and_then(|r| r.snapshot())
}

/// RAII timing guard: measures from construction to drop and feeds the
/// duration into the named histogram. When telemetry is disabled at
/// construction it never reads the clock.
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
}

impl Span {
    #[inline]
    pub fn new(name: &'static str) -> Self {
        Span { name, start: if enabled() { Some(Instant::now()) } else { None } }
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            observe_ns(self.name, start.elapsed().as_nanos() as u64);
        }
    }
}

/// Opens a [`Span`] timing guard: `let _span = obs::span!("trial");`.
/// The guard records into the histogram named by its argument on drop —
/// including drops during unwinding, so crashed trials still report their
/// phase timings.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::Span::new($name)
    };
}

#[cfg(test)]
pub(crate) mod test_lock {
    use std::sync::{Mutex, MutexGuard};

    /// The recorder is process-global; tests that install one serialize on
    /// this so `cargo test`'s thread pool can't interleave them.
    static LOCK: Mutex<()> = Mutex::new(());

    pub fn hold() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_calls_are_inert() {
        let _guard = test_lock::hold();
        uninstall();
        assert!(!enabled());
        // None of these may panic or record anywhere.
        incr("c", 1);
        observe_ns("s", 10);
        event("e", "{}");
        let _span = span!("s2");
    }

    #[test]
    fn install_routes_to_recorder_and_uninstall_returns_it() {
        let _guard = test_lock::hold();
        let rec = Arc::new(CounterRecorder::new());
        install(rec.clone());
        assert!(enabled());
        incr("unit.test.counter", 2);
        incr("unit.test.counter", 3);
        {
            let _span = span!("unit.test.span");
        }
        let back = uninstall().expect("recorder was installed");
        assert!(!enabled());
        drop(back);
        let snap = rec.snapshot();
        assert_eq!(snap.counter("unit.test.counter"), 5);
        assert_eq!(snap.hists["unit.test.span"].count, 1);
    }

    #[test]
    fn span_survives_unwinding() {
        let _guard = test_lock::hold();
        let rec = Arc::new(CounterRecorder::new());
        install(rec.clone());
        let _ = std::panic::catch_unwind(|| {
            let _span = span!("unit.unwind.span");
            panic!("boom");
        });
        uninstall();
        assert_eq!(rec.snapshot().hists["unit.unwind.span"].count, 1);
    }

    #[test]
    fn null_recorder_accepts_everything() {
        let r = NullRecorder;
        r.incr("a", 1);
        r.observe_ns("b", 2);
        r.event("c", "{}");
    }
}
