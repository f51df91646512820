//! Per-campaign event fan-out.
//!
//! The daemon installs one [`EventBus`] as the process's global
//! [`obs::Recorder`]. Counters and spans delegate to an inner
//! [`obs::CounterRecorder`], so everything downstream of `obs::snapshot`
//! (the monitor plane, `MetricsHub` merging, telemetry footers) keeps
//! working unchanged; structured events (`trial`, `strike`, `plan`, …) are
//! *additionally* fanned out to subscribers of the campaign whose slice is
//! currently executing. The engine emits a campaign's `trial` and `strike`
//! events where it journals their records, so a subscriber receives them
//! in journal order.
//!
//! Attribution relies on the scheduler invariant that the shared pool runs
//! **one slice at a time**: [`EventBus::set_current`] brackets each
//! `run_slice` call, so every event emitted in between belongs to that
//! campaign. Subscriber channels are bounded; a slow client loses events
//! (counted under `serve/events_dropped`) rather than stalling trial
//! execution.

use obs::Recorder;
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Mutex, RwLock};

/// One event delivered to a subscriber: (campaign id, kind, payload JSON).
pub type BusEvent = (String, String, String);

/// Events a slow subscriber may buffer before the bus starts dropping.
const SUBSCRIBER_BUFFER: usize = 1024;

struct Sub {
    campaign: String,
    tx: SyncSender<BusEvent>,
}

/// Global recorder with per-campaign event subscriptions.
pub struct EventBus {
    inner: obs::CounterRecorder,
    current: RwLock<Option<String>>,
    subs: Mutex<Vec<Sub>>,
}

impl Default for EventBus {
    fn default() -> Self {
        Self::new()
    }
}

impl EventBus {
    pub fn new() -> Self {
        EventBus { inner: obs::CounterRecorder::new(), current: RwLock::new(None), subs: Mutex::new(Vec::new()) }
    }

    /// Marks the campaign whose slice is about to run (`None` between
    /// slices). Events recorded while unset are counted but not fanned out.
    pub fn set_current(&self, id: Option<&str>) {
        *self.current.write().unwrap_or_else(|e| e.into_inner()) = id.map(str::to_string);
    }

    /// Subscribes to one campaign's events. Dropping the receiver ends the
    /// subscription (it is pruned on the next publish).
    pub fn subscribe(&self, campaign: &str) -> Receiver<BusEvent> {
        let (tx, rx) = std::sync::mpsc::sync_channel(SUBSCRIBER_BUFFER);
        self.subs.lock().unwrap_or_else(|e| e.into_inner()).push(Sub { campaign: campaign.to_string(), tx });
        rx
    }

    /// Delivers an event to the campaign's subscribers. Used directly by
    /// the scheduler for lifecycle events (`slice_start`, `campaign_done`,
    /// …) and via the [`obs::Recorder`] impl for per-trial obs events.
    pub fn publish(&self, campaign: &str, kind: &str, payload: &str) {
        let mut subs = self.subs.lock().unwrap_or_else(|e| e.into_inner());
        subs.retain(|sub| {
            if sub.campaign != campaign {
                return true;
            }
            match sub.tx.try_send((campaign.to_string(), kind.to_string(), payload.to_string())) {
                Ok(()) => true,
                Err(TrySendError::Full(_)) => {
                    self.inner.incr("serve/events_dropped", 1);
                    true
                }
                Err(TrySendError::Disconnected(_)) => false,
            }
        });
    }
}

impl obs::Recorder for EventBus {
    fn incr(&self, counter: &'static str, by: u64) {
        self.inner.incr(counter, by);
    }

    fn observe_ns(&self, span: &'static str, ns: u64) {
        self.inner.observe_ns(span, ns);
    }

    fn event(&self, kind: &'static str, payload_json: &str) {
        self.inner.event(kind, payload_json);
        let current = self.current.read().unwrap_or_else(|e| e.into_inner());
        if let Some(id) = current.as_deref() {
            self.publish(id, kind, payload_json);
        }
    }

    fn snapshot(&self) -> Option<obs::MetricsSnapshot> {
        Some(self.inner.snapshot())
    }
}
