//! Live campaign observability plane (`--monitor`).
//!
//! The paper's campaigns are judged post-hoc from logs; this module is the
//! live view: per-shard progress gauges fed by the orchestrators, a
//! throughput EWMA and ETA, the outcome mix of the *running* campaign
//! (delta against a baseline captured at campaign start, so sequential
//! campaigns in one process don't bleed into each other), and worker/pool
//! health pulled from the merged metrics ([`obs::merged_snapshot`], which
//! includes everything isolated warden workers relayed into the hub).
//!
//! Two read paths, both off the hot path:
//!
//! * [`serve_monitor`] — a background thread serving [`StatusSnapshot`]s
//!   over a Unix socket with the warden's length-prefixed JSON framing;
//!   one-shot (`Snapshot`) and streaming (`Subscribe`) requests. `phi-top`
//!   is the client.
//! * [`start_heartbeat`] — a periodic, atomically-replaced
//!   `heartbeat.json` flight recorder in the store dir, so a SIGKILLed run
//!   leaves its last known state behind.
//!
//! Cost when off: [`tick`] is a single relaxed load — the orchestrators
//! call it unconditionally per trial.

use crate::warden::{read_frame_blocking, write_frame};
use obs::MetricsSnapshot;
use serde::{Deserialize, Serialize};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// EWMA time constant: an observation a full `TAU` old carries ~37% weight.
const TAU_SECS: f64 = 10.0;

/// Heartbeat file refresh period.
const HEARTBEAT_FILE_EVERY: Duration = Duration::from_millis(500);

/// Per-shard progress gauge.
struct ShardGauge {
    total: u64,
    done: AtomicU64,
    sealed: AtomicBool,
}

/// Throughput EWMA over completed-trial counts, lazily advanced whenever a
/// snapshot is built (no dedicated sampling thread).
struct Ewma {
    at: Instant,
    done: u64,
    rate: f64,
    primed: bool,
}

impl Ewma {
    /// Advances to `(now, done)` and returns the smoothed trials/s.
    fn advance(&mut self, now: Instant, done: u64) -> f64 {
        let dt = now.saturating_duration_since(self.at).as_secs_f64();
        if dt < 0.05 {
            return self.rate; // too soon for a meaningful instantaneous rate
        }
        let inst = done.saturating_sub(self.done) as f64 / dt;
        let alpha = dt / (dt + TAU_SECS);
        self.rate = if self.primed { self.rate + alpha * (inst - self.rate) } else { inst };
        self.primed = true;
        self.at = now;
        self.done = done;
        self.rate
    }
}

/// Live state of one campaign: per-shard gauges plus the metrics baseline
/// its outcome mix is measured against. The orchestrators install one per
/// campaign via [`begin_campaign`]; the instance API exists on its own so
/// embedders (and tests) can track a campaign without the process-global
/// plumbing.
pub struct CampaignProgress {
    label: String,
    kind: String,
    total: u64,
    /// Trials already journaled when this process took over (resume).
    prior: u64,
    started: Instant,
    /// Merged metrics at campaign start; the outcome mix is the delta
    /// against this, so it counts *this* campaign only.
    baseline: MetricsSnapshot,
    shards: Vec<ShardGauge>,
    ewma: Mutex<Ewma>,
    finished: AtomicBool,
    /// Adaptive-planner gauges; `None` for fixed-count campaigns.
    planner: Mutex<Option<PlannerStatus>>,
    /// Distributed-coordinator gauges; `None` for single-host campaigns.
    dist: Mutex<Option<DistStatus>>,
}

impl CampaignProgress {
    /// Gauges for a campaign of `plan.trials` trials whose journal already
    /// holds `progress`.
    pub fn new(label: &str, kind: &str, plan: &store::ShardPlan, progress: &store::ShardProgress) -> Self {
        let shards: Vec<ShardGauge> = (0..plan.shards)
            .map(|s| {
                let st = &progress.shards[s];
                ShardGauge {
                    total: plan.range(s).len() as u64,
                    done: AtomicU64::new(st.completed),
                    sealed: AtomicBool::new(st.done),
                }
            })
            .collect();
        let now = Instant::now();
        let prior = progress.completed();
        CampaignProgress {
            label: label.to_string(),
            kind: kind.to_string(),
            total: plan.trials as u64,
            prior,
            started: now,
            baseline: obs::merged_snapshot(),
            shards,
            ewma: Mutex::new(Ewma { at: now, done: prior, rate: 0.0, primed: false }),
            finished: AtomicBool::new(false),
            planner: Mutex::new(None),
            dist: Mutex::new(None),
        }
    }

    /// Publishes the adaptive planner's gauges (batch cadence, not per
    /// trial).
    pub fn set_planner(&self, status: PlannerStatus) {
        *self.planner.lock().unwrap_or_else(|e| e.into_inner()) = Some(status);
    }

    /// Publishes the distributed coordinator's binding gauges.
    pub fn set_dist(&self, status: DistStatus) {
        *self.dist.lock().unwrap_or_else(|e| e.into_inner()) = Some(status);
    }

    /// One more trial journaled on `shard`.
    #[inline]
    pub fn tick(&self, shard: usize) {
        if let Some(gauge) = self.shards.get(shard) {
            gauge.done.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `shard` journaled its `ShardDone`.
    pub fn seal(&self, shard: usize) {
        if let Some(gauge) = self.shards.get(shard) {
            gauge.sealed.store(true, Ordering::Relaxed);
        }
    }

    /// Marks the campaign finished.
    pub fn complete(&self) {
        self.finished.store(true, Ordering::SeqCst);
    }

    /// Builds the live status of this campaign against the current merged
    /// metrics.
    pub fn status(&self) -> StatusSnapshot {
        let merged = obs::merged_snapshot();
        let shards: Vec<ShardStatus> = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, g)| ShardStatus {
                shard: i as u64,
                done: g.done.load(Ordering::Relaxed),
                total: g.total,
                sealed: g.sealed.load(Ordering::Relaxed),
            })
            .collect();
        let done: u64 = shards.iter().map(|s| s.done).sum();
        let rate = self.ewma.lock().unwrap_or_else(|e| e.into_inner()).advance(Instant::now(), done);
        let remaining = self.total.saturating_sub(done);
        let eta_secs = (rate > 0.0 && remaining > 0).then(|| remaining as f64 / rate);

        let campaign = MetricsSnapshot::delta(&merged, &self.baseline);
        let mut mix = OutcomeMix::default();
        for (name, &value) in &campaign.counters {
            match name.rsplit('/').next() {
                Some("masked") => mix.masked += value,
                Some("hw-masked") => mix.hw_masked += value,
                Some("sdc") => mix.sdc += value,
                Some("due") => mix.due += value,
                _ => {}
            }
        }

        StatusSnapshot {
            pid: std::process::id(),
            label: self.label.clone(),
            kind: self.kind.clone(),
            elapsed_secs: self.started.elapsed().as_secs_f64(),
            finished: self.finished.load(Ordering::SeqCst),
            done,
            prior: self.prior,
            total: self.total,
            trials_per_sec: rate,
            eta_secs,
            shards,
            mix,
            pool_hits: merged.counter("pool/hits"),
            pool_rebuilds: merged.counter("pool/rebuilds"),
            workers: worker_health(&merged),
            planner: self.planner.lock().unwrap_or_else(|e| e.into_inner()).clone(),
            dist: self.dist.lock().unwrap_or_else(|e| e.into_inner()).clone(),
            counters: counters_of(&merged),
            spans: spans_of(&merged),
        }
    }

    #[cfg(test)]
    fn backdate_ewma(&self, by: Duration) {
        self.ewma.lock().unwrap_or_else(|e| e.into_inner()).at = Instant::now() - by;
    }
}

// ---------------------------------------------------------------------------
// Process-global plumbing (what the orchestrators and `--monitor` use).

/// Fast gate for the per-trial [`tick`]; flipped on by [`enable`]
/// (`--monitor`) and left off otherwise so un-monitored campaigns pay one
/// relaxed load per trial.
static ACTIVE: AtomicBool = AtomicBool::new(false);

static STATE: RwLock<Option<Arc<CampaignProgress>>> = RwLock::new(None);

static HEARTBEAT_PATH: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Turns the monitoring plane on (idempotent).
pub fn enable() {
    ACTIVE.store(true, Ordering::SeqCst);
}

/// Whether [`enable`] was called.
#[inline(always)]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

fn current() -> Option<Arc<CampaignProgress>> {
    STATE.read().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Installs a fresh [`CampaignProgress`] as the process-global campaign.
/// No-op when inactive.
pub fn begin_campaign(label: &str, kind: &str, plan: &store::ShardPlan, progress: &store::ShardProgress) {
    if !active() {
        return;
    }
    let state = Arc::new(CampaignProgress::new(label, kind, plan, progress));
    *STATE.write().unwrap_or_else(|e| e.into_inner()) = Some(state);
    write_heartbeat();
}

/// Marks the current campaign finished and flushes a final heartbeat.
pub fn complete_campaign() {
    if !active() {
        return;
    }
    if let Some(state) = current() {
        state.complete();
    }
    write_heartbeat();
}

/// One more trial journaled on `shard` of the current campaign. Called from
/// the orchestrator hot path; a single relaxed load when monitoring is off.
#[inline]
pub fn tick(shard: usize) {
    if !active() {
        return;
    }
    if let Some(state) = current() {
        state.tick(shard);
    }
}

/// `shard` of the current campaign journaled its `ShardDone`.
pub fn shard_sealed(shard: usize) {
    if !active() {
        return;
    }
    if let Some(state) = current() {
        state.seal(shard);
    }
}

/// Publishes the adaptive planner's gauges on the current campaign. Called
/// by the adaptive orchestrator once per allocation batch.
pub fn planner_update(status: PlannerStatus) {
    if !active() {
        return;
    }
    if let Some(state) = current() {
        state.set_planner(status);
    }
}

/// Publishes the distributed coordinator's binding gauges on the current
/// campaign. Called by the coordinator on every binding, drop and
/// journaled trial.
pub fn dist_update(status: DistStatus) {
    if !active() {
        return;
    }
    if let Some(state) = current() {
        state.set_dist(status);
    }
}

// ---------------------------------------------------------------------------
// Status snapshot (the wire/file schema).

/// Progress of one shard.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardStatus {
    pub shard: u64,
    pub done: u64,
    pub total: u64,
    pub sealed: bool,
}

/// Outcome classes of the running campaign (delta since campaign start,
/// summed across fault models — injection `single/sdc` and beam `beam/sdc`
/// alike land in `sdc`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OutcomeMix {
    pub masked: u64,
    pub hw_masked: u64,
    pub sdc: u64,
    pub due: u64,
}

/// Warden supervision counters (process lifetime, including relayed worker
/// state).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WorkerHealth {
    pub spawned: u64,
    pub killed: u64,
    pub retries: u64,
    pub quarantined: u64,
    pub metric_frames: u64,
}

/// One counter of the merged snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterStatus {
    pub name: String,
    pub value: u64,
}

/// One span histogram of the merged snapshot, reduced to its percentiles.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanStatus {
    pub name: String,
    pub count: u64,
    pub mean_ns: u64,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    pub max_ns: u64,
}

/// Adaptive-planner gauges: how much of the stratified horizon is still
/// open and how wide the worst confidence interval is. Published once per
/// allocation batch by the adaptive orchestrator; absent for fixed-count
/// campaigns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlannerStatus {
    /// Strata the planner tracks (fault models × time windows).
    pub strata_total: u64,
    /// Strata whose widest outcome-class CI still exceeds the target.
    pub strata_open: u64,
    /// Widest outcome-class CI width across all strata.
    pub widest_ci: f64,
    /// Allocation decisions made so far.
    pub batches: u64,
}

/// Distributed-coordinator gauges: executor population and the live counts
/// of its shard bindings (a lease is one shard bound to one executor's
/// connection). Published by the coordinator on every binding, drop and
/// journaled trial; absent for single-host campaigns. Every count covers
/// the current coordinator incarnation.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DistStatus {
    /// Executors currently connected and welcomed.
    pub executors: u64,
    /// Shards bound to an executor right now.
    pub leases_active: u64,
    /// Shard bindings made.
    pub leases_granted: u64,
    /// Bindings that ended by a timeout, an I/O error, a protocol fault or
    /// a same-name `Hello`.
    pub leases_expired: u64,
    /// Trials re-sent because the executor they were sent to was dropped.
    pub dup_trials: u64,
    /// Trials journaled.
    pub merged_trials: u64,
}

/// Everything the monitoring plane knows, as one JSON-serializable value:
/// the monitor endpoint's reply frame and the `heartbeat.json` schema.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatusSnapshot {
    pub pid: u32,
    /// Campaign label (benchmark name); empty until a campaign begins.
    pub label: String,
    /// "inject" | "beam" | "pending".
    pub kind: String,
    pub elapsed_secs: f64,
    pub finished: bool,
    pub done: u64,
    pub prior: u64,
    pub total: u64,
    pub trials_per_sec: f64,
    /// Smoothed seconds to completion; `None` until the rate is primed.
    pub eta_secs: Option<f64>,
    pub shards: Vec<ShardStatus>,
    pub mix: OutcomeMix,
    pub pool_hits: u64,
    pub pool_rebuilds: u64,
    pub workers: WorkerHealth,
    /// Adaptive-planner gauges; `None` unless the campaign is planner-driven.
    pub planner: Option<PlannerStatus>,
    /// Distributed-coordinator gauges; `None` unless the campaign is
    /// coordinator-driven.
    pub dist: Option<DistStatus>,
    pub counters: Vec<CounterStatus>,
    pub spans: Vec<SpanStatus>,
}

/// Builds the current status. Before [`begin_campaign`] this is a `pending`
/// placeholder (the endpoint must answer from the moment the flag parses,
/// or `phi-top` would race campaign startup).
pub fn status() -> StatusSnapshot {
    match current() {
        Some(state) => state.status(),
        None => {
            let merged = obs::merged_snapshot();
            StatusSnapshot {
                pid: std::process::id(),
                label: String::new(),
                kind: "pending".into(),
                elapsed_secs: 0.0,
                finished: false,
                done: 0,
                prior: 0,
                total: 0,
                trials_per_sec: 0.0,
                eta_secs: None,
                shards: Vec::new(),
                mix: OutcomeMix::default(),
                pool_hits: merged.counter("pool/hits"),
                pool_rebuilds: merged.counter("pool/rebuilds"),
                workers: worker_health(&merged),
                planner: None,
                dist: None,
                counters: counters_of(&merged),
                spans: spans_of(&merged),
            }
        }
    }
}

fn worker_health(merged: &MetricsSnapshot) -> WorkerHealth {
    WorkerHealth {
        spawned: merged.counter("warden/spawned"),
        killed: merged.counter("warden/killed"),
        retries: merged.counter("warden/retries"),
        quarantined: merged.counter("warden/quarantined"),
        metric_frames: merged.counter("warden/metric_frames"),
    }
}

fn counters_of(merged: &MetricsSnapshot) -> Vec<CounterStatus> {
    merged.counters.iter().map(|(name, &value)| CounterStatus { name: name.clone(), value }).collect()
}

fn spans_of(merged: &MetricsSnapshot) -> Vec<SpanStatus> {
    merged
        .hists
        .iter()
        .map(|(name, h)| SpanStatus {
            name: name.clone(),
            count: h.count,
            mean_ns: h.mean_ns(),
            p50_ns: h.percentile(0.50),
            p95_ns: h.percentile(0.95),
            p99_ns: h.percentile(0.99),
            max_ns: h.max_ns,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Status endpoint.

/// Client → monitor requests (one per connection for `Snapshot`; a
/// `Subscribe` connection streams until the client hangs up).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MonitorRequest {
    /// One [`StatusSnapshot`] frame, then the server closes the stream.
    Snapshot,
    /// A snapshot frame every `interval_ms` until the connection drops.
    Subscribe { interval_ms: u64 },
}

/// Claims a Unix-socket path for a new listener without stealing it from a
/// live process: a stale socket file (its owner died without unlinking) is
/// cleaned and re-bound, but a path something still answers on — or any
/// non-socket file — is an `AddrInUse` error naming the conflict. Blindly
/// `remove_file`-then-bind would silently hijack a running campaign's
/// monitor endpoint.
pub fn claim_socket(path: &Path) -> std::io::Result<UnixListener> {
    use std::os::unix::fs::FileTypeExt;
    match std::fs::symlink_metadata(path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
        Ok(meta) if !meta.file_type().is_socket() => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::AddrInUse,
                format!("{} exists and is not a socket; refusing to replace it", path.display()),
            ));
        }
        Ok(_) => match UnixStream::connect(path) {
            // Someone answered: the endpoint is alive, do not steal it.
            Ok(_) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::AddrInUse,
                    format!("{} is already served by a live process", path.display()),
                ));
            }
            // Nobody listening behind the file: stale leftover, clean it.
            Err(_) => std::fs::remove_file(path)?,
        },
    }
    UnixListener::bind(path)
}

/// Binds `path` (via [`claim_socket`] — stale socket files are cleaned,
/// live endpoints are an error instead of being silently stolen) and serves
/// [`StatusSnapshot`] frames from a detached background thread (it must
/// never gate campaign shutdown, so it is not joined; the socket file dies
/// with the process's temp hygiene). Implies [`enable`].
pub fn serve_monitor(path: &Path) -> std::io::Result<()> {
    enable();
    let listener = claim_socket(path)?;
    std::thread::Builder::new().name("phi-monitor".into()).spawn(move || {
        for conn in listener.incoming() {
            let Ok(stream) = conn else { continue };
            let _ = std::thread::Builder::new().name("phi-monitor-conn".into()).spawn(move || {
                let _ = serve_connection(stream);
            });
        }
    })?;
    Ok(())
}

fn serve_connection(mut stream: UnixStream) -> std::io::Result<()> {
    let request: MonitorRequest = read_frame_blocking(&mut stream)?;
    match request {
        MonitorRequest::Snapshot => write_frame(&mut stream, &status()),
        MonitorRequest::Subscribe { interval_ms } => {
            let interval = Duration::from_millis(interval_ms.clamp(50, 60_000));
            loop {
                write_frame(&mut stream, &status())?;
                std::thread::sleep(interval);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Heartbeat flight recorder.

/// Starts the periodic `heartbeat.json` writer (atomic tmp+rename). The
/// first write happens synchronously so even campaigns shorter than the
/// refresh period leave a file. Implies [`enable`].
pub fn start_heartbeat(path: PathBuf) {
    enable();
    {
        let mut slot = HEARTBEAT_PATH.lock().unwrap_or_else(|e| e.into_inner());
        let already_running = slot.is_some();
        *slot = Some(path);
        if already_running {
            return; // the existing writer thread picks up the new path
        }
    }
    write_heartbeat();
    let _ = std::thread::Builder::new().name("phi-heartbeat".into()).spawn(|| loop {
        std::thread::sleep(HEARTBEAT_FILE_EVERY);
        write_heartbeat();
    });
}

/// Serializes the current status to the heartbeat path, if one is set.
/// Atomic replace: readers never see a torn file.
pub fn write_heartbeat() {
    let path = HEARTBEAT_PATH.lock().unwrap_or_else(|e| e.into_inner()).clone();
    let Some(path) = path else { return };
    let Ok(json) = serde_json::to_string(&status()) else { return };
    let tmp = path.with_extension("json.tmp");
    if std::fs::write(&tmp, json.as_bytes()).is_ok() {
        let _ = std::fs::rename(&tmp, &path);
    }
}

#[cfg(test)]
mod tests {
    // Instance-level tests only: the process-global plumbing (enable /
    // begin_campaign / serve_monitor / heartbeat) is exercised in
    // `tests/isolation_telemetry.rs`, a separate process, because flipping
    // the global ACTIVE gate here would race the orchestrator tests that
    // share this test binary.
    use super::*;
    use store::{ShardPlan, ShardProgress};

    fn fresh(trials: usize, shards: usize) -> CampaignProgress {
        let plan = ShardPlan::new(trials, shards);
        let progress = ShardProgress::replay(shards, &[]).unwrap();
        CampaignProgress::new("hotspot", "inject", &plan, &progress)
    }

    #[test]
    fn ticks_roll_up_into_status_and_eta_appears_once_primed() {
        let p = fresh(100, 4);
        for _ in 0..10 {
            p.tick(0);
        }
        p.tick(3);
        p.seal(3);
        p.backdate_ewma(Duration::from_secs(2));
        let s = p.status();
        assert_eq!(s.label, "hotspot");
        assert_eq!(s.kind, "inject");
        assert_eq!(s.total, 100);
        assert_eq!(s.done, 11);
        assert_eq!(s.shards.len(), 4);
        assert_eq!(s.shards[0].done, 10);
        assert_eq!(s.shards[0].total, 25);
        assert!(s.shards[3].sealed);
        assert!(!s.shards[0].sealed);
        assert!(s.trials_per_sec > 0.0, "rate: {}", s.trials_per_sec);
        let eta = s.eta_secs.expect("rate primed, remaining > 0");
        assert!(eta > 0.0);
        assert!(!s.finished);
        p.complete();
        assert!(p.status().finished);
    }

    #[test]
    fn resumed_campaigns_report_prior_trials_but_rate_ignores_them() {
        let plan = ShardPlan::new(40, 2);
        let entries: Vec<store::JournalEntry> = (0..15)
            .map(|seq| store::JournalEntry::Trial { shard: 0, seq, payload: "{}".into() })
            .collect();
        let progress = ShardProgress::replay(2, &entries).unwrap();
        let p = CampaignProgress::new("lud", "inject", &plan, &progress);
        p.backdate_ewma(Duration::from_secs(2));
        let s = p.status();
        assert_eq!(s.prior, 15);
        assert_eq!(s.done, 15);
        assert_eq!(s.shards[0].done, 15);
        // No new completions since resume: rate 0, no ETA.
        assert_eq!(s.trials_per_sec, 0.0);
        assert!(s.eta_secs.is_none());
    }

    #[test]
    fn ewma_smooths_toward_the_instantaneous_rate() {
        let mut e = Ewma { at: Instant::now() - Duration::from_secs(2), done: 0, rate: 0.0, primed: false };
        let now = Instant::now();
        // First observation primes directly: ~100 trials in ~2s → ~50/s.
        let r1 = e.advance(now, 100);
        assert!((40.0..60.0).contains(&r1), "{r1}");
        // A much slower second interval pulls the rate down, but not all
        // the way (TAU keeps history).
        e.at = now - Duration::from_secs(2);
        e.done = 100;
        let r2 = e.advance(now, 102);
        assert!(r2 < r1, "{r2} !< {r1}");
        assert!(r2 > 1.0, "smoothing must retain history, got {r2}");
    }

    #[test]
    fn out_of_range_shard_indices_are_ignored() {
        let p = fresh(10, 2);
        p.tick(99);
        p.seal(99);
        assert_eq!(p.status().done, 0);
    }

    #[test]
    fn status_snapshot_roundtrips_through_json() {
        let p = fresh(10, 2);
        p.tick(1);
        let s = p.status();
        let json = serde_json::to_string(&s).unwrap();
        let back: StatusSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn monitor_requests_roundtrip_through_json() {
        for req in [MonitorRequest::Snapshot, MonitorRequest::Subscribe { interval_ms: 250 }] {
            let json = serde_json::to_string(&req).unwrap();
            let back: MonitorRequest = serde_json::from_str(&json).unwrap();
            assert_eq!(back, req);
        }
    }
}
