//! Process-isolated trial execution: the **warden**.
//!
//! CAROL-FI (paper §5.1) runs every victim as a separate process under GDB
//! and kills it on a wall-clock limit, so a victim that aborts, blows its
//! stack or gets OOM-killed never takes the injector down. The in-process
//! supervisor emulates that with `catch_unwind`, which survives panics but
//! nothing harder. This module restores the real architecture, ZOFI-style:
//!
//! * The campaign binary re-execs **itself** in a worker mode (selected by
//!   the [`SOCKET_ENV`] environment variable, conventionally alongside a
//!   `--warden-worker` argv marker). The worker's stdin is its end of a
//!   Unix socket pair the parent made for it; over it the worker receives
//!   `Run { trial }` requests, executes trials with the exact same
//!   `execute_trial` code path as the in-process backend, and streams
//!   [`TrialRecord`]s back over a length-prefixed frame protocol.
//! * The parent-side [`Warden`] supervises one worker: it spawns it on
//!   demand, imposes a **wall-clock** deadline per trial (complementing the
//!   in-worker step-budget watchdog, which corrupted control flow can
//!   evade), SIGKILLs the worker on expiry, and classifies worker death
//!   from the exit status — death by signal becomes
//!   [`DueKind::Signal`], a warden kill becomes [`DueKind::Killed`].
//! * Failure policy: *victim-death* (signal / non-zero exit / wall-clock
//!   kill) retries the trial in a fresh worker until
//!   [`IsolateConfig::quarantine_after`] consecutive deaths **quarantine**
//!   it — the trial is recorded as a DUE with a diagnostic and the campaign
//!   moves on. *Infra-death* (spawn failure, clean mid-protocol exit,
//!   protocol corruption) retries with capped exponential backoff and
//!   surfaces an error only once [`IsolateConfig::infra_retries`] is
//!   exhausted. Backoff schedules are deterministic (no wall clock, no OS
//!   entropy) so a reproduced failure reproduces its recovery.
//!
//! Telemetry: `warden/spawned`, `warden/killed`, `warden/retries`,
//! `warden/quarantined` counters, a `trial_wall` span per trial, and the
//! worker's lifecycle as `warden.spawn` (spawn to `Hello`) and
//! `warden.shutdown` (`Shutdown` sent to worker reaped) spans.
//!
//! The worker's *own* telemetry is not lost either: workers that have a
//! metrics-keeping recorder installed periodically (and on shutdown) ship a
//! cumulative [`MetricsFrame`] which the parent folds into the process-global
//! [`obs::MetricsHub`], keyed by worker identity — so `--isolate --telemetry`
//! footers and the `--monitor` endpoint see inside the sandbox.

use crate::record::{DueKind, TrialRecord};
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::os::fd::{AsFd, OwnedFd};
use std::os::unix::net::UnixStream;
use std::os::unix::process::ExitStatusExt;
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Environment variable whose presence switches a re-exec'd binary into
/// worker mode. Its value names no path: the worker's socket is its stdin.
pub const SOCKET_ENV: &str = "PHI_WARDEN_SOCKET";

/// Environment variable carrying the campaign spec (opaque to this module:
/// the embedding binary encodes whatever it needs to rebuild `run_one`).
pub const SPEC_ENV: &str = "PHI_WARDEN_SPEC";

/// Frames larger than this are protocol corruption, not data. Shared by
/// every warden-framed endpoint (supervision sockets, `--monitor`,
/// `phi-serve`).
pub const MAX_FRAME: usize = 16 << 20;

/// How often a worker ships its cumulative metrics while a trial runs, and
/// at most how often after its records.
const METRICS_EVERY: Duration = Duration::from_millis(200);

/// How long a freshly spawned worker gets to say `Hello`.
const SPAWN_WAIT: Duration = Duration::from_secs(10);

/// How long after a broken pipe we wait for the worker's exit status before
/// declaring it unreapable and killing it.
const REAP_GRACE: Duration = Duration::from_secs(2);

/// Parent → worker protocol frames.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Execute one trial (campaign-global index) and reply with `Record`.
    Run { trial: u64 },
    /// Drain and exit cleanly.
    Shutdown,
}

/// Worker → parent protocol frames.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Reply {
    /// A worker's first frame.
    Hello { pid: u32 },
    /// One finished trial; `payload` is the serialized [`TrialRecord`]
    /// exactly as the worker's `execute_trial` produced it.
    Record { trial: u64, payload: String },
    /// Cumulative snapshot of the worker's recorder. Sent opportunistically
    /// (throttled) and on shutdown; the parent folds the latest one per
    /// worker into the global [`obs::MetricsHub`].
    Metrics { metrics: MetricsFrame },
}

/// One counter on the wire. (Named-field structs throughout: the wire
/// format keeps maps as explicit entry lists so the JSON schema is
/// self-describing.)
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterFrame {
    pub name: String,
    pub value: u64,
}

/// One non-empty log₂ histogram bucket on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BucketFrame {
    pub upper_ns: u64,
    pub count: u64,
}

/// One latency histogram on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistFrame {
    pub name: String,
    pub count: u64,
    pub sum_ns: u64,
    pub max_ns: u64,
    pub buckets: Vec<BucketFrame>,
}

/// Wire form of an [`obs::MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsFrame {
    pub counters: Vec<CounterFrame>,
    pub hists: Vec<HistFrame>,
}

impl MetricsFrame {
    pub fn from_snapshot(snap: &obs::MetricsSnapshot) -> Self {
        MetricsFrame {
            counters: snap
                .counters
                .iter()
                .map(|(name, &value)| CounterFrame { name: name.clone(), value })
                .collect(),
            hists: snap
                .hists
                .iter()
                .map(|(name, h)| HistFrame {
                    name: name.clone(),
                    count: h.count,
                    sum_ns: h.sum_ns,
                    max_ns: h.max_ns,
                    buckets: h.buckets.iter().map(|&(upper_ns, count)| BucketFrame { upper_ns, count }).collect(),
                })
                .collect(),
        }
    }

    pub fn into_snapshot(self) -> obs::MetricsSnapshot {
        let mut snap = obs::MetricsSnapshot::new();
        for c in self.counters {
            snap.counters.insert(c.name, c.value);
        }
        for h in self.hists {
            snap.hists.insert(
                h.name,
                obs::HistData {
                    count: h.count,
                    sum_ns: h.sum_ns,
                    max_ns: h.max_ns,
                    buckets: h.buckets.into_iter().map(|b| (b.upper_ns, b.count)).collect(),
                },
            );
        }
        snap
    }
}

fn other(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::other(msg.into())
}

/// Writes one length-prefixed JSON frame (4-byte LE length, then bytes) in
/// one write, so the reader wakes once per frame.
pub fn write_frame<T: Serialize>(w: &mut impl Write, msg: &T) -> std::io::Result<()> {
    let json = serde_json::to_string(msg).map_err(std::io::Error::other)?;
    if json.len() > MAX_FRAME {
        return Err(other(format!("frame of {} bytes exceeds the {MAX_FRAME}-byte cap", json.len())));
    }
    let mut frame = Vec::with_capacity(4 + json.len());
    frame.extend_from_slice(&(json.len() as u32).to_le_bytes());
    frame.extend_from_slice(json.as_bytes());
    w.write_all(&frame)?;
    w.flush()
}

fn parse_frame<T: for<'de> Deserialize<'de>>(bytes: &[u8]) -> std::io::Result<T> {
    let text = std::str::from_utf8(bytes).map_err(|e| other(format!("frame is not UTF-8: {e}")))?;
    serde_json::from_str(text).map_err(|e| other(format!("bad frame {text:?}: {e}")))
}

/// Reads exactly `buf.len()` bytes, each read's timeout re-armed to the
/// time left, so the absolute `deadline` is honored even while bytes
/// trickle in. EOF is `UnexpectedEof`; deadline expiry is `TimedOut`.
fn read_exact_deadline(s: &mut UnixStream, buf: &mut [u8], deadline: Instant) -> std::io::Result<()> {
    let mut filled = 0usize;
    while filled < buf.len() {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::Error::new(std::io::ErrorKind::TimedOut, "wall-clock deadline expired"));
        }
        s.set_read_timeout(Some(left))?;
        match s.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "worker closed the stream"))
            }
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut | std::io::ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reads one frame with an absolute deadline.
pub fn read_frame_deadline<T: for<'de> Deserialize<'de>>(s: &mut UnixStream, deadline: Instant) -> std::io::Result<T> {
    let mut len = [0u8; 4];
    read_exact_deadline(s, &mut len, deadline)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(other(format!("frame length {len} exceeds the {MAX_FRAME}-byte cap")));
    }
    let mut body = vec![0u8; len];
    read_exact_deadline(s, &mut body, deadline)?;
    parse_frame(&body)
}

/// [`read_frame`] with the socket's read timeout cleared: the worker side's
/// read (the parent owns all deadlines). Also the monitor endpoint's
/// framing (`carolfi::monitor`, `phi-top`).
pub fn read_frame_blocking<T: for<'de> Deserialize<'de>>(s: &mut UnixStream) -> std::io::Result<T> {
    s.set_read_timeout(None)?;
    read_frame(s)
}

/// Blocking frame read over any byte stream — the TCP transport of
/// distributed campaigns uses this with `TcpStream`. Honors whatever read
/// timeout the caller set on the underlying socket (a timeout surfaces as
/// the socket's `WouldBlock`/`TimedOut` error; note a timeout mid-frame
/// leaves the stream misaligned, so callers treat it as fatal to the
/// connection). [`MAX_FRAME`] is enforced before any body allocation.
pub fn read_frame<T: for<'de> Deserialize<'de>>(r: &mut impl Read) -> std::io::Result<T> {
    let mut len = [0u8; 4];
    read_exact_stream(r, &mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(other(format!("frame length {len} exceeds the {MAX_FRAME}-byte cap")));
    }
    let mut body = vec![0u8; len];
    read_exact_stream(r, &mut body)?;
    parse_frame(&body)
}

fn read_exact_stream(r: &mut impl Read, buf: &mut [u8]) -> std::io::Result<()> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "peer closed the stream")),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Parent side.

/// How to spawn and supervise worker processes.
#[derive(Debug, Clone)]
pub struct IsolateConfig {
    /// Worker executable (normally `std::env::current_exe()`).
    pub program: PathBuf,
    /// Arguments for the worker invocation (e.g. `["--warden-worker"]`, or
    /// a libtest filter in self-exec tests). Worker mode itself is selected
    /// by [`SOCKET_ENV`], not by argv.
    pub args: Vec<String>,
    /// Opaque campaign spec handed to the worker via [`SPEC_ENV`].
    pub spec: String,
    /// Wall-clock budget per trial; expiry SIGKILLs the worker and records
    /// the trial as [`DueKind::Killed`] (after retries/quarantine policy).
    pub trial_wall: Duration,
    /// Consecutive worker deaths on one trial before it is quarantined.
    pub quarantine_after: u32,
    /// Infra-level failures (spawn error, protocol breakdown) tolerated per
    /// trial before the error is surfaced and the shard fails.
    pub infra_retries: u32,
    /// Base and cap of the exponential retry backoff.
    pub backoff_base: Duration,
    pub backoff_cap: Duration,
}

impl IsolateConfig {
    /// Config with production defaults for a self-re-exec of `program`.
    pub fn new(program: PathBuf, args: Vec<String>, spec: String) -> Self {
        IsolateConfig {
            program,
            args,
            spec,
            trial_wall: Duration::from_secs(30),
            quarantine_after: 2,
            infra_retries: 4,
            backoff_base: Duration::from_millis(20),
            backoff_cap: Duration::from_millis(500),
        }
    }

    /// Retry delay for `attempt` (0-based) of `trial`: capped exponential
    /// growth plus deterministic per-(trial, attempt) jitter, so concurrent
    /// shards retrying the same condition de-synchronize without consulting
    /// a clock or entropy source (which would break reproducibility).
    pub fn backoff(&self, trial: usize, attempt: u32) -> Duration {
        let base_ms = self.backoff_base.as_millis().max(1) as u64;
        let cap_ms = self.backoff_cap.as_millis().max(1) as u64;
        let exp_ms = base_ms.saturating_mul(1u64 << attempt.min(16));
        let hash = (trial as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((attempt as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
        let jitter_ms = hash % base_ms;
        Duration::from_millis(exp_ms.min(cap_ms) + jitter_ms)
    }
}

/// Outcome of one isolated trial, after the retry/quarantine policy ran.
#[derive(Debug)]
pub enum IsolatedTrial {
    /// The worker returned a record (bit-identical to what the in-process
    /// backend would have produced for this trial).
    Completed(Box<TrialRecord>),
    /// The trial killed its worker [`IsolateConfig::quarantine_after`]
    /// times in a row; the caller should journal a synthesized DUE record
    /// carrying `kind` and keep the campaign going.
    Quarantined { kind: DueKind, diagnostic: String },
}

/// How one execution attempt died.
enum Death {
    /// The victim (or something in its process) is at fault: counts toward
    /// quarantine and becomes the trial's DUE kind.
    Victim { kind: DueKind, diag: String },
    /// The harness plumbing is at fault: retried with backoff, then
    /// surfaced as an I/O error (failing the shard, not the campaign).
    Infra(String),
}

struct WorkerConn {
    child: Child,
    stream: UnixStream,
    /// Hub source key: unique per spawned worker (pid alone could recycle),
    /// so a respawn accumulates on top of its predecessors' folded metrics.
    source: String,
}

static WORKER_SEQ: AtomicU64 = AtomicU64::new(0);

/// Supervises one worker process. One warden per orchestrator thread;
/// workers are reused across trials and respawned on demand after a death.
pub struct Warden {
    cfg: IsolateConfig,
    worker: Option<WorkerConn>,
}

impl Warden {
    /// A warden with no worker yet; the first trial spawns one.
    pub fn new(cfg: IsolateConfig) -> Self {
        Warden { cfg, worker: None }
    }

    /// Runs one trial to a final verdict, applying the full watchdog /
    /// retry / quarantine policy. `Err` means infrastructure gave out — the
    /// caller should fail its shard (the journal stays resumable).
    pub fn run_trial(&mut self, trial: usize) -> std::io::Result<IsolatedTrial> {
        let _span = obs::span!("trial_wall");
        let mut deaths: Vec<String> = Vec::new();
        let mut infra = 0u32;
        let mut attempt = 0u32;
        loop {
            match self.attempt_trial(trial) {
                Ok(record) => return Ok(IsolatedTrial::Completed(Box::new(record))),
                Err(Death::Victim { kind, diag }) => {
                    deaths.push(diag);
                    if deaths.len() as u32 >= self.cfg.quarantine_after {
                        obs::incr("warden/quarantined", 1);
                        let diagnostic = format!(
                            "trial {trial} quarantined after {} consecutive worker deaths: {}",
                            deaths.len(),
                            deaths.join("; ")
                        );
                        if obs::enabled() {
                            obs::event("warden_quarantine", &format!("{{\"trial\":{trial},\"deaths\":{}}}", deaths.len()));
                        }
                        return Ok(IsolatedTrial::Quarantined { kind, diagnostic });
                    }
                }
                Err(Death::Infra(msg)) => {
                    infra += 1;
                    if infra > self.cfg.infra_retries {
                        return Err(other(format!(
                            "trial {trial}: {infra} infrastructure failures, giving up; last: {msg}"
                        )));
                    }
                }
            }
            obs::incr("warden/retries", 1);
            std::thread::sleep(self.cfg.backoff(trial, attempt));
            attempt += 1;
        }
    }

    /// Asks the warden's worker to shut down cleanly (best effort; dropping
    /// the warden kills whatever is left).
    pub fn shutdown(&mut self) {
        if let Some(mut w) = self.worker.take() {
            let _span = obs::span!("warden.shutdown");
            let _ = write_frame(&mut w.stream, &Request::Shutdown);
            // Drain the worker's parting frames — it ships a final
            // cumulative Metrics before closing its end of the stream.
            let deadline = Instant::now() + Duration::from_millis(500);
            while let Ok(reply) = read_frame_deadline::<Reply>(&mut w.stream, deadline) {
                if let Reply::Metrics { metrics } = reply {
                    self.fold_metrics(&w.source, metrics);
                }
            }
            if wait_with_grace(&mut w.child, Duration::from_millis(500)).is_none() {
                let _ = w.child.kill();
                let _ = w.child.wait();
            }
        }
    }

    /// Folds a worker's cumulative snapshot into the process-global hub.
    fn fold_metrics(&self, source: &str, metrics: MetricsFrame) {
        obs::incr("warden/metric_frames", 1);
        obs::hub().fold(source, metrics.into_snapshot());
    }

    /// One execution attempt: ensure a live worker, send `Run`, pump frames
    /// until a record arrives or the wall clock runs out.
    fn attempt_trial(&mut self, trial: usize) -> Result<TrialRecord, Death> {
        if self.worker.is_none() {
            self.spawn_worker().map_err(|e| Death::Infra(format!("spawn worker: {e}")))?;
        }
        let deadline = Instant::now() + self.cfg.trial_wall;
        let w = self.worker.as_mut().expect("worker just ensured");
        if let Err(e) = write_frame(&mut w.stream, &Request::Run { trial: trial as u64 }) {
            return Err(self.reap(format!("trial {trial}: sending Run failed: {e}")));
        }
        loop {
            let w = self.worker.as_mut().expect("worker alive while pumping frames");
            match read_frame_deadline::<Reply>(&mut w.stream, deadline) {
                Ok(Reply::Hello { .. }) => continue,
                Ok(Reply::Metrics { metrics }) => {
                    let source = w.source.clone();
                    self.fold_metrics(&source, metrics);
                    continue;
                }
                Ok(Reply::Record { trial: got, payload }) => {
                    if got != trial as u64 {
                        return Err(self.reap(format!("trial {trial}: worker answered trial {got}")));
                    }
                    let record = match TrialRecord::decode(&payload) {
                        Ok(r) => r,
                        Err(e) => return Err(self.reap(format!("trial {trial}: unparseable record: {e}"))),
                    };
                    if record.trial != trial {
                        return Err(self.reap(format!(
                            "trial {trial}: record payload carries trial {}",
                            record.trial
                        )));
                    }
                    return Ok(record);
                }
                Err(e) if e.kind() == std::io::ErrorKind::TimedOut => {
                    // Wall-clock expiry: the complement of the in-worker
                    // step-budget watchdog, for hangs that never step.
                    self.kill_worker();
                    return Err(Death::Victim {
                        kind: DueKind::Killed,
                        diag: format!(
                            "trial {trial}: exceeded the {:?} wall clock; worker killed",
                            self.cfg.trial_wall
                        ),
                    });
                }
                Err(e) => return Err(self.reap(format!("trial {trial}: stream broke: {e}"))),
            }
        }
    }

    /// Spawns a fresh worker with one end of a socket pair as its stdin and
    /// waits for its Hello. The spawn drops the parent's copy of that end,
    /// so a worker that exits first reads as EOF at once.
    fn spawn_worker(&mut self) -> std::io::Result<()> {
        let _span = obs::span!("warden.spawn");
        let (mut stream, theirs) = UnixStream::pair()?;
        let mut child = Command::new(&self.cfg.program)
            .args(&self.cfg.args)
            .env(SOCKET_ENV, "stdin")
            .env(SPEC_ENV, &self.cfg.spec)
            .stdin(OwnedFd::from(theirs))
            .stdout(Stdio::null()) // worker stdout must never pollute figure output
            .spawn()?;
        let hello = read_frame_deadline::<Reply>(&mut stream, Instant::now() + SPAWN_WAIT);
        if !matches!(hello, Ok(Reply::Hello { .. })) {
            // A worker that has already exited keeps its exit status: the
            // kill only reaches the living.
            let _ = child.kill();
            let status = child.wait()?;
            let why = match hello {
                Ok(frame) => format!("its first frame was {frame:?}"),
                Err(e) => e.to_string(),
            };
            return Err(other(format!("no Hello from the worker ({why}); it ended with {status}")));
        }
        obs::incr("warden/spawned", 1);
        let source = format!("worker-{}-{}", child.id(), WORKER_SEQ.fetch_add(1, Ordering::Relaxed));
        self.worker = Some(WorkerConn { child, stream, source });
        Ok(())
    }

    /// SIGKILLs the current worker (wall-clock expiry).
    fn kill_worker(&mut self) {
        if let Some(mut w) = self.worker.take() {
            let _ = w.child.kill();
            let _ = w.child.wait();
            obs::incr("warden/killed", 1);
        }
    }

    /// The stream to the worker broke: classify its death from the exit
    /// status. Signals and non-zero exits are the victim's doing (they
    /// count toward quarantine); a clean exit or an unreapable child is an
    /// infrastructure failure.
    fn reap(&mut self, context: String) -> Death {
        let Some(mut w) = self.worker.take() else {
            return Death::Infra(context);
        };
        match wait_with_grace(&mut w.child, REAP_GRACE) {
            Some(status) => classify_exit(status, context),
            None => {
                // Still alive after breaking the protocol: put it down.
                let _ = w.child.kill();
                let _ = w.child.wait();
                obs::incr("warden/killed", 1);
                Death::Infra(format!("{context}; worker killed after protocol breakdown"))
            }
        }
    }
}

impl Drop for Warden {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Maps a dead worker's exit status onto the failure taxonomy.
fn classify_exit(status: ExitStatus, context: String) -> Death {
    if let Some(signo) = status.signal() {
        Death::Victim {
            kind: DueKind::Signal { signo },
            diag: format!("{context}; worker died on signal {signo}"),
        }
    } else if status.code() == Some(0) {
        // A clean exit mid-protocol is a harness bug, not victim behavior.
        Death::Infra(format!("{context}; worker exited cleanly mid-protocol"))
    } else {
        Death::Victim {
            kind: DueKind::Crash { message: format!("worker exited with {status} mid-trial") },
            diag: format!("{context}; worker exited with {status}"),
        }
    }
}

/// Polls `try_wait` until `grace` expires, napping 10 µs at first and
/// twice as long each time up to 1 ms: a worker whose stream just closed
/// is usually reaped within microseconds.
fn wait_with_grace(child: &mut Child, grace: Duration) -> Option<ExitStatus> {
    let deadline = Instant::now() + grace;
    let mut nap = Duration::from_micros(10);
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return Some(status),
            Ok(None) if Instant::now() < deadline => {
                std::thread::sleep(nap);
                nap = (nap * 2).min(Duration::from_millis(1));
            }
            _ => return None,
        }
    }
}

// ---------------------------------------------------------------------------
// Worker side.

/// True when this process was spawned as a warden worker. Embedding
/// binaries call this first thing in `main` and divert into their worker
/// entry instead of running the figure.
pub fn worker_active() -> bool {
    std::env::var_os(SOCKET_ENV).is_some()
}

/// The opaque campaign spec, when running as a worker.
pub fn worker_spec() -> Option<String> {
    worker_active().then(|| std::env::var(SPEC_ENV).unwrap_or_default())
}

/// Worker main loop: say Hello on the socket the parent handed over as
/// stdin, answer `Run` requests via `run_one` (the embedder rebuilds the
/// campaign's trial closure from the spec) and stream records. Returns
/// when the parent shuts the stream down; refuses a stdin that is not a
/// Unix socket.
/// Victim panics are silenced exactly as in in-process campaigns; anything
/// harder (abort, runaway loop) takes the worker down, which is the point —
/// the parent classifies the corpse.
///
/// If the worker process has a metrics-keeping recorder installed
/// ([`obs::snapshot`] returns `Some`), its cumulative state is shipped to
/// the parent every [`METRICS_EVERY`] while a trial runs, after records
/// (throttled to the same period), and as a parting frame on shutdown.
pub fn serve(mut run_one: impl FnMut(usize) -> TrialRecord) -> std::io::Result<()> {
    let mut reader = UnixStream::from(std::io::stdin().as_fd().try_clone_to_owned()?);
    // Only a Unix socket has a Unix socket name.
    reader.local_addr().map_err(|e| other(format!("the worker's stdin is not a Unix socket: {e}")))?;
    let writer = Arc::new(parking_lot::Mutex::new(reader.try_clone()?));
    let _quiet = crate::panic_guard::silence_panics();
    write_frame(&mut *writer.lock(), &Reply::Hello { pid: std::process::id() })?;

    let send_metrics = |w: &mut UnixStream| -> std::io::Result<()> {
        match obs::snapshot() {
            Some(snap) => write_frame(w, &Reply::Metrics { metrics: MetricsFrame::from_snapshot(&snap) }),
            None => Ok(()),
        }
    };

    // Ticker thread: while a trial is in flight, refreshes the parent's view
    // of our metrics every tick, so even a long-running single trial reports
    // live counters. It waits out each tick on `done`, which the main loop
    // drops on exit, so shutdown wakes it at once instead of after the
    // current tick.
    let busy = Arc::new(AtomicBool::new(false));
    let (done_tx, done) = mpsc::channel::<()>();
    let ticker = {
        let writer = writer.clone();
        let busy = busy.clone();
        std::thread::spawn(move || {
            while let Err(RecvTimeoutError::Timeout) = done.recv_timeout(METRICS_EVERY) {
                if busy.load(Ordering::Relaxed) && send_metrics(&mut writer.lock()).is_err() {
                    break; // parent is gone; the main loop will notice too
                }
            }
        })
    };

    let mut last_metrics = Instant::now();
    let result = loop {
        let request: Request = match read_frame_blocking(&mut reader) {
            Ok(r) => r,
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => break Ok(()),
            Err(e) => break Err(e),
        };
        match request {
            Request::Shutdown => break Ok(()),
            Request::Run { trial } => {
                busy.store(true, Ordering::Relaxed);
                let record = run_one(trial as usize);
                busy.store(false, Ordering::Relaxed);
                let payload = match record.encode() {
                    Ok(p) => p,
                    Err(e) => break Err(other(format!("serialize record for trial {trial}: {e}"))),
                };
                let mut w = writer.lock();
                if let Err(e) = write_frame(&mut *w, &Reply::Record { trial, payload }) {
                    break Err(e);
                }
                // Refresh the parent's metrics view, throttled so fast
                // trials don't pay a snapshot+serialize each (best effort,
                // the Record already landed).
                if last_metrics.elapsed() >= METRICS_EVERY {
                    last_metrics = Instant::now();
                    let _ = send_metrics(&mut w);
                }
            }
        }
    };
    drop(done_tx);
    // Parting cumulative snapshot: the shutdown drain on the parent side
    // folds it so nothing recorded since the last refresh is lost.
    let _ = send_metrics(&mut writer.lock());
    let _ = ticker.join();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::OutcomeRecord;

    /// A synthetic, deterministic record (no real victim needed to exercise
    /// the transport and supervision machinery).
    fn mk_record(trial: usize) -> TrialRecord {
        TrialRecord {
            trial,
            benchmark: "warden-test".into(),
            model: None,
            mechanism: format!("synthetic-{trial}"),
            inject_step: trial % 7,
            total_steps: 7,
            window: 0,
            n_windows: 1,
            injection: None,
            outcome: OutcomeRecord::Masked,
            executed_steps: 7,
        }
    }

    /// Worker entry for the self-exec tests: when spawned by a parent test
    /// (socket env set) it serves trials whose behavior is scripted by the
    /// spec; as an ordinary test run it is a no-op.
    #[test]
    fn warden_worker_entry() {
        let Some(spec) = worker_spec() else { return };
        if spec == "exit-before-hello" {
            std::process::exit(3);
        }
        let result = serve(|trial| {
            match (spec.as_str(), trial) {
                ("abort-on-5", 5) => std::process::abort(),
                ("exit-on-4", 4) => std::process::exit(17),
                ("hang-on-3", 3) => loop {
                    std::thread::sleep(Duration::from_millis(20));
                },
                _ => {}
            }
            mk_record(trial)
        });
        std::process::exit(if result.is_ok() { 0 } else { 1 });
    }

    /// IsolateConfig pointing back at this test binary, filtered down to
    /// the worker entry above.
    fn iso(spec: &str) -> IsolateConfig {
        let mut cfg = IsolateConfig::new(
            std::env::current_exe().expect("test binary path"),
            vec![
                "warden::tests::warden_worker_entry".into(),
                "--exact".into(),
                "--test-threads=1".into(),
                "--nocapture".into(),
            ],
            spec.into(),
        );
        cfg.backoff_base = Duration::from_millis(1);
        cfg.backoff_cap = Duration::from_millis(10);
        cfg
    }

    #[test]
    fn frames_roundtrip_over_a_socketpair() {
        let (mut a, mut b) = UnixStream::pair().unwrap();
        let msg = Reply::Record { trial: 12, payload: "{\"x\":1}".into() };
        write_frame(&mut a, &msg).unwrap();
        let deadline = Instant::now() + Duration::from_secs(1);
        let back: Reply = read_frame_deadline(&mut b, deadline).unwrap();
        assert_eq!(back, msg);
        // Requests too.
        write_frame(&mut b, &Request::Run { trial: 3 }).unwrap();
        let req: Request = read_frame_blocking(&mut a).unwrap();
        assert_eq!(req, Request::Run { trial: 3 });
    }

    #[test]
    fn metrics_frames_roundtrip_to_snapshots() {
        let rec = obs::CounterRecorder::new();
        use obs::Recorder as _;
        rec.incr("warden/spawned", 3);
        rec.observe_ns("trial", 1500);
        rec.observe_ns("trial", 0);
        let snap = rec.snapshot();
        let frame = MetricsFrame::from_snapshot(&snap);
        let (mut a, mut b) = UnixStream::pair().unwrap();
        write_frame(&mut a, &Reply::Metrics { metrics: frame }).unwrap();
        let back: Reply = read_frame_blocking(&mut b).unwrap();
        let Reply::Metrics { metrics } = back else { panic!("wrong frame: {back:?}") };
        assert_eq!(metrics.into_snapshot(), snap);
    }

    #[test]
    fn oversized_frame_lengths_are_rejected_not_allocated() {
        let (mut a, mut b) = UnixStream::pair().unwrap();
        a.write_all(&(u32::MAX).to_le_bytes()).unwrap();
        let err = read_frame_deadline::<Reply>(&mut b, Instant::now() + Duration::from_secs(1)).unwrap_err();
        assert!(err.to_string().contains("cap"), "{err}");
    }

    #[test]
    fn frames_roundtrip_over_tcp_and_enforce_the_cap() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sender = std::thread::spawn(move || {
            let mut s = std::net::TcpStream::connect(addr).unwrap();
            write_frame(&mut s, &Reply::Record { trial: 7, payload: "{\"y\":2}".into() }).unwrap();
            // Then a poisoned length prefix: the reader must refuse it
            // before allocating.
            s.write_all(&(u32::MAX).to_le_bytes()).unwrap();
        });
        let (mut conn, _) = listener.accept().unwrap();
        let back: Reply = read_frame(&mut conn).unwrap();
        assert_eq!(back, Reply::Record { trial: 7, payload: "{\"y\":2}".into() });
        let err = read_frame::<Reply>(&mut conn).unwrap_err();
        assert!(err.to_string().contains("cap"), "{err}");
        sender.join().unwrap();
    }

    #[test]
    fn backoff_is_deterministic_capped_and_growing() {
        let cfg = iso("ok");
        for trial in [0usize, 7, 123] {
            for attempt in 0..40 {
                let a = cfg.backoff(trial, attempt);
                assert_eq!(a, cfg.backoff(trial, attempt), "backoff must be a pure function");
                assert!(
                    a <= cfg.backoff_cap + cfg.backoff_base,
                    "trial {trial} attempt {attempt}: {a:?} above cap+jitter bound"
                );
            }
        }
        assert!(cfg.backoff(0, 0) < cfg.backoff(0, 6), "backoff should grow before the cap");
    }

    #[test]
    fn records_roundtrip_through_a_worker_process() {
        let mut w = Warden::new(iso("ok"));
        for trial in [0usize, 1, 9, 40] {
            match w.run_trial(trial).unwrap() {
                IsolatedTrial::Completed(rec) => {
                    assert_eq!(
                        serde_json::to_string(&*rec).unwrap(),
                        serde_json::to_string(&mk_record(trial)).unwrap(),
                        "trial {trial} must come back bit-identical"
                    );
                }
                IsolatedTrial::Quarantined { diagnostic, .. } => {
                    panic!("healthy trial {trial} quarantined: {diagnostic}")
                }
            }
        }
        w.shutdown();
    }

    #[test]
    fn shutdown_does_not_wait_out_a_metrics_tick() {
        let mut took: Vec<Duration> = (0..5)
            .map(|_| {
                let mut w = Warden::new(iso("ok"));
                assert!(matches!(w.run_trial(0).unwrap(), IsolatedTrial::Completed(_)));
                let t0 = Instant::now();
                w.shutdown();
                t0.elapsed()
            })
            .collect();
        took.sort();
        assert!(took[2] < Duration::from_micros(12_500), "median shutdown took {:?} (all: {took:?})", took[2]);
    }

    #[test]
    fn a_worker_that_exits_before_hello_fails_fast_naming_its_exit_status() {
        let mut w = Warden::new(iso("exit-before-hello"));
        let t0 = Instant::now();
        let err = w.run_trial(0).expect_err("no worker ever says Hello");
        assert!(t0.elapsed() < Duration::from_secs(1), "giving up took {:?}", t0.elapsed());
        assert!(err.to_string().contains("exit status: 3"), "{err}");
    }

    #[test]
    fn a_worker_whose_stdin_is_not_a_socket_exits_non_zero() {
        let cfg = iso("ok");
        let mut child = Command::new(&cfg.program)
            .args(&cfg.args)
            .env(SOCKET_ENV, "stdin")
            .env(SPEC_ENV, &cfg.spec)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        let Some(status) = wait_with_grace(&mut child, Duration::from_secs(1)) else {
            let _ = child.kill();
            let _ = child.wait();
            panic!("a worker on a null stdin was still running after 1 s");
        };
        assert!(!status.success(), "{status}");
    }

    #[test]
    fn aborting_victim_is_quarantined_as_a_signal_due() {
        let mut w = Warden::new(iso("abort-on-5"));
        match w.run_trial(5).unwrap() {
            IsolatedTrial::Quarantined { kind, diagnostic } => {
                assert_eq!(kind, DueKind::Signal { signo: 6 }, "SIGABRT is signal 6");
                assert!(diagnostic.contains("trial 5"), "{diagnostic}");
                assert!(diagnostic.contains("signal 6"), "{diagnostic}");
            }
            IsolatedTrial::Completed(r) => panic!("aborting trial completed: {r:?}"),
        }
        // The campaign goes on: the next trial respawns a worker and runs.
        match w.run_trial(6).unwrap() {
            IsolatedTrial::Completed(rec) => assert_eq!(rec.trial, 6),
            IsolatedTrial::Quarantined { diagnostic, .. } => panic!("trial 6 quarantined: {diagnostic}"),
        }
    }

    #[test]
    fn exiting_victim_is_quarantined_as_a_crash_due() {
        let mut w = Warden::new(iso("exit-on-4"));
        match w.run_trial(4).unwrap() {
            IsolatedTrial::Quarantined { kind, .. } => match kind {
                DueKind::Crash { message } => assert!(message.contains("17"), "{message}"),
                other => panic!("expected Crash, got {other:?}"),
            },
            IsolatedTrial::Completed(r) => panic!("exiting trial completed: {r:?}"),
        }
    }

    #[test]
    fn hung_victim_is_wall_clock_killed() {
        let mut cfg = iso("hang-on-3");
        cfg.trial_wall = Duration::from_millis(400);
        let mut w = Warden::new(cfg);
        match w.run_trial(3).unwrap() {
            IsolatedTrial::Quarantined { kind, diagnostic } => {
                assert_eq!(kind, DueKind::Killed);
                assert!(diagnostic.contains("wall clock"), "{diagnostic}");
            }
            IsolatedTrial::Completed(r) => panic!("hung trial completed: {r:?}"),
        }
        // Healthy trials still finish comfortably inside the short wall.
        match w.run_trial(0).unwrap() {
            IsolatedTrial::Completed(rec) => assert_eq!(rec.trial, 0),
            IsolatedTrial::Quarantined { diagnostic, .. } => panic!("trial 0 quarantined: {diagnostic}"),
        }
        w.shutdown();
    }
}
