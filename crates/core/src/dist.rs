//! Distributed campaigns: a TCP coordinator that runs the campaign engine's
//! shard queue on remote executors, with straggler re-dispatch and crash
//! recovery on both sides.
//!
//! The paper's campaigns (90 000+ injections) want more than one host, but a
//! distributed run is only publishable if it is *the same experiment*: the
//! aggregate must be bit-identical to the single-host run with the same
//! seed. That falls out of the repo's standing invariant — a trial's global
//! index is its RNG stream id, its fault-model selector and its position in
//! the aggregate — so distribution reduces to *placement*:
//!
//! * The **coordinator** owns the campaign journal and drives it with the
//!   engine's `open_journal` and `drive_shards`, one worker per shard, as a
//!   single-host stored campaign does. A shard worker binds one idle
//!   executor (the binding is the lease) and sends it `Run{trial}` for
//!   every trial of the shard the journal lacks. Each returned record is
//!   decoded, checked against the trial it answers, and journaled through
//!   the engine's own append, checkpoint and seal. The coordinator chooses
//!   every trial, so no second copy of one can reach the journal.
//! * **Executors** hold no durable state. An executor is a trial server:
//!   the spec arrives in `Welcome`, and each `Run` is answered with the
//!   record of that global index.
//! * A binding lives only as long as its connection. A `Record` that has
//!   not arrived `lease_timeout` after its `Run`, an I/O error or a
//!   protocol fault drops the connection; the shard binds the next idle
//!   executor and re-sends the same trial, so at most that one trial is
//!   computed twice. A `Hello` under a name that still holds a connection
//!   ends that connection at once, because the process behind it is gone.
//!   A restarted coordinator resumes from the journal alone, like every
//!   stored campaign.
//!
//! Transport is the warden's length-prefixed JSON framing ([`write_frame`]
//! / [`read_frame`]) over `TcpStream`, with the same `MAX_FRAME` cap
//! enforced on network reads and `TCP_NODELAY` on both ends. Nothing waits
//! on a timer: an idle executor blocks in its read until it hears `Run` or
//! `Done`, the accept loop blocks in `accept`, and a returning coordinator
//! wakes it with a connection of its own.

use crate::monitor::{self, DistStatus};
use crate::orchestrator::{drive_shards, one_by_one, open_journal, StoreConfig, StoredRun};
use crate::record::TrialRecord;
use crate::warden::{read_frame, write_frame};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::thread::Scope;
use std::time::{Duration, Instant};
use store::CampaignMeta;

/// Executor → coordinator messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ExecutorMsg {
    /// First frame on every connection. `name` identifies the executor
    /// across reconnects: a `Hello` ends any connection still held under
    /// the same name, because the process that held it is gone.
    Hello { name: String, pid: u32 },
    /// The reply to `Run{trial}`: that trial's record, serialized.
    Record { trial: u64, payload: String },
}

/// Coordinator → executor messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CoordMsg {
    /// Reply to `Hello`: campaign identity plus an opaque spec string the
    /// executor uses to build its trial runner (the bench layer puts a
    /// serialized `CampaignSpec` here; the core does not interpret it).
    Welcome { meta: CampaignMeta, spec: String },
    /// Compute global trial `trial` and answer with its `Record`.
    Run { trial: u64 },
    /// Every shard is sealed; the campaign is complete.
    Done,
}

fn protocol(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

/// After the last shard seals, the coordinator keeps answering so executors
/// that connect late hear [`CoordMsg::Done`] instead of a connection reset.
/// [`run_coordinator`] returns as soon as every accepted connection has
/// closed, or after this bound — whichever is first.
const LINGER: Duration = Duration::from_secs(10);

/// Consecutive connect/roundtrip failures an executor tolerates before
/// giving up. Sized to ride out a coordinator restart window.
const MAX_FAILURES: u32 = 200;

/// Cap on the executor's deterministic exponential reconnect backoff.
const BACKOFF_CAP: Duration = Duration::from_millis(200);

/// Coordinator configuration.
#[derive(Debug, Clone)]
pub struct CoordConfig {
    /// Campaign journal directory.
    pub dir: PathBuf,
    /// Campaign identity, checked against the journal on resume.
    pub meta: CampaignMeta,
    /// Opaque spec handed to executors in `Welcome`.
    pub spec: String,
    /// Continue an existing journal instead of demanding a fresh directory.
    pub resume: bool,
    /// A `Record` that has not arrived this long after its `Run` drops the
    /// executor, and the trial goes to the next idle one.
    pub lease_timeout: Duration,
    /// Test hook: pause the engine once exactly this many trials are
    /// journaled (checkpointed and synced) and drop every connection
    /// without `Done`, as a killed coordinator would. `None` in production.
    pub stop_after_merged: Option<u64>,
}

impl CoordConfig {
    pub fn new(dir: impl Into<PathBuf>, meta: CampaignMeta, spec: impl Into<String>) -> Self {
        CoordConfig {
            dir: dir.into(),
            meta,
            spec: spec.into(),
            resume: false,
            lease_timeout: Duration::from_millis(2000),
            stop_after_merged: None,
        }
    }
}

/// What a finished (or deliberately abandoned) coordinator did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoordSummary {
    /// Trials journaled this incarnation.
    pub merged: u64,
    /// Trials re-sent because the executor they were sent to was dropped.
    pub duplicates: u64,
    /// Shard bindings made.
    pub leases_granted: u64,
    /// Bindings that ended by a timeout, an I/O error, a protocol fault or
    /// a same-name `Hello`.
    pub leases_expired: u64,
    /// Bindings of a shard that was bound before in this incarnation, or
    /// that held journaled trials at open.
    pub redispatched: u64,
    /// True only for the `stop_after_merged` crash-simulation hook.
    pub abandoned: bool,
}

/// A welcomed executor's connection.
struct Conn {
    id: u64,
    stream: TcpStream,
}

struct State {
    /// Every accepted connection not yet closed: the executor's name once
    /// it is welcomed, and a handle that shuts the socket down.
    open: HashMap<u64, (Option<String>, TcpStream)>,
    /// Welcomed executors with no binding, oldest first.
    idle: VecDeque<Conn>,
    next_id: u64,
    /// Per shard: bound before in this incarnation, or journaled trials at
    /// open.
    ever_bound: Vec<bool>,
    bound: u64,
    summary: CoordSummary,
    /// Set at the last seal: until then, the end of the linger.
    linger_until: Option<Instant>,
    /// The coordinator is returning: connections are no longer served.
    closing: bool,
}

impl State {
    fn executors(&self) -> u64 {
        self.open.values().filter(|(name, _)| name.is_some()).count() as u64
    }
}

struct Coordinator<'a> {
    cfg: &'a CoordConfig,
    state: Mutex<State>,
    /// Signalled when an executor turns idle and when a connection closes.
    changed: Condvar,
}

impl Coordinator<'_> {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn publish(&self, st: &State) {
        monitor::dist_update(DistStatus {
            executors: st.executors(),
            leases_active: st.bound,
            leases_granted: st.summary.leases_granted,
            leases_expired: st.summary.leases_expired,
            dup_trials: st.summary.duplicates,
            merged_trials: st.summary.merged,
        });
    }

    /// Closes connection `id` if it is still open: shuts its socket down, so
    /// a thread blocked reading it returns, and forgets it.
    fn close(&self, st: &mut State, id: u64) {
        if let Some((_, stream)) = st.open.remove(&id) {
            let _ = stream.shutdown(Shutdown::Both);
            st.idle.retain(|conn| conn.id != id);
            self.changed.notify_all();
        }
    }

    /// Accepts connections until the coordinator returns, each handshake on
    /// a thread of its own.
    fn accept<'s>(&'s self, scope: &'s Scope<'s, '_>, listener: &TcpListener) {
        loop {
            let accepted = listener.accept();
            let mut st = self.lock();
            if st.closing {
                return;
            }
            let stream = match accepted {
                Ok((stream, _)) => stream,
                // A connection reset before it was accepted costs nothing;
                // anything else (out of descriptors) pauses the next try.
                Err(e) => {
                    if !store::is_transient(&e) {
                        drop(st);
                        std::thread::sleep(BACKOFF_CAP);
                    }
                    continue;
                }
            };
            let Ok(handle) = stream.try_clone() else { continue };
            let id = st.next_id;
            st.next_id += 1;
            st.open.insert(id, (None, handle));
            drop(st);
            scope.spawn(move || self.welcome(id, stream));
        }
    }

    /// One connection's handshake. Its `Hello` is read with no lock held,
    /// so a connection that never sends one delays nobody. The executor is
    /// welcomed and joins the idle pool, or, after the last seal, hears
    /// `Done` as well and is waited for until it hangs up.
    fn welcome(&self, id: u64, mut stream: TcpStream) {
        // `write_frame` sends each frame in one write, but of two frames
        // sent back to back (`Welcome`, then `Done` after the last seal)
        // Nagle would hold the second for the executor's delayed ACK
        // (~40 ms).
        let hello = stream.set_nodelay(true).and_then(|()| read_frame::<ExecutorMsg>(&mut stream));
        let mut st = self.lock();
        let Ok(ExecutorMsg::Hello { name, .. }) = hello else {
            self.close(&mut st, id);
            return;
        };
        if !st.open.contains_key(&id) {
            return;
        }
        let held: Vec<u64> =
            st.open.iter().filter(|(_, (held, _))| held.as_deref() == Some(name.as_str())).map(|(&old, _)| old).collect();
        for old in held {
            self.close(&mut st, old);
        }
        let welcome = CoordMsg::Welcome { meta: self.cfg.meta.clone(), spec: self.cfg.spec.clone() };
        let timeout = self.cfg.lease_timeout.max(Duration::from_millis(1));
        if write_frame(&mut stream, &welcome).and_then(|()| stream.set_read_timeout(Some(timeout))).is_err() {
            self.close(&mut st, id);
            return;
        }
        if let Some(entry) = st.open.get_mut(&id) {
            entry.0 = Some(name);
        }
        obs::incr("dist/executors_connected", 1);
        self.publish(&st);
        match st.linger_until {
            None => {
                st.idle.push_back(Conn { id, stream });
                self.changed.notify_all();
            }
            Some(deadline) => {
                drop(st);
                if write_frame(&mut stream, &CoordMsg::Done).is_ok() {
                    await_hangup(&mut stream, deadline);
                }
                let mut st = self.lock();
                self.close(&mut st, id);
                self.publish(&st);
            }
        }
    }

    /// Binds the oldest idle executor to `shard`, waiting for one.
    fn bind(&self, shard: usize) -> Conn {
        let mut st = self.lock();
        let conn = loop {
            if let Some(conn) = st.idle.pop_front() {
                break conn;
            }
            st = self.changed.wait(st).unwrap_or_else(|e| e.into_inner());
        };
        st.bound += 1;
        st.summary.leases_granted += 1;
        obs::incr("dist/leases_granted", 1);
        if std::mem::replace(&mut st.ever_bound[shard], true) {
            st.summary.redispatched += 1;
            obs::incr("dist/redispatched", 1);
        }
        self.publish(&st);
        conn
    }

    /// After the last seal: every idle executor hears `Done`, and the
    /// coordinator lingers until every accepted connection has closed or
    /// [`LINGER`] ends, answering late `Hello`s with `Welcome` and `Done`.
    /// A connection whose `Hello` is still on its way counts: an executor
    /// that connected in time is answered, not reset.
    fn finish(&self) {
        let deadline = Instant::now() + LINGER;
        let mut idle = {
            let mut st = self.lock();
            st.linger_until = Some(deadline);
            std::mem::take(&mut st.idle)
        };
        for conn in &mut idle {
            let _ = write_frame(&mut conn.stream, &CoordMsg::Done);
        }
        for mut conn in idle {
            await_hangup(&mut conn.stream, deadline);
            let mut st = self.lock();
            self.close(&mut st, conn.id);
            self.publish(&st);
        }
        let mut st = self.lock();
        while !st.open.is_empty() && Instant::now() < deadline {
            let left = deadline.saturating_duration_since(Instant::now());
            st = self.changed.wait_timeout(st, left).unwrap_or_else(|e| e.into_inner()).0;
        }
    }
}

/// Reads until the peer hangs up or `deadline` passes.
fn await_hangup(stream: &mut TcpStream, deadline: Instant) {
    let mut sink = [0u8; 64];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return;
        }
        if matches!(stream.read(&mut sink), Ok(0) | Err(_)) {
            return;
        }
    }
}

/// One shard's binding: the executor its trials go to, bound at the shard's
/// first trial and again after each drop. Dropping it, when the shard's task
/// ends, returns the executor to the idle pool.
struct Binding<'c, 'a> {
    coord: &'c Coordinator<'a>,
    shard: usize,
    conn: Option<Conn>,
}

impl Binding<'_, '_> {
    fn run(&mut self, trial: usize) -> TrialRecord {
        let (coord, shard) = (self.coord, self.shard);
        loop {
            let conn = self.conn.get_or_insert_with(|| coord.bind(shard));
            let answer = round_trip(conn, trial);
            let mut st = coord.lock();
            match answer {
                Ok(record) => {
                    st.summary.merged += 1;
                    obs::incr("dist/merged_trials", 1);
                    coord.publish(&st);
                    return record;
                }
                Err(_) => {
                    let id = conn.id;
                    self.conn = None;
                    st.bound -= 1;
                    st.summary.leases_expired += 1;
                    st.summary.duplicates += 1;
                    obs::incr("dist/leases_expired", 1);
                    obs::incr("dist/dup_trials", 1);
                    coord.close(&mut st, id);
                    coord.publish(&st);
                }
            }
        }
    }
}

impl Drop for Binding<'_, '_> {
    fn drop(&mut self) {
        let Some(conn) = self.conn.take() else { return };
        let mut st = self.coord.lock();
        st.bound -= 1;
        if st.open.contains_key(&conn.id) {
            st.idle.push_back(conn);
            self.coord.changed.notify_all();
        }
        self.coord.publish(&st);
    }
}

/// Sends `Run{trial}` and reads its `Record` within the socket's read
/// timeout, the lease timeout. The record must answer `trial`, decode, and
/// carry `trial` itself.
fn round_trip(conn: &mut Conn, trial: usize) -> std::io::Result<TrialRecord> {
    write_frame(&mut conn.stream, &CoordMsg::Run { trial: trial as u64 })?;
    let ExecutorMsg::Record { trial: answered, payload } = read_frame(&mut conn.stream)? else {
        return Err(protocol(format!("expected the Record of trial {trial}")));
    };
    if answered != trial as u64 {
        return Err(protocol(format!("Record of trial {answered} in reply to the Run of trial {trial}")));
    }
    let record = TrialRecord::decode(&payload).map_err(|e| protocol(format!("trial {trial}: bad record: {e}")))?;
    if record.trial != trial {
        return Err(protocol(format!("the record sent for trial {trial} carries trial {}", record.trial)));
    }
    Ok(record)
}

/// Ends every connection when [`run_coordinator`]'s drive is over, however
/// it ends: no more connections are served, every socket still open is
/// shut down (without `Done` unless [`Coordinator::finish`] sent it), and
/// the accept loop is woken by a connection of its own so it can return.
struct Teardown<'c, 'a>(&'c Coordinator<'a>, SocketAddr);

impl Drop for Teardown<'_, '_> {
    fn drop(&mut self) {
        let Teardown(coord, mut addr) = *self;
        let mut st = coord.lock();
        st.closing = true;
        let open: Vec<u64> = st.open.keys().copied().collect();
        for id in open {
            coord.close(&mut st, id);
        }
        coord.publish(&st);
        drop(st);
        if addr.ip().is_unspecified() {
            addr.set_ip(if addr.is_ipv4() { [127, 0, 0, 1].into() } else { std::net::Ipv6Addr::LOCALHOST.into() });
        }
        let _ = TcpStream::connect(addr);
    }
}

/// Runs the coordinator until every shard is sealed (or the
/// `stop_after_merged` crash hook fires). Takes a bound listener so callers
/// control address selection — the `phi-coord` binary binds `--listen` and
/// writes the resolved address to `--addr-file` before calling this. Every
/// thread it starts has ended when it returns.
pub fn run_coordinator(listener: TcpListener, cfg: &CoordConfig) -> std::io::Result<CoordSummary> {
    let store_cfg = StoreConfig {
        shards: cfg.meta.shards,
        resume: cfg.resume,
        budget: cfg.stop_after_merged.map(|n| n as usize),
        ..StoreConfig::new(&cfg.dir)
    };
    let mut journal = open_journal(&store_cfg, cfg.meta.clone(), None)?;
    monitor::begin_campaign(&cfg.meta.benchmark, "dist", &journal.plan, &journal.progress);
    let coord = Coordinator {
        cfg,
        state: Mutex::new(State {
            open: HashMap::new(),
            idle: VecDeque::new(),
            next_id: 0,
            ever_bound: journal.progress.shards.iter().map(|s| s.completed > 0 || s.done).collect(),
            bound: 0,
            summary: CoordSummary::default(),
            linger_until: None,
            closing: false,
        }),
        changed: Condvar::new(),
    };
    coord.publish(&coord.lock());
    let addr = listener.local_addr()?;
    let run = std::thread::scope(|scope| {
        let _teardown = Teardown(&coord, addr);
        scope.spawn(|| coord.accept(scope, &listener));
        let run = drive_shards(&mut journal, store_cfg.budget, cfg.meta.shards, &AtomicU64::new(0), |shard| {
            let binding = parking_lot::Mutex::new(Binding { coord: &coord, shard, conn: None });
            one_by_one(move |trial| binding.lock().run(trial))
        });
        if let Ok(StoredRun::Complete(_)) = run {
            monitor::complete_campaign();
            coord.finish();
        }
        run
    });
    let mut summary = coord.lock().summary.clone();
    summary.abandoned = matches!(run?, StoredRun::Paused { .. });
    Ok(summary)
}

/// How the executor finds the coordinator. `File` is re-read on every
/// connect attempt, so a coordinator restarted on a fresh port (SIGKILL
/// leaves the old one in TIME_WAIT) is found as soon as it rewrites the
/// address file.
#[derive(Debug, Clone)]
pub enum ConnectTarget {
    Addr(String),
    File(PathBuf),
}

impl ConnectTarget {
    fn resolve(&self) -> std::io::Result<String> {
        match self {
            ConnectTarget::Addr(addr) => Ok(addr.clone()),
            ConnectTarget::File(path) => {
                let text = std::fs::read_to_string(path)?;
                let addr = text.trim();
                if addr.is_empty() {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::NotFound,
                        format!("address file {} is empty", path.display()),
                    ));
                }
                Ok(addr.to_string())
            }
        }
    }
}

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Stable identity across restarts of this executor.
    pub name: String,
    pub target: ConnectTarget,
    /// Artificial pacing per computed trial (CI uses this to open kill
    /// windows); zero in production.
    pub throttle: Duration,
}

impl ExecutorConfig {
    /// `_dir` is ignored: executors hold no durable state. The parameter
    /// stays so existing callers keep compiling.
    pub fn new(name: impl Into<String>, _dir: impl Into<PathBuf>, target: ConnectTarget) -> Self {
        ExecutorConfig { name: name.into(), target, throttle: Duration::ZERO }
    }
}

/// What one executor run did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecutorSummary {
    /// Trials computed, each in reply to one `Run`.
    pub computed: u64,
}

/// Deterministic capped exponential backoff for reconnect attempts. No
/// jitter: executors are few and the coordinator accept loop is cheap.
fn connect_backoff(failures: u32) -> Duration {
    let ms = 10u64.saturating_mul(1u64 << failures.min(5));
    Duration::from_millis(ms).min(BACKOFF_CAP)
}

/// Runs one executor until the coordinator reports the campaign done.
///
/// `make_runner` is called once, on the first `Welcome`, with the campaign
/// meta and the coordinator's opaque spec string; it returns the per-trial
/// runner `global_index -> payload`. Determinism contract: the payload for
/// a given global index must not depend on which executor computes it.
pub fn run_executor<F, R>(cfg: &ExecutorConfig, make_runner: F) -> std::io::Result<ExecutorSummary>
where
    F: FnOnce(&CampaignMeta, &str) -> R,
    R: FnMut(u64) -> String,
{
    // Victim panics inside the runner are supervised DUEs, same as the
    // single-host stored campaign — keep their backtraces off stderr.
    let _quiet = crate::panic_guard::silence_panics();
    let mut make_runner = Some(make_runner);
    let mut runner: Option<R> = None;
    let mut meta: Option<CampaignMeta> = None;
    let mut summary = ExecutorSummary::default();
    let mut failures = 0u32;
    let pid = std::process::id();

    let fail = |failures: &mut u32, what: &str, e: std::io::Error| -> std::io::Result<()> {
        *failures += 1;
        obs::incr("dist/net_retries", 1);
        if *failures > MAX_FAILURES {
            return Err(std::io::Error::new(
                e.kind(),
                format!("executor {}: giving up after {} failures ({what}: {e})", cfg.name, *failures),
            ));
        }
        std::thread::sleep(connect_backoff(*failures));
        Ok(())
    };

    'reconnect: loop {
        let mut stream = match cfg.target.resolve().and_then(|addr| TcpStream::connect(&addr)) {
            Ok(s) => s,
            Err(e) => {
                fail(&mut failures, "connect", e)?;
                continue 'reconnect;
            }
        };
        stream.set_nodelay(true).ok();
        let hello = ExecutorMsg::Hello { name: cfg.name.clone(), pid };
        let welcome = match write_frame(&mut stream, &hello).and_then(|()| read_frame(&mut stream)) {
            Ok(reply) => reply,
            Err(e) => {
                fail(&mut failures, "hello", e)?;
                continue 'reconnect;
            }
        };
        let CoordMsg::Welcome { meta: m, spec } = welcome else {
            return Err(protocol("expected Welcome in reply to Hello"));
        };
        match &meta {
            None => {
                let builder = make_runner.take().expect("make_runner consumed exactly once");
                runner = Some(builder(&m, &spec));
                meta = Some(m);
            }
            Some(prev) if *prev == m => {}
            Some(_) => return Err(protocol("coordinator switched campaigns between connections")),
        }
        failures = 0;
        let runner_ref = runner.as_mut().expect("runner built on first Welcome");

        // Idle until the coordinator binds this executor to a shard: the
        // read blocks until the next `Run`, or `Done`.
        loop {
            let trial = match read_frame(&mut stream) {
                Ok(CoordMsg::Run { trial }) => trial,
                Ok(CoordMsg::Done) => return Ok(summary),
                Ok(other) => return Err(protocol(format!("unexpected frame from the coordinator: {other:?}"))),
                Err(e) => {
                    fail(&mut failures, "run", e)?;
                    continue 'reconnect;
                }
            };
            let payload = runner_ref(trial);
            summary.computed += 1;
            if !cfg.throttle.is_zero() {
                std::thread::sleep(cfg.throttle);
            }
            if let Err(e) = write_frame(&mut stream, &ExecutorMsg::Record { trial, payload }) {
                fail(&mut failures, "record", e)?;
                continue 'reconnect;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{CampaignConfig, Injection};
    use crate::orchestrator::TrialKind;
    use crate::record::DueKind;
    use std::path::Path;
    use std::sync::Arc;
    use std::thread::JoinHandle;
    use store::{Journal, ShardProgress};

    fn tmp(name: &str) -> PathBuf {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/test-dist").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn meta(trials: usize, shards: usize) -> CampaignMeta {
        CampaignMeta {
            kind: "inject".into(),
            benchmark: "victim".into(),
            seed: 42,
            trials,
            shards,
            n_windows: 4,
            version: store::journal::FORMAT_VERSION,
        }
    }

    /// The record of global trial `trial`: every field fixed by the index,
    /// as a quarantined trial's record is.
    fn payload_for(trial: u64) -> String {
        let cfg = CampaignConfig { seed: 42, ..Default::default() };
        let record = Injection::new("victim", &cfg).synth_due(8, trial as usize, DueKind::Killed);
        serde_json::to_string(&record).unwrap()
    }

    fn canonical(trials: u64) -> Vec<String> {
        (0..trials).map(payload_for).collect()
    }

    /// The journal's records in trial order; every shard must be sealed.
    fn journaled(dir: &Path, shards: usize) -> Vec<String> {
        let scan = Journal::scan(dir).unwrap();
        let progress = ShardProgress::replay(shards, &scan.entries).unwrap();
        assert!(progress.all_done(), "journal not fully sealed");
        progress.shards.iter().flat_map(|s| s.payloads.clone()).collect()
    }

    fn start(cfg: CoordConfig) -> (String, JoinHandle<CoordSummary>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        (addr, std::thread::spawn(move || run_coordinator(listener, &cfg).unwrap()))
    }

    /// A scripted executor speaking raw frames. Reads that get no frame
    /// fail after 5 s instead of hanging the test.
    struct Raw(TcpStream);

    impl Raw {
        fn connect(addr: &str) -> Raw {
            let stream = TcpStream::connect(addr).unwrap();
            stream.set_nodelay(true).unwrap();
            stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            Raw(stream)
        }

        fn hello(addr: &str, name: &str) -> Raw {
            let mut raw = Raw::connect(addr);
            raw.send(&ExecutorMsg::Hello { name: name.into(), pid: 1 });
            let CoordMsg::Welcome { .. } = raw.next() else { panic!("expected Welcome") };
            raw
        }

        fn send(&mut self, msg: &ExecutorMsg) {
            write_frame(&mut self.0, msg).unwrap();
        }

        fn next(&mut self) -> CoordMsg {
            read_frame(&mut self.0).unwrap()
        }

        fn run(&mut self) -> u64 {
            match self.next() {
                CoordMsg::Run { trial } => trial,
                other => panic!("expected a Run, got {other:?}"),
            }
        }

        fn answer(&mut self, trial: u64) {
            self.send(&ExecutorMsg::Record { trial, payload: payload_for(trial) });
        }

        /// Answers every `Run` until `Done`.
        fn serve(&mut self) -> Vec<u64> {
            let mut served = Vec::new();
            loop {
                match self.next() {
                    CoordMsg::Run { trial } => {
                        self.answer(trial);
                        served.push(trial);
                    }
                    CoordMsg::Done => return served,
                    other => panic!("unexpected {other:?}"),
                }
            }
        }

        /// True once the coordinator has closed this connection.
        fn dropped(&mut self) -> bool {
            matches!(self.0.read(&mut [0u8; 1]), Ok(0) | Err(_))
        }
    }

    #[test]
    fn one_executor_drains_the_campaign() {
        let root = tmp("single");
        let (addr, coord) = start(CoordConfig::new(root.join("coord"), meta(10, 3), "spec-blob"));
        let ecfg = ExecutorConfig::new("ex-a", root.join("ex-a"), ConnectTarget::Addr(addr));
        let seen_spec = Arc::new(Mutex::new(String::new()));
        let spec_probe = seen_spec.clone();
        let summary = run_executor(&ecfg, move |m, spec| {
            assert_eq!(m.trials, 10);
            *spec_probe.lock().unwrap() = spec.to_string();
            payload_for
        })
        .unwrap();
        let coord = coord.join().unwrap();

        assert_eq!(summary.computed, 10);
        assert_eq!((coord.merged, coord.duplicates, coord.leases_granted), (10, 0, 3));
        assert!(!coord.abandoned);
        assert_eq!(*seen_spec.lock().unwrap(), "spec-blob");
        assert_eq!(journaled(&root.join("coord"), 3), canonical(10));
        assert!(!root.join("ex-a").exists(), "executors hold no durable state");
    }

    #[test]
    fn a_silent_executor_is_dropped_at_the_lease_timeout() {
        let root = tmp("silent");
        let mut cfg = CoordConfig::new(root.join("coord"), meta(4, 1), "");
        cfg.lease_timeout = Duration::from_millis(200);
        let (addr, coord) = start(cfg);

        let mut slow = Raw::hello(&addr, "slow");
        assert_eq!(slow.run(), 0);
        let answered = Instant::now(); // before the coordinator sends Run 1
        slow.answer(0);
        assert_eq!(slow.run(), 1); // read, never answered
        let mut fast = Raw::hello(&addr, "fast");
        assert_eq!(fast.run(), 1, "the shard continues from its first unjournaled trial");
        let waited = answered.elapsed();
        assert!(waited >= Duration::from_millis(200), "dropped before the lease timeout: {waited:?}");
        assert!(waited < Duration::from_millis(2200), "re-dispatch lagged the timeout: {waited:?}");
        fast.answer(1);
        assert_eq!(fast.serve(), vec![2, 3]);
        assert!(slow.dropped());
        drop((slow, fast));

        let coord = coord.join().unwrap();
        assert_eq!((coord.merged, coord.duplicates), (4, 1));
        assert_eq!((coord.leases_granted, coord.leases_expired, coord.redispatched), (2, 1, 1));
        assert_eq!(journaled(&root.join("coord"), 1), canonical(4));
    }

    #[test]
    fn a_dead_executor_is_dropped_at_its_next_round_trip() {
        let root = tmp("dead");
        let mut cfg = CoordConfig::new(root.join("coord"), meta(4, 1), "");
        cfg.lease_timeout = Duration::from_secs(60); // only a failed round trip drops an executor
        let (addr, coord) = start(cfg);

        let mut bound = Raw::hello(&addr, "bound");
        assert_eq!(bound.run(), 0);
        // `idle` dies while it waits for a binding; `live` queues behind it.
        drop(Raw::hello(&addr, "idle"));
        let mut live = Raw::hello(&addr, "live");
        bound.answer(0);
        assert_eq!(bound.run(), 1);
        let died = Instant::now();
        drop(bound); // dies mid-shard, holding trial 1
        assert_eq!(live.run(), 1);
        assert!(died.elapsed() < Duration::from_secs(1), "waited {:?} for a dead executor", died.elapsed());
        live.answer(1);
        assert_eq!(live.serve(), vec![2, 3]);
        drop(live);

        let coord = coord.join().unwrap();
        assert_eq!((coord.merged, coord.duplicates, coord.leases_expired), (4, 2, 2));
        assert_eq!(journaled(&root.join("coord"), 1), canonical(4));
    }

    #[test]
    fn a_relaunched_executor_ends_its_old_binding_and_computes_only_missing_trials() {
        let root = tmp("relaunch");
        let mut cfg = CoordConfig::new(root.join("coord"), meta(6, 2), "");
        cfg.lease_timeout = Duration::from_secs(60); // only the relaunch's Hello ends the binding
        let (addr, coord) = start(cfg);

        // The first `x` journals two trials of its shard and hangs on the
        // third with its socket still open, as a process killed without a
        // FIN reaching the coordinator leaves it.
        let mut old = Raw::hello(&addr, "x");
        let first = old.run();
        old.answer(first);
        assert_eq!(old.run(), first + 1);
        old.answer(first + 1);
        assert_eq!(old.run(), first + 2);

        let relaunched = Instant::now();
        let computed = Arc::new(Mutex::new(Vec::new()));
        let probe = Arc::clone(&computed);
        let ecfg = ExecutorConfig::new("x", root.join("x"), ConnectTarget::Addr(addr));
        let summary = run_executor(&ecfg, move |_, _| {
            move |trial| {
                probe.lock().unwrap().push(trial);
                payload_for(trial)
            }
        })
        .unwrap();
        assert!(relaunched.elapsed() < Duration::from_secs(5), "the relaunch waited {:?}", relaunched.elapsed());
        assert!(old.dropped(), "the Hello must end the old connection");
        let coord = coord.join().unwrap();

        let mut computed = computed.lock().unwrap().clone();
        computed.sort_unstable();
        let missing: Vec<u64> = (0..6).filter(|t| *t != first && *t != first + 1).collect();
        assert_eq!(computed, missing);
        assert_eq!(summary.computed, 4);
        assert_eq!((coord.merged, coord.leases_expired), (6, 1));
        assert_eq!(journaled(&root.join("coord"), 2), canonical(6));
    }

    #[test]
    fn idle_executors_hear_done_at_the_last_seal_and_late_hellos_hear_welcome_then_done() {
        let root = tmp("done");
        let mut cfg = CoordConfig::new(root.join("coord"), meta(2, 1), "");
        cfg.lease_timeout = Duration::from_secs(60);
        let (addr, coord) = start(cfg);

        // Accepted before `a`, `late` says Hello only after the last seal
        // and after every welcomed executor has hung up.
        let mut late = Raw::connect(&addr);
        let mut a = Raw::hello(&addr, "a");
        assert_eq!(a.run(), 0);
        let mut idle = Raw::hello(&addr, "idle");
        a.answer(0);
        assert_eq!(a.run(), 1);
        a.answer(1);
        let sealed = Instant::now();
        assert_eq!(idle.next(), CoordMsg::Done);
        assert!(sealed.elapsed() < Duration::from_secs(1), "Done took {:?}", sealed.elapsed());
        assert_eq!(a.next(), CoordMsg::Done);
        drop((a, idle));
        late.send(&ExecutorMsg::Hello { name: "late".into(), pid: 1 });
        let CoordMsg::Welcome { .. } = late.next() else { panic!("expected Welcome") };
        assert_eq!(late.next(), CoordMsg::Done);
        drop(late);

        let coord = coord.join().unwrap();
        assert_eq!((coord.merged, coord.leases_granted), (2, 1));
        assert_eq!(journaled(&root.join("coord"), 1), canonical(2));
    }

    #[test]
    fn a_connection_without_hello_delays_no_other_executor() {
        let root = tmp("no-hello");
        let (addr, coord) = start(CoordConfig::new(root.join("coord"), meta(2, 1), ""));
        let mute = Raw::connect(&addr);
        let connected = Instant::now();
        let mut a = Raw::hello(&addr, "a");
        assert_eq!(a.run(), 0);
        assert!(connected.elapsed() < Duration::from_secs(1), "first Run took {:?}", connected.elapsed());
        a.answer(0);
        assert_eq!(a.serve(), vec![1]);
        drop((a, mute));
        assert_eq!(coord.join().unwrap().merged, 2);
    }

    #[test]
    fn a_wrong_or_undecodable_record_drops_its_executor() {
        let root = tmp("protocol");
        let mut cfg = CoordConfig::new(root.join("coord"), meta(4, 1), "");
        cfg.lease_timeout = Duration::from_secs(60);
        let (addr, coord) = start(cfg);

        let mut other_trial = Raw::hello(&addr, "other-trial");
        assert_eq!(other_trial.run(), 0);
        let mut other_record = Raw::hello(&addr, "other-record");
        let mut garbage = Raw::hello(&addr, "garbage");
        let mut good = Raw::hello(&addr, "good");
        other_trial.answer(1);
        assert!(other_trial.dropped());
        assert_eq!(other_record.run(), 0);
        other_record.send(&ExecutorMsg::Record { trial: 0, payload: payload_for(2) });
        assert!(other_record.dropped());
        assert_eq!(garbage.run(), 0);
        garbage.send(&ExecutorMsg::Record { trial: 0, payload: "{\"trial\":0}".into() });
        assert!(garbage.dropped());
        assert_eq!(good.serve(), vec![0, 1, 2, 3]);
        drop(good);

        let coord = coord.join().unwrap();
        assert_eq!((coord.merged, coord.duplicates, coord.leases_expired), (4, 3, 3));
        assert_eq!(journaled(&root.join("coord"), 1), canonical(4));
    }

    #[test]
    fn the_crash_hook_stops_at_exactly_n_trials_and_a_resume_completes_the_campaign() {
        let root = tmp("crash-hook");
        let mut cfg = CoordConfig::new(root.join("coord"), meta(8, 2), "");
        cfg.lease_timeout = Duration::from_secs(60);
        cfg.stop_after_merged = Some(3);
        let (addr, coord) = start(cfg);

        // Both answer every Run until their connection ends, and must
        // never hear Done.
        let executors: Vec<_> = ["a", "b"]
            .into_iter()
            .map(|name| {
                let mut raw = Raw::hello(&addr, name);
                std::thread::spawn(move || loop {
                    match read_frame::<CoordMsg>(&mut raw.0) {
                        Ok(CoordMsg::Run { trial }) => raw.answer(trial),
                        Ok(other) => panic!("an abandoned coordinator sent {other:?}"),
                        Err(_) => return,
                    }
                })
            })
            .collect();
        let first = coord.join().unwrap();
        for executor in executors {
            executor.join().unwrap();
        }
        assert!(first.abandoned);
        assert_eq!(first.merged, 3);
        let scan = Journal::scan(&root.join("coord")).unwrap();
        assert_eq!(ShardProgress::replay(2, &scan.entries).unwrap().completed(), 3, "exactly n trials journaled");

        let mut cfg = CoordConfig::new(root.join("coord"), meta(8, 2), "");
        cfg.resume = true;
        let (addr, coord) = start(cfg);
        let ecfg = ExecutorConfig::new("a", root.join("a"), ConnectTarget::Addr(addr));
        let summary = run_executor(&ecfg, |_, _| payload_for).unwrap();
        let second = coord.join().unwrap();
        assert_eq!((summary.computed, second.merged), (5, 5));
        assert!(second.redispatched >= 1, "a shard with journaled trials was bound again: {second:?}");
        assert_eq!(journaled(&root.join("coord"), 2), canonical(8));
    }

    /// A raw executor under `name` that drops its connection, unanswered,
    /// at a seeded `Run` and reconnects under the same name, up to four
    /// times; it ends at `Done` or once the coordinator has closed its port.
    fn flaky(addr: String, name: String, mut rng: u64) -> JoinHandle<()> {
        std::thread::spawn(move || {
            let mut drops = 0;
            loop {
                let Ok(stream) = TcpStream::connect(&addr) else { return };
                let mut raw = Raw(stream);
                raw.0.set_nodelay(true).unwrap();
                raw.0.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
                raw.send(&ExecutorMsg::Hello { name: name.clone(), pid: 1 });
                let Ok(CoordMsg::Welcome { .. }) = read_frame::<CoordMsg>(&mut raw.0) else { return };
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                let mut budget = if drops < 4 { rng % 5 } else { u64::MAX };
                loop {
                    match read_frame::<CoordMsg>(&mut raw.0) {
                        Ok(CoordMsg::Run { trial }) if budget > 0 => {
                            raw.answer(trial);
                            budget -= 1;
                        }
                        Ok(CoordMsg::Run { .. }) | Err(_) => break,
                        Ok(CoordMsg::Done) => return,
                        Ok(other) => panic!("unexpected {other:?}"),
                    }
                }
                drops += 1;
            }
        })
    }

    #[test]
    fn any_drop_schedule_journals_the_canonical_records() {
        for seed in 1..=20u64 {
            let root = tmp(&format!("schedule-{seed}"));
            let mut cfg = CoordConfig::new(root.join("coord"), meta(24, 3), "");
            cfg.lease_timeout = Duration::from_secs(60);
            let (addr, coord) = start(cfg);
            let executors: Vec<_> = (0..3u64)
                .map(|k| flaky(addr.clone(), format!("e{k}"), seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (k + 1)))
                .collect();
            let summary = coord.join().unwrap();
            for executor in executors {
                executor.join().unwrap();
            }
            assert_eq!(summary.merged, 24, "seed {seed}: {summary:?}");
            assert_eq!(journaled(&root.join("coord"), 3), canonical(24), "seed {seed}");
        }
    }
}
