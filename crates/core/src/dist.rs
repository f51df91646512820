//! Distributed campaigns: a TCP coordinator leasing shard ranges to
//! executors, with straggler re-dispatch and crash recovery on both sides.
//!
//! The paper's campaigns (90 000+ injections) want more than one host, but a
//! distributed run is only publishable if it is *the same experiment*: the
//! aggregate must be bit-identical to the single-host run with the same
//! seed. That falls out of the repo's standing invariant — a trial's global
//! index is its RNG stream id, its fault-model selector and its position in
//! the aggregate — so distribution reduces to *placement*, and placement
//! can be sloppy as long as merging is strict:
//!
//! * The **coordinator** owns the campaign journal. It leases whole
//!   contiguous shard ranges ([`store::ShardPlan::range`]) to executors and
//!   merges their trial streams through [`store::Importer`], which dedupes
//!   by global trial index. Every copy of a trial is byte-identical, so
//!   re-dispatch and replay can only waste work, never corrupt it.
//! * **Executors** hold no durable state. An executor is a trial server:
//!   the spec arrives in `Welcome`, and each lease is answered by computing
//!   and streaming global index → payload for the shard-local sequences
//!   the merge still lacks. Under strict request/response and the
//!   coordinator's write-through journal, a killed, relaunched or re-leased
//!   executor recomputes at most the one trial not yet acknowledged.
//! * Failure handling is lease-based. A lease with no traffic for
//!   `lease_timeout` is expired and its shard re-dispatched to the next
//!   executor that asks (straggler re-dispatch); a stale executor's frames
//!   are answered with [`CoordMsg::Expired`] and can never write into the
//!   journal. Lease decisions are write-ahead logged to a checksummed
//!   [`store::LedgerWriter`] *before* the lease frame is sent, so a
//!   SIGKILLed coordinator reopens the journal + ledger and resumes
//!   mid-campaign with every granted-but-unfinished shard immediately
//!   re-dispatchable.
//!
//! Transport is the warden's length-prefixed JSON framing ([`write_frame`]
//! / [`read_frame`]) over `TcpStream`, with the same `MAX_FRAME` cap
//! enforced on network reads. The protocol is strict request/response:
//! every [`ExecutorMsg`] gets exactly one [`CoordMsg`] reply, which keeps
//! both ends trivially restartable — any torn exchange is just a dropped
//! connection, and reconnecting re-establishes all state from `Hello`.
//! Both ends wait only for work: a `LeaseRequest` that cannot be granted
//! yet is long-polled (its reply waits until a lease completes or expires
//! or the campaign ends), and both sockets set `TCP_NODELAY`.

use crate::monitor::{self, DistStatus};
use crate::warden::{read_frame, write_frame};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use store::{
    BatchPolicy, CampaignMeta, Importer, JournalEntry, JournalWriter, LeaseState, LedgerEntry, LedgerWriter, Offer,
    ShardCursor, ShardPlan,
};

/// Executor → coordinator messages. One reply each.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ExecutorMsg {
    /// First frame on every connection. `name` identifies the executor
    /// across reconnects: a `Hello` expires any lease still held under the
    /// same name, because the process that held it is gone.
    Hello { name: String, pid: u32 },
    /// Ask for work. Answered with `Lease` or `Done`; while every unsealed
    /// shard is leased the reply waits until one completes or expires.
    LeaseRequest,
    /// One trial result. `seq` is shard-local; `payload` is the
    /// pre-serialized trial record, opaque to the coordinator.
    Trial { lease: u64, shard: usize, seq: u64, payload: String },
    /// The executor streamed its whole range.
    RangeDone { lease: u64 },
}

/// Coordinator → executor replies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CoordMsg {
    /// Reply to `Hello`: campaign identity plus an opaque spec string the
    /// executor uses to build its trial runner (the bench layer puts a
    /// serialized `CampaignSpec` here; the core does not interpret it).
    Welcome { meta: CampaignMeta, spec: String },
    /// A granted lease over shard `shard` = global trials `start..end`.
    /// The executor streams shard-local sequences `skip..(end-start)`; the
    /// merge already holds everything before `skip`.
    Lease { lease: u64, shard: usize, start: u64, end: u64, skip: u64, timeout_ms: u64 },
    /// Frame accepted.
    Ack,
    /// The named lease is no longer valid — abandon the range and request
    /// a new lease. Sent to stragglers whose lease timed out.
    Expired,
    /// Every shard is sealed; the campaign is complete.
    Done,
}

fn protocol(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

fn lock_state(state: &Mutex<CoordState>) -> MutexGuard<'_, CoordState> {
    state.lock().unwrap_or_else(|e| e.into_inner())
}

/// After the last shard seals, the coordinator keeps answering so executors
/// that ask for work late hear [`CoordMsg::Done`] instead of a connection
/// reset. [`run_coordinator`] returns as soon as every connected executor
/// has disconnected, or after this bound — whichever is first.
const LINGER: Duration = Duration::from_secs(10);

/// Consecutive connect/roundtrip failures an executor tolerates before
/// giving up. Sized to ride out a coordinator restart window.
const MAX_FAILURES: u32 = 200;

/// Cap on the executor's deterministic exponential reconnect backoff.
const BACKOFF_CAP: Duration = Duration::from_millis(200);

/// Coordinator configuration.
#[derive(Debug, Clone)]
pub struct CoordConfig {
    /// Campaign journal directory (journal segments + `ledger.jsonl`).
    pub dir: PathBuf,
    /// Campaign identity, checked against the journal on resume.
    pub meta: CampaignMeta,
    /// Opaque spec handed to executors in `Welcome`.
    pub spec: String,
    /// Continue an existing journal instead of demanding a fresh directory.
    pub resume: bool,
    /// A lease with no traffic for this long is expired and its shard
    /// re-dispatched.
    pub lease_timeout: Duration,
    /// Test hook: abandon the coordinator (no seal, no close, writers
    /// leaked exactly as a SIGKILL would leave them) once this many trials
    /// merged. `None` in production.
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoordSummary {
    /// Fresh trials merged into the journal this incarnation.
    pub merged: u64,
    /// Duplicate trials dropped by the dedupe-by-index merge.
    pub duplicates: u64,
    pub leases_granted: u64,
    pub leases_expired: u64,
    /// Shards granted more than once (straggler re-dispatch).
    pub redispatched: u64,
    /// True only for the `stop_after_merged` crash-simulation hook.
    pub abandoned: bool,
}

#[derive(Debug)]
struct LeaseInfo {
    shard: usize,
    executor: String,
    last_seen: Instant,
}

struct CoordState {
    meta: CampaignMeta,
    spec: String,
    plan: ShardPlan,
    importer: Importer,
    writer: Option<JournalWriter>,
    ledger: Option<LedgerWriter>,
    leases: HashMap<u64, LeaseInfo>,
    next_lease: u64,
    sealed: Vec<bool>,
    ever_leased: Vec<bool>,
    lease_timeout: Duration,
    stop_after_merged: Option<u64>,
    executors: u64,
    granted: u64,
    expired: u64,
    redispatched: u64,
    done: bool,
    abandoned: bool,
    /// Signalled, with the state lock held, whenever a parked
    /// `LeaseRequest` may have an answer (a lease completed or expired, the
    /// campaign finished or was abandoned) and whenever a connection drops.
    /// The accept loop waits on it too.
    wake: Arc<Condvar>,
}

impl CoordState {
    fn dist_status(&self) -> DistStatus {
        DistStatus {
            executors: self.executors,
            leases_active: self.leases.len() as u64,
            leases_granted: self.granted,
            leases_expired: self.expired,
            dup_trials: self.importer.duplicates,
            merged_trials: self.importer.accepted,
        }
    }

    fn publish(&self) {
        monitor::dist_update(self.dist_status());
    }

    fn ledger_mut(&mut self) -> std::io::Result<&mut LedgerWriter> {
        self.ledger.as_mut().ok_or_else(|| protocol("coordinator ledger already retired"))
    }

    /// Expires one lease: removes it and write-ahead logs the decision.
    fn expire(&mut self, lease: u64) -> std::io::Result<()> {
        if self.leases.remove(&lease).is_none() {
            return Ok(());
        }
        self.ledger_mut()?.append(&LedgerEntry::Expired { lease })?;
        self.expired += 1;
        obs::incr("dist/leases_expired", 1);
        self.wake.notify_all();
        Ok(())
    }

    /// Expires every lease with no traffic inside the timeout window.
    /// Evaluated lazily at grant time, which a parked request reaches when
    /// its wait times out at [`CoordState::next_expiry`] — no background
    /// timer thread.
    fn expire_stale(&mut self) -> std::io::Result<()> {
        let timeout = self.lease_timeout;
        let mut stale: Vec<u64> =
            self.leases.iter().filter(|(_, info)| info.last_seen.elapsed() > timeout).map(|(&id, _)| id).collect();
        stale.sort_unstable();
        for id in stale {
            self.expire(id)?;
        }
        Ok(())
    }

    /// When the oldest lease expires unless it sees traffic first.
    fn next_expiry(&self) -> Option<Instant> {
        self.leases.values().map(|info| info.last_seen + self.lease_timeout).min()
    }

    /// A reconnecting executor's previous leases belong to a dead process.
    fn expire_leases_of(&mut self, name: &str) -> std::io::Result<()> {
        let mut held: Vec<u64> = self.leases.iter().filter(|(_, info)| info.executor == name).map(|(&id, _)| id).collect();
        held.sort_unstable();
        for id in held {
            self.expire(id)?;
        }
        Ok(())
    }

    /// Seals `shard` in the central journal: checkpoint + `ShardDone` +
    /// fsync. Always precedes the ledger's `Completed`, so a
    /// ledger-completed shard is guaranteed journal-sealed.
    fn seal_shard(&mut self, shard: usize) -> std::io::Result<()> {
        let range = self.plan.range(shard);
        let writer = self.writer.as_mut().ok_or_else(|| protocol("journal writer already retired"))?;
        writer.append(&JournalEntry::Checkpoint(ShardCursor {
            shard,
            completed: range.len() as u64,
            next_stream: range.end as u64,
        }))?;
        writer.append(&JournalEntry::ShardDone { shard })?;
        writer.sync()?;
        self.sealed[shard] = true;
        obs::incr("shard/completed", 1);
        monitor::shard_sealed(shard);
        Ok(())
    }

    /// All shards sealed: retire the journal and declare the campaign done.
    fn finish(&mut self) -> std::io::Result<()> {
        if let Some(writer) = self.writer.take() {
            writer.close()?;
        }
        if let Some(ledger) = self.ledger.as_mut() {
            ledger.sync()?;
        }
        self.done = true;
        monitor::complete_campaign();
        Ok(())
    }

    /// The SIGKILL simulation: stop serving and leak the writers so no
    /// destructor flushes or seals anything a real kill would have lost.
    fn abandon(&mut self) {
        self.abandoned = true;
        if let Some(writer) = self.writer.take() {
            std::mem::forget(writer);
        }
        if let Some(ledger) = self.ledger.take() {
            std::mem::forget(ledger);
        }
        self.wake.notify_all();
    }

    /// A lease on the first free unsealed shard, `Done` once all are
    /// sealed, or `None` while every unsealed shard is leased.
    fn grant(&mut self, name: &str) -> std::io::Result<Option<CoordMsg>> {
        self.expire_stale()?;
        if self.sealed.iter().all(|&s| s) {
            return Ok(Some(CoordMsg::Done));
        }
        let leased: Vec<usize> = self.leases.values().map(|info| info.shard).collect();
        let Some(shard) = (0..self.plan.shards).find(|s| !self.sealed[*s] && !leased.contains(s)) else {
            return Ok(None);
        };
        let lease = self.next_lease;
        self.next_lease += 1;
        if self.ever_leased[shard] {
            self.redispatched += 1;
            obs::incr("dist/redispatched", 1);
        }
        self.ever_leased[shard] = true;
        // Write-ahead: the grant is durable before the lease frame exists.
        self.ledger_mut()?.append(&LedgerEntry::Granted { lease, shard, executor: name.to_string() })?;
        self.ledger_mut()?.sync()?;
        self.leases.insert(lease, LeaseInfo { shard, executor: name.to_string(), last_seen: Instant::now() });
        self.granted += 1;
        obs::incr("dist/leases_granted", 1);
        let range = self.plan.range(shard);
        Ok(Some(CoordMsg::Lease {
            lease,
            shard,
            start: range.start as u64,
            end: range.end as u64,
            skip: self.importer.next_seq(shard),
            timeout_ms: self.lease_timeout.as_millis() as u64,
        }))
    }

    /// The reply to `msg`, or `None` when it is a `LeaseRequest` that has
    /// no answer yet and must wait for a state change.
    fn handle(&mut self, name: &str, msg: &ExecutorMsg) -> std::io::Result<Option<CoordMsg>> {
        let reply = match *msg {
            ExecutorMsg::Hello { .. } => return Err(protocol("unexpected second Hello on an established connection")),
            ExecutorMsg::LeaseRequest => return self.grant(name),
            ExecutorMsg::Trial { lease, shard, seq, ref payload } => {
                // Lease validation precedes the merge: a stale executor can
                // never advance a cursor, so it can never create a gap.
                let Some(info) = self.leases.get_mut(&lease) else { return Ok(Some(CoordMsg::Expired)) };
                if info.executor != name || info.shard != shard {
                    return Err(protocol(format!("trial for shard {shard} on foreign lease {lease}")));
                }
                info.last_seen = Instant::now();
                let writer = self.writer.as_mut().ok_or_else(|| protocol("journal writer already retired"))?;
                if self.importer.offer(writer, shard, seq, payload)? == Offer::Accepted {
                    monitor::tick(shard);
                }
                if let Some(cap) = self.stop_after_merged {
                    if self.importer.accepted >= cap {
                        self.abandon();
                    }
                }
                CoordMsg::Ack
            }
            ExecutorMsg::RangeDone { lease } => {
                let Some(info) = self.leases.get(&lease) else { return Ok(Some(CoordMsg::Expired)) };
                if info.executor != name {
                    return Err(protocol(format!("RangeDone on foreign lease {lease}")));
                }
                let shard = info.shard;
                if !self.importer.range_complete(shard) {
                    return Err(protocol(format!(
                        "RangeDone for shard {shard} with only {} of {} trials merged",
                        self.importer.next_seq(shard),
                        self.plan.range(shard).len()
                    )));
                }
                if !self.sealed[shard] {
                    self.seal_shard(shard)?;
                }
                self.ledger_mut()?.append(&LedgerEntry::Completed { lease, shard })?;
                self.ledger_mut()?.sync()?;
                self.leases.remove(&lease);
                if self.sealed.iter().all(|&s| s) {
                    self.finish()?;
                }
                self.wake.notify_all();
                CoordMsg::Ack
            }
        };
        Ok(Some(reply))
    }
}

/// Runs the coordinator until every shard is sealed (or the
/// `stop_after_merged` crash hook fires). Takes a bound listener so callers
/// control address selection — the `phi-coord` binary binds `--listen` and
/// writes the resolved address to `--addr-file` before calling this.
pub fn run_coordinator(listener: TcpListener, cfg: &CoordConfig) -> std::io::Result<CoordSummary> {
    // The coordinator never parses trial payloads: it merges them as
    // opaque bytes.
    let (mut writer, progress, _) = store::open_campaign(&cfg.dir, &cfg.meta, cfg.resume)?;
    // Write-through: a trial's line reaches the OS before its `Ack` is
    // sent, so a SIGKILLed (or abandoned) coordinator never loses a trial
    // it acknowledged. Seals still fsync.
    writer.batch = BatchPolicy::unbatched();
    let (mut ledger, scan) = LedgerWriter::open(&cfg.dir)?;

    // Reconcile both crash windows. (1) Every Active lease in the ledger
    // belonged to a connection of a dead coordinator: expire it so the
    // shard is immediately re-dispatchable. (2) A ledger-Completed shard
    // must be journal-sealed (the seal is written first); the converse —
    // sealed but never ledgered — needs no repair, the journal is
    // authoritative for completion.
    let mut carried: Vec<(u64, usize, LeaseState)> = scan.leases.iter().map(|(&id, &(shard, state))| (id, shard, state)).collect();
    carried.sort_unstable_by_key(|&(id, _, _)| id);
    let mut crash_expired = 0u64;
    for (id, shard, state) in carried {
        match state {
            LeaseState::Active => {
                ledger.append(&LedgerEntry::Expired { lease: id })?;
                crash_expired += 1;
                obs::incr("dist/leases_expired", 1);
            }
            LeaseState::Completed if !progress.shards[shard].done => {
                return Err(protocol(format!(
                    "ledger says lease {id} completed shard {shard} but the journal never sealed it"
                )));
            }
            LeaseState::Completed | LeaseState::Expired => {}
        }
    }
    ledger.sync()?;

    let plan = ShardPlan::new(cfg.meta.trials, cfg.meta.shards);
    let importer = Importer::new(&plan, &progress);
    let sealed: Vec<bool> = progress.shards.iter().map(|s| s.done).collect();
    let mut ever_leased: Vec<bool> = progress.shards.iter().map(|s| s.completed > 0 || s.done).collect();
    for &(shard, _) in scan.leases.values() {
        ever_leased[shard] = true;
    }
    monitor::begin_campaign(&cfg.meta.benchmark, "dist", &plan, &progress);

    let wake = Arc::new(Condvar::new());
    let mut state = CoordState {
        meta: cfg.meta.clone(),
        spec: cfg.spec.clone(),
        plan,
        importer,
        writer: Some(writer),
        ledger: Some(ledger),
        leases: HashMap::new(),
        next_lease: scan.next_lease,
        sealed,
        ever_leased,
        lease_timeout: cfg.lease_timeout,
        stop_after_merged: cfg.stop_after_merged,
        executors: 0,
        granted: 0,
        expired: crash_expired,
        redispatched: 0,
        done: false,
        abandoned: false,
        wake: Arc::clone(&wake),
    };

    // Close the seal crash-window: a shard whose whole range is merged but
    // whose seal never hit the journal (killed between merge and seal).
    for shard in 0..state.plan.shards {
        if !state.sealed[shard] && state.importer.range_complete(shard) {
            state.seal_shard(shard)?;
        }
    }
    if state.sealed.iter().all(|&s| s) {
        state.finish()?;
        state.publish();
        return Ok(summary_of(&state));
    }
    state.publish();

    let shared = Arc::new(Mutex::new(state));
    listener.set_nonblocking(true)?;
    let mut done_since: Option<Instant> = None;
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let _ = serve_connection(&shared, stream);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock || store::is_transient(&e) => {}
            Err(e) => return Err(e),
        }
        {
            let st = lock_state(&shared);
            if st.abandoned {
                break;
            }
            if st.done {
                // Linger until every connected executor has heard `Done`
                // and hung up (they exit on it), bounded so one wedged
                // connection can't pin a finished coordinator forever.
                let since = *done_since.get_or_insert_with(Instant::now);
                if st.executors == 0 || since.elapsed() >= LINGER {
                    break;
                }
            }
            // Poll for new connections every 5 ms; a dropped connection,
            // the campaign's end or the crash hook wakes the loop at once.
            let _woken = wake.wait_timeout(st, Duration::from_millis(5)).unwrap_or_else(|e| e.into_inner());
        }
    }
    let state = lock_state(&shared);
    Ok(summary_of(&state))
}

fn summary_of(state: &CoordState) -> CoordSummary {
    CoordSummary {
        merged: state.importer.accepted,
        duplicates: state.importer.duplicates,
        leases_granted: state.granted,
        leases_expired: state.expired,
        redispatched: state.redispatched,
        abandoned: state.abandoned,
    }
}

/// Decrements the connected-executor gauge however the connection ends.
struct ConnGuard<'a>(&'a Mutex<CoordState>);

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        let mut st = lock_state(self.0);
        st.executors = st.executors.saturating_sub(1);
        st.publish();
        st.wake.notify_all();
    }
}

/// Parks a `LeaseRequest` that has no answer yet until [`CoordState::wake`]
/// fires, or at the latest until the oldest lease expires, so straggler
/// re-dispatch happens on time with no traffic and no timer thread.
fn park(st: MutexGuard<'_, CoordState>) -> MutexGuard<'_, CoordState> {
    let wake = Arc::clone(&st.wake);
    match st.next_expiry() {
        Some(at) => {
            wake.wait_timeout(st, at.saturating_duration_since(Instant::now())).unwrap_or_else(|e| e.into_inner()).0
        }
        None => wake.wait(st).unwrap_or_else(|e| e.into_inner()),
    }
}

/// True once the executor behind a parked request has hung up. Under
/// strict request/response a live executor sends nothing while it waits
/// for its reply, so a readable end of stream means its process is gone
/// and it must not be handed a lease.
fn peer_gone(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return true;
    }
    let gone = match stream.peek(&mut [0u8; 1]) {
        Ok(n) => n == 0,
        Err(e) => !matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::Interrupted),
    };
    gone || stream.set_nonblocking(false).is_err()
}

fn serve_connection(shared: &Mutex<CoordState>, mut stream: TcpStream) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    // `write_frame` sends the length prefix and the body as two writes;
    // under Nagle the body would wait for the executor's delayed ACK
    // (~40 ms) on every reply.
    stream.set_nodelay(true)?;
    let hello: ExecutorMsg = read_frame(&mut stream)?;
    let ExecutorMsg::Hello { name, .. } = hello else {
        return Err(protocol("first frame must be Hello"));
    };
    {
        let mut st = lock_state(shared);
        // An abandoned coordinator is "dead" — drop the connection cold,
        // like the SIGKILL it simulates. A merely *done* coordinator keeps
        // answering so late joiners hear `Done` instead of a reset.
        if st.abandoned {
            return Ok(());
        }
        st.executors += 1;
        obs::incr("dist/executors_connected", 1);
    }
    let _guard = ConnGuard(shared);
    {
        let mut st = lock_state(shared);
        st.expire_leases_of(&name)?;
        let welcome = CoordMsg::Welcome { meta: st.meta.clone(), spec: st.spec.clone() };
        write_frame(&mut stream, &welcome)?;
        st.publish();
    }
    loop {
        // Blocking read with no lock held: a slow executor stalls only its
        // own connection thread.
        let msg: ExecutorMsg = match read_frame(&mut stream) {
            Ok(msg) => msg,
            Err(_) => return Ok(()), // disconnect; its leases expire on their own
        };
        let mut st = lock_state(shared);
        let reply = loop {
            if st.abandoned {
                return Ok(());
            }
            if let Some(reply) = st.handle(&name, &msg)? {
                break reply;
            }
            st = park(st);
            if peer_gone(&stream) {
                return Ok(());
            }
        };
        write_frame(&mut stream, &reply)?;
        st.publish();
    }
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
    /// Trials computed.
    pub computed: u64,
    /// Trial frames the coordinator accepted.
    pub streamed: u64,
    pub leases: u64,
}

/// Deterministic capped exponential backoff for reconnect attempts. No
/// jitter: executors are few and the coordinator accept loop is cheap.
fn connect_backoff(failures: u32) -> Duration {
    let ms = 10u64.saturating_mul(1u64 << failures.min(5));
    Duration::from_millis(ms).min(BACKOFF_CAP)
}

fn roundtrip(stream: &mut TcpStream, msg: &ExecutorMsg) -> std::io::Result<CoordMsg> {
    write_frame(stream, msg)?;
    read_frame(stream)
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
        let welcome = match roundtrip(&mut stream, &ExecutorMsg::Hello { name: cfg.name.clone(), pid }) {
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

        'request: loop {
            let (lease, shard, start, end, skip) = match roundtrip(&mut stream, &ExecutorMsg::LeaseRequest) {
                Ok(CoordMsg::Lease { lease, shard, start, end, skip, .. }) => (lease, shard, start, end, skip),
                Ok(CoordMsg::Done) => return Ok(summary),
                Ok(other) => return Err(protocol(format!("unexpected reply to LeaseRequest: {other:?}"))),
                Err(e) => {
                    fail(&mut failures, "lease request", e)?;
                    continue 'reconnect;
                }
            };
            summary.leases += 1;
            // The merge already holds every sequence before `skip`.
            for seq in skip..end - start {
                let payload = runner_ref(start + seq);
                summary.computed += 1;
                if !cfg.throttle.is_zero() {
                    std::thread::sleep(cfg.throttle);
                }
                match roundtrip(&mut stream, &ExecutorMsg::Trial { lease, shard, seq, payload }) {
                    Ok(CoordMsg::Ack) => summary.streamed += 1,
                    // A straggler told to stand down asks for fresh work.
                    Ok(CoordMsg::Expired) => continue 'request,
                    Ok(other) => return Err(protocol(format!("unexpected reply to Trial: {other:?}"))),
                    Err(e) => {
                        fail(&mut failures, "trial", e)?;
                        continue 'reconnect;
                    }
                }
            }
            match roundtrip(&mut stream, &ExecutorMsg::RangeDone { lease }) {
                Ok(CoordMsg::Ack | CoordMsg::Expired) => {}
                Ok(other) => return Err(protocol(format!("unexpected reply to RangeDone: {other:?}"))),
                Err(e) => {
                    fail(&mut failures, "range done", e)?;
                    continue 'reconnect;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;
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

    fn payload_for(global: u64) -> String {
        format!("{{\"trial\":{global},\"fingerprint\":{}}}", global.wrapping_mul(0x9e37_79b9))
    }

    fn scan_payloads(dir: &Path, shards: usize) -> Vec<String> {
        let scan = Journal::scan(dir).unwrap();
        let progress = ShardProgress::replay(shards, &scan.entries).unwrap();
        assert!(progress.all_done(), "journal not fully sealed");
        progress.shards.iter().flat_map(|s| s.payloads.clone()).collect()
    }

    #[test]
    fn single_executor_drains_the_campaign() {
        let root = tmp("single");
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let cfg = CoordConfig::new(root.join("coord"), meta(10, 3), "spec-blob");
        let coord = std::thread::spawn(move || run_coordinator(listener, &cfg).unwrap());

        let ecfg = ExecutorConfig::new("ex-a", root.join("ex-a"), ConnectTarget::Addr(addr));
        let seen_spec = std::sync::Arc::new(Mutex::new(String::new()));
        let spec_probe = seen_spec.clone();
        let summary = run_executor(&ecfg, move |m, spec| {
            assert_eq!(m.trials, 10);
            *spec_probe.lock().unwrap() = spec.to_string();
            payload_for
        })
        .unwrap();
        let coord = coord.join().unwrap();

        assert_eq!(summary.computed, 10);
        assert_eq!(summary.streamed, 10);
        assert_eq!(coord.merged, 10);
        assert_eq!(coord.duplicates, 0);
        assert!(!coord.abandoned);
        assert_eq!(*seen_spec.lock().unwrap(), "spec-blob");
        let expected: Vec<String> = (0..10).map(payload_for).collect();
        assert_eq!(scan_payloads(&root.join("coord"), 3), expected);
        assert!(!root.join("ex-a").exists(), "executors hold no durable state");
    }

    #[test]
    fn straggler_lease_expires_and_its_shard_is_redispatched() {
        let root = tmp("straggler");
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let mut cfg = CoordConfig::new(root.join("coord"), meta(6, 2), "");
        cfg.lease_timeout = Duration::from_millis(100);
        let coord = std::thread::spawn(move || run_coordinator(listener, &cfg).unwrap());

        // A straggler takes shard 0, streams one trial, then goes silent.
        let mut slow = TcpStream::connect(&addr).unwrap();
        let CoordMsg::Welcome { .. } = roundtrip_raw(&mut slow, &ExecutorMsg::Hello { name: "slow".into(), pid: 1 }) else {
            panic!("expected Welcome")
        };
        let CoordMsg::Lease { lease: slow_lease, shard: 0, .. } = roundtrip_raw(&mut slow, &ExecutorMsg::LeaseRequest) else {
            panic!("expected a lease on shard 0")
        };
        let reply = roundtrip_raw(
            &mut slow,
            &ExecutorMsg::Trial { lease: slow_lease, shard: 0, seq: 0, payload: payload_for(0) },
        );
        assert_eq!(reply, CoordMsg::Ack);
        std::thread::sleep(Duration::from_millis(250)); // let the lease rot

        // A healthy executor now drains everything, including shard 0.
        let ecfg = ExecutorConfig::new("fast", root.join("fast"), ConnectTarget::Addr(addr));
        let summary = run_executor(&ecfg, |_, _| payload_for).unwrap();
        // The straggler's lease is gone; its late frame bounces.
        let reply = roundtrip_raw(
            &mut slow,
            &ExecutorMsg::Trial { lease: slow_lease, shard: 0, seq: 1, payload: payload_for(1) },
        );
        assert_eq!(reply, CoordMsg::Expired);
        drop(slow);

        let coord = coord.join().unwrap();
        assert_eq!(coord.merged, 6);
        // The re-leased shard 0 came with skip=1, so the healthy executor
        // neither recomputed nor re-streamed the straggler's trial.
        assert_eq!(coord.duplicates, 0);
        assert_eq!(summary.computed, 5);
        assert_eq!(summary.streamed, 5);
        assert!(coord.leases_expired >= 1);
        assert!(coord.redispatched >= 1);
        let expected: Vec<String> = (0..6).map(payload_for).collect();
        assert_eq!(scan_payloads(&root.join("coord"), 2), expected);
    }

    #[test]
    fn relaunched_executor_computes_only_unmerged_trials() {
        let root = tmp("relaunch");
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let mut cfg = CoordConfig::new(root.join("coord"), meta(6, 2), "");
        cfg.lease_timeout = Duration::from_secs(60); // only the relaunch's Hello expires the lease
        let coord = std::thread::spawn(move || run_coordinator(listener, &cfg).unwrap());

        // Executor `x` gets two trials of shard 0 acknowledged, then dies.
        let mut x = hello_raw(&addr, "x");
        let CoordMsg::Lease { lease, shard: 0, start, .. } = roundtrip_raw(&mut x, &ExecutorMsg::LeaseRequest) else {
            panic!("expected a lease on shard 0")
        };
        for seq in 0..2 {
            let trial = ExecutorMsg::Trial { lease, shard: 0, seq, payload: payload_for(start + seq) };
            assert_eq!(roundtrip_raw(&mut x, &trial), CoordMsg::Ack);
        }
        drop(x);

        // Relaunched under the same name, it computes exactly what the
        // merge lacks.
        let computed = Arc::new(Mutex::new(Vec::new()));
        let probe = Arc::clone(&computed);
        let ecfg = ExecutorConfig::new("x", root.join("x"), ConnectTarget::Addr(addr));
        let summary = run_executor(&ecfg, move |_, _| {
            move |global| {
                probe.lock().unwrap().push(global);
                payload_for(global)
            }
        })
        .unwrap();
        let coord = coord.join().unwrap();

        assert_eq!(*computed.lock().unwrap(), vec![2, 3, 4, 5]);
        assert_eq!((summary.computed, summary.streamed), (4, 4));
        assert_eq!((coord.merged, coord.duplicates), (6, 0));
        let expected: Vec<String> = (0..6).map(payload_for).collect();
        assert_eq!(scan_payloads(&root.join("coord"), 2), expected);
    }

    fn roundtrip_raw(stream: &mut TcpStream, msg: &ExecutorMsg) -> CoordMsg {
        write_frame(stream, msg).unwrap();
        read_frame(stream).unwrap()
    }

    /// A raw-protocol executor past its `Hello`. Replies that never come
    /// fail the read after 5 s instead of hanging the test.
    fn hello_raw(addr: &str, name: &str) -> TcpStream {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let CoordMsg::Welcome { .. } = roundtrip_raw(&mut stream, &ExecutorMsg::Hello { name: name.into(), pid: 1 }) else {
            panic!("expected Welcome")
        };
        stream
    }

    /// Sends a `LeaseRequest` that cannot be granted yet and checks that it
    /// parks: no reply (in particular no retry-later answer) within 100 ms.
    fn park_raw(stream: &mut TcpStream) {
        write_frame(stream, &ExecutorMsg::LeaseRequest).unwrap();
        stream.set_read_timeout(Some(Duration::from_millis(100))).unwrap();
        let early = read_frame::<CoordMsg>(stream);
        assert!(early.is_err(), "a LeaseRequest with nothing to grant must park, got {early:?}");
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    }

    #[test]
    fn parked_lease_request_hears_done_when_the_last_shard_seals() {
        let root = tmp("park-done");
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let mut cfg = CoordConfig::new(root.join("coord"), meta(2, 1), "");
        cfg.lease_timeout = Duration::from_secs(60); // no expiry can wake the parked request
        let coord = std::thread::spawn(move || run_coordinator(listener, &cfg).unwrap());

        let mut a = hello_raw(&addr, "a");
        let CoordMsg::Lease { lease, shard: 0, .. } = roundtrip_raw(&mut a, &ExecutorMsg::LeaseRequest) else {
            panic!("expected a lease on shard 0")
        };
        let mut b = hello_raw(&addr, "b");
        park_raw(&mut b);
        for seq in 0..2 {
            let trial = ExecutorMsg::Trial { lease, shard: 0, seq, payload: payload_for(seq) };
            assert_eq!(roundtrip_raw(&mut a, &trial), CoordMsg::Ack);
        }
        assert_eq!(roundtrip_raw(&mut a, &ExecutorMsg::RangeDone { lease }), CoordMsg::Ack);
        let sealed = Instant::now();
        assert_eq!(read_frame::<CoordMsg>(&mut b).unwrap(), CoordMsg::Done);
        assert!(sealed.elapsed() < Duration::from_secs(1), "Done took {:?}", sealed.elapsed());
        drop((a, b));

        let coord = coord.join().unwrap();
        assert_eq!(coord.merged, 2);
        assert_eq!(coord.leases_granted, 1);
        assert_eq!(scan_payloads(&root.join("coord"), 1), vec![payload_for(0), payload_for(1)]);
    }

    #[test]
    fn parked_lease_request_takes_over_a_silent_stragglers_shard_at_expiry() {
        let root = tmp("park-expiry");
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let mut cfg = CoordConfig::new(root.join("coord"), meta(2, 1), "");
        cfg.lease_timeout = Duration::from_millis(200);
        let coord = std::thread::spawn(move || run_coordinator(listener, &cfg).unwrap());

        // The straggler takes the only shard and goes silent. After the
        // next request nothing else reaches the coordinator: only the
        // parked request's own timeout can notice the lease rot.
        let mut slow = hello_raw(&addr, "slow");
        let asked = Instant::now();
        let CoordMsg::Lease { lease: stale, shard: 0, .. } = roundtrip_raw(&mut slow, &ExecutorMsg::LeaseRequest) else {
            panic!("expected a lease on shard 0")
        };
        let mut b = hello_raw(&addr, "b");
        let CoordMsg::Lease { lease, shard: 0, skip: 0, .. } = roundtrip_raw(&mut b, &ExecutorMsg::LeaseRequest) else {
            panic!("expected the straggler's shard")
        };
        let waited = asked.elapsed();
        assert!(waited >= Duration::from_millis(200), "granted before the lease expired: {waited:?}");
        assert!(waited < Duration::from_secs(2), "re-dispatch lagged the expiry: {waited:?}");

        for seq in 0..2 {
            let trial = ExecutorMsg::Trial { lease, shard: 0, seq, payload: payload_for(seq) };
            assert_eq!(roundtrip_raw(&mut b, &trial), CoordMsg::Ack);
        }
        assert_eq!(roundtrip_raw(&mut b, &ExecutorMsg::RangeDone { lease }), CoordMsg::Ack);
        assert_eq!(roundtrip_raw(&mut b, &ExecutorMsg::LeaseRequest), CoordMsg::Done);
        let late = ExecutorMsg::Trial { lease: stale, shard: 0, seq: 0, payload: payload_for(0) };
        assert_eq!(roundtrip_raw(&mut slow, &late), CoordMsg::Expired);
        drop((slow, b));

        let coord = coord.join().unwrap();
        assert_eq!((coord.merged, coord.duplicates), (2, 0));
        assert_eq!((coord.leases_granted, coord.leases_expired, coord.redispatched), (2, 1, 1));
    }

    #[test]
    fn parked_request_of_a_vanished_executor_is_never_granted() {
        let root = tmp("park-vanished");
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let mut cfg = CoordConfig::new(root.join("coord"), meta(2, 1), "");
        cfg.lease_timeout = Duration::from_millis(300);
        let coord = std::thread::spawn(move || run_coordinator(listener, &cfg).unwrap());

        let mut slow = hello_raw(&addr, "slow");
        let CoordMsg::Lease { .. } = roundtrip_raw(&mut slow, &ExecutorMsg::LeaseRequest) else {
            panic!("expected a lease")
        };
        // `gone` parks behind the straggler, then its process dies. Its
        // request wakes when the straggler's lease rots and must drop the
        // dead connection instead of leasing it the shard.
        let mut gone = hello_raw(&addr, "gone");
        park_raw(&mut gone);
        drop(gone);
        std::thread::sleep(Duration::from_millis(350)); // let the lease rot

        let mut b = hello_raw(&addr, "b");
        let started = Instant::now();
        let CoordMsg::Lease { lease, shard: 0, .. } = roundtrip_raw(&mut b, &ExecutorMsg::LeaseRequest) else {
            panic!("expected the straggler's shard")
        };
        assert!(started.elapsed() < Duration::from_millis(100), "the shard went to the vanished executor first");
        for seq in 0..2 {
            let trial = ExecutorMsg::Trial { lease, shard: 0, seq, payload: payload_for(seq) };
            assert_eq!(roundtrip_raw(&mut b, &trial), CoordMsg::Ack);
        }
        assert_eq!(roundtrip_raw(&mut b, &ExecutorMsg::RangeDone { lease }), CoordMsg::Ack);
        assert_eq!(roundtrip_raw(&mut b, &ExecutorMsg::LeaseRequest), CoordMsg::Done);
        drop((slow, b));

        let coord = coord.join().unwrap();
        assert_eq!((coord.leases_granted, coord.leases_expired), (2, 1));
    }

    #[test]
    fn crash_hook_abandon_drops_parked_requests() {
        let root = tmp("park-abandon");
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let mut cfg = CoordConfig::new(root.join("coord"), meta(4, 1), "");
        cfg.lease_timeout = Duration::from_secs(60);
        cfg.stop_after_merged = Some(1);
        let coord = std::thread::spawn(move || run_coordinator(listener, &cfg).unwrap());

        let mut a = hello_raw(&addr, "a");
        let CoordMsg::Lease { lease, shard: 0, .. } = roundtrip_raw(&mut a, &ExecutorMsg::LeaseRequest) else {
            panic!("expected a lease on shard 0")
        };
        let mut b = hello_raw(&addr, "b");
        park_raw(&mut b);
        // This merge reaches the cap: the coordinator dies as a SIGKILL
        // would, and the parked request goes down with it.
        let trial = ExecutorMsg::Trial { lease, shard: 0, seq: 0, payload: payload_for(0) };
        assert_eq!(roundtrip_raw(&mut a, &trial), CoordMsg::Ack);
        let dropped = read_frame::<CoordMsg>(&mut b).expect_err("an abandoned coordinator answers nothing");
        assert_eq!(dropped.kind(), std::io::ErrorKind::UnexpectedEof, "{dropped}");

        let coord = coord.join().unwrap();
        assert!(coord.abandoned);
        assert_eq!(coord.merged, 1);
    }
}
