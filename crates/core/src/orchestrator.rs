//! The campaign engine: every campaign, in memory or durable, of any trial
//! kind, from any trial source, on any executor.
//!
//! Three axes span the runner matrix. A [`TrialKind`] says what one trial
//! is — injection ([`crate::campaign::Injection`]) or a beam strike
//! (`beamsim::campaign::Strikes`) — and how finished records become a
//! campaign. A trial source says which trials a durable campaign runs and
//! what its journal holds around them: a fixed-count campaign runs every
//! trial of its range ([`open_stored`]), a planner-driven one the batches
//! an [`AllocationPlanner`] decides on ([`open_planned`]). An [`Executor`]
//! says where trials run: on pooled targets in this process, or in
//! supervised warden worker processes.
//!
//! [`run_stored`] is the durable form of a fixed-count campaign: the trial
//! range splits into contiguous shards (`store::ShardPlan`), a work-queue
//! scheduler fans the shards out to worker threads, and every completed
//! trial is appended to a checksummed journal (`store::JournalWriter`)
//! before the shard's next one starts. A crash, OOM or kill loses at most
//! the in-flight record; re-running with `resume = true` scans the journal,
//! skips completed shards, continues partial shards from their cursors, and
//! — because a trial's global index fully determines its RNG stream, fault
//! model and injection time — the merged aggregate is bit-identical to an
//! uninterrupted single-shot run ([`run_in_memory`]), with no trial
//! re-executed or double-counted (the journal's per-shard sequence numbers
//! are validated gapless on every open). Both executors write the same
//! journal, so a campaign started in-process can resume isolated and vice
//! versa. A planner-driven campaign is one shard whose batches run on
//! every worker, in a format-2 journal (`crate::adaptive`).
//!
//! A stored campaign is opened once ([`open_stored`] or [`open_planned`]:
//! create or resume the journal, parse its records) and advanced by budgets
//! ([`StoredCampaign::advance`]); `run_stored` is one of each. A caller that
//! keeps the campaign open between advances skips the journal rescan, and
//! writes exactly the bytes a reopen before every advance would.
//!
//! The engine counts each trial once, where it accepts the record: its
//! outcome-class counter and its `trial` or `strike` event, whose payload is
//! the record's journal payload, in trial order in memory and in journal
//! order when stored. Trial kinds, warden workers and remote executors count
//! and announce nothing, so a trial computed twice is still counted once.

use crate::adaptive::{journaled_decisions, replay_decisions, AllocationPlanner, JournaledPlan, PlanDecision};
use crate::monitor::PlannerStatus;
use crate::output::Output;
use crate::pool::TargetPool;
use crate::record::{DueKind, TrialRecord};
use crate::target::FaultTarget;
use crate::warden::{IsolateConfig, IsolatedTrial, Warden};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;
use store::{CampaignMeta, JournalEntry, JournalWriter, ShardCursor, ShardPlan, ShardProgress, StopFlag};

/// Durability/orchestration knobs of a stored campaign.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Journal directory for this campaign.
    pub dir: PathBuf,
    /// Shard count recorded in the journal; a resumed run must use the same
    /// value (checked against the journal meta). A planner-driven campaign
    /// has one shard whatever this says.
    pub shards: usize,
    /// Continue an existing journal instead of demanding a fresh directory.
    pub resume: bool,
    /// Trials between durable checkpoints (cursor entry + fsync) per shard
    /// of a fixed-count campaign; a planner-driven one checkpoints after
    /// every batch.
    pub checkpoint_every: u64,
    /// Maximum trials to execute in this invocation; when the budget runs
    /// out the campaign checkpoints and returns [`StoredRun::Paused`].
    /// `None` = run to completion.
    pub budget: Option<usize>,
}

impl StoreConfig {
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        StoreConfig { dir: dir.into(), shards: 8, resume: false, checkpoint_every: 64, budget: None }
    }
}

/// Outcome of a stored campaign invocation.
#[derive(Debug)]
pub enum StoredRun<C> {
    /// Every shard finished; the aggregate is bit-identical to the
    /// single-shot run with the same seed.
    Complete(C),
    /// The trial budget ran out (or a stop was requested) mid-campaign; the
    /// journal holds `completed` of `total` trials and a later `resume`
    /// invocation will continue from the shard cursors.
    Paused { completed: u64, total: usize },
}

impl<C> StoredRun<C> {
    /// Unwraps `Complete`, panicking on `Paused` (test helper).
    pub fn expect_complete(self) -> C {
        match self {
            StoredRun::Complete(c) => c,
            StoredRun::Paused { completed, total } => {
                panic!("campaign paused at {completed}/{total} trials; expected completion")
            }
        }
    }
}

/// One kind of campaign trial: everything the engine needs to know about
/// it. Every method must be a pure function of the trial's global index
/// (and the kind's own configuration) — the determinism invariant that
/// makes any shard count, executor or interruption pattern merge into the
/// single-shot aggregate.
pub trait TrialKind: Sync {
    /// What a finished campaign of this kind is.
    type Campaign;
    /// The journal identity of this campaign split into `shards`; its
    /// `kind` tag names the trial kind.
    fn meta(&self, shards: usize) -> CampaignMeta;
    /// Worker threads requested (0 ⇒ one per core).
    fn workers(&self) -> usize;
    /// Runs trial `trial` on a target from `pool`, started from the pool's
    /// golden ladder, classifying against `golden`. Returns the record and
    /// whether the bitwise fast-path compare alone classified it. It counts
    /// and announces nothing: the engine does, for the records it accepts.
    fn run<T: FaultTarget, F: Fn() -> T>(
        &self,
        pool: &TargetPool<T, F>,
        golden: &Output,
        total_steps: usize,
        trial: usize,
    ) -> (TrialRecord, bool);
    /// The record of a trial whose worker process died and was quarantined
    /// by the warden: every field the global index fixes, exactly as
    /// [`TrialKind::run`] would have produced it, with the outcome a DUE of
    /// `kind` (what was corrupted and how far it ran are unknowable).
    fn synth_due(&self, total_steps: usize, trial: usize, kind: DueKind) -> TrialRecord;
    /// Wraps finished records, in trial order, and the engine's report over
    /// them into the campaign.
    fn finish(&self, records: Vec<TrialRecord>, report: obs::CampaignReport) -> Self::Campaign;
}

/// Where a campaign's trials run.
#[derive(Debug, Clone, Copy)]
pub enum Executor<'a> {
    /// In this process, on pooled targets (started from the campaign's
    /// golden ladder, rebuilt after a DUE), classified against the golden
    /// output.
    Pool(&'a Output),
    /// In child worker processes supervised by one pooled [`Warden`] per
    /// engine thread. The calling binary must re-exec itself in worker mode
    /// (see [`crate::warden::worker_active`] / [`crate::warden::serve`])
    /// and run trials by global index. Victim deaths (abort, fatal signal,
    /// wall-clock hang) are classified and — past the warden's crash-loop
    /// threshold — journaled as [`TrialKind::synth_due`] records, so the
    /// campaign still completes; warden infrastructure failures fail only
    /// their shard, and the run stays resumable.
    Warden(&'a IsolateConfig),
}

pub(crate) fn worker_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        requested
    }
}

/// Runs `run(i)` for every `i` in `0..n` and hands the results to `sink` in
/// index order (whatever the interleaving was), stopping at the first
/// `false`; returns the summed time spent inside `run`. With more than one
/// worker and more than one index, `workers` scoped threads pull indices
/// from a shared cursor and every result waits in its slot; otherwise `run`
/// and `sink` alternate on the calling thread, which spawns and allocates
/// nothing.
pub(crate) fn run_slots<R: Send>(n: usize, workers: usize, run: impl Fn(usize) -> R + Sync, sink: impl FnMut(R) -> bool) -> u64 {
    let busy_ns = AtomicU64::new(0);
    let timed = |i| {
        let t0 = Instant::now();
        let out = run(i);
        busy_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    };
    if workers.min(n) <= 1 {
        (0..n).map(timed).all(sink);
        return busy_ns.into_inner();
    }
    let slots: Vec<parking_lot::Mutex<Option<R>>> = (0..n).map(|_| parking_lot::Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    crossbeam::thread::scope(|scope| {
        for _ in 0..workers.min(n) {
            scope.spawn(|_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                *slots[i].lock() = Some(timed(i));
            });
        }
    })
    .expect("campaign worker panicked outside a trial");
    slots.into_iter().map(|slot| slot.into_inner().expect("trial slot missing")).all(sink);
    busy_ns.into_inner()
}

/// The victim side every runner shares: the target pool, the victim's step
/// count, and the tallies the campaign report needs.
pub(crate) struct Victims<T, F: Fn() -> T> {
    pub(crate) pool: TargetPool<T, F>,
    pub(crate) total_steps: usize,
    pub(crate) workers: usize,
    /// Time spent inside trials, summed over workers.
    pub(crate) busy_ns: u64,
    /// Trials the bitwise fast-path compare alone classified.
    pub(crate) fast_compares: u64,
    wall: Instant,
}

impl<T: FaultTarget, F: Fn() -> T> Victims<T, F> {
    /// Builds one victim to read the step count; with `pooled` it becomes
    /// the pool's first idle target (the warden executor needs only the
    /// count).
    pub(crate) fn new(factory: F, pooled: bool, workers: usize) -> Self {
        let probe = factory();
        let total_steps = probe.total_steps().max(1);
        let pool = TargetPool::new(factory);
        if pooled {
            pool.seed(probe);
        }
        Victims { pool, total_steps, workers, busy_ns: 0, fast_compares: 0, wall: Instant::now() }
    }

    /// The finish step every runner shares: the report over the records,
    /// with the pool and fast-path gauges and a planner's final gauges,
    /// wrapped into the campaign.
    pub(crate) fn finish<K: TrialKind>(&self, kind: &K, records: Vec<TrialRecord>, planner: Option<PlannerStatus>) -> K::Campaign {
        let wall_ns = self.wall.elapsed().as_nanos() as u64;
        let mut report = crate::campaign::report_for(&kind.meta(1).benchmark, &records, self.workers, self.busy_ns, wall_ns);
        report.pool_hits = self.pool.hits();
        report.pool_rebuilds = self.pool.rebuilds();
        report.fast_path_compares = self.fast_compares;
        if let Some(gauges) = planner {
            report.strata_total = gauges.strata_total as usize;
            report.strata_open = gauges.strata_open as usize;
            report.widest_ci = gauges.widest_ci;
        }
        kind.finish(records, report)
    }
}

/// The engine's one counting point, reached once for every record it
/// accepts, in journal order (trial order in memory), whichever executor
/// produced the record: counts the record under its outcome key and
/// announces it in a `strike` (beam) or `trial` event whose payload is the
/// record's journal payload, when there is one.
fn accept(record: &TrialRecord, payload: Option<&str>) {
    obs::incr(record.outcome_key(), 1);
    if let Some(payload) = payload {
        obs::event(if record.is_strike() { "strike" } else { "trial" }, payload);
    }
}

/// Runs a whole campaign in memory on pooled targets built by `factory`.
///
/// `golden` must be the output of a fault-free run of `factory()`.
/// Deterministic for a given `(factory, seed)` pair regardless of the
/// worker count: each worker reuses a target restored from the pool's
/// golden ladder instead of calling `factory()` per trial, with a factory
/// rebuild after every DUE — the records stay bit-identical to the
/// factory-per-trial path either way.
pub fn run_in_memory<K, T, F>(kind: &K, factory: F, golden: &Output) -> K::Campaign
where
    K: TrialKind,
    T: FaultTarget,
    F: Fn() -> T + Sync,
{
    let _quiet = crate::panic_guard::silence_panics();
    let trials = kind.meta(1).trials;
    let mut victims = Victims::new(factory, true, worker_threads(kind.workers()).min(trials.max(1)));
    let (pool, total_steps) = (&victims.pool, victims.total_steps);
    let mut slots = Vec::with_capacity(trials);
    victims.busy_ns = run_slots(trials, victims.workers, |trial| kind.run(pool, golden, total_steps, trial), |out| {
        // Serializing the record is only worth it when someone listens.
        let payload = obs::enabled().then(|| serde_json::to_string(&out.0).ok()).flatten();
        accept(&out.0, payload.as_deref());
        slots.push(out);
        true
    });
    victims.fast_compares = slots.iter().filter(|(_, fast)| *fast).count() as u64;
    victims.finish(kind, slots.into_iter().map(|(record, _)| record).collect(), None)
}

fn invalid(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// The CRC-32 and byte length of a run of journal payloads, each followed
/// by `"\n"`: the bytes a result document's `records_crc` digests. An open
/// journal keeps one per shard, fed from the payloads it journals and
/// reads back, so a finished campaign's digest needs no second
/// serialization of its records.
#[derive(Debug, Clone, Copy, Default)]
struct PayloadDigest {
    crc: u32,
    len: u64,
}

impl PayloadDigest {
    /// Extends the digest over `payload` and its newline.
    fn push(&mut self, payload: &str) {
        self.crc = store::crc32_update(store::crc32_update(self.crc, payload.as_bytes()), b"\n");
        self.len += payload.len() as u64 + 1;
    }

    /// The digest of `self`'s bytes followed by `next`'s.
    fn then(self, next: PayloadDigest) -> PayloadDigest {
        PayloadDigest { crc: store::crc32_combine(self.crc, next.crc, next.len), len: self.len + next.len }
    }
}

/// Where a stored campaign's trials come from, and what its journal holds
/// around them. [`drive_shards`] asks a shard's source for the next *unit*
/// of trials, journals the entry the source puts before it, runs the unit
/// on every worker, journals its records in order, feeds each back, and
/// checkpoints where the source says. The two sources differ only in those
/// answers: [`Fixed`] and [`Planned`].
pub(crate) trait TrialSource: Send + Sync {
    /// How many trials the next unit of `shard` holds, after the shard's
    /// first `completed`, and the entry journaled before them; `None` when
    /// the source has nothing more for the shard, which then seals. Asked
    /// only while the shard's range has trials left and the budget allows
    /// another unit.
    fn next(&self, shard: usize, completed: usize) -> Option<(usize, Option<JournalEntry>)>;
    /// The global index of the trial journaled `seq`-th on `shard`.
    fn trial(&self, shard: usize, seq: usize) -> usize;
    /// Takes a journaled record back.
    fn observe(&self, _record: &TrialRecord) {}
    /// The planner's gauges, published after every unit and put in the
    /// finished campaign's report.
    fn gauges(&self) -> Option<PlannerStatus> {
        None
    }
    /// Where the journal checkpoints a shard: with `Some(every)`, after
    /// every `every`-th unit of a shard task and again at each pause or
    /// harness panic that ends the task and at the seal; with `None`, after
    /// every unit and nowhere else.
    fn cadence(&self) -> Option<u64>;
}

/// The fixed source: each shard runs its contiguous range one trial at a
/// time, in a format-1 journal that checkpoints every `every` trials of a
/// shard task and again at each pause, harness panic and seal.
struct Fixed {
    plan: ShardPlan,
    every: u64,
}

impl TrialSource for Fixed {
    fn next(&self, _shard: usize, _completed: usize) -> Option<(usize, Option<JournalEntry>)> {
        Some((1, None))
    }

    fn trial(&self, shard: usize, seq: usize) -> usize {
        self.plan.range(shard).start + seq
    }

    fn cadence(&self) -> Option<u64> {
        Some(self.every)
    }
}

/// The planner source: one shard whose trials come in batches from the
/// planner's decisions, in a format-2 journal. Each batch journals its
/// `Plan` entry, its records in decision order and one checkpoint; the seal
/// adds only `ShardDone`. Holds the planner and the trials its decisions
/// allocated, in journal order.
struct Planned(parking_lot::Mutex<(Box<dyn AllocationPlanner>, Vec<usize>)>);

impl TrialSource for Planned {
    fn next(&self, _shard: usize, completed: usize) -> Option<(usize, Option<JournalEntry>)> {
        let (planner, allocated) = &mut *self.0.lock();
        // A batch an interrupted run left in flight is already journaled:
        // it finishes before the planner decides again.
        if completed < allocated.len() {
            return Some((allocated.len() - completed, None));
        }
        let PlanDecision { batch, stratum, widest_ci, strata_open, trials } = planner.next_batch()?;
        obs::incr("planner/batches", 1);
        if obs::enabled() {
            let n = trials.len();
            let payload = format!("{{\"batch\":{batch},\"stratum\":{stratum:?},\"widest_ci\":{widest_ci},\"strata_open\":{strata_open},\"trials\":{n}}}");
            obs::event("plan", &payload);
        }
        allocated.extend(&trials);
        Some((trials.len(), Some(JournalEntry::Plan { batch, stratum, widest_ci, trials })))
    }

    fn trial(&self, _shard: usize, seq: usize) -> usize {
        self.0.lock().1[seq]
    }

    fn observe(&self, record: &TrialRecord) {
        self.0.lock().0.observe(record);
    }

    fn gauges(&self) -> Option<PlannerStatus> {
        Some(self.0.lock().0.gauges())
    }

    fn cadence(&self) -> Option<u64> {
        None
    }
}

/// A journal read the way the engine's open reads it ([`read_journal`]).
pub struct JournalContents {
    /// Shard cursors and seals; the raw payloads are dropped once parsed.
    pub progress: ShardProgress,
    /// Each shard's records, in journal order.
    pub records: Vec<Vec<TrialRecord>>,
    /// A planner journal's allocation decisions; none in a fixed-count one.
    pub(crate) plans: Vec<JournaledPlan>,
    /// Why the journal is not a finished campaign, if it is not: a
    /// fixed-count journal is finished once it holds every trial, a planner
    /// journal once it is sealed.
    pub unfinished: Option<String>,
}

/// Replays a journal's entries into shard progress and decodes every
/// record, checking it against the trial its position implies: the shard
/// range in a fixed-count (format 1) journal, the journaled decisions in a
/// planner (format 2) journal. The one place that tells the two formats
/// apart; the engine's open and `bench`'s offline reader both call it.
pub fn read_journal(meta: &CampaignMeta, entries: &[JournalEntry]) -> std::io::Result<JournalContents> {
    if meta.version >= store::ADAPTIVE_FORMAT_VERSION {
        // Planner campaigns stop early, so the journal's own record
        // sequence — not the horizon in `meta.trials` — defines the
        // campaign; "finished" is the planner's seal, not a trial count.
        let mut progress = ShardProgress::replay(1, entries)?;
        let (plans, records) = journaled_decisions(entries, &mut progress)?;
        let unfinished = (!progress.all_done())
            .then(|| format!("adaptive journal incomplete ({} trials executed, not sealed)", records.len()));
        return Ok(JournalContents { progress, records: vec![records], plans, unfinished });
    }
    let mut progress = ShardProgress::replay(meta.shards, entries)?;
    let records = decode_shards(ShardPlan { trials: meta.trials, shards: meta.shards }, &mut progress)?;
    let done = progress.completed();
    let unfinished = (done < meta.trials as u64).then(|| format!("journal incomplete ({done}/{} trials)", meta.trials));
    Ok(JournalContents { progress, records, plans: Vec::new(), unfinished })
}

/// A stored campaign's journal, open for appending: the writer positioned
/// after the last durable record, the per-shard progress, every shard's
/// parsed records, and the campaign's trial source. [`open_journal`] builds
/// it; [`drive_shards`] advances it, as many times as the campaign needs.
pub(crate) struct OpenJournal {
    meta: CampaignMeta,
    pub(crate) plan: ShardPlan,
    /// Shard cursors and seals; the raw payloads are dropped once parsed.
    pub(crate) progress: ShardProgress,
    records: Vec<Vec<TrialRecord>>,
    /// Each shard's digest of the payloads of its records, in journal
    /// order.
    digests: Vec<PayloadDigest>,
    /// `None` once the journal is closed: at completion, or after a failed
    /// drive.
    writer: Option<JournalWriter>,
    source: Box<dyn TrialSource>,
}

/// Opens (or creates) the journal for `meta` and reads it
/// ([`read_journal`]). Without a planner the campaign's source is the fixed
/// one; with one it is the planner source, and a resumed journal's
/// decisions are replayed through the planner, each checked against it.
pub(crate) fn open_journal(
    store_cfg: &StoreConfig,
    meta: CampaignMeta,
    planner: Option<Box<dyn AllocationPlanner>>,
) -> std::io::Result<OpenJournal> {
    let (writer, entries) = store::open_campaign(&store_cfg.dir, &meta, store_cfg.resume)?;
    let JournalContents { progress, records, plans, .. } = read_journal(&meta, &entries)?;
    // Digested as read, not re-encoded: `read_journal` checked that each
    // shard's trial entries come in sequence order.
    let mut digests = vec![PayloadDigest::default(); progress.shards.len()];
    for entry in &entries {
        if let JournalEntry::Trial { shard, payload, .. } = entry {
            digests[*shard].push(payload);
        }
    }
    let plan = ShardPlan::new(meta.trials, meta.shards);
    let source: Box<dyn TrialSource> = match planner {
        None => Box::new(Fixed { plan, every: store_cfg.checkpoint_every }),
        Some(mut planner) => {
            let allocated = replay_decisions(planner.as_mut(), &plans, &records[0], progress.all_done())?;
            Box::new(Planned(parking_lot::Mutex::new((planner, allocated))))
        }
    };
    Ok(OpenJournal { meta, plan, progress, records, digests, writer: Some(writer), source })
}

impl OpenJournal {
    /// True once every shard with trials is sealed.
    fn complete(&self) -> bool {
        self.progress.shards.iter().enumerate().all(|(shard, state)| state.done || self.plan.range(shard).is_empty())
    }
}

/// Parses the trial payloads of a fixed-count journal's replayed
/// `progress`, shard by shard, checking that no shard holds more trials than
/// its range and that each record carries the trial its position implies.
/// The raw payloads are dropped once parsed.
fn decode_shards(plan: ShardPlan, progress: &mut ShardProgress) -> std::io::Result<Vec<Vec<TrialRecord>>> {
    let mut records: Vec<Vec<TrialRecord>> = Vec::with_capacity(progress.shards.len());
    for (shard, state) in progress.shards.iter_mut().enumerate() {
        let range = plan.range(shard);
        if state.completed as usize > range.len() {
            return Err(invalid(format!("shard {shard}: journal has {} trials, plan allows {}", state.completed, range.len())));
        }
        let mut parsed = Vec::with_capacity(state.payloads.len());
        for (seq, payload) in std::mem::take(&mut state.payloads).iter().enumerate() {
            let record = TrialRecord::decode(payload).map_err(|e| invalid(format!("shard {shard} seq {seq}: bad trial payload: {e}")))?;
            let expected = range.start + seq;
            if record.trial != expected {
                return Err(invalid(format!("shard {shard} seq {seq}: payload carries trial {}, expected {expected}", record.trial)));
            }
            parsed.push(record);
        }
        records.push(parsed);
    }
    Ok(records)
}

/// Extracts a displayable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Drives the shard queue of an open journal for up to `budget` more trials
/// (`None` = to completion): pulls shard tasks, asks the journal's source
/// for each task's units of trials, runs every unit through the shard's
/// runner on up to `workers` threads, journals each record in the source's
/// order, and checkpoints where the source says. The budget is checked
/// before every unit: a unit starts while fewer trials than the budget ran
/// in this drive, and then runs whole. A pause leaves the journal fsynced
/// and its writer open for the next drive; completion closes it and returns
/// every shard's records, in shard order and each shard's journal order
/// (trial order for the fixed source).
///
/// `open_shard(shard)` returns the trial runner of one shard task, called
/// as `run(global_trial_index) -> TrialRecord`; it is dropped when the task
/// ends, before the shard seals. A runner must be pure in the trial index
/// (this is what the determinism invariant rests on), and a record that
/// answers another trial fails the drive.
///
/// A shard whose every trial is journaled but whose seal is missing (a crash
/// between its last append and its seal) gets no task: it is sealed first,
/// exactly as a finishing shard seals. A shard with an empty range (fewer
/// trials than shards) runs no task and is never sealed.
///
/// Failure containment: a **panic** out of a runner (harness bug, warden
/// infrastructure giving out) fails only its own shard — the shard journals
/// the unit's records before the panicking trial, checkpoints if its source
/// says so, records a diagnostic and stops pulling units, while sibling
/// shards run to completion and seal. The run then returns an error naming
/// the failed shards, and a later `resume` continues exactly from their
/// cursors. **I/O errors** still stop every shard: they signal a problem
/// with the journal itself, which all shards share. Either way the journal
/// is closed, and the campaign must be reopened from disk.
pub(crate) fn drive_shards<R: Fn(usize) -> TrialRecord + Sync>(
    journal: &mut OpenJournal,
    budget: Option<usize>,
    workers: usize,
    busy_ns: &AtomicU64,
    open_shard: impl Fn(usize) -> R + Sync,
) -> std::io::Result<StoredRun<Vec<TrialRecord>>> {
    let writer = journal.writer.take().ok_or_else(|| std::io::Error::other("journal is closed"))?;
    let (plan, source) = (journal.plan, &*journal.source);
    let stop = StopFlag::new();
    let spent = AtomicUsize::new(0);
    let writer = parking_lot::Mutex::new(writer);
    let io_error: parking_lot::Mutex<Option<std::io::Error>> = parking_lot::Mutex::new(None);
    let shard_panics: parking_lot::Mutex<Vec<String>> = parking_lot::Mutex::new(Vec::new());
    // Each shard's records of this drive, with the digest of their payloads.
    let new_records: Vec<parking_lot::Mutex<(Vec<TrialRecord>, PayloadDigest)>> =
        (0..plan.shards).map(|_| parking_lot::Mutex::default()).collect();
    let sealed: Vec<AtomicBool> = (0..plan.shards).map(|_| AtomicBool::new(false)).collect();
    let publish = || source.gauges().into_iter().for_each(crate::monitor::planner_update);
    publish();

    // Appends `entry`, with `sync` an fsync after it, and hands the writer
    // back still locked: what the caller does before dropping it keeps the
    // journal's order.
    let append = |entry: &JournalEntry, sync: bool| {
        store::retry_transient(|| {
            let mut j = writer.lock();
            j.append(entry)?;
            if sync {
                j.sync()?;
            }
            Ok(j)
        })
    };
    let checkpoint = |shard: usize, completed: usize, sync: bool| -> std::io::Result<()> {
        let cursor = ShardCursor { shard, completed: completed as u64, next_stream: (plan.range(shard).start + completed) as u64 };
        append(&JournalEntry::Checkpoint(cursor), sync).map(drop)
    };
    let seal = |shard: usize, completed: usize| -> std::io::Result<()> {
        if source.cadence().is_some() {
            checkpoint(shard, completed, false)?;
        }
        append(&JournalEntry::ShardDone { shard }, true).map(drop)?;
        sealed[shard].store(true, Ordering::Relaxed);
        obs::incr("shard/completed", 1);
        crate::monitor::shard_sealed(shard);
        Ok(())
    };
    // The one per-trial path: journal the record of `trial` as `shard`'s
    // `seq`-th, accept it while the journal is held (so events follow the
    // journal's order), hand it back to the source, and digest its payload.
    let journal_one = |shard: usize, seq: usize, trial: usize, record: TrialRecord| -> std::io::Result<()> {
        if record.trial != trial {
            return Err(invalid(format!("shard {shard} seq {seq}: runner answered trial {trial} with trial {}", record.trial)));
        }
        let payload = record.encode().map_err(|e| std::io::Error::other(format!("trial {trial}: serialize failed: {e}")))?;
        obs::incr("store/trials", 1);
        let entry = JournalEntry::Trial { shard, seq: seq as u64, payload };
        let held = append(&entry, false)?;
        let JournalEntry::Trial { payload, .. } = &entry else { unreachable!("a trial entry") };
        accept(&record, Some(payload));
        drop(held);
        crate::monitor::tick(shard);
        source.observe(&record);
        let (records, digest) = &mut *new_records[shard].lock();
        digest.push(payload);
        records.push(record);
        Ok(())
    };

    let progress = &journal.progress;
    for shard in 0..plan.shards {
        let len = plan.range(shard).len();
        if !progress.shards[shard].done && len > 0 && progress.shards[shard].completed as usize == len {
            seal(shard, len)?;
        }
    }
    let tasks: Vec<usize> = (0..plan.shards)
        .filter(|&s| !progress.shards[s].done && (progress.shards[s].completed as usize) < plan.range(s).len())
        .collect();

    let fail = |e: std::io::Error| {
        let mut slot = io_error.lock();
        if slot.is_none() {
            *slot = Some(e);
        }
        stop.request_stop();
    };

    store::run_tasks(tasks, workers, &stop, |shard, stop| {
        let len = plan.range(shard).len();
        let start = progress.shards[shard].completed as usize;
        obs::incr(if start == 0 { "shard/started" } else { "shard/resumed" }, 1);
        let run_one = open_shard(shard);
        // A pause or a harness panic ends the task; the fixed source
        // checkpoints what the task journaled.
        let stopped = |completed: usize| {
            if source.cadence().is_some() && completed > start {
                if let Err(e) = checkpoint(shard, completed, true) {
                    fail(e);
                }
            }
        };
        let (mut completed, mut units) = (start, 0u64);
        while completed < len {
            let out_of_budget = budget.is_some_and(|b| spent.fetch_add(1, Ordering::SeqCst) >= b);
            if stop.should_stop() || out_of_budget {
                stop.request_stop();
                return stopped(completed);
            }
            let Some((n, before)) = source.next(shard, completed) else { break };
            spent.fetch_add(n.saturating_sub(1), Ordering::SeqCst);
            if let Some(entry) = before {
                if let Err(e) = append(&entry, false) {
                    return fail(e);
                }
            }
            // A harness panic (as opposed to a victim panic, which the
            // supervisor converts into a crash DUE long before here) must
            // not unwind across the scheduler and take sibling shards down:
            // the unit's records before it are journaled, the rest dropped.
            let (first, mut failed, mut panicked) = (completed, None, None);
            let busy = run_slots(
                n,
                workers,
                |i| {
                    let trial = source.trial(shard, first + i);
                    (trial, std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_one(trial))))
                },
                |(trial, outcome)| {
                    match outcome.map(|record| journal_one(shard, completed, trial, record)) {
                        Ok(Ok(())) => completed += 1,
                        Ok(Err(e)) => failed = Some(e),
                        Err(payload) => {
                            panicked = Some(format!("shard {shard}: trial {trial}: {}", panic_message(payload.as_ref())))
                        }
                    }
                    failed.is_none() && panicked.is_none()
                },
            );
            busy_ns.fetch_add(busy, Ordering::Relaxed);
            if let Some(e) = failed {
                return fail(e);
            }
            if let Some(diagnostic) = panicked {
                obs::incr("shard/panicked", 1);
                stopped(completed);
                return shard_panics.lock().push(diagnostic);
            }
            units += 1;
            // On the shard's last trial the seal below fsyncs this line with
            // its own, before any other trial of the shard runs.
            if source.cadence().is_none_or(|every| units.is_multiple_of(every)) {
                if let Err(e) = checkpoint(shard, completed, completed < len) {
                    return fail(e);
                }
            }
            publish();
        }
        // Nothing left for the shard: release its runner, then seal it.
        drop(run_one);
        if let Err(e) = seal(shard, completed) {
            fail(e);
        }
    });

    // Fold this drive's records and digests into the shards; a shard
    // neither sealed nor empty means the run was paused (budget/stop)
    // rather than finished.
    for (shard, fresh) in new_records.into_iter().enumerate() {
        let (fresh, digest) = fresh.into_inner();
        let state = &mut journal.progress.shards[shard];
        state.completed += fresh.len() as u64;
        state.done |= sealed[shard].load(Ordering::Relaxed);
        journal.records[shard].extend(fresh);
        journal.digests[shard] = journal.digests[shard].then(digest);
    }
    let complete = journal.complete();

    // A paused writer stays open for the next drive once its checkpoints are
    // durable. Any other is retired explicitly, so a failed final flush
    // surfaces as an error here instead of being swallowed by `Drop`.
    // Worker-observed errors still take precedence — they name the root
    // cause.
    let mut writer = writer.into_inner();
    let failed = io_error.lock().is_some() || !shard_panics.lock().is_empty();
    let closed = if complete || failed {
        writer.close()
    } else {
        writer.sync().map(|()| journal.writer = Some(writer))
    };
    if let Some(e) = io_error.lock().take() {
        return Err(e);
    }
    let panics = std::mem::take(&mut *shard_panics.lock());
    if !panics.is_empty() {
        return Err(std::io::Error::other(format!(
            "{} shard(s) failed on harness panics (journal is resumable): {}",
            panics.len(),
            panics.join("; ")
        )));
    }
    closed?;
    if !complete {
        return Ok(StoredRun::Paused { completed: journal.progress.completed(), total: plan.trials });
    }
    Ok(StoredRun::Complete(std::mem::take(&mut journal.records).into_iter().flatten().collect()))
}

/// A stored campaign between invocations: its open journal with its trial
/// source, and its victim side, with the warm target pool. [`open_stored`]
/// and [`open_planned`] are the open step, [`StoredCampaign::advance`] the
/// advance step, and [`run_stored`] one of each; a caller that keeps the
/// campaign open (the daemon, between slices) advances it again without
/// rescanning the journal or replaying its planner.
pub struct StoredCampaign<T, F: Fn() -> T> {
    journal: OpenJournal,
    victims: Victims<T, F>,
}

/// Opens a durable fixed-count campaign of `kind` for `executor`, journaled
/// under `store_cfg`: creates its journal, or with `store_cfg.resume`
/// continues an existing one after checking it holds this campaign.
/// `factory` builds the victim: the pool executor runs on pooled instances
/// of it; the warden executor builds one only to read the step count.
pub fn open_stored<K, T, F>(
    kind: &K,
    factory: F,
    executor: Executor<'_>,
    store_cfg: &StoreConfig,
) -> std::io::Result<StoredCampaign<T, F>>
where
    K: TrialKind,
    T: FaultTarget,
    F: Fn() -> T + Sync,
{
    let victims = Victims::new(factory, matches!(executor, Executor::Pool(_)), worker_threads(kind.workers()));
    let journal = open_journal(store_cfg, kind.meta(store_cfg.shards), None)?;
    Ok(StoredCampaign { journal, victims })
}

/// Opens a planner-driven campaign of `kind` for `executor`, as
/// [`open_stored`] does a fixed-count one: its trials below the `kind`'s
/// trial count (the horizon) come in batches from the decisions of the
/// planner `planner(total_steps)` builds for the victim's step count, in a
/// single-shard format-2 journal, and it completes when the planner has no
/// more batches. Resuming a journal replays every journaled decision
/// through the fresh planner and checks each against it.
pub fn open_planned<K, T, F>(
    kind: &K,
    factory: F,
    executor: Executor<'_>,
    store_cfg: &StoreConfig,
    planner: impl FnOnce(usize) -> Box<dyn AllocationPlanner>,
) -> std::io::Result<StoredCampaign<T, F>>
where
    K: TrialKind,
    T: FaultTarget,
    F: Fn() -> T + Sync,
{
    let victims = Victims::new(factory, matches!(executor, Executor::Pool(_)), worker_threads(kind.workers()));
    let meta = CampaignMeta { version: store::ADAPTIVE_FORMAT_VERSION, ..kind.meta(1) };
    let journal = open_journal(store_cfg, meta, Some(planner(victims.total_steps)))?;
    Ok(StoredCampaign { journal, victims })
}

impl<T: FaultTarget, F: Fn() -> T + Sync> StoredCampaign<T, F> {
    /// True while the journal on disk is exactly what this campaign wrote;
    /// a caller holding it between invocations reopens from disk otherwise.
    pub fn is_current(&self) -> bool {
        self.journal.writer.as_ref().is_some_and(JournalWriter::is_current)
    }

    /// The CRC-32 of the campaign's journal payloads, each followed by
    /// `"\n"`, in the order its completed records come back: global trial
    /// order (shard after shard), decision order for a planner campaign.
    /// That is `records_crc` of the campaign's result document, taken from
    /// the bytes the engine journaled and read back rather than from a
    /// second serialization. `None` until the campaign is complete.
    pub fn payload_crc(&self) -> Option<u32> {
        let journal = &self.journal;
        journal.complete().then(|| journal.digests.iter().fold(PayloadDigest::default(), |all, &shard| all.then(shard)).crc)
    }

    /// Runs up to `budget` more trials (`None` = to completion) of `kind` —
    /// the kind it was opened with — on `executor`. Pauses with the journal
    /// fsynced, or completes with the campaign. After an error, or once
    /// complete, the campaign is closed: reopen it from disk.
    pub fn advance<K: TrialKind>(
        &mut self,
        kind: &K,
        executor: Executor<'_>,
        budget: Option<usize>,
    ) -> std::io::Result<StoredRun<K::Campaign>> {
        let _quiet = matches!(executor, Executor::Pool(_)).then(crate::panic_guard::silence_panics);
        let journal = &mut self.journal;
        crate::monitor::begin_campaign(&journal.meta.benchmark, &journal.meta.kind, &journal.plan, &journal.progress);
        let (pool, total_steps) = (&self.victims.pool, self.victims.total_steps);
        let fast_compares = AtomicU64::new(0);
        let busy_ns = AtomicU64::new(0);
        // Wardens are pooled per advance: a worker process is reused across
        // trials (and shards) until it dies, and all of them shut down —
        // draining their final metrics frames — before the advance returns.
        let wardens: parking_lot::Mutex<Vec<Warden>> = parking_lot::Mutex::new(Vec::new());
        let run_one = |trial| match executor {
            Executor::Pool(golden) => {
                let (record, fast) = kind.run(pool, golden, total_steps, trial);
                fast_compares.fetch_add(fast as u64, Ordering::Relaxed);
                record
            }
            Executor::Warden(iso) => {
                let mut warden = wardens.lock().pop().unwrap_or_else(|| Warden::new(iso.clone()));
                let record = match warden.run_trial(trial) {
                    Ok(IsolatedTrial::Completed(record)) => *record,
                    // The warden already emitted the diagnostic through
                    // telemetry (`warden/quarantined`, `warden_quarantine`
                    // event); here the death folds into the campaign as a
                    // deterministic DUE record.
                    Ok(IsolatedTrial::Quarantined { kind: due, .. }) => kind.synth_due(total_steps, trial, due),
                    Err(e) => panic!("trial {trial}: warden infrastructure failed: {e}"),
                };
                wardens.lock().push(warden);
                record
            }
        };
        let run = drive_shards(journal, budget, self.victims.workers, &busy_ns, |_shard| &run_one);
        drop(wardens);
        self.victims.busy_ns += busy_ns.into_inner();
        self.victims.fast_compares += fast_compares.into_inner();
        Ok(match run? {
            StoredRun::Paused { completed, total } => StoredRun::Paused { completed, total },
            StoredRun::Complete(records) => {
                crate::monitor::complete_campaign();
                StoredRun::Complete(self.victims.finish(kind, records, self.journal.source.gauges()))
            }
        })
    }
}

/// Runs a durable, sharded, resumable campaign of `kind` on `executor`,
/// journaled under `store_cfg`: [`open_stored`] plus one
/// [`StoredCampaign::advance`] of `store_cfg.budget` trials.
///
/// For a fixed seed the completed aggregate is bit-identical to
/// [`run_in_memory`] with the same configuration, for any shard count,
/// worker count, executor, interruption pattern or number of resume
/// invocations.
pub fn run_stored<K, T, F>(
    kind: &K,
    factory: F,
    executor: Executor<'_>,
    store_cfg: &StoreConfig,
) -> std::io::Result<StoredRun<K::Campaign>>
where
    K: TrialKind,
    T: FaultTarget,
    F: Fn() -> T + Sync,
{
    open_stored(kind, factory, executor, store_cfg)?.advance(kind, executor, store_cfg.budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{execute_trial, run_campaign, CampaignConfig, Injection};
    use crate::target::{Snapshot, StateVisitor, StepOutcome, VarClass, VarInfo};
    use std::ops::ControlFlow;

    /// Tiny deterministic victim (mirror of the campaign-test victim).
    struct Victim {
        data: Vec<u32>,
        ctrl: u64,
        done: usize,
    }
    impl Victim {
        fn new() -> Self {
            Victim { data: (0..64u32).collect(), ctrl: 0, done: 0 }
        }
    }
    impl FaultTarget for Victim {
        fn name(&self) -> &'static str {
            "victim"
        }
        fn total_steps(&self) -> usize {
            8
        }
        fn steps_executed(&self) -> usize {
            self.done
        }
        fn step(&mut self) -> StepOutcome {
            let base = (self.ctrl as usize) * 8;
            for i in 0..8 {
                self.data[base + i] = self.data[base + i].wrapping_mul(3).wrapping_add(1);
            }
            self.ctrl += 1;
            self.done += 1;
            if self.done >= 8 {
                StepOutcome::Done
            } else {
                StepOutcome::Continue
            }
        }
        fn state<'a>(&'a mut self, v: &mut dyn StateVisitor<'a>) -> ControlFlow<()> {
            let Victim { data, ctrl, done } = self;
            v.scalar(None, done)?;
            v.slice(VarInfo::global("data", VarClass::Matrix, file!(), line!()), data)?;
            v.scalar(VarInfo::local("ctrl", VarClass::ControlVariable, "loop", 0, file!(), line!()), ctrl)
        }
        fn output(&self) -> Output {
            Output::I32Grid { dims: [8, 8, 1], data: self.data.iter().map(|&x| x as i32).collect() }
        }
        fn snapshot(&mut self) -> Option<Snapshot> {
            Some(Snapshot::capture(self))
        }
    }

    fn golden() -> Output {
        let mut v = Victim::new();
        while v.step() == StepOutcome::Continue {}
        v.output()
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/test-orchestrator").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn assert_same_records(a: &[TrialRecord], b: &[TrialRecord]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.trial, y.trial);
            assert_eq!(x.model, y.model);
            assert_eq!(x.inject_step, y.inject_step);
            assert_eq!(x.outcome, y.outcome);
            assert_eq!(x.executed_steps, y.executed_steps);
        }
    }

    #[test]
    fn any_shard_count_matches_the_single_shot_run() {
        let g = golden();
        let cfg = CampaignConfig { trials: 96, seed: 41, ..Default::default() };
        let single = run_campaign("victim", Victim::new, &g, &cfg);
        for shards in [1usize, 3, 7] {
            let mut sc = StoreConfig::new(tmp(&format!("shards-{shards}")));
            sc.shards = shards;
            let stored = run_stored(&Injection::new("victim", &cfg), Victim::new, Executor::Pool(&g), &sc).unwrap().expect_complete();
            assert_same_records(&single.records, &stored.records);
            assert_eq!(single.report.outcomes, stored.report.outcomes);
        }
    }

    #[test]
    fn interrupted_resume_matches_uninterrupted_run() {
        let g = golden();
        let cfg = CampaignConfig { trials: 80, seed: 5, ..Default::default() };
        let uninterrupted = run_campaign("victim", Victim::new, &g, &cfg);

        let mut sc = StoreConfig::new(tmp("interrupt"));
        sc.shards = 4;
        sc.checkpoint_every = 7;
        sc.budget = Some(13); // exhaust the budget repeatedly
        let mut rounds = 0;
        let stored = loop {
            rounds += 1;
            assert!(rounds < 50, "campaign never completed");
            match run_stored(&Injection::new("victim", &cfg), Victim::new, Executor::Pool(&g), &sc).unwrap() {
                StoredRun::Complete(c) => break c,
                StoredRun::Paused { completed, total } => {
                    assert!(completed < total as u64);
                    sc.resume = true;
                }
            }
        };
        assert!(rounds > 2, "budget of 13/80 should take several rounds, took {rounds}");
        assert_same_records(&uninterrupted.records, &stored.records);
    }

    #[test]
    fn fresh_run_refuses_existing_journal() {
        let g = golden();
        let cfg = CampaignConfig { trials: 8, seed: 1, ..Default::default() };
        let sc = StoreConfig::new(tmp("refuse"));
        run_stored(&Injection::new("victim", &cfg), Victim::new, Executor::Pool(&g), &sc).unwrap().expect_complete();
        let err = run_stored(&Injection::new("victim", &cfg), Victim::new, Executor::Pool(&g), &sc).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
        assert!(err.to_string().contains("--resume"), "{err}");
    }

    #[test]
    fn resume_refuses_a_different_campaign() {
        let g = golden();
        let cfg = CampaignConfig { trials: 8, seed: 1, ..Default::default() };
        let mut sc = StoreConfig::new(tmp("meta-mismatch"));
        run_stored(&Injection::new("victim", &cfg), Victim::new, Executor::Pool(&g), &sc).unwrap().expect_complete();
        sc.resume = true;
        let other = CampaignConfig { trials: 8, seed: 2, ..Default::default() };
        let err = run_stored(&Injection::new("victim", &other), Victim::new, Executor::Pool(&g), &sc).unwrap_err();
        assert!(err.to_string().contains("different campaign"), "{err}");
    }

    #[test]
    fn resume_of_a_complete_journal_is_a_cheap_no_op() {
        let g = golden();
        let cfg = CampaignConfig { trials: 24, seed: 9, ..Default::default() };
        let mut sc = StoreConfig::new(tmp("noop-resume"));
        sc.shards = 3;
        let first = run_stored(&Injection::new("victim", &cfg), Victim::new, Executor::Pool(&g), &sc).unwrap().expect_complete();
        sc.resume = true;
        sc.budget = Some(0); // no execution allowed: everything must come from the journal
        let second = run_stored(&Injection::new("victim", &cfg), Victim::new, Executor::Pool(&g), &sc).unwrap().expect_complete();
        assert_same_records(&first.records, &second.records);
    }

    #[test]
    fn resume_seals_a_shard_whose_trials_are_all_journaled() {
        let g = golden();
        let cfg = CampaignConfig { trials: 8, seed: 3, ..Default::default() };
        let mut sc = StoreConfig::new(tmp("unsealed-shard"));
        sc.shards = 2;
        let kind = Injection::new("victim", &cfg);
        let first = run_stored(&kind, Victim::new, Executor::Pool(&g), &sc).unwrap().expect_complete();

        // Cut the last seal, as a crash between a shard's last append and
        // its seal leaves the journal.
        let segment = sc.dir.join("seg-00000.jsonl");
        let text = std::fs::read_to_string(&segment).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        let last_seal = lines.iter().rposition(|l| l.contains("ShardDone")).unwrap();
        lines.remove(last_seal);
        std::fs::write(&segment, lines.iter().map(|l| format!("{l}\n")).collect::<String>()).unwrap();
        let seals = |dir: &std::path::Path| -> Vec<bool> {
            let scan = store::Journal::scan(dir).unwrap();
            ShardProgress::replay(2, &scan.entries).unwrap().shards.iter().map(|s| s.done).collect()
        };
        assert_eq!(seals(&sc.dir).iter().filter(|&&done| done).count(), 1);

        sc.resume = true;
        let resumed = run_stored(&kind, Victim::new, Executor::Pool(&g), &sc).unwrap().expect_complete();
        assert_same_records(&first.records, &resumed.records);
        assert_eq!(seals(&sc.dir), vec![true, true], "the resume must seal the shard it found complete");
    }

    #[test]
    fn harness_panic_fails_only_its_shard_and_the_run_stays_resumable() {
        let _quiet = crate::panic_guard::silence_panics();
        let g = golden();
        let cfg = CampaignConfig { trials: 24, seed: 7, ..Default::default() };
        let reference = run_campaign("victim", Victim::new, &g, &cfg);

        let mut sc = StoreConfig::new(tmp("panic-shard"));
        sc.shards = 3;
        sc.checkpoint_every = 2;
        let meta = CampaignMeta {
            kind: "inject".into(),
            benchmark: "victim".into(),
            seed: cfg.seed,
            trials: cfg.trials,
            shards: sc.shards,
            n_windows: cfg.n_windows,
            version: store::journal::FORMAT_VERSION,
        };
        let busy = AtomicU64::new(0);
        let run_real = |trial: usize| {
            let mut t = Victim::new();
            execute_trial("victim", &mut t, &g, &cfg, 8, trial).0
        };

        // First pass: trial 12 (shard 1) hits a harness bug.
        let mut journal = open_journal(&sc, meta.clone(), None).unwrap();
        let err = drive_shards(&mut journal, None, 3, &busy, |_shard| {
            |trial| {
                if trial == 12 {
                    panic!("injected harness bug at trial {trial}");
                }
                run_real(trial)
            }
        })
        .unwrap_err();
        assert!(err.to_string().contains("shard 1"), "{err}");
        assert!(err.to_string().contains("injected harness bug"), "{err}");

        // Sibling shards sealed despite the panic; the panicking shard kept
        // its checkpointed progress and nothing else.
        sc.resume = true;
        let mut journal = open_journal(&sc, meta, None).unwrap();
        let progress = &journal.progress;
        assert!(progress.shards[0].done, "shard 0 must seal despite shard 1's panic");
        assert!(progress.shards[2].done, "shard 2 must seal despite shard 1's panic");
        assert!(!progress.shards[1].done);
        assert_eq!(progress.shards[1].completed, 4, "shard 1 completed trials 8..12 before the panic");

        // Resume finishes the failed shard and the aggregate matches the
        // uninterrupted in-process run.
        let records = drive_shards(&mut journal, None, 3, &busy, |_shard| &run_real).unwrap().expect_complete();
        assert_same_records(&reference.records, &records);
    }

    // --- Planner journals (format 2) ----------------------------------------

    /// A planner that hands out scripted decisions in order and ignores
    /// what it observes.
    struct Script(std::collections::VecDeque<PlanDecision>);

    impl AllocationPlanner for Script {
        fn observe(&mut self, _record: &TrialRecord) {}
        fn next_batch(&mut self) -> Option<PlanDecision> {
            self.0.pop_front()
        }
        fn gauges(&self) -> crate::monitor::PlannerStatus {
            crate::monitor::PlannerStatus { strata_total: 1, strata_open: self.0.len() as u64, widest_ci: 0.0, batches: 0 }
        }
    }

    /// Decisions `(stratum, widest_ci, trials)`, numbered from 0.
    fn script(decisions: &[(&str, f64, &[usize])]) -> Script {
        Script(
            decisions
                .iter()
                .enumerate()
                .map(|(batch, &(stratum, widest_ci, trials))| PlanDecision {
                    batch: batch as u64,
                    stratum: stratum.into(),
                    widest_ci,
                    strata_open: 1,
                    trials: trials.to_vec(),
                })
                .collect(),
        )
    }

    fn plan_entry(batch: u64, stratum: &str, widest_ci: f64, trials: &[usize]) -> JournalEntry {
        JournalEntry::Plan { batch, stratum: stratum.into(), widest_ci, trials: trials.to_vec() }
    }

    /// The `seq`-th trial entry of a planner journal, carrying `trial`'s
    /// real record.
    fn trial_entry(seq: u64, trial: usize) -> JournalEntry {
        let cfg = CampaignConfig { trials: 8, seed: 19, ..Default::default() };
        let record = execute_trial("victim", &mut Victim::new(), &golden(), &cfg, 8, trial).0;
        JournalEntry::Trial { shard: 0, seq, payload: serde_json::to_string(&record).unwrap() }
    }

    /// Writes `entries` as a planner journal of an 8-trial victim campaign
    /// and opens it with `planner`, returning the refusal.
    fn planner_refusal(name: &str, entries: &[JournalEntry], planner: Script) -> String {
        let cfg = CampaignConfig { trials: 8, seed: 19, ..Default::default() };
        let kind = Injection::new("victim", &cfg);
        let mut sc = StoreConfig::new(tmp(name));
        let meta = CampaignMeta { version: store::journal::ADAPTIVE_FORMAT_VERSION, ..kind.meta(1) };
        let mut writer = JournalWriter::create(&sc.dir, meta).unwrap();
        for entry in entries {
            writer.append(entry).unwrap();
        }
        writer.close().unwrap();
        sc.resume = true;
        match open_planned(&kind, Victim::new, Executor::Pool(&golden()), &sc, |_| Box::new(planner)) {
            Ok(_) => panic!("{name}: the journal was accepted"),
            Err(e) => e.to_string(),
        }
    }

    #[test]
    fn a_planner_journal_refuses_a_record_of_another_trial() {
        let err = planner_refusal(
            "plan-other-trial",
            &[plan_entry(0, "a", 0.5, &[0, 1]), trial_entry(0, 0), trial_entry(1, 5)],
            script(&[("a", 0.5, &[0, 1])]),
        );
        assert!(err.contains("seq 1: payload carries trial 5, journaled decisions allocated 1"), "{err}");
    }

    #[test]
    fn a_planner_journal_refuses_a_record_no_decision_covers() {
        let err = planner_refusal(
            "plan-uncovered",
            &[plan_entry(0, "a", 0.5, &[0, 1]), trial_entry(0, 0), trial_entry(1, 1), trial_entry(2, 2)],
            script(&[("a", 0.5, &[0, 1])]),
        );
        assert!(err.contains("seq 2: trial record with no covering allocation decision"), "{err}");
    }

    #[test]
    fn a_planner_journal_refuses_a_decision_after_the_planner_converged() {
        let err = planner_refusal(
            "plan-after-converged",
            &[plan_entry(0, "a", 0.5, &[0, 1]), trial_entry(0, 0), trial_entry(1, 1), plan_entry(1, "a", 0.5, &[2, 3])],
            script(&[("a", 0.5, &[0, 1])]),
        );
        assert!(err.contains("journal holds decision #1 but the planner is already converged"), "{err}");
    }

    #[test]
    fn a_planner_journal_refuses_a_decision_the_planner_does_not_replay() {
        // The stratum, the trials, or only the last bit of the interval
        // width differ from what the replayed planner decides.
        let ci_up = f64::from_bits(0.5f64.to_bits() + 1);
        let replayed: [(&str, f64, &[usize]); 3] = [("b", 0.5, &[0, 1]), ("a", 0.5, &[0, 2]), ("a", ci_up, &[0, 1])];
        for (i, (stratum, ci, trials)) in replayed.into_iter().enumerate() {
            let err = planner_refusal(
                &format!("plan-mismatch-{i}"),
                &[plan_entry(0, "a", 0.5, &[0, 1]), trial_entry(0, 0), trial_entry(1, 1)],
                script(&[(stratum, ci, trials)]),
            );
            let expected = format!(
                "journaled decision #0 (stratum a, 2 trials) does not match the replayed planner (stratum {stratum}, 2 trials)"
            );
            assert!(err.contains(&expected), "case {i}: {err}");
        }
    }

    #[test]
    fn a_planner_journal_refuses_an_incomplete_decision_followed_by_another() {
        let err = planner_refusal(
            "plan-incomplete",
            &[plan_entry(0, "a", 0.5, &[0, 1]), trial_entry(0, 0), plan_entry(1, "a", 0.5, &[2, 3])],
            script(&[("a", 0.5, &[0, 1]), ("a", 0.5, &[2, 3])]),
        );
        assert!(err.contains("decision #0 is incomplete but later decisions follow it"), "{err}");
    }

    #[test]
    fn a_planner_journal_refuses_a_seal_in_the_middle_of_a_batch() {
        let err = planner_refusal(
            "plan-sealed-mid-batch",
            &[plan_entry(0, "a", 0.5, &[0, 1]), trial_entry(0, 0), JournalEntry::ShardDone { shard: 0 }],
            script(&[("a", 0.5, &[0, 1])]),
        );
        assert!(err.contains("sealed adaptive journal ends mid-batch"), "{err}");
    }

    /// Every file of a journal directory with its bytes, in name order.
    fn segments(dir: &std::path::Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()).collect();
        paths.sort();
        paths.iter().map(|p| (p.file_name().unwrap().to_owned(), std::fs::read(p).unwrap())).collect()
    }

    #[test]
    fn harness_panic_in_a_planner_batch_journals_nothing_more_and_the_run_resumes_to_the_one_shot_journal() {
        let _quiet = crate::panic_guard::silence_panics();
        let g = golden();
        let cfg = CampaignConfig { trials: 8, seed: 19, ..Default::default() };
        let meta = CampaignMeta { version: store::journal::ADAPTIVE_FORMAT_VERSION, ..Injection::new("victim", &cfg).meta(1) };
        let decisions: [(&str, f64, &[usize]); 2] = [("a", 0.5, &[0, 1, 2, 3]), ("b", 0.25, &[4, 5, 6, 7])];
        let planner = || -> Option<Box<dyn AllocationPlanner>> { Some(Box::new(script(&decisions))) };
        let busy = AtomicU64::new(0);
        let run_real = |trial: usize| {
            let mut t = Victim::new();
            execute_trial("victim", &mut t, &g, &cfg, 8, trial).0
        };

        let one_shot = StoreConfig::new(tmp("planner-one-shot"));
        let mut journal = open_journal(&one_shot, meta.clone(), planner()).unwrap();
        drive_shards(&mut journal, None, 2, &busy, |_shard| &run_real).unwrap().expect_complete();

        // Trial 6, the third of the second batch, hits a harness bug while
        // both workers run that batch.
        let mut sc = StoreConfig::new(tmp("planner-panic"));
        let mut journal = open_journal(&sc, meta.clone(), planner()).unwrap();
        let err = drive_shards(&mut journal, None, 2, &busy, |_shard| {
            |trial| {
                if trial == 6 {
                    panic!("injected harness bug at trial {trial}");
                }
                run_real(trial)
            }
        })
        .unwrap_err();
        assert!(err.to_string().contains("shard 0: trial 6: injected harness bug"), "{err}");
        // The batch's records before the panic are journaled, and nothing
        // after them: no checkpoint, no seal.
        let scan = store::Journal::scan(&sc.dir).unwrap();
        assert!(matches!(scan.entries.last(), Some(JournalEntry::Trial { seq: 5, .. })), "{:?}", scan.entries.last());

        sc.resume = true;
        let mut journal = open_journal(&sc, meta, planner()).unwrap();
        let records = drive_shards(&mut journal, None, 2, &busy, |_shard| &run_real).unwrap().expect_complete();
        assert_eq!(records.iter().map(|r| r.trial).collect::<Vec<_>>(), (0..8).collect::<Vec<_>>());
        assert!(segments(&sc.dir) == segments(&one_shot.dir), "the resumed planner journal differs from the one-shot run");
    }

    /// Worker entry for the isolated-campaign self-exec tests below: when
    /// spawned by a warden (socket env set) it serves real `Victim` trials
    /// by global index, with misbehavior scripted by the spec; as an
    /// ordinary test run it is a no-op.
    ///
    /// Spec format: `<mode>,<seed>,<trials>` where `mode` is `plain` or
    /// `+`-joined directives like `abort-5+hang-9`.
    #[test]
    fn isolated_worker_entry() {
        let Some(spec) = crate::warden::worker_spec() else { return };
        let mut parts = spec.split(',');
        let mode = parts.next().unwrap().to_string();
        let seed: u64 = parts.next().unwrap().parse().unwrap();
        let trials: usize = parts.next().unwrap().parse().unwrap();
        let cfg = CampaignConfig { trials, seed, ..Default::default() };
        let g = golden();
        let mut abort_on = None;
        let mut hang_on = None;
        for directive in mode.split('+') {
            match directive.split_once('-') {
                Some(("abort", n)) => abort_on = Some(n.parse::<usize>().unwrap()),
                Some(("hang", n)) => hang_on = Some(n.parse::<usize>().unwrap()),
                _ => {}
            }
        }
        let result = crate::warden::serve(|trial| {
            if abort_on == Some(trial) {
                std::process::abort();
            }
            if hang_on == Some(trial) {
                loop {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
            }
            let mut target = Victim::new();
            execute_trial("victim", &mut target, &g, &cfg, 8, trial).0
        });
        std::process::exit(if result.is_ok() { 0 } else { 1 });
    }

    /// IsolateConfig pointing back at this test binary, filtered down to
    /// the worker entry above.
    fn iso_cfg(mode: &str, cfg: &CampaignConfig) -> IsolateConfig {
        let mut iso = IsolateConfig::new(
            std::env::current_exe().expect("test binary path"),
            vec![
                "orchestrator::tests::isolated_worker_entry".into(),
                "--exact".into(),
                "--test-threads=1".into(),
                "--nocapture".into(),
            ],
            format!("{mode},{},{}", cfg.seed, cfg.trials),
        );
        iso.backoff_base = std::time::Duration::from_millis(1);
        iso.backoff_cap = std::time::Duration::from_millis(10);
        iso
    }

    #[test]
    fn isolated_campaign_matches_the_in_process_run() {
        let g = golden();
        let cfg = CampaignConfig { trials: 24, seed: 11, workers: 2, ..Default::default() };
        let reference = run_campaign("victim", Victim::new, &g, &cfg);
        let mut sc = StoreConfig::new(tmp("isolated-match"));
        sc.shards = 3;
        let stored = run_stored(&Injection::new("victim", &cfg), Victim::new, Executor::Warden(&iso_cfg("plain", &cfg)), &sc).unwrap().expect_complete();
        assert_eq!(reference.records.len(), stored.records.len());
        for (a, b) in reference.records.iter().zip(&stored.records) {
            assert_eq!(
                serde_json::to_string(a).unwrap(),
                serde_json::to_string(b).unwrap(),
                "trial {} must be bit-identical across execution backends",
                a.trial
            );
        }
        assert_eq!(reference.report.outcomes, stored.report.outcomes);
    }

    #[test]
    fn crashing_and_hanging_victims_become_dues_and_the_campaign_completes() {
        use crate::record::OutcomeRecord;
        let g = golden();
        let cfg = CampaignConfig { trials: 12, seed: 23, workers: 2, ..Default::default() };
        let reference = run_campaign("victim", Victim::new, &g, &cfg);
        let mut sc = StoreConfig::new(tmp("isolated-dues"));
        sc.shards = 2;
        let mut iso = iso_cfg("abort-5+hang-9", &cfg);
        iso.trial_wall = std::time::Duration::from_millis(400);
        let stored = run_stored(&Injection::new("victim", &cfg), Victim::new, Executor::Warden(&iso), &sc).unwrap().expect_complete();
        assert_eq!(stored.records.len(), 12);
        assert_eq!(stored.records[5].outcome, OutcomeRecord::Due(DueKind::Signal { signo: 6 }), "SIGABRT victim");
        assert_eq!(stored.records[9].outcome, OutcomeRecord::Due(DueKind::Killed), "wall-clock-killed victim");
        for (a, b) in reference.records.iter().zip(&stored.records) {
            if a.trial == 5 || a.trial == 9 {
                // Quarantined trials keep their deterministic identity even
                // though the victim never reported back.
                assert_eq!(a.model, b.model);
                assert_eq!(a.inject_step, b.inject_step);
                assert_eq!(a.window, b.window);
                continue;
            }
            assert_eq!(
                serde_json::to_string(a).unwrap(),
                serde_json::to_string(b).unwrap(),
                "well-behaved trial {} must be bit-identical",
                a.trial
            );
        }
    }
}
