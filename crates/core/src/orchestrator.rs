//! The campaign engine: every fixed-count campaign, in memory or durable,
//! of any trial kind, on any executor.
//!
//! Two axes span the runner matrix. A [`TrialKind`] says what one trial is
//! — injection ([`crate::campaign::Injection`]) or a beam strike
//! (`beamsim::campaign::Strikes`) — and how finished records become a
//! campaign. An [`Executor`] says where trials run: on pooled targets in
//! this process, or in supervised warden worker processes.
//!
//! [`run_stored`] is the durable form: the campaign's trial range splits
//! into contiguous shards (`store::ShardPlan`), a work-queue scheduler fans
//! the shards out to worker threads, and every completed trial is appended
//! to a checksummed journal (`store::JournalWriter`) before the next one
//! starts. A crash, OOM or kill loses at most the in-flight record;
//! re-running with `resume = true` scans the journal, skips completed
//! shards, continues partial shards from their cursors, and — because a
//! trial's global index fully determines its RNG stream, fault model and
//! injection time — the merged aggregate is bit-identical to an
//! uninterrupted single-shot run ([`run_in_memory`]), with no trial
//! re-executed or double-counted (the journal's per-shard sequence numbers
//! are validated gapless on every open). Both executors write the same
//! journal, so a campaign started in-process can resume isolated and vice
//! versa.
//!
//! A stored campaign is opened once ([`open_stored`]: create or resume the
//! journal, parse its records) and advanced by budgets
//! ([`StoredCampaign::advance`]); `run_stored` is one of each. A caller that
//! keeps the campaign open between advances skips the journal rescan, and
//! writes exactly the bytes a reopen before every advance would.

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
    /// value (checked against the journal meta).
    pub shards: usize,
    /// Continue an existing journal instead of demanding a fresh directory.
    pub resume: bool,
    /// Trials between durable checkpoints (cursor entry + fsync) per shard.
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
    /// whether the bitwise fast-path compare alone classified it.
    /// `attempt` and `count_outcomes` only shape telemetry: retries
    /// (attempt > 0) emit `*_retry` events, and warden workers pass
    /// `count_outcomes: false` because the supervisor counts each
    /// journaled record exactly once instead.
    #[allow(clippy::too_many_arguments)]
    fn run<T: FaultTarget, F: Fn() -> T>(
        &self,
        pool: &TargetPool<T, F>,
        golden: &Output,
        total_steps: usize,
        trial: usize,
        attempt: u32,
        count_outcomes: bool,
    ) -> (TrialRecord, bool);
    /// The record of a trial whose worker process died and was quarantined
    /// by the warden: every field the global index fixes, exactly as
    /// [`TrialKind::run`] would have produced it, with the outcome a DUE of
    /// `kind` (what was corrupted and how far it ran are unknowable).
    fn synth_due(&self, total_steps: usize, trial: usize, kind: DueKind) -> TrialRecord;
    /// The outcome-class counter of a finished record (`None` for records
    /// without a static class).
    fn outcome_key(&self, record: &TrialRecord) -> Option<&'static str>;
    /// The campaign report over finished records.
    fn report(&self, records: &[TrialRecord], workers: usize, busy_ns: u64, wall_ns: u64) -> obs::CampaignReport;
    /// Wraps finished records, in trial order, into the campaign.
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

/// Runs `run(i)` for every `i` in `0..n` on `workers` scoped threads pulling
/// indices from a shared cursor, and returns the results in index order
/// (whatever the interleaving was) plus the summed time spent inside `run`.
pub(crate) fn run_slots<R: Send>(n: usize, workers: usize, run: impl Fn(usize) -> R + Sync) -> (Vec<R>, u64) {
    let slots: Vec<parking_lot::Mutex<Option<R>>> = (0..n).map(|_| parking_lot::Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let busy_ns = AtomicU64::new(0);
    crossbeam::thread::scope(|scope| {
        for _ in 0..workers.min(n.max(1)) {
            scope.spawn(|_| {
                let mut local_busy = 0u64;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let t0 = Instant::now();
                    let out = run(i);
                    local_busy += t0.elapsed().as_nanos() as u64;
                    *slots[i].lock() = Some(out);
                }
                busy_ns.fetch_add(local_busy, Ordering::Relaxed);
            });
        }
    })
    .expect("campaign worker panicked outside a trial");
    let results = slots.into_iter().map(|slot| slot.into_inner().expect("trial slot missing")).collect();
    (results, busy_ns.into_inner())
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

    /// The finish step every runner shares: the kind's report plus the pool
    /// and fast-path gauges, wrapped into the campaign.
    pub(crate) fn finish<K: TrialKind>(&self, kind: &K, records: Vec<TrialRecord>) -> K::Campaign {
        let mut report = kind.report(&records, self.workers, self.busy_ns, self.wall.elapsed().as_nanos() as u64);
        report.pool_hits = self.pool.hits();
        report.pool_rebuilds = self.pool.rebuilds();
        report.fast_path_compares = self.fast_compares;
        kind.finish(records, report)
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
    let (slots, busy_ns) = run_slots(trials, victims.workers, |trial| kind.run(pool, golden, total_steps, trial, 0, true));
    victims.busy_ns = busy_ns;
    victims.fast_compares = slots.iter().filter(|(_, fast)| *fast).count() as u64;
    let records = slots.into_iter().map(|(record, _)| record).collect();
    victims.finish(kind, records)
}

fn invalid(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// A stored campaign's journal, open for appending: the writer positioned
/// after the last durable record, the per-shard progress, and every shard's
/// parsed records. [`open_journal`] builds it; [`drive_shards`] advances it,
/// as many times as the campaign needs.
pub(crate) struct OpenJournal {
    meta: CampaignMeta,
    pub(crate) plan: ShardPlan,
    /// Shard cursors and seals; the raw payloads are dropped once parsed.
    pub(crate) progress: ShardProgress,
    records: Vec<Vec<TrialRecord>>,
    /// `None` once the journal is closed: at completion, or after a failed
    /// drive.
    writer: Option<JournalWriter>,
    checkpoint_every: u64,
}

/// Opens (or creates) the journal for `meta`, replays shard progress and
/// parses the surviving trial payloads ([`decode_shards`]).
pub(crate) fn open_journal(store_cfg: &StoreConfig, meta: CampaignMeta) -> std::io::Result<OpenJournal> {
    let (writer, mut progress, _) = store::open_campaign(&store_cfg.dir, &meta, store_cfg.resume)?;
    let plan = ShardPlan::new(meta.trials, meta.shards);
    let records = decode_shards(plan, &mut progress)?;
    Ok(OpenJournal { meta, plan, progress, records, writer: Some(writer), checkpoint_every: store_cfg.checkpoint_every })
}

/// Parses the trial payloads of a fixed-count journal's replayed
/// `progress`, shard by shard, checking that no shard holds more trials than
/// its range and that each record carries the trial its position implies.
/// The raw payloads are dropped once parsed.
pub fn decode_shards(plan: ShardPlan, progress: &mut ShardProgress) -> std::io::Result<Vec<Vec<TrialRecord>>> {
    let mut records: Vec<Vec<TrialRecord>> = Vec::with_capacity(progress.shards.len());
    for (shard, state) in progress.shards.iter_mut().enumerate() {
        let range = plan.range(shard);
        if state.completed as usize > range.len() {
            return Err(invalid(format!("shard {shard}: journal has {} trials, plan allows {}", state.completed, range.len())));
        }
        let mut parsed = Vec::with_capacity(state.payloads.len());
        for (seq, payload) in std::mem::take(&mut state.payloads).iter().enumerate() {
            let record: TrialRecord = {
                let _span = obs::span!("record.decode");
                serde_json::from_str(payload)
            }
            .map_err(|e| invalid(format!("shard {shard} seq {seq}: bad trial payload: {e}")))?;
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
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Drives the shard queue of an open journal for up to `budget` more trials
/// (`None` = to completion): pulls shard tasks, executes trials through the
/// shard's runner, journals each record, checkpoints periodically and on
/// stop. A pause leaves the journal checkpointed and fsynced and its writer
/// open for the next drive; completion closes it and returns every record
/// in trial order.
///
/// `open_shard(shard)` returns the trial runner of one shard task, called
/// as `run(global_trial_index) -> TrialRecord`; it is dropped when the task
/// ends, before the shard seals. A runner must be pure in the trial index
/// (this is what the determinism invariant rests on).
///
/// A shard whose every trial is journaled but whose seal is missing (a crash
/// between its last append and its seal) gets no task: it is sealed first,
/// exactly as a finishing shard seals. A shard with an empty range (fewer
/// trials than shards) runs no task and is never sealed.
///
/// Failure containment: a **panic** out of a runner (harness bug, warden
/// infrastructure giving out) fails only its own shard — the shard
/// checkpoints what it has, records a diagnostic and stops pulling trials,
/// while sibling shards run to completion and seal. The run then returns an
/// error naming the failed shards, and a later `resume` continues exactly
/// from their cursors. **I/O errors** still stop every shard: they signal a
/// problem with the journal itself, which all shards share. Either way the
/// journal is closed, and the campaign must be reopened from disk.
pub(crate) fn drive_shards<R: FnMut(usize) -> TrialRecord>(
    journal: &mut OpenJournal,
    budget: Option<usize>,
    workers: usize,
    busy_ns: &AtomicU64,
    open_shard: impl Fn(usize) -> R + Sync,
) -> std::io::Result<StoredRun<Vec<TrialRecord>>> {
    let writer = journal.writer.take().ok_or_else(|| std::io::Error::other("journal is closed"))?;
    let (plan, checkpoint_every) = (journal.plan, journal.checkpoint_every);
    let stop = StopFlag::new();
    let spent = AtomicUsize::new(0);
    let writer = parking_lot::Mutex::new(writer);
    let io_error: parking_lot::Mutex<Option<std::io::Error>> = parking_lot::Mutex::new(None);
    let shard_panics: parking_lot::Mutex<Vec<String>> = parking_lot::Mutex::new(Vec::new());
    let new_records: Vec<parking_lot::Mutex<Vec<TrialRecord>>> = (0..plan.shards).map(|_| parking_lot::Mutex::new(Vec::new())).collect();
    let sealed: Vec<AtomicBool> = (0..plan.shards).map(|_| AtomicBool::new(false)).collect();

    let checkpoint = |shard: usize, completed: usize, sync: bool| -> std::io::Result<()> {
        let cursor = ShardCursor { shard, completed: completed as u64, next_stream: (plan.range(shard).start + completed) as u64 };
        store::retry_transient(|| {
            let mut j = writer.lock();
            j.append(&JournalEntry::Checkpoint(cursor))?;
            if sync {
                j.sync()?;
            }
            Ok(())
        })
    };
    let seal = |shard: usize| -> std::io::Result<()> {
        checkpoint(shard, plan.range(shard).len(), false)?;
        store::retry_transient(|| {
            let mut j = writer.lock();
            j.append(&JournalEntry::ShardDone { shard })?;
            j.sync()
        })?;
        sealed[shard].store(true, Ordering::Relaxed);
        obs::incr("shard/completed", 1);
        crate::monitor::shard_sealed(shard);
        Ok(())
    };

    let progress = &journal.progress;
    for shard in 0..plan.shards {
        let len = plan.range(shard).len();
        if !progress.shards[shard].done && len > 0 && progress.shards[shard].completed as usize == len {
            seal(shard)?;
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
        let range = plan.range(shard);
        let start = progress.shards[shard].completed as usize;
        obs::incr(if start == 0 { "shard/started" } else { "shard/resumed" }, 1);
        let mut run_one = open_shard(shard);
        let mut completed = start;
        for (seq, trial) in range.clone().enumerate().skip(start) {
            let out_of_budget = budget.is_some_and(|b| spent.fetch_add(1, Ordering::SeqCst) >= b);
            if stop.should_stop() || out_of_budget {
                stop.request_stop();
                if completed > start {
                    if let Err(e) = checkpoint(shard, completed, true) {
                        fail(e);
                    }
                }
                return;
            }
            let t0 = std::time::Instant::now();
            // A harness panic (as opposed to a victim panic, which the
            // supervisor converts into a crash DUE long before here) must
            // not unwind across the scheduler and take sibling shards down:
            // checkpoint this shard's progress, record the diagnostic, and
            // let the others seal. The run stays resumable.
            let record = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_one(trial))) {
                Ok(record) => record,
                Err(payload) => {
                    obs::incr("shard/panicked", 1);
                    if completed > start {
                        if let Err(e) = checkpoint(shard, completed, true) {
                            fail(e);
                        }
                    }
                    shard_panics
                        .lock()
                        .push(format!("shard {shard}: trial {trial}: {}", panic_message(payload.as_ref())));
                    return;
                }
            };
            busy_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            let encoded = {
                let _span = obs::span!("record.encode");
                serde_json::to_string(&record)
            };
            let payload = match encoded {
                Ok(p) => p,
                Err(e) => {
                    fail(std::io::Error::other(format!("trial {trial}: serialize failed: {e}")));
                    return;
                }
            };
            obs::incr("store/trials", 1);
            let entry = JournalEntry::Trial { shard, seq: seq as u64, payload };
            if let Err(e) = store::retry_transient(|| writer.lock().append(&entry)) {
                fail(e);
                return;
            }
            new_records[shard].lock().push(record);
            completed += 1;
            crate::monitor::tick(shard);
            if ((completed - start) as u64).is_multiple_of(checkpoint_every) {
                // On the shard's last trial the seal below fsyncs this line
                // with its own, before any other trial of the shard runs.
                if let Err(e) = checkpoint(shard, completed, completed < range.len()) {
                    fail(e);
                    return;
                }
            }
        }
        // Shard range exhausted: release its runner, then seal it.
        drop(run_one);
        if let Err(e) = seal(shard) {
            fail(e);
        }
    });

    // Fold this drive's records into the shards; a shard short of its range
    // means the run was paused (budget/stop) rather than finished.
    let mut complete = true;
    for (shard, fresh) in new_records.into_iter().enumerate() {
        let fresh = fresh.into_inner();
        let state = &mut journal.progress.shards[shard];
        state.completed += fresh.len() as u64;
        state.done |= sealed[shard].load(Ordering::Relaxed);
        journal.records[shard].extend(fresh);
        complete &= journal.records[shard].len() >= plan.range(shard).len();
    }

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
    let mut records: Vec<TrialRecord> = std::mem::take(&mut journal.records).into_iter().flatten().collect();
    records.sort_by_key(|r| r.trial);
    for (i, r) in records.iter().enumerate() {
        if r.trial != i {
            return Err(invalid(format!("aggregate is not gapless: position {i} holds trial {}", r.trial)));
        }
    }
    Ok(StoredRun::Complete(records))
}

/// A stored campaign between invocations: its open journal and its victim
/// side, with the warm target pool. [`open_stored`] is the open step,
/// [`StoredCampaign::advance`] the advance step, and [`run_stored`] one of
/// each; a caller that keeps the campaign open (the daemon, between slices)
/// advances it again without rescanning the journal.
pub struct StoredCampaign<T, F: Fn() -> T> {
    journal: OpenJournal,
    victims: Victims<T, F>,
}

/// Opens a durable campaign of `kind` for `executor`, journaled under
/// `store_cfg`: creates its journal, or with `store_cfg.resume` continues
/// an existing one after checking it holds this campaign. `factory` builds
/// the victim: the pool executor runs on pooled instances of it; the warden
/// executor builds one only to read the step count.
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
    let journal = open_journal(store_cfg, kind.meta(store_cfg.shards))?;
    Ok(StoredCampaign { journal, victims })
}

impl<T: FaultTarget, F: Fn() -> T + Sync> StoredCampaign<T, F> {
    /// True while the journal on disk is exactly what this campaign wrote;
    /// a caller holding it between invocations reopens from disk otherwise.
    pub fn is_current(&self) -> bool {
        self.journal.writer.as_ref().is_some_and(JournalWriter::is_current)
    }

    /// Runs up to `budget` more trials (`None` = to completion) of `kind` —
    /// the kind it was opened with — on `executor`. Pauses with the journal
    /// checkpointed and fsynced, or completes with the campaign. After an
    /// error, or once complete, the campaign is closed: reopen it from disk.
    ///
    /// Outcome-class counters count each trial exactly once. Pooled trials
    /// count themselves; under the warden executor workers run with outcome
    /// counting off and the supervisor counts the winning record of each
    /// trial index where it journals it, so a trial retried after a kill or
    /// torn reply never double-counts.
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
                let (record, fast) = kind.run(pool, golden, total_steps, trial, 0, true);
                fast_compares.fetch_add(fast as u64, Ordering::Relaxed);
                record
            }
            Executor::Warden(iso) => {
                let mut warden = match wardens.lock().pop().map(Ok).unwrap_or_else(|| Warden::new(iso.clone())) {
                    Ok(w) => w,
                    Err(e) => panic!("trial {trial}: warden setup failed: {e}"),
                };
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
                if let Some(key) = kind.outcome_key(&record) {
                    obs::incr(key, 1);
                }
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
                StoredRun::Complete(self.victims.finish(kind, records))
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
    use crate::target::{Snapshot, StepOutcome, VarClass, VarInfo, Variable};

    /// Tiny deterministic victim (mirror of the campaign-test victim).
    #[derive(Clone)]
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
        fn variables(&mut self) -> Vec<Variable<'_>> {
            vec![
                Variable::from_slice(VarInfo::global("data", VarClass::Matrix, file!(), line!()), &mut self.data),
                Variable::from_scalar(VarInfo::local("ctrl", VarClass::ControlVariable, "loop", 0, file!(), line!()), &mut self.ctrl),
            ]
        }
        fn output(&self) -> Output {
            Output::I32Grid { dims: [8, 8, 1], data: self.data.iter().map(|&x| x as i32).collect() }
        }
        fn snapshot(&self) -> Option<Snapshot> {
            Some(Snapshot::new(self.clone()))
        }
        fn restore(&mut self, snapshot: &Snapshot) -> bool {
            let Some(s) = snapshot.get::<Victim>() else { return false };
            self.clone_from(s);
            true
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
        let mut journal = open_journal(&sc, meta.clone()).unwrap();
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
        let mut journal = open_journal(&sc, meta).unwrap();
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
        let result = crate::warden::serve(|trial, attempt| {
            if abort_on == Some(trial) {
                std::process::abort();
            }
            if hang_on == Some(trial) {
                loop {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
            }
            let mut target = Victim::new();
            crate::campaign::execute_trial_attempt("victim", &mut target, &g, &cfg, 8, trial, attempt, false).0
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
