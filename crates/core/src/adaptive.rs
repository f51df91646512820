//! Adaptive (planner-driven) stored campaigns.
//!
//! [`run_campaign_adaptive`] is the confidence-interval-driven counterpart
//! of the engine's [`crate::run_stored`]: instead of executing a fixed trial
//! range, an [`AllocationPlanner`] picks which trials to run next — one
//! *batch* at a time, each batch drawn from the stratum whose outcome
//! estimate is least converged — and stops once every stratum's interval is
//! inside the target width. The fixed trial count becomes a *horizon*: the
//! planner may only allocate indices below `cfg.trials`, and every trial it
//! does allocate keeps the exact RNG stream / fault model / injection time
//! the fixed-count campaign would have given that index.
//!
//! Determinism: the planner is required to be a pure function of its
//! construction parameters and the sequence of observed records, and batch
//! records are journaled in the decision's trial order regardless of worker
//! scheduling. A version-2 journal is therefore a pure function of
//! `(spec, seed)` — interrupting and resuming an adaptive campaign (any
//! number of times, any worker count) reproduces the *byte-identical*
//! journal and result, because resume re-derives every decision from the
//! replayed planner and cross-checks it against the journaled
//! [`JournalEntry::Plan`] records before continuing.
//!
//! Like the engine's stored runner, an adaptive campaign is opened once
//! ([`open_adaptive`]) and advanced by budgets
//! ([`AdaptiveCampaign::advance`]); a caller that keeps it open between
//! advances skips the journal rescan and the planner replay.

use crate::campaign::{Campaign, CampaignConfig, Injection};
use crate::monitor::PlannerStatus;
use crate::orchestrator::{panic_message, run_slots, worker_threads, StoreConfig, StoredRun, TrialKind, Victims};
use crate::output::Output;
use crate::record::TrialRecord;
use crate::target::FaultTarget;
use store::{CampaignMeta, JournalEntry, JournalWriter, ShardCursor, ShardPlan, ShardProgress, ShardState};

/// One allocation decision: the batch of trial indices the planner wants
/// executed next, plus the gauges that justified the pick (journaled for
/// replay cross-checking and surfaced as a `plan` obs event).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanDecision {
    /// Decision ordinal, gapless from 0.
    pub batch: u64,
    /// Label of the stratum this batch samples.
    pub stratum: String,
    /// The stratum's widest outcome-class CI width at decision time (the
    /// quantity the planner is minimizing).
    pub widest_ci: f64,
    /// Open strata (width above target) at decision time.
    pub strata_open: u64,
    /// Campaign-global trial indices to execute, in execution order.
    pub trials: Vec<usize>,
}

/// Strategy interface of the adaptive orchestrator. Implementations live
/// above this crate (the Wilson-interval planner is in `sdc-analysis`);
/// the orchestrator only requires the *purity contract*: after any sequence
/// of `next_batch`/`observe` calls, the next decision must be a pure
/// function of the construction parameters and the records observed so far.
/// That contract is what makes a version-2 journal replayable.
pub trait AllocationPlanner {
    /// Feeds one completed trial back into planner state. Called in journal
    /// (execution) order, both live and during resume replay.
    fn observe(&mut self, record: &TrialRecord);
    /// The next batch to execute, or `None` when every stratum is converged
    /// (or exhausted its share of the horizon).
    fn next_batch(&mut self) -> Option<PlanDecision>;
    /// Live gauges for `CampaignReport` / `phi-top` / the serve event bus.
    fn gauges(&self) -> PlannerStatus;
}

fn invalid(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// An allocation decision as replayed from the journal.
pub struct JournaledPlan {
    batch: u64,
    stratum: String,
    widest_ci: f64,
    trials: Vec<usize>,
}

/// Parses a version-2 journal's surviving entries: the allocation decisions
/// in order and the trial records in execution order, checking that the
/// k-th record carries the k-th index the decisions allocated.
pub fn journaled_decisions(
    entries: &[JournalEntry],
    progress: &ShardProgress,
) -> std::io::Result<(Vec<JournaledPlan>, Vec<TrialRecord>)> {
    let mut plans = Vec::new();
    for entry in entries {
        if let JournalEntry::Plan { batch, stratum, widest_ci, trials } = entry {
            plans.push(JournaledPlan {
                batch: *batch,
                stratum: stratum.clone(),
                widest_ci: *widest_ci,
                trials: trials.clone(),
            });
        }
    }
    let mut records = Vec::with_capacity(progress.shards[0].payloads.len());
    for (seq, payload) in progress.shards[0].payloads.iter().enumerate() {
        let record: TrialRecord = {
            let _span = obs::span!("record.decode");
            serde_json::from_str(payload)
        }
        .map_err(|e| invalid(format!("seq {seq}: bad trial payload: {e}")))?;
        records.push(record);
    }
    // Unlike the fixed-count journal, `seq` is execution order, not the
    // trial index: the k-th record must instead carry the k-th index the
    // journaled decisions allocated.
    let mut flat = plans.iter().flat_map(|p| p.trials.iter().copied());
    for (seq, record) in records.iter().enumerate() {
        match flat.next() {
            Some(expected) if record.trial == expected => {}
            Some(expected) => {
                return Err(invalid(format!(
                    "seq {seq}: payload carries trial {}, journaled decisions allocated {expected}",
                    record.trial
                )))
            }
            None => return Err(invalid(format!("seq {seq}: trial record with no covering allocation decision"))),
        }
    }
    Ok((plans, records))
}

/// Replays the journaled decisions through `planner`, cross-checking each
/// one, and feeds it the journaled records in execution order. Returns the
/// in-flight decision and how many of its trials are already journaled, if
/// the journal stops mid-batch.
fn replay_decisions(
    planner: &mut dyn AllocationPlanner,
    plans: &[JournaledPlan],
    records: &[TrialRecord],
) -> std::io::Result<Option<(PlanDecision, usize)>> {
    let mut pending = None;
    let mut cursor = 0usize;
    for (i, journaled) in plans.iter().enumerate() {
        let decision = planner.next_batch().ok_or_else(|| {
            invalid(format!("journal holds decision #{} but the planner is already converged", journaled.batch))
        })?;
        // Bitwise CI comparison: the planner contract is exact replay, and
        // JSON round-trips f64 losslessly (shortest round-trip formatting).
        if decision.batch != journaled.batch
            || decision.stratum != journaled.stratum
            || decision.widest_ci.to_bits() != journaled.widest_ci.to_bits()
            || decision.trials != journaled.trials
        {
            return Err(invalid(format!(
                "journaled decision #{} (stratum {}, {} trials) does not match the replayed planner \
                 (stratum {}, {} trials) — journal was produced by a different planner or spec",
                journaled.batch,
                journaled.stratum,
                journaled.trials.len(),
                decision.stratum,
                decision.trials.len()
            )));
        }
        let have = (records.len() - cursor).min(decision.trials.len());
        for record in &records[cursor..cursor + have] {
            planner.observe(record);
        }
        cursor += have;
        if have < decision.trials.len() {
            if i + 1 != plans.len() {
                return Err(invalid(format!("decision #{} is incomplete but later decisions follow it", journaled.batch)));
            }
            pending = Some((decision, have));
        }
    }
    Ok(pending)
}

/// An adaptive campaign between invocations: its journal writer, the
/// records in execution order, a batch an interrupted run left in flight,
/// and its victim side, with the warm target pool. [`open_adaptive`] is the
/// open step and [`AdaptiveCampaign::advance`] the advance step;
/// [`run_campaign_adaptive`] is one of each. The planner lives with the
/// caller, which hands the same one to both steps.
pub struct AdaptiveCampaign<T, F: Fn() -> T> {
    /// `None` once the journal is closed: at completion, or after a failed
    /// advance.
    writer: Option<JournalWriter>,
    records: Vec<TrialRecord>,
    pending: Option<(PlanDecision, usize)>,
    sealed: bool,
    victims: Victims<T, F>,
}

/// Opens an adaptive campaign of `kind`, journaled under `store_cfg`:
/// creates its version-2 journal, or with `store_cfg.resume` continues an
/// existing one — parsing its records and replaying every journaled
/// decision through `planner`, which must be freshly constructed.
pub fn open_adaptive<T, F>(
    kind: &Injection<'_>,
    factory: F,
    store_cfg: &StoreConfig,
    planner: &mut dyn AllocationPlanner,
) -> std::io::Result<AdaptiveCampaign<T, F>>
where
    T: FaultTarget,
    F: Fn() -> T + Sync,
{
    let victims = Victims::new(factory, true, worker_threads(kind.workers()));
    // Adaptive campaigns are always single-shard; the shard machinery still
    // validates the gapless execution sequence and checkpoint consistency.
    let meta = CampaignMeta { version: store::journal::ADAPTIVE_FORMAT_VERSION, ..kind.meta(1) };
    let (mut writer, progress, entries) = store::open_campaign(&store_cfg.dir, &meta, store_cfg.resume)?;
    writer.batch = store_cfg.batch;
    let sealed = progress.all_done();
    let (plans, records) = journaled_decisions(&entries, &progress)?;
    let pending = replay_decisions(planner, &plans, &records)?;
    if sealed && pending.is_some() {
        return Err(invalid("sealed adaptive journal ends mid-batch".into()));
    }
    Ok(AdaptiveCampaign { writer: Some(writer), records, pending, sealed, victims })
}

impl<T: FaultTarget, F: Fn() -> T + Sync> AdaptiveCampaign<T, F> {
    /// True while the journal on disk is exactly what this campaign wrote;
    /// a caller holding it between invocations reopens from disk otherwise.
    pub fn is_current(&self) -> bool {
        self.writer.as_ref().is_some_and(JournalWriter::is_current)
    }

    /// Planner-driven counterpart of the engine's advance step.
    ///
    /// Each loop turn asks `planner` for a batch, journals the decision as a
    /// [`JournalEntry::Plan`], executes the batch on the worker pool,
    /// journals the records *in decision order* (worker scheduling never
    /// leaks into the journal), feeds them back through
    /// [`AllocationPlanner::observe`], and checkpoints. The campaign
    /// completes when the planner returns `None` — usually well short of the
    /// `cfg.trials` horizon.
    ///
    /// `budget` pauses at batch granularity: a batch that starts before the
    /// budget runs out finishes (bounded overshoot of one batch), so pauses
    /// always land on a checkpointed, fsynced batch boundary. The next
    /// advance — on this campaign, or on one reopened from disk with a
    /// freshly replayed planner — continues as if never interrupted: the
    /// completed journal and the result are byte-identical for any
    /// interruption pattern. After an error, or once complete, the campaign
    /// is closed: reopen it from disk.
    pub fn advance(
        &mut self,
        kind: &Injection<'_>,
        golden: &Output,
        planner: &mut dyn AllocationPlanner,
        budget: Option<usize>,
    ) -> std::io::Result<StoredRun<Campaign>> {
        let _quiet = crate::panic_guard::silence_panics();
        let mut writer = self.writer.take().ok_or_else(|| std::io::Error::other("journal is closed"))?;
        let meta = kind.meta(1);
        let progress = ShardProgress {
            shards: vec![ShardState { completed: self.records.len() as u64, done: self.sealed, payloads: Vec::new() }],
        };
        crate::monitor::begin_campaign(&meta.benchmark, &meta.kind, &ShardPlan::new(meta.trials, 1), &progress);
        crate::monitor::planner_update(planner.gauges());

        let (pool, total_steps) = (&self.victims.pool, self.victims.total_steps);
        let complete = self.sealed || {
            let mut spent = 0usize;
            loop {
                let (decision, done_in_batch) = match self.pending.take() {
                    // An in-flight journaled batch is finished unconditionally
                    // (its Plan entry is already durable).
                    Some(p) => p,
                    None => {
                        if budget.is_some_and(|b| spent >= b) {
                            break false;
                        }
                        match planner.next_batch() {
                            None => break true,
                            Some(decision) => {
                                let entry = JournalEntry::Plan {
                                    batch: decision.batch,
                                    stratum: decision.stratum.clone(),
                                    widest_ci: decision.widest_ci,
                                    trials: decision.trials.clone(),
                                };
                                store::retry_transient(|| writer.append(&entry))?;
                                obs::incr("planner/batches", 1);
                                if obs::enabled() {
                                    obs::event(
                                        "plan",
                                        &format!(
                                            "{{\"batch\":{},\"stratum\":{:?},\"widest_ci\":{},\"strata_open\":{},\"trials\":{}}}",
                                            decision.batch,
                                            decision.stratum,
                                            decision.widest_ci,
                                            decision.strata_open,
                                            decision.trials.len()
                                        ),
                                    );
                                }
                                (decision, 0)
                            }
                        }
                    }
                };

                // Execute the batch's remaining trials in parallel. Results
                // land in per-trial slots so the journal below sees decision
                // order, whatever the worker interleaving was. Same
                // harness-panic containment as the sharded driver: a poisoned
                // trial must not take down the batch before its predecessors
                // are journaled.
                let todo = &decision.trials[done_in_batch..];
                let (slots, batch_busy) = run_slots(todo.len(), self.victims.workers, |i| {
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        kind.run(pool, golden, total_steps, todo[i], 0, true)
                    }))
                    .map_err(|payload| {
                        obs::incr("shard/panicked", 1);
                        panic_message(payload.as_ref())
                    })
                });
                self.victims.busy_ns += batch_busy;

                // Journal in decision order, stopping at the first panicked
                // trial: the durable prefix stays a valid campaign prefix and
                // a resume re-runs the batch tail.
                for (k, slot) in slots.into_iter().enumerate() {
                    let (record, fast) = match slot {
                        Ok(out) => out,
                        Err(msg) => {
                            store::retry_transient(|| writer.sync())?;
                            return Err(std::io::Error::other(format!(
                                "harness panic: trial {}: {msg} (journal is resumable)",
                                todo[k]
                            )));
                        }
                    };
                    self.victims.fast_compares += fast as u64;
                    let payload = {
                        let _span = obs::span!("record.encode");
                        serde_json::to_string(&record)
                    }
                    .map_err(|e| std::io::Error::other(format!("trial {}: serialize failed: {e}", record.trial)))?;
                    obs::incr("store/trials", 1);
                    let seq = self.records.len() as u64;
                    let entry = JournalEntry::Trial { shard: 0, seq, payload };
                    store::retry_transient(|| writer.append(&entry))?;
                    crate::monitor::tick(0);
                    planner.observe(&record);
                    self.records.push(record);
                    spent += 1;
                }

                let executed = self.records.len() as u64;
                let cursor = ShardCursor { shard: 0, completed: executed, next_stream: executed };
                store::retry_transient(|| {
                    writer.append(&JournalEntry::Checkpoint(cursor))?;
                    writer.sync()
                })?;
                crate::monitor::planner_update(planner.gauges());
            }
        };

        if !complete {
            writer.sync()?;
            self.writer = Some(writer);
            return Ok(StoredRun::Paused { completed: self.records.len() as u64, total: meta.trials });
        }
        if !self.sealed {
            store::retry_transient(|| {
                writer.append(&JournalEntry::ShardDone { shard: 0 })?;
                writer.sync()
            })?;
            obs::incr("shard/completed", 1);
            crate::monitor::shard_sealed(0);
        }
        writer.close()?;
        crate::monitor::complete_campaign();
        let gauges = planner.gauges();
        let mut campaign = self.victims.finish(kind, std::mem::take(&mut self.records));
        campaign.report.strata_total = gauges.strata_total as usize;
        campaign.report.strata_open = gauges.strata_open as usize;
        campaign.report.widest_ci = gauges.widest_ci;
        Ok(StoredRun::Complete(campaign))
    }
}

/// Planner-driven counterpart of the engine's [`crate::run_stored`]:
/// [`open_adaptive`] plus one [`AdaptiveCampaign::advance`] of
/// `store_cfg.budget` trials. A resumed run replays the planner against the
/// journal — validating every journaled decision — and then continues as
/// if never interrupted.
pub fn run_campaign_adaptive<T, F>(
    benchmark: &str,
    factory: F,
    golden: &Output,
    cfg: &CampaignConfig,
    store_cfg: &StoreConfig,
    planner: &mut dyn AllocationPlanner,
) -> std::io::Result<StoredRun<Campaign>>
where
    T: FaultTarget,
    F: Fn() -> T + Sync,
{
    let kind = Injection::new(benchmark, cfg);
    open_adaptive(&kind, factory, store_cfg, planner)?.advance(&kind, golden, planner, store_cfg.budget)
}
