//! The allocation planner interface and the format-2 journal it writes.
//!
//! A planner-driven campaign is the engine's *planner source*
//! ([`crate::orchestrator::open_planned`]): instead of executing a fixed
//! trial range, an [`AllocationPlanner`] picks which trials to run next —
//! one *batch* at a time, each batch drawn from the stratum whose outcome
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
//! `(spec, seed)` — interrupting and resuming a planner campaign (any
//! number of times, any worker count) reproduces the *byte-identical*
//! journal and result, because resume re-derives every decision from the
//! replayed planner and cross-checks it against the journaled
//! [`JournalEntry::Plan`] records ([`replay_decisions`]) before continuing.

use crate::monitor::PlannerStatus;
use crate::record::TrialRecord;
use store::{JournalEntry, ShardProgress};

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

/// Strategy interface of the planner source. Implementations live above
/// this crate (the Wilson-interval planner is in `sdc-analysis`); the
/// engine only requires the *purity contract*: after any sequence of
/// `next_batch`/`observe` calls, the next decision must be a pure function
/// of the construction parameters and the records observed so far. That
/// contract is what makes a version-2 journal replayable. `Send`, because
/// an open campaign holds its planner between the daemon's slices.
pub trait AllocationPlanner: Send {
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
/// k-th record carries the k-th index the decisions allocated. The raw
/// payloads are dropped once parsed.
pub fn journaled_decisions(
    entries: &[JournalEntry],
    progress: &mut ShardProgress,
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
    let payloads = std::mem::take(&mut progress.shards[0].payloads);
    let mut records = Vec::with_capacity(payloads.len());
    for (seq, payload) in payloads.iter().enumerate() {
        records.push(TrialRecord::decode(payload).map_err(|e| invalid(format!("seq {seq}: bad trial payload: {e}")))?);
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
/// one, and feeds it the journaled records in execution order. Only the
/// last decision may be incomplete (the batch an interruption left in
/// flight), and only in an unsealed journal. Returns the trials the
/// decisions allocated, in journal order.
pub(crate) fn replay_decisions(
    planner: &mut dyn AllocationPlanner,
    plans: &[JournaledPlan],
    records: &[TrialRecord],
    sealed: bool,
) -> std::io::Result<Vec<usize>> {
    let mut allocated = Vec::new();
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
        let cursor = allocated.len();
        allocated.extend(&decision.trials);
        let have = records.len().min(allocated.len());
        for record in &records[cursor..have] {
            planner.observe(record);
        }
        if have < allocated.len() && i + 1 != plans.len() {
            return Err(invalid(format!("decision #{} is incomplete but later decisions follow it", journaled.batch)));
        }
    }
    if sealed && records.len() < allocated.len() {
        return Err(invalid("sealed adaptive journal ends mid-batch".into()));
    }
    Ok(allocated)
}
