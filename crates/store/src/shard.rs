//! Deterministic campaign sharding.
//!
//! A campaign of `trials` trials splits into `shards` contiguous sub-ranges.
//! The invariant that makes sharding free of determinism hazards: a trial
//! keeps its *global* index no matter which shard runs it, and the global
//! index is also its RNG stream id (`carolfi::rng::fork(seed, index)`), its
//! fault-model selector (`index % models.len()`) and its position in the
//! aggregate record vector. N shards executed in any order, interleaving or
//! process lifetime therefore merge into an aggregate bit-identical to the
//! single-shot run.
//!
//! [`ShardProgress`] rebuilds per-shard cursors from a journal scan and
//! enforces the gapless-sequence invariant: shard-local sequence numbers
//! must run 0, 1, 2, … with no gap or duplicate, so no trial is ever lost
//! or double-counted across interruptions.

use crate::journal::{JournalEntry, ShardCursor};

/// Splits `0..trials` into `shards` contiguous ranges whose lengths differ
/// by at most one (the first `trials % shards` ranges get the extra trial).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    pub trials: usize,
    pub shards: usize,
}

impl ShardPlan {
    pub fn new(trials: usize, shards: usize) -> Self {
        assert!(shards > 0, "a campaign needs at least one shard");
        ShardPlan { trials, shards }
    }

    /// Global trial range of `shard`.
    pub fn range(&self, shard: usize) -> std::ops::Range<usize> {
        assert!(shard < self.shards, "shard {shard} out of {}", self.shards);
        let base = self.trials / self.shards;
        let extra = self.trials % self.shards;
        let start = shard * base + shard.min(extra);
        let len = base + usize::from(shard < extra);
        start..start + len
    }

    /// Per-shard seed material derived from the campaign seed (SplitMix64).
    /// Trial RNGs are keyed by global index, not by this — it exists for
    /// shard-local decisions (e.g. jittering checkpoint cadence) and as a
    /// compact shard identity in diagnostics.
    pub fn shard_seed(&self, master: u64, shard: usize) -> u64 {
        let mut z = master ^ (shard as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Recovered state of one shard.
#[derive(Debug, Clone, Default)]
pub struct ShardState {
    /// Completed (journaled) trials, shard-local.
    pub completed: u64,
    /// A `ShardDone` entry was journaled.
    pub done: bool,
    /// Opaque trial payloads in shard-local sequence order.
    pub payloads: Vec<String>,
}

/// Per-shard progress rebuilt from journal entries.
#[derive(Debug, Clone)]
pub struct ShardProgress {
    pub shards: Vec<ShardState>,
}

impl ShardProgress {
    /// Replays journal entries into per-shard cursors, validating the
    /// gapless-sequence invariant and checkpoint consistency.
    pub fn replay(shards: usize, entries: &[JournalEntry]) -> std::io::Result<Self> {
        let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
        let mut state: Vec<ShardState> = (0..shards).map(|_| ShardState::default()).collect();
        for entry in entries {
            match entry {
                JournalEntry::Meta(_) => {}
                JournalEntry::Trial { shard, seq, payload } => {
                    let s = state.get_mut(*shard).ok_or_else(|| invalid(format!("trial for shard {shard}, journal has {shards} shards")))?;
                    if *seq != s.completed {
                        return Err(invalid(format!(
                            "shard {shard}: trial sequence not gapless (expected seq {}, found {seq})",
                            s.completed
                        )));
                    }
                    s.completed += 1;
                    s.payloads.push(payload.clone());
                }
                JournalEntry::Checkpoint(ShardCursor { shard, completed, .. }) => {
                    let s = state.get(*shard).ok_or_else(|| invalid(format!("checkpoint for shard {shard}, journal has {shards} shards")))?;
                    if *completed != s.completed {
                        return Err(invalid(format!(
                            "shard {shard}: checkpoint claims {completed} completed trials, journal replays {}",
                            s.completed
                        )));
                    }
                }
                JournalEntry::ShardDone { shard } => {
                    let s = state.get_mut(*shard).ok_or_else(|| invalid(format!("shard-done for shard {shard}, journal has {shards} shards")))?;
                    s.done = true;
                }
                // Allocation decisions carry planner state, not shard
                // progress; the engine's planner source validates them
                // separately against a replayed planner.
                JournalEntry::Plan { .. } => {}
            }
        }
        Ok(ShardProgress { shards: state })
    }

    /// Total completed trials across shards.
    pub fn completed(&self) -> u64 {
        self.shards.iter().map(|s| s.completed).sum()
    }

    /// True when every shard journaled its `ShardDone`.
    pub fn all_done(&self) -> bool {
        self.shards.iter().all(|s| s.done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_partition_the_trial_space_for_any_shard_count() {
        for trials in [0usize, 1, 7, 100, 101, 4096] {
            for shards in [1usize, 2, 3, 7, 16, 97] {
                let plan = ShardPlan::new(trials, shards);
                let mut covered = Vec::new();
                let mut prev_end = 0;
                for s in 0..shards {
                    let r = plan.range(s);
                    assert_eq!(r.start, prev_end, "trials={trials} shards={shards} shard={s}");
                    prev_end = r.end;
                    covered.extend(r);
                }
                assert_eq!(covered, (0..trials).collect::<Vec<_>>(), "trials={trials} shards={shards}");
                // Balanced to within one trial.
                let lens: Vec<usize> = (0..shards).map(|s| plan.range(s).len()).collect();
                let (lo, hi) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                assert!(hi - lo <= 1);
            }
        }
    }

    #[test]
    fn shard_seeds_differ_between_shards() {
        let plan = ShardPlan::new(100, 8);
        let seeds: std::collections::HashSet<u64> = (0..8).map(|s| plan.shard_seed(2017, s)).collect();
        assert_eq!(seeds.len(), 8);
    }

    fn trial(shard: usize, seq: u64) -> JournalEntry {
        JournalEntry::Trial { shard, seq, payload: format!("p{shard}/{seq}") }
    }

    #[test]
    fn replay_rebuilds_cursors_and_payload_order() {
        // Shards interleaved in arbitrary order, as concurrent workers write.
        let entries = vec![
            trial(1, 0),
            trial(0, 0),
            trial(1, 1),
            JournalEntry::Checkpoint(ShardCursor { shard: 1, completed: 2, next_stream: 99 }),
            trial(0, 1),
            trial(1, 2),
            JournalEntry::ShardDone { shard: 1 },
        ];
        let p = ShardProgress::replay(2, &entries).unwrap();
        assert_eq!(p.shards[0].completed, 2);
        assert_eq!(p.shards[1].completed, 3);
        assert!(p.shards[1].done && !p.shards[0].done);
        assert!(!p.all_done());
        assert_eq!(p.completed(), 5);
        assert_eq!(p.shards[1].payloads, vec!["p1/0", "p1/1", "p1/2"]);
    }

    #[test]
    fn replay_rejects_gaps_and_duplicates() {
        let gap = vec![trial(0, 0), trial(0, 2)];
        let err = ShardProgress::replay(1, &gap).unwrap_err();
        assert!(err.to_string().contains("gapless"), "{err}");

        let dup = vec![trial(0, 0), trial(0, 0)];
        assert!(ShardProgress::replay(1, &dup).is_err());
    }

    #[test]
    fn replay_rejects_inconsistent_checkpoints_and_foreign_shards() {
        let bad_ckpt = vec![trial(0, 0), JournalEntry::Checkpoint(ShardCursor { shard: 0, completed: 5, next_stream: 5 })];
        assert!(ShardProgress::replay(1, &bad_ckpt).is_err());
        assert!(ShardProgress::replay(1, &[trial(3, 0)]).is_err());
    }
}
