//! Dedupe-by-global-trial-index merge of executor trial streams.
//!
//! Distributed campaigns re-dispatch slow or dead executors' ranges, so the
//! same `(shard, seq)` trial can arrive more than once — from a straggler
//! that woke back up, or from a re-imported segment after a coordinator
//! restart. Because a trial's global index fully determines its RNG stream,
//! fault model and injection time, every copy is byte-identical, and
//! merging reduces to a first-writer-wins rule per shard-local sequence
//! number:
//!
//! * `seq == next` — fresh: journaled, the cursor advances
//!   (`dist/merged_trials`);
//! * `seq < next`  — duplicate: dropped (`dist/dup_trials`);
//! * `seq > next`  — a gap: a protocol violation (executors stream their
//!   range in order from the cursor the coordinator handed them), reported
//!   as an error so the offending connection dies instead of corrupting the
//!   gapless journal.
//!
//! The result is that the central journal stays a perfectly ordinary
//! gapless v1 campaign journal: the existing replay, render and determinism
//! guard paths apply unchanged, which is what pins a distributed aggregate
//! byte-identical to the single-host run.

use crate::journal::{JournalEntry, JournalWriter};
use crate::shard::{ShardPlan, ShardProgress};

/// Verdict of offering one trial to the merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer {
    /// First arrival: appended to the journal, cursor advanced.
    Accepted,
    /// Already merged: dropped.
    Duplicate,
}

/// First-writer-wins import cursor over a campaign journal. One per
/// coordinator; rebuilt from [`ShardProgress`] on resume.
#[derive(Debug)]
pub struct Importer {
    /// Next expected shard-local sequence number, per shard.
    next: Vec<u64>,
    /// Shard range lengths (an offered `seq` past its range is corruption).
    caps: Vec<u64>,
    pub accepted: u64,
    pub duplicates: u64,
}

fn invalid(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

impl Importer {
    /// Cursor positioned after everything the journal already holds.
    pub fn new(plan: &ShardPlan, progress: &ShardProgress) -> Self {
        let next: Vec<u64> = progress.shards.iter().map(|s| s.completed).collect();
        let caps: Vec<u64> = (0..plan.shards).map(|s| plan.range(s).len() as u64).collect();
        Importer { next, caps, accepted: 0, duplicates: 0 }
    }

    /// Next sequence number the merge will accept for `shard` — the resume
    /// cursor handed to a (re-)leased executor so it can skip re-streaming
    /// what the coordinator already has.
    pub fn next_seq(&self, shard: usize) -> u64 {
        self.next[shard]
    }

    /// True once `shard`'s whole range is merged.
    pub fn range_complete(&self, shard: usize) -> bool {
        self.next[shard] >= self.caps[shard]
    }

    /// Offers one trial; fresh trials are appended to `writer`.
    pub fn offer(&mut self, writer: &mut JournalWriter, shard: usize, seq: u64, payload: &str) -> std::io::Result<Offer> {
        if shard >= self.next.len() {
            return Err(invalid(format!("merge: shard {shard} out of range (campaign has {})", self.next.len())));
        }
        if seq >= self.caps[shard] {
            return Err(invalid(format!("merge: shard {shard} seq {seq} past its range of {}", self.caps[shard])));
        }
        if seq < self.next[shard] {
            self.duplicates += 1;
            obs::incr("dist/dup_trials", 1);
            return Ok(Offer::Duplicate);
        }
        if seq > self.next[shard] {
            return Err(invalid(format!(
                "merge: shard {shard} seq {seq} arrived before seq {} (executor streams must be gapless)",
                self.next[shard]
            )));
        }
        writer.append(&JournalEntry::Trial { shard, seq, payload: payload.to_string() })?;
        self.next[shard] += 1;
        self.accepted += 1;
        obs::incr("dist/merged_trials", 1);
        Ok(Offer::Accepted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{CampaignMeta, Journal, FORMAT_VERSION};
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/test-merge").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn meta(trials: usize, shards: usize) -> CampaignMeta {
        CampaignMeta {
            kind: "inject".into(),
            benchmark: "victim".into(),
            seed: 7,
            trials,
            shards,
            n_windows: 4,
            version: FORMAT_VERSION,
        }
    }

    #[test]
    fn accepts_in_order_drops_duplicates_rejects_gaps() {
        let dir = tmp("verdicts");
        let plan = ShardPlan::new(10, 2);
        let progress = ShardProgress::replay(2, &[]).unwrap();
        let mut w = JournalWriter::create(&dir, meta(10, 2)).unwrap();
        let mut imp = Importer::new(&plan, &progress);

        assert_eq!(imp.offer(&mut w, 0, 0, "{\"t\":0}").unwrap(), Offer::Accepted);
        assert_eq!(imp.offer(&mut w, 0, 1, "{\"t\":1}").unwrap(), Offer::Accepted);
        assert_eq!(imp.offer(&mut w, 0, 0, "{\"t\":0}").unwrap(), Offer::Duplicate);
        assert_eq!(imp.next_seq(0), 2);
        let err = imp.offer(&mut w, 0, 3, "{\"t\":3}").unwrap_err();
        assert!(err.to_string().contains("gapless"), "{err}");
        let err = imp.offer(&mut w, 0, 5, "{\"t\":5}").unwrap_err();
        assert!(err.to_string().contains("past its range"), "{err}");
        let err = imp.offer(&mut w, 9, 0, "{}").unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        assert_eq!(imp.accepted, 2);
        assert_eq!(imp.duplicates, 1);
        drop(w);

        let scan = Journal::scan(&dir).unwrap();
        let progress = ShardProgress::replay(2, &scan.entries).unwrap();
        assert_eq!(progress.shards[0].payloads, vec!["{\"t\":0}".to_string(), "{\"t\":1}".to_string()]);
    }

    #[test]
    fn resume_positions_the_cursor_after_journaled_trials() {
        let dir = tmp("resume");
        let plan = ShardPlan::new(6, 2);
        let progress = ShardProgress::replay(2, &[]).unwrap();
        let mut w = JournalWriter::create(&dir, meta(6, 2)).unwrap();
        let mut imp = Importer::new(&plan, &progress);
        for seq in 0..2u64 {
            imp.offer(&mut w, 1, seq, &format!("{{\"t\":{seq}}}")).unwrap();
        }
        w.close().unwrap();

        let (mut w, scan) = JournalWriter::resume(&dir).unwrap();
        let progress = ShardProgress::replay(2, &scan.entries).unwrap();
        let mut imp = Importer::new(&plan, &progress);
        assert_eq!(imp.next_seq(1), 2);
        assert!(!imp.range_complete(1));
        assert_eq!(imp.offer(&mut w, 1, 0, "{\"t\":0}").unwrap(), Offer::Duplicate);
        assert_eq!(imp.offer(&mut w, 1, 2, "{\"t\":2}").unwrap(), Offer::Accepted);
        assert!(imp.range_complete(1), "shard 1 of 6/2 has 3 trials");
    }
}
