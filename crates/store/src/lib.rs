//! Durable campaign store (`phi-store`, imported as `store`).
//!
//! The paper's evidence rests on long campaigns — 90 000+ CAROL-FI
//! injections, beam runs accumulating ≥100 SDC+DUE events per benchmark —
//! and a monolithic in-process loop loses everything on a crash, OOM or
//! ctrl-c. This crate provides the three primitives that turn a one-shot
//! batch loop into a resumable, shardable pipeline:
//!
//! * [`journal`] — an append-only, crash-safe campaign journal: checksummed
//!   JSONL segment files holding per-trial records plus periodic shard-cursor
//!   checkpoints. Opening scans the segments, keeps every complete record and
//!   drops the torn tail (Memento-style detectable recoverability: the
//!   journal's durable prefix is always a valid campaign prefix).
//! * [`shard`] — deterministic campaign sharding: a campaign's trial range
//!   splits into per-shard sub-ranges such that N shards executed in any
//!   order, interleaving or process lifetime merge into an aggregate
//!   bit-identical to the single-shot run (trials keep their global index,
//!   which is also their RNG stream id).
//! * [`queue`] — a work-queue scheduler (crossbeam channel over scoped worker
//!   threads) with cooperative stop, used by the `carolfi` campaign engine
//!   to drain shard tasks.
//!
//! Layering: `phi-store` sits below the campaign crates. Trial payloads are
//! opaque pre-serialized JSON strings — nothing in here knows what a trial
//! is, which is also what lets `parse_logs` treat injection and beam
//! journals uniformly.

pub mod journal;
pub mod ledger;
pub mod merge;
pub mod queue;
pub mod shard;

pub use journal::{
    decode_record, encode_record, is_transient, open_campaign, retry_transient, transient_backoff, BatchPolicy,
    CampaignMeta, Journal, JournalEntry, JournalScan, JournalWriter, ShardCursor, ADAPTIVE_FORMAT_VERSION,
    MAX_TRANSIENT_RETRIES,
};
pub use ledger::{LeaseState, LedgerEntry, LedgerScan, LedgerWriter, LEDGER_FILE};
pub use merge::{Importer, Offer};
pub use queue::{run_tasks, StopFlag};
pub use shard::{ShardPlan, ShardProgress, ShardState};

/// CRC-32 (IEEE 802.3, reflected) over `bytes` — the per-line checksum of
/// the journal format. Table-driven; the table is built at compile time.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut c = !0u32;
    for &b in bytes {
        c = TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::crc32;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value of CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let base = b"journal line payload".to_vec();
        let reference = crc32(&base);
        for i in 0..base.len() * 8 {
            let mut flipped = base.clone();
            flipped[i / 8] ^= 1 << (i % 8);
            assert_ne!(crc32(&flipped), reference, "flip at bit {i} undetected");
        }
    }
}
