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
pub mod queue;
pub mod shard;

pub use journal::{
    decode_record, encode_record, is_transient, open_campaign, retry_transient, transient_backoff, BatchPolicy,
    CampaignMeta, Journal, JournalEntry, JournalScan, JournalWriter, ShardCursor, ADAPTIVE_FORMAT_VERSION,
    MAX_TRANSIENT_RETRIES,
};
pub use queue::{run_tasks, StopFlag};
pub use shard::{ShardPlan, ShardProgress, ShardState};

/// Slicing-by-8 lookup tables of CRC-32 (IEEE 802.3, reflected):
/// `TABLES[0]` is the bytewise table, and `TABLES[k][b]` advances the CRC of
/// byte `b` over `k` further zero bytes. Built at compile time.
const TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3, reflected) over `bytes` — the per-line checksum of
/// the journal format.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Extends `crc`, the CRC-32 of some bytes `a`, over `bytes`:
/// `crc32_update(crc32(a), b) == crc32(a ++ b)`, so a digest can be
/// streamed chunk by chunk (`crc32(b"")` is 0). Eight bytes per step.
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    let mut c = !crc;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
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
