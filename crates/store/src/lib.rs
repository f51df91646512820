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

/// The reflected CRC-32 polynomial.
const POLY: u32 = 0xEDB8_8320;

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
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
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

/// `a · b` modulo the CRC-32 polynomial, both as reflected polynomials
/// (bit 31 holds x⁰).
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let (mut m, mut p) = (1u32 << 31, 0);
    while m != 0 {
        if a & m != 0 {
            p ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
        m >>= 1;
    }
    p
}

/// `X2N[k]` is x^(2^k) modulo the CRC-32 polynomial. The powers repeat
/// with period 32 (x^(2^32) is x again), so 32 entries serve every `k`.
/// Built at compile time.
const X2N: [u32; 32] = {
    let mut t = [0u32; 32];
    let mut p = 1u32 << 30; // x¹
    t[0] = p;
    let mut k = 1;
    while k < 32 {
        p = multmodp(p, p);
        t[k] = p;
        k += 1;
    }
    t
};

/// The CRC-32 of `a ++ b` from `crc1 = crc32(a)`, `crc2 = crc32(b)` and
/// `len2 = b.len()` (zlib's `crc32_combine`): `crc1` times x^(8·len2)
/// modulo the polynomial, xor `crc2`. The power is the product of one
/// `X2N` entry per set bit of `8·len2`, so a join takes O(log `len2`)
/// multiplications.
pub fn crc32_combine(crc1: u32, crc2: u32, len2: u64) -> u32 {
    let (mut n, mut k, mut shift) = (len2, 3, 1u32 << 31); // 8·len2 bits; x⁰
    while n != 0 {
        if n & 1 != 0 {
            shift = multmodp(X2N[k & 31], shift);
        }
        n >>= 1;
        k += 1;
    }
    multmodp(shift, crc1) ^ crc2
}

#[cfg(test)]
mod tests {
    use super::{crc32, crc32_combine};

    #[test]
    fn crc32_combine_joins_long_halves() {
        // Second halves of up to 2^17 + 4099 bytes multiply X2N[3..=20].
        let data: Vec<u8> = (0..(1usize << 17) + 4099).map(|i| (i * 31 % 251) as u8).collect();
        for cut in [0, 1, 8, 4099, 1 << 16, data.len() - 1, data.len()] {
            let (a, b) = data.split_at(cut);
            assert_eq!(crc32_combine(crc32(a), crc32(b), b.len() as u64), crc32(&data), "cut {cut}");
        }
    }

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
