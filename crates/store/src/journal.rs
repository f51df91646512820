//! Append-only, crash-safe campaign journal.
//!
//! A journal is a directory of segment files (`seg-00000.jsonl`, …). Each
//! line is one [`JournalEntry`] encoded as
//!
//! ```text
//! <crc32-hex8> <entry-json>\n
//! ```
//!
//! where the checksum covers the JSON bytes. Appends go to the newest
//! segment only. Under the default group-commit policy ([`BatchPolicy`])
//! encoded lines accumulate in a writer-side buffer and reach the OS as one
//! `write()` when the batch fills, ages out, or a checkpoint/sync forces it
//! down; with batching disabled every line is written through individually.
//! Either way the *byte stream* is identical — batching changes only the
//! write boundaries — and loss on a crash is a strict suffix of whole
//! records plus at most one torn line. [`Journal::scan`] validates every
//! line; the recovery rule is *keep every complete record, drop the torn
//! tail*: scanning stops at the first invalid line of the newest segment,
//! and [`JournalWriter::resume`] physically truncates the file back to the
//! end of its valid prefix before appending. An invalid line in any older
//! segment is not a torn tail — writers never touch closed segments — so it
//! is reported as corruption instead of being silently dropped.
//!
//! Because the buffer is FIFO and checkpoints force it down before fsync, a
//! surviving `Checkpoint` entry still implies every `Trial` it covers
//! survived — the invariant resume relies on. Writers should be retired
//! through [`JournalWriter::close`]; dropping one still flushes, but an
//! error there can only be reported loudly (stderr +
//! `store/drop_flush_errors`), not returned.
//!
//! Durability telemetry flows through `phi-obs`: `store.append`/`store.scan`
//! spans, `store/appends`, `store/batch_flushes`, `store/checkpoints`,
//! `store/segments`, `store/torn-bytes` and `store/drop_flush_errors`
//! counters.

use crate::crc32;
use crate::shard::ShardProgress;
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, Write};
use std::path::{Path, PathBuf};

/// Journal format version, embedded in [`CampaignMeta`].
pub const FORMAT_VERSION: u32 = 1;

/// Journal format version of adaptive (planner-driven) campaigns. Version-2
/// journals interleave [`JournalEntry::Plan`] allocation decisions with the
/// trial stream, run as a single shard, and order trial entries by
/// *execution* sequence — the payload's own trial index, not `seq`, names
/// the RNG stream. Version-1 readers reject them via the meta check.
pub const ADAPTIVE_FORMAT_VERSION: u32 = 2;

/// Transient-I/O retry budget: how many times one journal operation is
/// re-attempted before its error is surfaced to the orchestrator (which
/// then fails the shard).
pub const MAX_TRANSIENT_RETRIES: u32 = 5;

/// True for I/O errors worth retrying in place: the kernel asked us to try
/// again, nothing is known to be wrong with the journal itself. Network
/// timeouts and peer resets/aborts count too — distributed campaigns route
/// frame I/O through the same [`retry_transient`] budget, and a dropped TCP
/// connection is exactly as recoverable as an `EINTR` on a local append.
pub fn is_transient(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
    )
}

/// Capped exponential backoff with deterministic jitter for transient
/// journal errors. No wall clock and no OS entropy go into the schedule —
/// a campaign's retry timing is a pure function of the attempt number, so
/// reproducing a failure reproduces its recovery too. The jitter term
/// de-synchronizes shards that trip over the same transient condition.
pub fn transient_backoff(attempt: u32) -> std::time::Duration {
    let base_ms = 1u64 << attempt.min(5); // 1,2,4,8,16,32 ms — capped
    let jitter_ms = (attempt as u64).wrapping_mul(0x9E37_79B9) >> 29; // 0..8 ms, deterministic
    std::time::Duration::from_millis((base_ms + jitter_ms).min(50))
}

/// Runs `op`, retrying transient failures ([`is_transient`]) up to
/// [`MAX_TRANSIENT_RETRIES`] times with [`transient_backoff`] sleeps in
/// between. Every retry increments the `store/retries` counter. The first
/// non-transient error — or a transient one that outlives the budget — is
/// returned as-is.
pub fn retry_transient<T>(mut op: impl FnMut() -> std::io::Result<T>) -> std::io::Result<T> {
    let mut attempt = 0u32;
    loop {
        match op() {
            Err(e) if is_transient(&e) && attempt < MAX_TRANSIENT_RETRIES => {
                obs::incr("store/retries", 1);
                std::thread::sleep(transient_backoff(attempt));
                attempt += 1;
            }
            other => return other,
        }
    }
}

/// Rotation threshold: appends that push a segment past this many bytes
/// close it and open the next one.
pub const SEGMENT_BYTES: u64 = 8 << 20;

/// Identity of the campaign a journal belongs to. Written once as the first
/// entry; `resume` refuses to continue a journal whose meta does not match
/// the requested campaign (different seed, trial budget or shard count would
/// silently break determinism).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignMeta {
    /// Campaign family: `"inject"` or `"beam"`.
    pub kind: String,
    pub benchmark: String,
    pub seed: u64,
    /// Total trials (or strikes) of the whole campaign.
    pub trials: usize,
    pub shards: usize,
    pub n_windows: usize,
    pub version: u32,
}

/// Durable cursor of one shard: how far its gapless trial sequence has
/// progressed and which RNG stream the next trial draws from. Written
/// periodically so `resume` can size remaining work without replaying every
/// trial entry, and validated against the replayed trial count on open.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardCursor {
    pub shard: usize,
    /// Trials of this shard completed and journaled.
    pub completed: u64,
    /// RNG stream id (= global trial index) the next trial will fork.
    pub next_stream: u64,
}

/// One durable journal record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalEntry {
    /// Campaign identity; always the first entry.
    Meta(CampaignMeta),
    /// One completed trial. `seq` is the shard-local sequence number
    /// (gapless from 0); `payload` is the pre-serialized trial record,
    /// opaque to the store.
    Trial { shard: usize, seq: u64, payload: String },
    /// Periodic per-shard progress checkpoint.
    Checkpoint(ShardCursor),
    /// The shard finished its whole range.
    ShardDone { shard: usize },
    /// One adaptive-planner allocation decision (version-2 journals only).
    /// Written *before* the batch it describes, so replay can re-derive the
    /// decision from planner state and cross-check it. `trials` are the
    /// global trial indices of the batch, in execution order.
    Plan { batch: u64, stratum: String, widest_ci: f64, trials: Vec<usize> },
}

/// Result of scanning a journal directory.
#[derive(Debug)]
pub struct JournalScan {
    pub meta: Option<CampaignMeta>,
    pub entries: Vec<JournalEntry>,
    /// Segment files seen, in order.
    pub segments: Vec<PathBuf>,
    /// Bytes of torn tail dropped from the newest segment (0 = clean).
    pub torn_bytes: u64,
}

/// Read access to a journal directory.
pub struct Journal;

fn segment_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("seg-{index:05}.jsonl"))
}

/// Lists `seg-*.jsonl` files in `dir`, ordered by index. Indices must be
/// contiguous from 0 (a gap means a segment was deleted out from under us).
fn list_segments(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut indices = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        if let Some(idx) = name.strip_prefix("seg-").and_then(|s| s.strip_suffix(".jsonl")) {
            if let Ok(i) = idx.parse::<usize>() {
                indices.push(i);
            }
        }
    }
    indices.sort_unstable();
    for (expect, &got) in indices.iter().enumerate() {
        if expect != got {
            return Err(corrupt(format!("missing journal segment seg-{expect:05}.jsonl in {}", dir.display())));
        }
    }
    Ok(indices.into_iter().map(|i| segment_path(dir, i)).collect())
}

fn corrupt(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// Encodes one serializable record as a checksummed journal-style line
/// (`<crc32-hex8> <json>\n`). The codec shared by the campaign journal and
/// the distributed coordinator's write-ahead ledger.
pub fn encode_record<T: Serialize>(record: &T) -> std::io::Result<Vec<u8>> {
    let json = serde_json::to_string(record).map_err(std::io::Error::other)?;
    let mut line = Vec::with_capacity(json.len() + 10);
    line.extend_from_slice(format!("{:08x} ", crc32(json.as_bytes())).as_bytes());
    line.extend_from_slice(json.as_bytes());
    line.push(b'\n');
    Ok(line)
}

/// Decodes one checksummed line (without its trailing `\n`). `None` =
/// torn/invalid — the caller treats it as the start of a torn tail.
pub fn decode_record<T: for<'de> Deserialize<'de>>(line: &[u8]) -> Option<T> {
    if line.len() < 10 || line[8] != b' ' {
        return None;
    }
    let crc = u32::from_str_radix(std::str::from_utf8(&line[..8]).ok()?, 16).ok()?;
    let json = &line[9..];
    if crc32(json) != crc {
        return None;
    }
    serde_json::from_str(std::str::from_utf8(json).ok()?).ok()
}

/// Encodes one entry as a checksummed line.
fn encode_line(entry: &JournalEntry) -> std::io::Result<Vec<u8>> {
    encode_record(entry)
}

/// Decodes one line (without its trailing `\n`). `None` = torn/invalid.
fn decode_line(line: &[u8]) -> Option<JournalEntry> {
    decode_record(line)
}

/// Validated prefix of one segment's bytes: entries plus the byte offset the
/// valid prefix ends at.
fn scan_segment(bytes: &[u8]) -> (Vec<JournalEntry>, usize) {
    let mut entries = Vec::new();
    let mut valid_end = 0usize;
    let mut pos = 0usize;
    while pos < bytes.len() {
        // A complete line includes its newline; a trailing fragment without
        // one is torn by definition (appends are whole-line flushes).
        let Some(nl) = bytes[pos..].iter().position(|&b| b == b'\n') else { break };
        match decode_line(&bytes[pos..pos + nl]) {
            Some(entry) => {
                entries.push(entry);
                pos += nl + 1;
                valid_end = pos;
            }
            None => break,
        }
    }
    (entries, valid_end)
}

/// Opens the journal of campaign `meta` in `dir` — the one way every
/// campaign runner (engine, adaptive runner, distributed coordinator and
/// executors) gets at its journal. A missing journal is created; an
/// existing one is continued only with `resume`, and only when it holds the
/// same campaign: merging two campaigns' records would be silent
/// corruption. Returns the writer (under the default [`BatchPolicy`]), the
/// shard progress replayed over `meta.shards`, and the surviving entries.
pub fn open_campaign(
    dir: &Path,
    meta: &CampaignMeta,
    resume: bool,
) -> std::io::Result<(JournalWriter, ShardProgress, Vec<JournalEntry>)> {
    let (writer, entries) = if Journal::exists(dir) {
        if !resume {
            return Err(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                format!("journal already exists at {} (pass --resume to continue it)", dir.display()),
            ));
        }
        let (writer, scan) = JournalWriter::resume(dir)?;
        match &scan.meta {
            Some(m) if m == meta => {}
            Some(m) => {
                return Err(corrupt(format!(
                    "journal at {} belongs to a different campaign (journal: {m:?}, requested: {meta:?})",
                    dir.display()
                )))
            }
            None => return Err(corrupt(format!("journal at {} has no meta entry", dir.display()))),
        }
        (writer, scan.entries)
    } else {
        (JournalWriter::create(dir, meta.clone())?, Vec::new())
    };
    let progress = ShardProgress::replay(meta.shards, &entries)?;
    Ok((writer, progress, entries))
}

impl Journal {
    /// True when `dir` already holds a journal (has a first segment).
    pub fn exists(dir: &Path) -> bool {
        segment_path(dir, 0).exists()
    }

    /// Scans every segment, validating checksums. Keeps all complete
    /// records; drops the torn tail of the newest segment; reports
    /// corruption anywhere else as an error naming the offending segment.
    pub fn scan(dir: &Path) -> std::io::Result<JournalScan> {
        let _span = obs::span!("store.scan");
        let segments = list_segments(dir)?;
        let mut entries = Vec::new();
        let mut torn_bytes = 0u64;
        let last = segments.len().saturating_sub(1);
        for (i, seg) in segments.iter().enumerate() {
            let mut bytes = Vec::new();
            File::open(seg)?.read_to_end(&mut bytes)?;
            let (seg_entries, valid_end) = scan_segment(&bytes);
            if valid_end < bytes.len() {
                if i != last {
                    return Err(corrupt(format!(
                        "corrupt record at byte {valid_end} of closed segment {} (only the newest segment may have a torn tail)",
                        seg.display()
                    )));
                }
                torn_bytes = (bytes.len() - valid_end) as u64;
                obs::incr("store/torn-bytes", torn_bytes);
            }
            entries.extend(seg_entries);
        }
        let meta = match entries.first() {
            Some(JournalEntry::Meta(m)) => Some(m.clone()),
            Some(_) => return Err(corrupt(format!("journal {} does not start with a Meta entry", dir.display()))),
            None => None,
        };
        Ok(JournalScan { meta, entries, segments, torn_bytes })
    }
}

/// Group-commit policy: how long appended lines may sit in the writer's
/// buffer before they are pushed to the OS as one `write()`.
///
/// Batching never reorders or rewrites bytes — the segment files are
/// byte-identical under every policy — it only coalesces write syscalls.
/// Crash loss grows from "the in-flight line" to "the buffered suffix",
/// which recovery already tolerates: the journal's gapless-sequence replay
/// treats any lost suffix exactly like trials that never ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Flush when the buffer reaches this many bytes. `0` disables
    /// batching entirely (every append writes through, the historical
    /// behaviour).
    pub max_bytes: usize,
    /// Flush on append when the oldest buffered line is older than this.
    pub max_delay: std::time::Duration,
}

impl BatchPolicy {
    /// Default batch size: a few dozen trial records per syscall without
    /// letting a stalled campaign hold back more than ~64 KiB.
    pub const DEFAULT_BYTES: usize = 64 << 10;
    /// Default age bound on buffered records.
    pub const DEFAULT_DELAY_MS: u64 = 25;

    /// Write-through policy: every append is its own `write()` + flush.
    pub fn unbatched() -> Self {
        BatchPolicy { max_bytes: 0, max_delay: std::time::Duration::ZERO }
    }

    /// True when this policy writes every line through individually.
    pub fn is_unbatched(&self) -> bool {
        self.max_bytes == 0
    }

    /// Policy from the environment: `PHI_BATCH_BYTES` (0 = unbatched) and
    /// `PHI_BATCH_DELAY_MS` override the defaults. Unparseable values fall
    /// back to the defaults rather than failing campaign startup.
    pub fn from_env() -> Self {
        let bytes = std::env::var("PHI_BATCH_BYTES")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(Self::DEFAULT_BYTES);
        let delay_ms = std::env::var("PHI_BATCH_DELAY_MS")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(Self::DEFAULT_DELAY_MS);
        BatchPolicy { max_bytes: bytes, max_delay: std::time::Duration::from_millis(delay_ms) }
    }
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_bytes: Self::DEFAULT_BYTES,
            max_delay: std::time::Duration::from_millis(Self::DEFAULT_DELAY_MS),
        }
    }
}

/// Appending side of a journal. One writer per journal directory; campaign
/// workers share it behind a mutex. Appended lines group-commit per the
/// writer's [`BatchPolicy`]; `sync`/`close` (and segment rotation) force the
/// buffer down, which is what bounds crash loss to a suffix of records
/// after the last checkpoint.
#[derive(Debug)]
pub struct JournalWriter {
    dir: PathBuf,
    file: File,
    segment_index: usize,
    segment_bytes: u64,
    /// Rotation threshold (tests shrink it to force multi-segment journals).
    pub rotate_at: u64,
    /// Group-commit policy for this writer.
    pub batch: BatchPolicy,
    /// Encoded lines awaiting their batch write, strictly FIFO.
    buf: Vec<u8>,
    /// When the oldest line still in `buf` was appended.
    buf_oldest: Option<std::time::Instant>,
    /// Set by [`JournalWriter::close`] so `Drop` doesn't double-flush.
    closed: bool,
}

impl JournalWriter {
    /// Creates a fresh journal in `dir` (created if missing) and writes the
    /// `Meta` entry. Fails if a journal already exists there.
    pub fn create(dir: &Path, meta: CampaignMeta) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        if Journal::exists(dir) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                format!("journal already exists at {}", dir.display()),
            ));
        }
        let path = segment_path(dir, 0);
        let file = OpenOptions::new().create_new(true).append(true).open(&path)?;
        obs::incr("store/segments", 1);
        let mut w = JournalWriter {
            dir: dir.to_path_buf(),
            file,
            segment_index: 0,
            segment_bytes: 0,
            rotate_at: SEGMENT_BYTES,
            batch: BatchPolicy::default(),
            buf: Vec::new(),
            buf_oldest: None,
            closed: false,
        };
        w.append(&JournalEntry::Meta(meta))?;
        // The Meta line is committed eagerly regardless of batch policy: a
        // journal directory must never exist with an empty first segment,
        // or a crash between create and first flush would leave a journal
        // that resume rejects (no meta) instead of one it can continue.
        w.flush_batch()?;
        Ok(w)
    }

    /// Re-opens an existing journal for appending: scans it, truncates the
    /// newest segment back to its valid prefix (dropping the torn tail) and
    /// positions the writer after the last complete record. Returns the scan
    /// so the caller can rebuild shard progress from the surviving entries.
    pub fn resume(dir: &Path) -> std::io::Result<(Self, JournalScan)> {
        let scan = Journal::scan(dir)?;
        let last = scan
            .segments
            .last()
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotFound, format!("no journal at {}", dir.display())))?;
        let mut file = OpenOptions::new().read(true).write(true).open(last)?;
        let len = file.metadata()?.len();
        if scan.torn_bytes > 0 {
            file.set_len(len - scan.torn_bytes)?;
        }
        file.seek(std::io::SeekFrom::End(0))?;
        let segment_bytes = len - scan.torn_bytes;
        Ok((
            JournalWriter {
                dir: dir.to_path_buf(),
                file,
                segment_index: scan.segments.len() - 1,
                segment_bytes,
                rotate_at: SEGMENT_BYTES,
                batch: BatchPolicy::default(),
                buf: Vec::new(),
                buf_oldest: None,
                closed: false,
            },
            scan,
        ))
    }

    /// Appends one entry. Under a batching policy the encoded line joins
    /// the write buffer and is committed when the batch fills or ages out;
    /// unbatched, it is written through immediately. Rotates to a new
    /// segment first when the current one is past the threshold
    /// (`segment_bytes` counts buffered lines too, so rotation points are
    /// independent of the batch policy).
    pub fn append(&mut self, entry: &JournalEntry) -> std::io::Result<()> {
        let _span = obs::span!("store.append");
        if self.segment_bytes >= self.rotate_at {
            // A segment's lines must land in that segment: commit the
            // buffered tail before switching files.
            self.flush_batch()?;
            self.segment_index += 1;
            let path = segment_path(&self.dir, self.segment_index);
            self.file = OpenOptions::new().create_new(true).append(true).open(&path)?;
            self.segment_bytes = 0;
            obs::incr("store/segments", 1);
        }
        let line = encode_line(entry)?;
        self.segment_bytes += line.len() as u64;
        obs::incr("store/appends", 1);
        if matches!(entry, JournalEntry::Checkpoint(_)) {
            obs::incr("store/checkpoints", 1);
        }
        if self.batch.is_unbatched() {
            // Lines buffered under an earlier policy (e.g. the Meta entry
            // `create` writes before the caller overrides `batch`) must
            // land first — append order is the byte order.
            self.flush_batch()?;
            // Transient kernel refusals retry in place instead of failing
            // the shard. `write_all` resumes partial EINTR writes
            // internally, and the regular files journals live on refuse
            // whole writes (not line prefixes) on EAGAIN, so a retried
            // line never duplicates bytes.
            retry_transient(|| self.file.write_all(&line))?;
            retry_transient(|| self.file.flush())?;
            return Ok(());
        }
        self.buf.extend_from_slice(&line);
        let oldest = *self.buf_oldest.get_or_insert_with(std::time::Instant::now);
        if self.buf.len() >= self.batch.max_bytes || oldest.elapsed() >= self.batch.max_delay {
            self.flush_batch()?;
        }
        Ok(())
    }

    /// Commits the buffered lines as one `write()`. The buffer is FIFO, so
    /// whatever a crash loses is a strict suffix of the append order —
    /// never a gap.
    fn flush_batch(&mut self) -> std::io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        retry_transient(|| self.file.write_all(&self.buf))?;
        retry_transient(|| self.file.flush())?;
        self.buf.clear();
        self.buf_oldest = None;
        obs::incr("store/batch_flushes", 1);
        Ok(())
    }

    /// Forces journal bytes to stable storage: commits the buffered batch,
    /// then fsyncs. Called at shard checkpoints, so a surviving
    /// `Checkpoint` entry proves every record before it is durable.
    pub fn sync(&mut self) -> std::io::Result<()> {
        let _span = obs::span!("store.sync");
        self.flush_batch()?;
        retry_transient(|| self.file.sync_data())
    }

    /// Retires the writer: commits the buffered batch, fsyncs, and
    /// disarms the `Drop` flush. Orchestrators route shutdown through this
    /// so a failed final flush is an orchestrator error, not a silently
    /// swallowed `Drop` — the bug this replaces.
    pub fn close(mut self) -> std::io::Result<()> {
        let res = self.sync();
        self.closed = true;
        res
    }
}

impl Drop for JournalWriter {
    fn drop(&mut self) {
        // Last-ditch commit for writers dropped during unwinding (e.g. a
        // panicking campaign worker) that never reached `close()`. Drop
        // cannot return an error, so a failure here is made loud instead
        // of silently discarded: counted and printed, never swallowed.
        if self.closed {
            return;
        }
        if let Err(e) = self.flush_batch() {
            obs::incr("store/drop_flush_errors", 1);
            eprintln!("journal {}: flush on drop failed: {e}", self.dir.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/test-journal").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn meta() -> CampaignMeta {
        CampaignMeta { kind: "inject".into(), benchmark: "victim".into(), seed: 7, trials: 100, shards: 4, n_windows: 4, version: FORMAT_VERSION }
    }

    fn trial(shard: usize, seq: u64) -> JournalEntry {
        JournalEntry::Trial { shard, seq, payload: format!("{{\"t\":{seq}}}") }
    }

    #[test]
    fn roundtrips_entries_through_segments() {
        let dir = tmp("roundtrip");
        let mut w = JournalWriter::create(&dir, meta()).unwrap();
        w.rotate_at = 200; // force several segments
        for seq in 0..50 {
            w.append(&trial(seq as usize % 4, seq)).unwrap();
        }
        w.append(&JournalEntry::Checkpoint(ShardCursor { shard: 0, completed: 13, next_stream: 13 })).unwrap();
        w.sync().unwrap();
        drop(w);

        let scan = Journal::scan(&dir).unwrap();
        assert_eq!(scan.meta, Some(meta()));
        assert_eq!(scan.entries.len(), 52);
        assert_eq!(scan.torn_bytes, 0);
        assert!(scan.segments.len() > 1, "rotation should have produced several segments");
        assert_eq!(scan.entries[1], trial(0, 0));
        assert_eq!(*scan.entries.last().unwrap(), JournalEntry::Checkpoint(ShardCursor { shard: 0, completed: 13, next_stream: 13 }));
    }

    #[test]
    fn create_refuses_existing_journal() {
        let dir = tmp("create-twice");
        let w = JournalWriter::create(&dir, meta()).unwrap();
        drop(w);
        let err = JournalWriter::create(&dir, meta()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
        assert!(err.to_string().contains("create-twice"), "error should name the path: {err}");
    }

    #[test]
    fn torn_tail_is_dropped_and_truncated_on_resume() {
        let dir = tmp("torn-tail");
        let mut w = JournalWriter::create(&dir, meta()).unwrap();
        for seq in 0..10 {
            w.append(&trial(0, seq)).unwrap();
        }
        drop(w);
        // Tear the last record: chop half the final line off.
        let seg = segment_path(&dir, 0);
        let len = std::fs::metadata(&seg).unwrap().len();
        let f = OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(len - 7).unwrap();
        drop(f);

        let scan = Journal::scan(&dir).unwrap();
        assert_eq!(scan.entries.len(), 10, "meta + 9 complete trials survive");
        assert!(scan.torn_bytes > 0);

        let (mut w, scan) = JournalWriter::resume(&dir).unwrap();
        assert_eq!(scan.entries.len(), 10);
        w.append(&trial(0, 9)).unwrap();
        drop(w);
        let scan = Journal::scan(&dir).unwrap();
        assert_eq!(scan.torn_bytes, 0, "resume truncated the torn tail");
        assert_eq!(scan.entries.len(), 11);
        assert_eq!(*scan.entries.last().unwrap(), trial(0, 9));
    }

    #[test]
    fn corrupt_closed_segment_is_an_error_not_a_silent_drop() {
        let dir = tmp("corrupt-closed");
        let mut w = JournalWriter::create(&dir, meta()).unwrap();
        w.rotate_at = 100;
        for seq in 0..30 {
            w.append(&trial(0, seq)).unwrap();
        }
        drop(w);
        let segs = list_segments(&dir).unwrap();
        assert!(segs.len() >= 2);
        // Flip a byte in the middle of the first (closed) segment.
        let mut bytes = std::fs::read(&segs[0]).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&segs[0], &bytes).unwrap();
        let err = Journal::scan(&dir).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("seg-00000"), "{err}");
    }

    #[test]
    fn garbage_line_in_newest_segment_is_a_torn_tail() {
        let dir = tmp("garbage-tail");
        let mut w = JournalWriter::create(&dir, meta()).unwrap();
        w.append(&trial(0, 0)).unwrap();
        drop(w);
        let seg = segment_path(&dir, 0);
        let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(b"deadbeef {\"not\":\"checksummed\"}\n").unwrap();
        drop(f);
        let scan = Journal::scan(&dir).unwrap();
        assert_eq!(scan.entries.len(), 2);
        assert!(scan.torn_bytes > 0);
    }

    #[test]
    fn scan_of_missing_directory_fails() {
        let dir = tmp("never-created");
        assert!(Journal::scan(&dir).is_err());
        assert!(!Journal::exists(&dir));
    }

    #[test]
    fn retry_transient_recovers_from_bounded_interruptions() {
        let mut failures = 3;
        let out = retry_transient(|| {
            if failures > 0 {
                failures -= 1;
                Err(std::io::Error::new(std::io::ErrorKind::Interrupted, "EINTR"))
            } else {
                Ok(42)
            }
        })
        .unwrap();
        assert_eq!(out, 42);
        assert_eq!(failures, 0);
    }

    #[test]
    fn retry_transient_gives_up_after_the_budget() {
        let mut attempts = 0u32;
        let err = retry_transient(|| -> std::io::Result<()> {
            attempts += 1;
            Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "EAGAIN"))
        })
        .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
        assert_eq!(attempts, MAX_TRANSIENT_RETRIES + 1, "initial try plus the retry budget");
    }

    #[test]
    fn retry_transient_covers_network_transient_kinds() {
        use std::io::ErrorKind;
        for kind in [ErrorKind::TimedOut, ErrorKind::ConnectionReset, ErrorKind::ConnectionAborted] {
            let mut failures = 2;
            let out = retry_transient(|| {
                if failures > 0 {
                    failures -= 1;
                    Err(std::io::Error::new(kind, "network hiccup"))
                } else {
                    Ok(kind)
                }
            })
            .unwrap();
            assert_eq!(out, kind);
            assert_eq!(failures, 0, "{kind:?} must be retried like a local transient");
        }
    }

    #[test]
    fn retry_transient_passes_real_errors_through_immediately() {
        let mut attempts = 0u32;
        let err = retry_transient(|| -> std::io::Result<()> {
            attempts += 1;
            Err(std::io::Error::new(std::io::ErrorKind::PermissionDenied, "EACCES"))
        })
        .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::PermissionDenied);
        assert_eq!(attempts, 1, "non-transient errors must not burn retries");
    }

    #[test]
    fn transient_backoff_is_deterministic_and_capped() {
        for attempt in 0..64 {
            let a = transient_backoff(attempt);
            let b = transient_backoff(attempt);
            assert_eq!(a, b, "attempt {attempt}: backoff must be a pure function");
            assert!(a <= std::time::Duration::from_millis(50), "attempt {attempt}: {a:?} exceeds the cap");
        }
        assert!(transient_backoff(0) < transient_backoff(4), "backoff should grow before the cap");
    }
}
