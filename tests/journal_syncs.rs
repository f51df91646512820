//! The durable store's fsync count, pinned for one small stored campaign.
//!
//! Each fsync is a `store.sync` span. The recorder that counts them is
//! process-global, so this file holds a single test: no other test's syncs
//! can interleave.
//!
//! * A shard fsyncs at every `checkpoint_every`-th trial, except when that
//!   trial is its last: the seal that follows fsyncs the same cursor with
//!   its `ShardDone`, and no trial runs in between.
//! * A journal that rotates fsyncs the segment it closes, so a checkpoint
//!   written after the switch never vouches for unsynced lines in the old
//!   segment.

use phi_reliability::carolfi::{run_stored, CampaignConfig, Executor, Injection, StoreConfig};
use phi_reliability::kernels::{build, golden, Benchmark, SizeClass};
use phi_reliability::obs::{self, CounterRecorder};
use phi_reliability::store::{Journal, JournalWriter};
use std::path::PathBuf;
use std::sync::Arc;

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/test-journal-syncs").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn stored_campaigns_fsync_once_per_checkpoint_seal_and_rotation() {
    let rec = Arc::new(CounterRecorder::new());
    obs::install(rec.clone());
    let syncs = || rec.snapshot().hists.get("store.sync").map_or(0, |h| h.count);

    // Four shards of 16 trials, checkpointed every 8: per shard one fsync at
    // trial 8 and one at the seal, none at trial 16; plus the writer's close.
    let b = Benchmark::Nw;
    let g = golden(b, SizeClass::Test);
    let cfg = CampaignConfig { trials: 64, seed: 5, n_windows: b.n_windows(), ..Default::default() };
    let dir = tmp("campaign");
    let mut sc = StoreConfig::new(&dir);
    sc.shards = 4;
    sc.checkpoint_every = 8;
    run_stored(&Injection::new(b.label(), &cfg), || build(b, SizeClass::Test), Executor::Pool(&g), &sc)
        .expect("stored campaign runs")
        .expect_complete();
    assert_eq!(syncs(), 4 * 2 + 1, "checkpoint, seal and close fsyncs");

    // The same entries through a writer that rotates every 4 KiB: one fsync
    // per closed segment, plus the close.
    let scan = Journal::scan(&dir).expect("the campaign's journal scans");
    assert_eq!(scan.segments.len(), 1, "the campaign fits one default segment");
    let copy = tmp("rotated");
    let mut meta = scan.meta.expect("journal has a meta entry");
    meta.benchmark.push_str("-copy");
    let mut writer = JournalWriter::create(&copy, meta).expect("journal copy is created");
    writer.rotate_at = 4096;
    let before = syncs();
    for entry in &scan.entries[1..] {
        writer.append(entry).expect("entry is appended");
    }
    writer.close().expect("journal copy closes");
    let segments = Journal::scan(&copy).expect("the copy scans").segments.len();
    assert!(segments > 4, "only {segments} segments");
    assert_eq!(syncs() - before, segments as u64, "one fsync per rotation, plus the close");
    obs::uninstall();
}
