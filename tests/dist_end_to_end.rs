//! End-to-end crash drill for distributed campaigns: two executors and a
//! raw-protocol straggler drive a real kernel injection campaign through a
//! coordinator that is deliberately abandoned mid-run (the SIGKILL
//! simulation hook — writers leaked, nothing sealed), then resumed on a
//! fresh port from its write-ahead ledger. The merged aggregate must come
//! out byte-identical to the plain single-host `run_campaign` with the
//! same seed — distribution, straggler re-dispatch and coordinator crash
//! recovery are pure placement, invisible in the science.

use phi_reliability::carolfi::campaign::execute_trial;
use phi_reliability::carolfi::dist::{CoordMsg, ExecutorMsg};
use phi_reliability::carolfi::warden::{read_frame, write_frame};
use phi_reliability::carolfi::{
    run_campaign, run_coordinator, run_executor, CampaignConfig, ConnectTarget, CoordConfig, ExecutorConfig,
};
use phi_reliability::kernels::{build, golden, Benchmark, SizeClass};
use phi_reliability::store::journal::FORMAT_VERSION;
use phi_reliability::store::{CampaignMeta, Journal, ShardProgress};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

const B: Benchmark = Benchmark::Hotspot;
const TRIALS: usize = 48;
const SHARDS: usize = 3;
const SEED: u64 = 2017;
/// Trials merged before the first coordinator incarnation abandons —
/// mid-campaign, with every healthy lease still open.
const CRASH_AFTER: u64 = 16;

fn ccfg() -> CampaignConfig {
    CampaignConfig { trials: TRIALS, seed: SEED, n_windows: B.n_windows(), ..Default::default() }
}

fn meta() -> CampaignMeta {
    CampaignMeta {
        kind: "inject".into(),
        benchmark: B.label().into(),
        seed: SEED,
        trials: TRIALS,
        shards: SHARDS,
        n_windows: B.n_windows(),
        version: FORMAT_VERSION,
    }
}

/// The canonical per-trial runner — the exact single-host trial path, pure
/// in the global index, so any executor computes identical bytes.
fn runner() -> impl FnMut(u64) -> String {
    let g = golden(B, SizeClass::Test);
    let cfg = ccfg();
    let total_steps = build(B, SizeClass::Test).total_steps().max(1);
    move |global: u64| {
        let mut target = build(B, SizeClass::Test);
        let (record, _) = execute_trial(B.label(), &mut target, &g, &cfg, total_steps, global as usize);
        serde_json::to_string(&record).expect("trial records serialize")
    }
}

/// Wraps `run` so that its first call waits until the first calls of both
/// executors' runners have arrived (`started` counts them), or 10 s pass.
fn held_until_both_start(
    mut run: impl FnMut(u64) -> String,
    started: Arc<(Mutex<usize>, Condvar)>,
) -> impl FnMut(u64) -> String {
    let mut first = true;
    move |global| {
        if std::mem::take(&mut first) {
            let (count, arrived) = &*started;
            let mut n = count.lock().unwrap();
            *n += 1;
            arrived.notify_all();
            drop(arrived.wait_timeout_while(n, Duration::from_secs(10), |n| *n < 2).unwrap());
        }
        run(global)
    }
}

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/test-dist-e2e").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Atomic address-file update, as `phi-coord --addr-file` does: executors
/// re-read it on every reconnect, so a restarted coordinator on a fresh
/// port is found the moment the rename lands.
fn write_addr(path: &Path, addr: &str) {
    let staging = path.with_extension("tmp");
    std::fs::write(&staging, addr).unwrap();
    std::fs::rename(&staging, path).unwrap();
}

fn roundtrip_raw(stream: &mut TcpStream, msg: &ExecutorMsg) -> CoordMsg {
    write_frame(stream, msg).unwrap();
    read_frame(stream).unwrap()
}

#[test]
fn crashed_coordinator_and_dead_executor_resume_to_the_single_host_aggregate() {
    // The ground truth this whole drill must reproduce byte-for-byte.
    let g = golden(B, SizeClass::Test);
    let reference = run_campaign(B.label(), || build(B, SizeClass::Test), &g, &ccfg());
    let expected: Vec<String> =
        reference.records.iter().map(|r| serde_json::to_string(r).expect("records serialize")).collect();
    assert_eq!(expected.len(), TRIALS);

    let root = tmp("crash-drill");
    let coord_dir = root.join("coord");
    let addr_file = root.join("coord.addr");

    // Coordinator incarnation 1: abandon (leaked writers, no seal — the
    // in-process equivalent of kill -9) once CRASH_AFTER trials merged.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    write_addr(&addr_file, &listener.local_addr().unwrap().to_string());
    let mut cfg1 = CoordConfig::new(&coord_dir, meta(), "");
    cfg1.lease_timeout = Duration::from_millis(400);
    cfg1.stop_after_merged = Some(CRASH_AFTER);
    let coord1 = std::thread::spawn(move || run_coordinator(listener, &cfg1).unwrap());

    // A doomed executor leases a shard, streams exactly one trial, then its
    // socket dies — an executor killed mid-range. Its lease either rots out
    // (straggler expiry) or is carried Active into the crash ledger; both
    // paths end in re-dispatch.
    let addr = std::fs::read_to_string(&addr_file).unwrap();
    {
        let mut doomed = TcpStream::connect(addr.trim()).unwrap();
        let CoordMsg::Welcome { .. } = roundtrip_raw(&mut doomed, &ExecutorMsg::Hello { name: "doomed".into(), pid: 1 })
        else {
            panic!("expected Welcome");
        };
        let CoordMsg::Lease { lease, shard, start, .. } = roundtrip_raw(&mut doomed, &ExecutorMsg::LeaseRequest) else {
            panic!("expected a lease");
        };
        let payload = runner()(start);
        let reply = roundtrip_raw(&mut doomed, &ExecutorMsg::Trial { lease, shard, seq: 0, payload });
        assert_eq!(reply, CoordMsg::Ack);
        // dropped here: connection reset mid-range, lease left dangling
    }

    // Two healthy executors, found through the address file so they follow
    // the coordinator across its restart. Each holds its first trial until
    // the other has leased a shard too: a trial takes less time than an
    // executor thread takes to start and connect, so without the hold one
    // executor could stream the 15 trials to the crash before the other
    // asked for work, and the second incarnation grants whoever reconnects
    // first. The hold times out, so an executor the coordinator never
    // serves still fails the lease check below.
    let started = Arc::new((Mutex::new(0usize), Condvar::new()));
    let executors: Vec<_> = ["ex-a", "ex-b"]
        .into_iter()
        .map(|name| {
            let ecfg = ExecutorConfig::new(name, root.join(name), ConnectTarget::File(addr_file.clone()));
            let started = Arc::clone(&started);
            std::thread::spawn(move || run_executor(&ecfg, |_, _| held_until_both_start(runner(), started)).unwrap())
        })
        .collect();

    let s1 = coord1.join().unwrap();
    assert!(s1.abandoned, "incarnation 1 must die by the crash hook");
    assert_eq!(s1.merged, CRASH_AFTER, "the crash hook fires on the merge that reaches the cap");

    // Incarnation 2: fresh port (the kill left the old one behind), resume
    // from journal + write-ahead ledger, rewrite the address file.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    write_addr(&addr_file, &listener.local_addr().unwrap().to_string());
    let mut cfg2 = CoordConfig::new(&coord_dir, meta(), "");
    cfg2.resume = true;
    cfg2.lease_timeout = Duration::from_millis(400);
    let s2 = run_coordinator(listener, &cfg2).unwrap();

    assert!(!s2.abandoned);
    assert_eq!(s1.merged + s2.merged, TRIALS as u64, "every trial merged exactly once across incarnations");
    assert!(
        s1.leases_expired + s2.leases_expired >= 1,
        "the dead executor's lease must expire (straggler timeout or crash reconcile): {s1:?} / {s2:?}"
    );
    assert!(
        s1.redispatched + s2.redispatched >= 1,
        "the dead executor's shard must be re-dispatched: {s1:?} / {s2:?}"
    );

    for (name, handle) in ["ex-a", "ex-b"].iter().zip(executors) {
        let summary = handle.join().unwrap();
        assert!(summary.leases >= 1, "{name} never got a lease");
    }

    // The decisive check: the merged central journal replays to exactly the
    // single-host aggregate, byte for byte.
    let scan = Journal::scan(&coord_dir).unwrap();
    let progress = ShardProgress::replay(SHARDS, &scan.entries).unwrap();
    assert!(progress.all_done(), "every shard sealed after resume");
    let merged: Vec<String> = progress.shards.iter().flat_map(|s| s.payloads.clone()).collect();
    assert_eq!(merged, expected, "distributed aggregate diverged from the single-host run");
}

/// Round trips on an established connection cost only the network and the
/// coordinator's work, never a TCP timer. Both ends set `TCP_NODELAY`;
/// without it on the coordinator's side, Nagle holds every reply body
/// (sent as a second write after its length prefix) until the executor's
/// delayed ACK, about 40 ms per frame.
#[test]
fn coordinator_round_trips_do_not_stall_on_delayed_acks() {
    const DUPLICATES: usize = 200;
    let root = tmp("round-trip-stall");
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let meta = CampaignMeta { trials: 1, shards: 1, ..meta() };
    let cfg = CoordConfig::new(root.join("coord"), meta, "");
    let coord = std::thread::spawn(move || run_coordinator(listener, &cfg).unwrap());

    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.set_nodelay(true).unwrap(); // as `run_executor` does
    let CoordMsg::Welcome { .. } = roundtrip_raw(&mut stream, &ExecutorMsg::Hello { name: "raw".into(), pid: 1 }) else {
        panic!("expected Welcome");
    };
    let CoordMsg::Lease { lease, shard, .. } = roundtrip_raw(&mut stream, &ExecutorMsg::LeaseRequest) else {
        panic!("expected a lease");
    };
    // The coordinator treats payloads as opaque, so any line completes it.
    let trial = ExecutorMsg::Trial { lease, shard, seq: 0, payload: "{}".into() };
    assert_eq!(roundtrip_raw(&mut stream, &trial), CoordMsg::Ack);
    // Re-sending the merged `seq 0` costs a round trip and no journal write.
    let started = Instant::now();
    for _ in 0..DUPLICATES {
        assert_eq!(roundtrip_raw(&mut stream, &trial), CoordMsg::Ack);
    }
    let took = started.elapsed();
    assert!(took < Duration::from_secs(2), "{DUPLICATES} duplicate trial round trips took {took:?}");

    assert_eq!(roundtrip_raw(&mut stream, &ExecutorMsg::RangeDone { lease }), CoordMsg::Ack);
    assert_eq!(roundtrip_raw(&mut stream, &ExecutorMsg::LeaseRequest), CoordMsg::Done);
    drop(stream);
    let summary = coord.join().unwrap();
    assert_eq!((summary.merged, summary.duplicates), (1, DUPLICATES as u64));
}
