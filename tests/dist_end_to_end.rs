//! End-to-end crash drill for distributed campaigns: two executors and a
//! raw-protocol executor that dies mid-shard drive a real kernel injection
//! campaign through a coordinator that is deliberately abandoned mid-run
//! (the crash hook: the engine pauses and every connection drops without
//! `Done`), then resumed on a fresh port from its journal. The merged
//! aggregate must come out byte-identical to the plain single-host
//! `run_campaign` with the same seed — distribution, straggler re-dispatch
//! and coordinator crash recovery are pure placement, invisible in the
//! science.

use phi_reliability::carolfi::campaign::execute_trial;
use phi_reliability::carolfi::dist::{CoordMsg, ExecutorMsg};
use phi_reliability::carolfi::record::DueKind;
use phi_reliability::carolfi::warden::{read_frame, write_frame};
use phi_reliability::carolfi::{
    run_campaign, run_coordinator, run_executor, CampaignConfig, ConnectTarget, CoordConfig, ExecutorConfig, Injection,
    TrialKind,
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
/// Trials journaled before the first coordinator incarnation abandons —
/// mid-campaign, with every healthy executor still bound.
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

    // Coordinator incarnation 1: abandon (no seal, every connection
    // dropped without `Done` — the in-process stand-in for kill -9) once
    // CRASH_AFTER trials are journaled.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    write_addr(&addr_file, &listener.local_addr().unwrap().to_string());
    let mut cfg1 = CoordConfig::new(&coord_dir, meta(), "");
    cfg1.lease_timeout = Duration::from_millis(400);
    cfg1.stop_after_merged = Some(CRASH_AFTER);
    let coord1 = std::thread::spawn(move || run_coordinator(listener, &cfg1).unwrap());

    // A doomed executor answers exactly one trial, then its socket dies
    // with the next Run unanswered — an executor killed mid-shard. The
    // coordinator drops it at that round trip and re-sends the trial, so
    // its shard is re-dispatched in this incarnation or, holding a
    // journaled trial, in the next.
    let addr = std::fs::read_to_string(&addr_file).unwrap();
    {
        let mut doomed = TcpStream::connect(addr.trim()).unwrap();
        let CoordMsg::Welcome { .. } = roundtrip_raw(&mut doomed, &ExecutorMsg::Hello { name: "doomed".into(), pid: 1 })
        else {
            panic!("expected Welcome");
        };
        let CoordMsg::Run { trial } = read_frame(&mut doomed).unwrap() else {
            panic!("expected a Run");
        };
        let payload = runner()(trial);
        let CoordMsg::Run { .. } = roundtrip_raw(&mut doomed, &ExecutorMsg::Record { trial, payload }) else {
            panic!("expected the next Run");
        };
        // dropped here: connection reset mid-shard, one Run unanswered
    }

    // Two healthy executors, found through the address file so they follow
    // the coordinator across its restart. Each holds its first trial until
    // the other has been sent one too: a trial takes less time than an
    // executor thread takes to start and connect, so without the hold one
    // executor could compute the 15 trials to the crash before the other
    // connected, and the second incarnation binds whoever reconnects
    // first. The hold times out, so an executor the coordinator never
    // serves still fails the computed check below.
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
    assert_eq!(s1.merged, CRASH_AFTER, "the crash hook pauses the engine at exactly the cap");

    // Incarnation 2: fresh port (the kill left the old one behind), resume
    // from the journal, rewrite the address file.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    write_addr(&addr_file, &listener.local_addr().unwrap().to_string());
    let mut cfg2 = CoordConfig::new(&coord_dir, meta(), "");
    cfg2.resume = true;
    cfg2.lease_timeout = Duration::from_millis(400);
    let s2 = run_coordinator(listener, &cfg2).unwrap();

    assert!(!s2.abandoned);
    assert_eq!(s1.merged + s2.merged, TRIALS as u64, "every trial merged exactly once across incarnations");
    assert!(s1.leases_expired >= 1, "the dead executor's binding must end at its failed round trip: {s1:?}");
    assert!(
        s1.redispatched + s2.redispatched >= 1,
        "the dead executor's shard must be re-dispatched: {s1:?} / {s2:?}"
    );

    for (name, handle) in ["ex-a", "ex-b"].iter().zip(executors) {
        let summary = handle.join().unwrap();
        assert!(summary.computed >= 1, "{name} never computed a trial");
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
/// without it on the coordinator's side, Nagle holds every `Run` body (sent
/// as a second write after its length prefix) until the executor's delayed
/// ACK, about 40 ms per frame.
#[test]
fn coordinator_round_trips_do_not_stall_on_delayed_acks() {
    const ROUND_TRIPS: u64 = 200;
    let root = tmp("round-trip-stall");
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let meta = CampaignMeta { trials: ROUND_TRIPS as usize, shards: 1, ..meta() };
    let cfg = CoordConfig::new(root.join("coord"), meta, "");
    let coord = std::thread::spawn(move || run_coordinator(listener, &cfg).unwrap());
    // Records fixed by the trial index alone cost nothing to build, so the
    // loop below times the round trips.
    let campaign = ccfg();
    let kind = Injection::new(B.label(), &campaign);
    let payloads: Vec<String> = (0..ROUND_TRIPS)
        .map(|t| serde_json::to_string(&kind.synth_due(1, t as usize, DueKind::Killed)).unwrap())
        .collect();

    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.set_nodelay(true).unwrap(); // as `run_executor` does
    let CoordMsg::Welcome { .. } = roundtrip_raw(&mut stream, &ExecutorMsg::Hello { name: "raw".into(), pid: 1 }) else {
        panic!("expected Welcome");
    };
    let started = Instant::now();
    let mut reply = read_frame(&mut stream).unwrap();
    for expected in 0..ROUND_TRIPS {
        assert_eq!(reply, CoordMsg::Run { trial: expected });
        let record = ExecutorMsg::Record { trial: expected, payload: payloads[expected as usize].clone() };
        reply = roundtrip_raw(&mut stream, &record);
    }
    let took = started.elapsed();
    assert!(took < Duration::from_secs(2), "{ROUND_TRIPS} Run/Record round trips took {took:?}");
    assert_eq!(reply, CoordMsg::Done);
    drop(stream);
    let summary = coord.join().unwrap();
    assert_eq!((summary.merged, summary.duplicates), (ROUND_TRIPS, 0));
}
