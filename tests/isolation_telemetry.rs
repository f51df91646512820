//! End-to-end tests for the live observability plane: isolated warden
//! workers must relay their metrics back to the supervisor (ending the
//! `--isolate` telemetry blackout), warden retries must never double-count
//! outcome-class counters, and the `--monitor` endpoint plus the
//! `heartbeat.json` flight recorder must serve sane progress snapshots.
//!
//! These tests exercise the *process-global* monitor plumbing
//! (`carolfi::monitor::{serve_monitor, start_heartbeat, begin_campaign}`),
//! which the in-crate unit tests deliberately avoid — flipping the global
//! gate inside the carolfi test binary would race its orchestrator tests.
//! Here the globals are ours alone, serialized by [`LOCK`].

use phi_reliability::carolfi::campaign::{execute_trial_attempt, outcome_key};
use phi_reliability::carolfi::monitor::{MonitorRequest, StatusSnapshot};
use phi_reliability::carolfi::warden::{read_frame_blocking, write_frame};
use phi_reliability::carolfi::{
    run_campaign, run_stored, CampaignConfig, Executor, Injection, IsolateConfig, StoreConfig, StoredRun,
};
use phi_reliability::kernels::{build, golden, Benchmark, SizeClass};
use phi_reliability::obs;
use std::collections::BTreeMap;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Serializes the tests in this binary: they install the process-global
/// recorder, hub contents and monitor state.
static LOCK: Mutex<()> = Mutex::new(());

const BENCH: Benchmark = Benchmark::Hotspot;
const TRIALS: usize = 36;
const SEED: u64 = 4117;

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/test-isolation-telemetry").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

fn cfg() -> CampaignConfig {
    CampaignConfig { trials: TRIALS, seed: SEED, workers: 2, n_windows: BENCH.n_windows(), ..Default::default() }
}

fn iso_cfg(mode: &str) -> IsolateConfig {
    let mut iso = IsolateConfig::new(
        std::env::current_exe().expect("test binary path"),
        vec!["monitor_worker_entry".into(), "--exact".into(), "--test-threads=1".into(), "--nocapture".into()],
        format!("{mode},{SEED},{TRIALS}"),
    );
    iso.backoff_base = std::time::Duration::from_millis(1);
    iso.backoff_cap = std::time::Duration::from_millis(10);
    iso
}

/// Installs a fresh recorder and empties the hub, so each leg of a test
/// measures only its own campaign.
fn fresh_metrics() {
    obs::install(Arc::new(obs::CounterRecorder::new()));
    obs::hub().clear();
}

/// Runs the reference campaign under the warden executor.
fn isolated(sc: &StoreConfig, mode: &str) -> std::io::Result<StoredRun<phi_reliability::carolfi::Campaign>> {
    let cfg = cfg();
    run_stored(&Injection::new(BENCH.label(), &cfg), || build(BENCH, SizeClass::Test), Executor::Warden(&iso_cfg(mode)), sc)
}

/// The outcome-class counters (`*/masked|hw-masked|sdc|due`) of a snapshot.
fn outcome_counters(snap: &obs::MetricsSnapshot) -> BTreeMap<String, u64> {
    snap.counters
        .iter()
        .filter(|(name, _)| {
            matches!(name.rsplit('/').next(), Some("masked" | "hw-masked" | "sdc" | "due"))
        })
        .map(|(name, &v)| (name.clone(), v))
        .collect()
}

/// Warden worker entry, mirroring `bench::maybe_run_worker`: installs its
/// own recorder (the metrics the supervisor folds back), executes trials
/// attempt-aware with outcome counting off, and — in `abort-once-<K>` mode —
/// aborts the first attempt of trial K to force a warden retry. No-op in an
/// ordinary test run.
#[test]
fn monitor_worker_entry() {
    let Some(spec) = phi_reliability::carolfi::warden::worker_spec() else { return };
    let mut parts = spec.split(',');
    let mode = parts.next().expect("spec mode").to_string();
    let seed: u64 = parts.next().expect("spec seed").parse().expect("spec seed");
    let trials: usize = parts.next().expect("spec trials").parse().expect("spec trials");
    obs::install(Arc::new(obs::CounterRecorder::new()));
    let ccfg = CampaignConfig { trials, seed, n_windows: BENCH.n_windows(), ..Default::default() };
    let g = golden(BENCH, SizeClass::Test);
    let total_steps = build(BENCH, SizeClass::Test).total_steps().max(1);
    let abort_once: Option<usize> = mode.strip_prefix("abort-once-").map(|n| n.parse().expect("abort trial"));
    let result = phi_reliability::carolfi::warden::serve(|trial, attempt| {
        if attempt == 0 && abort_once == Some(trial) {
            std::process::abort();
        }
        let mut target = build(BENCH, SizeClass::Test);
        execute_trial_attempt(BENCH.label(), &mut target, &g, &ccfg, total_steps, trial, attempt, false).0
    });
    std::process::exit(if result.is_ok() { 0 } else { 1 });
}

#[test]
fn isolated_workers_relay_metrics_into_the_supervisor_hub() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());

    // In-process leg: the recorder sees everything directly.
    fresh_metrics();
    let reference = run_campaign(BENCH.label(), || build(BENCH, SizeClass::Test), &golden(BENCH, SizeClass::Test), &cfg());
    let in_process = obs::merged_snapshot();
    let expected_outcomes = outcome_counters(&in_process);
    assert_eq!(expected_outcomes.values().sum::<u64>(), TRIALS as u64);

    // Isolated leg: trials execute in worker processes; their counters and
    // span histograms must come back over the supervision socket.
    fresh_metrics();
    let mut sc = StoreConfig::new(tmp("relay").join("journal"));
    sc.shards = 3;
    let stored = isolated(&sc, "plain")
        .expect("isolated campaign")
        .expect_complete();
    assert_eq!(stored.records.len(), TRIALS);
    let merged = obs::merged_snapshot();

    // Satellite-1 contract: the supervisor counted each journaled record
    // exactly once, so the outcome-class counters match the in-process run
    // (the records themselves are bit-identical, so so must these be).
    assert_eq!(outcome_counters(&merged), expected_outcomes, "isolate must not change the telemetry footer's outcome lines");

    // The relay itself: worker-side span histograms are visible here. Every
    // trial ran `supervisor::run_trial` in a *worker* process, yet the
    // merged hub shows all of them.
    let trial_span = merged.hists.get("trial").expect("worker 'trial' spans relayed");
    assert_eq!(trial_span.count, TRIALS as u64);
    assert!(trial_span.sum_ns > 0);
    assert!(merged.counter("warden/metric_frames") > 0, "supervisor folded at least one metrics frame");
    assert!(merged.counter("warden/spawned") >= 1);

    for (a, b) in reference.records.iter().zip(&stored.records) {
        assert_eq!(
            serde_json::to_string(a).unwrap(),
            serde_json::to_string(b).unwrap(),
            "trial {} must stay bit-identical",
            a.trial
        );
    }
    obs::uninstall();
}

#[test]
fn warden_retries_do_not_double_count_outcomes() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fresh_metrics();

    // Trial 7's first attempt aborts the worker; the warden respawns and
    // retries, and the second attempt succeeds. Before outcome counting
    // moved to the supervisor, the campaign ended with trials+1 outcome
    // increments (or trials-1 with the lost-attempt variant); now the
    // winning record is counted exactly once where it is journaled.
    let mut sc = StoreConfig::new(tmp("retry").join("journal"));
    sc.shards = 2;
    let stored = isolated(&sc, "abort-once-7")
        .expect("isolated campaign with scripted abort")
        .expect_complete();
    assert_eq!(stored.records.len(), TRIALS);

    let merged = obs::merged_snapshot();
    assert!(merged.counter("warden/retries") >= 1, "the scripted abort must have forced a retry");
    let outcomes = outcome_counters(&merged);
    assert_eq!(
        outcomes.values().sum::<u64>(),
        TRIALS as u64,
        "every trial counted exactly once despite the retry: {outcomes:?}"
    );

    // The retry is otherwise transparent: trial 7's record is the real
    // outcome, bit-identical to the uninterrupted run, and its counter
    // class agrees with the journaled record.
    let reference = run_campaign(BENCH.label(), || build(BENCH, SizeClass::Test), &golden(BENCH, SizeClass::Test), &cfg());
    assert_eq!(
        serde_json::to_string(&reference.records[7]).unwrap(),
        serde_json::to_string(&stored.records[7]).unwrap(),
        "retried trial must produce the first-attempt record"
    );
    let model = stored.records[7].model.expect("injection records carry a model");
    let key = outcome_key(model, &stored.records[7].outcome);
    assert!(outcomes.get(key).copied().unwrap_or(0) >= 1);
    obs::uninstall();
}

#[test]
fn monitor_endpoint_and_heartbeat_report_live_progress() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fresh_metrics();

    let dir = tmp("monitor");
    let socket = dir.join("live.sock");
    phi_reliability::carolfi::monitor::serve_monitor(&socket).expect("bind monitor socket");
    phi_reliability::carolfi::monitor::start_heartbeat(dir.join("heartbeat.json"));

    // Before any campaign begins the endpoint must still answer (phi-top
    // races campaign startup).
    let pending = snapshot_from(&socket);
    assert_eq!(pending.kind, "pending");
    assert_eq!(pending.pid, std::process::id());

    let mut sc = StoreConfig::new(dir.join("journal"));
    sc.shards = 3;
    let stored = isolated(&sc, "plain")
        .expect("isolated campaign")
        .expect_complete();
    assert_eq!(stored.records.len(), TRIALS);

    // One-shot snapshot after completion: gauges, shard table and mix must
    // all add up.
    let s = snapshot_from(&socket);
    assert_eq!(s.label, BENCH.label());
    assert_eq!(s.kind, "inject");
    assert!(s.finished);
    assert_eq!(s.total, TRIALS as u64);
    assert_eq!(s.done, TRIALS as u64);
    assert_eq!(s.shards.len(), 3);
    for sh in &s.shards {
        assert!(sh.sealed, "shard {} must be sealed", sh.shard);
        assert_eq!(sh.done, sh.total);
    }
    let mix_total = s.mix.masked + s.mix.hw_masked + s.mix.sdc + s.mix.due;
    assert_eq!(mix_total, TRIALS as u64, "outcome mix covers every trial: {:?}", s.mix);
    assert!(s.workers.spawned >= 1);
    assert!(s.workers.metric_frames >= 1);
    assert!(s.trials_per_sec >= 0.0);
    assert!(s.elapsed_secs > 0.0);

    // Subscribe mode: the same connection streams frames.
    let mut stream = UnixStream::connect(&socket).expect("connect subscribe");
    write_frame(&mut stream, &MonitorRequest::Subscribe { interval_ms: 60 }).expect("send subscribe");
    let first: StatusSnapshot = read_frame_blocking(&mut stream).expect("first streamed frame");
    let second: StatusSnapshot = read_frame_blocking(&mut stream).expect("second streamed frame");
    assert!(first.finished && second.finished);
    assert!(second.elapsed_secs >= first.elapsed_secs);
    drop(stream);

    // The heartbeat flight recorder holds the same schema; the final
    // `complete_campaign` flush makes it current even if the periodic
    // writer never fired.
    let raw = std::fs::read_to_string(dir.join("heartbeat.json")).expect("heartbeat.json exists");
    let hb: StatusSnapshot = serde_json::from_str(&raw).expect("heartbeat parses as a StatusSnapshot");
    assert!(hb.finished);
    assert_eq!(hb.done, TRIALS as u64);
    assert_eq!(hb.label, BENCH.label());
    obs::uninstall();
}

/// One `Snapshot` request/response round trip against the monitor socket.
fn snapshot_from(socket: &std::path::Path) -> StatusSnapshot {
    let mut stream = UnixStream::connect(socket).expect("connect monitor socket");
    write_frame(&mut stream, &MonitorRequest::Snapshot).expect("send snapshot request");
    read_frame_blocking(&mut stream).expect("read status snapshot")
}
