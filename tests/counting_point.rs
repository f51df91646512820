//! The campaign engine counts and announces each trial once, where it
//! accepts the record, whichever executor produced it:
//!
//! * a stored campaign's `trial` (or `strike`) events are exactly its
//!   journal's trial payloads, in journal order, each once — on the pool
//!   executor and on the warden executor, whose workers announce nothing;
//! * a distributed trial computed twice (its first executor died before
//!   delivering the record, so the coordinator re-sent it) is counted once.
//!
//! The recorder is process-global, so these tests live in a binary of
//! their own and serialize on [`LOCK`].

use phi_reliability::beamsim::{BeamConfig, Strikes};
use phi_reliability::carolfi::campaign::execute_trial;
use phi_reliability::carolfi::dist::{CoordMsg, ExecutorMsg};
use phi_reliability::carolfi::record::TrialRecord;
use phi_reliability::carolfi::warden::{read_frame, write_frame};
use phi_reliability::carolfi::{
    run_campaign, run_coordinator, run_executor, run_stored, CampaignConfig, ConnectTarget, CoordConfig, Executor,
    ExecutorConfig, Injection, IsolateConfig, StoreConfig, TrialKind,
};
use phi_reliability::kernels::{build, golden, Benchmark, SizeClass};
use phi_reliability::obs;
use phi_reliability::store::{Journal, JournalEntry};
use std::collections::BTreeMap;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

static LOCK: Mutex<()> = Mutex::new(());

const BENCH: Benchmark = Benchmark::Hotspot;
const TRIALS: usize = 24;
const SEED: u64 = 6029;

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/test-counting-point").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cfg() -> CampaignConfig {
    CampaignConfig { trials: TRIALS, seed: SEED, workers: 2, n_windows: BENCH.n_windows(), ..Default::default() }
}

/// A recorder that keeps every event it is handed, in arrival order.
#[derive(Default)]
struct Keeper(Mutex<Vec<(&'static str, String)>>);

impl obs::Recorder for Keeper {
    fn incr(&self, _: &'static str, _: u64) {}
    fn observe_ns(&self, _: &'static str, _: u64) {}
    fn event(&self, kind: &'static str, payload_json: &str) {
        self.0.lock().unwrap().push((kind, payload_json.to_string()));
    }
}

/// Runs `campaign` with a fresh [`Keeper`] installed and returns the
/// payloads of its `kind` events.
fn events_of(kind: &str, campaign: impl FnOnce()) -> Vec<String> {
    let keeper = Arc::new(Keeper::default());
    obs::install(keeper.clone());
    campaign();
    obs::uninstall();
    let events = std::mem::take(&mut *keeper.0.lock().unwrap());
    events.into_iter().filter(|(k, _)| *k == kind).map(|(_, payload)| payload).collect()
}

/// A journal's trial payloads, in journal order.
fn journaled(dir: &Path) -> Vec<String> {
    let scan = Journal::scan(dir).unwrap();
    scan.entries
        .into_iter()
        .filter_map(|entry| match entry {
            JournalEntry::Trial { payload, .. } => Some(payload),
            _ => None,
        })
        .collect()
}

/// Warden worker entry, as `bench::maybe_run_worker` serves: its own
/// counting recorder, trials by global index. No-op in an ordinary run.
#[test]
fn counting_worker_entry() {
    if !phi_reliability::carolfi::warden::worker_active() {
        return;
    }
    obs::install(Arc::new(obs::CounterRecorder::new()));
    let (cfg, g) = (cfg(), golden(BENCH, SizeClass::Test));
    let total_steps = build(BENCH, SizeClass::Test).total_steps().max(1);
    let result = phi_reliability::carolfi::warden::serve(|trial| {
        execute_trial(BENCH.label(), &mut build(BENCH, SizeClass::Test), &g, &cfg, total_steps, trial).0
    });
    std::process::exit(if result.is_ok() { 0 } else { 1 });
}

/// Runs the reference injection campaign stored under `name`, 3 shards,
/// on `executor`; returns its `trial` events and its journal's payloads.
fn stored(name: &str, executor: Executor<'_>) -> (Vec<String>, Vec<String>) {
    let cfg = cfg();
    let mut sc = StoreConfig::new(tmp(name));
    sc.shards = 3;
    let events = events_of("trial", || {
        let kind = Injection::new(BENCH.label(), &cfg);
        run_stored(&kind, || build(BENCH, SizeClass::Test), executor, &sc).unwrap().expect_complete();
    });
    let journal = journaled(&sc.dir);
    assert_eq!(journal.len(), TRIALS);
    (events, journal)
}

#[test]
fn in_memory_trial_events_follow_trial_order() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (cfg, g) = (cfg(), golden(BENCH, SizeClass::Test));
    let mut records = Vec::new();
    let events = events_of("trial", || records = run_campaign(BENCH.label(), || build(BENCH, SizeClass::Test), &g, &cfg).records);
    let serialized: Vec<String> = records.iter().map(|r| serde_json::to_string(r).unwrap()).collect();
    assert_eq!(events, serialized);
}

#[test]
fn pooled_events_are_the_journal_payloads_in_journal_order() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (events, journal) = stored("pool", Executor::Pool(&golden(BENCH, SizeClass::Test)));
    assert_eq!(events, journal);

    // Beam strikes are announced as `strike` events.
    let b = Benchmark::Dgemm;
    let beam = BeamConfig { strikes: 40, seed: SEED, workers: 2, n_windows: b.n_windows(), ..Default::default() };
    let g = golden(b, SizeClass::Test);
    let mut sc = StoreConfig::new(tmp("beam"));
    sc.shards = 3;
    let events = events_of("strike", || {
        let kind = Strikes::new(b.label(), &beam);
        run_stored(&kind, || build(b, SizeClass::Test), Executor::Pool(&g), &sc).unwrap().expect_complete();
    });
    assert_eq!(events, journaled(&sc.dir));
}

#[test]
fn warden_events_are_the_journal_payloads_in_journal_order() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut iso = IsolateConfig::new(
        std::env::current_exe().expect("test binary path"),
        vec!["counting_worker_entry".into(), "--exact".into(), "--test-threads=1".into(), "--nocapture".into()],
        String::new(),
    );
    iso.backoff_base = Duration::from_millis(1);
    iso.backoff_cap = Duration::from_millis(10);
    let (events, journal) = stored("warden", Executor::Warden(&iso));
    assert_eq!(events, journal, "the supervisor announces what it journals; the workers announce nothing");
}

/// The outcome-class counters (`*/masked|hw-masked|sdc|due`) of a snapshot.
fn outcome_counters(snap: &obs::MetricsSnapshot) -> BTreeMap<String, u64> {
    snap.counters
        .iter()
        .filter(|(name, _)| matches!(name.rsplit('/').next(), Some("masked" | "hw-masked" | "sdc" | "due")))
        .map(|(name, &v)| (name.clone(), v))
        .collect()
}

#[test]
fn a_resent_dist_trial_is_counted_once() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (cfg, g) = (cfg(), golden(BENCH, SizeClass::Test));
    let total_steps = build(BENCH, SizeClass::Test).total_steps().max(1);
    let run = |trial: u64| {
        execute_trial(BENCH.label(), &mut build(BENCH, SizeClass::Test), &g, &cfg, total_steps, trial as usize).0
    };
    let root = tmp("dist");
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let ccfg = CoordConfig::new(root.join("coord"), Injection::new(BENCH.label(), &cfg).meta(2), "");

    let rec = Arc::new(obs::CounterRecorder::new());
    obs::install(rec.clone());
    let summary = std::thread::scope(|s| {
        let coord = s.spawn(|| run_coordinator(listener, &ccfg).unwrap());
        // An executor computes the first trial it is sent and dies before
        // delivering the record, so the coordinator re-sends that trial.
        let mut dying = TcpStream::connect(&addr).unwrap();
        write_frame(&mut dying, &ExecutorMsg::Hello { name: "dying".into(), pid: 1 }).unwrap();
        let CoordMsg::Welcome { .. } = read_frame(&mut dying).unwrap() else { panic!("expected Welcome") };
        let CoordMsg::Run { trial } = read_frame(&mut dying).unwrap() else { panic!("expected a Run") };
        run(trial);
        drop(dying);
        let ecfg = ExecutorConfig::new("healthy", root.join("healthy"), ConnectTarget::Addr(addr.clone()));
        let healthy = run_executor(&ecfg, |_, _| move |trial| serde_json::to_string(&run(trial)).unwrap()).unwrap();
        assert_eq!(healthy.computed, TRIALS as u64, "the healthy executor computes every trial, the re-sent one too");
        coord.join().unwrap()
    });
    obs::uninstall();
    assert_eq!(summary.duplicates, 1, "one trial re-sent: {summary:?}");

    let mut expected: BTreeMap<String, u64> = BTreeMap::new();
    for entry in Journal::scan(&root.join("coord")).unwrap().entries {
        if let JournalEntry::Trial { payload, .. } = entry {
            *expected.entry(TrialRecord::decode(&payload).unwrap().outcome_key().to_string()).or_default() += 1;
        }
    }
    assert_eq!(expected.values().sum::<u64>(), TRIALS as u64);
    let counted = outcome_counters(&rec.snapshot());
    assert_eq!(counted.values().sum::<u64>(), TRIALS as u64, "each trial counted once: {counted:?}");
    assert_eq!(counted, expected, "the counters match the journal's records");
}
