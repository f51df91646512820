//! End-to-end tests for the durable campaign store (phi-store +
//! orchestrators): a sharded, journal-backed campaign must aggregate
//! bit-identically to the plain single-shot run, no matter how many shards
//! it uses or how often it is killed and resumed along the way.

use phi_reliability::carolfi::campaign::execute_trial;
use phi_reliability::carolfi::record::TrialRecord;
use phi_reliability::carolfi::Output;
use phi_reliability::carolfi::{
    run_campaign, run_stored, Campaign, CampaignConfig, Executor, FaultTarget, Injection, IsolateConfig, StoreConfig,
    StoredRun,
};
use phi_reliability::kernels::{build, golden, Benchmark, SizeClass};
use phi_reliability::store::{Journal, JournalEntry};
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/test-store-e2e").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn assert_same_records(a: &[TrialRecord], b: &[TrialRecord]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.trial, y.trial);
        assert_eq!(x.outcome, y.outcome);
        assert_eq!(x.mechanism, y.mechanism);
        assert_eq!(x.inject_step, y.inject_step);
        assert_eq!(x.window, y.window);
    }
}

/// Runs `cfg` on `b` through the engine's pool executor.
fn stored(b: Benchmark, g: &Output, cfg: &CampaignConfig, sc: &StoreConfig) -> std::io::Result<StoredRun<Campaign>> {
    run_stored(&Injection::new(b.label(), cfg), || build(b, SizeClass::Test), Executor::Pool(g), sc)
}

#[test]
fn sharded_campaign_equals_single_shot_for_any_shard_count() {
    let b = Benchmark::Hotspot;
    let g = golden(b, SizeClass::Test);
    let cfg = CampaignConfig { trials: 60, seed: 9, n_windows: b.n_windows(), ..Default::default() };
    let single = run_campaign(b.label(), || build(b, SizeClass::Test), &g, &cfg);

    for shards in [1usize, 4, 7] {
        let mut sc = StoreConfig::new(tmp(&format!("shards-{shards}")));
        sc.shards = shards;
        let stored = stored(b, &g, &cfg, &sc)
            .unwrap()
            .expect_complete();
        assert_same_records(&single.records, &stored.records);
    }
}

#[test]
fn interrupted_campaign_resumes_to_the_uninterrupted_aggregate() {
    let b = Benchmark::Nw;
    let g = golden(b, SizeClass::Test);
    let cfg = CampaignConfig { trials: 90, seed: 13, n_windows: b.n_windows(), ..Default::default() };
    let uninterrupted = run_campaign(b.label(), || build(b, SizeClass::Test), &g, &cfg);

    // Kill the campaign every 25 trials (budget exhaustion takes the same
    // pause path a supervisor shutdown does: journal flushed, cursors
    // checkpointed) and resume until it completes.
    let mut sc = StoreConfig::new(tmp("interrupt"));
    sc.shards = 4;
    sc.checkpoint_every = 8;
    sc.budget = Some(25);
    let mut rounds = 0;
    let stored = loop {
        rounds += 1;
        assert!(rounds < 20, "campaign never completed");
        match stored(b, &g, &cfg, &sc).unwrap() {
            StoredRun::Complete(c) => break c,
            StoredRun::Paused { completed, total } => {
                assert!(completed < total as u64);
                sc.resume = true;
            }
        }
    };
    assert!(rounds >= 4, "90 trials at 25/invocation should pause at least 3 times, took {rounds} rounds");
    assert_same_records(&uninterrupted.records, &stored.records);
}

#[test]
fn resuming_a_complete_campaign_reruns_nothing() {
    let b = Benchmark::Clamr;
    let g = golden(b, SizeClass::Test);
    let cfg = CampaignConfig { trials: 40, seed: 21, n_windows: b.n_windows(), ..Default::default() };
    let dir = tmp("complete-resume");

    let mut sc = StoreConfig::new(dir.clone());
    sc.shards = 5;
    let first = stored(b, &g, &cfg, &sc)
        .unwrap()
        .expect_complete();

    let scan = Journal::scan(&dir).unwrap();
    let done = scan.entries.iter().filter(|e| matches!(e, JournalEntry::ShardDone { .. })).count();
    assert_eq!(done, 5, "every shard seals with a ShardDone");

    // A resume of a finished store must replay from the journal without
    // executing (or re-journaling) a single trial.
    sc.resume = true;
    let second = stored(b, &g, &cfg, &sc)
        .unwrap()
        .expect_complete();
    assert_same_records(&first.records, &second.records);
    let rescan = Journal::scan(&dir).unwrap();
    assert_eq!(rescan.entries.len(), scan.entries.len(), "no new entries on a no-op resume");
}

// --- SIGKILL + resume round trip for the process-isolated backend ----------
//
// Three processes cooperate, all of them this test binary:
//  * the outer test spawns a child running `kill_resume_child_entry`
//    (selected by env var), waits for the journal to accumulate trials and
//    SIGKILLs it mid-campaign;
//  * the child supervises an isolated campaign whose warden re-execs the
//    binary a third time as `kill_resume_worker_entry` (selected by the
//    warden socket env), with a per-trial sleep so the kill reliably lands
//    mid-run;
//  * the outer test then resumes the campaign in-process (isolated again)
//    and pins the aggregate against an uninterrupted in-memory run.

const KR_BENCH: Benchmark = Benchmark::Hotspot;
const KR_TRIALS: usize = 80;
const KR_SEED: u64 = 77;
const KR_SLEEP_MS: u64 = 4;
const KR_DIR_ENV: &str = "PHI_TEST_KILL_RESUME_DIR";

fn kr_cfg() -> CampaignConfig {
    CampaignConfig { trials: KR_TRIALS, seed: KR_SEED, workers: 2, n_windows: KR_BENCH.n_windows(), ..Default::default() }
}

fn kr_iso() -> IsolateConfig {
    let mut iso = IsolateConfig::new(
        std::env::current_exe().expect("test binary path"),
        vec!["kill_resume_worker_entry".into(), "--exact".into(), "--test-threads=1".into(), "--nocapture".into()],
        String::new(),
    );
    iso.backoff_base = std::time::Duration::from_millis(1);
    iso.backoff_cap = std::time::Duration::from_millis(10);
    iso
}

/// Runs the kill-resume campaign through the engine's warden executor.
fn kr_isolated(sc: &StoreConfig) -> std::io::Result<StoredRun<Campaign>> {
    let cfg = kr_cfg();
    run_stored(&Injection::new(KR_BENCH.label(), &cfg), || build(KR_BENCH, SizeClass::Test), Executor::Warden(&kr_iso()), sc)
}

/// Warden worker: serves paced kernel trials (no-op in an ordinary run).
#[test]
fn kill_resume_worker_entry() {
    if !phi_reliability::carolfi::warden::worker_active() {
        return;
    }
    let cfg = kr_cfg();
    let g = golden(KR_BENCH, SizeClass::Test);
    let total_steps = build(KR_BENCH, SizeClass::Test).total_steps().max(1);
    let result = phi_reliability::carolfi::warden::serve(|trial, _attempt| {
        // Pace the campaign so the outer test's SIGKILL lands mid-run.
        std::thread::sleep(std::time::Duration::from_millis(KR_SLEEP_MS));
        let mut target = build(KR_BENCH, SizeClass::Test);
        execute_trial(KR_BENCH.label(), &mut target, &g, &cfg, total_steps, trial).0
    });
    std::process::exit(if result.is_ok() { 0 } else { 1 });
}

/// Victim of the SIGKILL: supervises the isolated campaign (no-op unless
/// spawned by the outer test with the journal dir in the environment).
#[test]
fn kill_resume_child_entry() {
    let Some(dir) = std::env::var_os(KR_DIR_ENV) else { return };
    let mut sc = StoreConfig::new(PathBuf::from(dir));
    sc.shards = 2;
    sc.checkpoint_every = 4;
    kr_isolated(&sc).expect("child campaign");
}

#[test]
fn sigkilled_isolated_campaign_resumes_bit_identically() {
    let uninterrupted = {
        let g = golden(KR_BENCH, SizeClass::Test);
        run_campaign(KR_BENCH.label(), || build(KR_BENCH, SizeClass::Test), &g, &kr_cfg())
    };
    let dir = tmp("kill-resume-isolated");

    let mut child = std::process::Command::new(std::env::current_exe().expect("test binary path"))
        .args(["kill_resume_child_entry", "--exact", "--test-threads=1", "--nocapture"])
        .env(KR_DIR_ENV, &dir)
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("spawn child campaign");

    // Wait until the journal holds a meaningful prefix, then SIGKILL the
    // supervisor mid-campaign. The per-trial pacing keeps the campaign far
    // from done at that point.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let journaled = loop {
        assert!(std::time::Instant::now() < deadline, "child campaign never journaled any trials");
        if let Ok(status) = child.try_wait() {
            assert!(status.is_none(), "child campaign finished before it could be killed; increase KR_TRIALS");
        }
        let trials = Journal::scan(&dir)
            .map(|s| s.entries.iter().filter(|e| matches!(e, JournalEntry::Trial { .. })).count())
            .unwrap_or(0);
        if trials >= 8 {
            break trials;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    };
    child.kill().expect("SIGKILL child");
    let _ = child.wait();
    assert!(journaled < KR_TRIALS, "kill landed after the campaign finished");

    // Resume the same journal, isolated again, from this process. The
    // aggregate must be bit-identical to the uninterrupted in-memory run —
    // the SIGKILL cost at most the in-flight (unjournaled) trials.
    let mut sc = StoreConfig::new(dir);
    sc.shards = 2;
    sc.checkpoint_every = 4;
    sc.resume = true;
    let resumed = kr_isolated(&sc)
        .expect("resume after SIGKILL")
        .expect_complete();
    assert_eq!(uninterrupted.records.len(), resumed.records.len());
    for (x, y) in uninterrupted.records.iter().zip(&resumed.records) {
        assert_eq!(
            serde_json::to_string(x).unwrap(),
            serde_json::to_string(y).unwrap(),
            "trial {} differs after kill+resume",
            x.trial
        );
    }
}

#[test]
fn opening_an_existing_store_without_resume_is_refused() {
    let b = Benchmark::Lud;
    let g = golden(b, SizeClass::Test);
    let cfg = CampaignConfig { trials: 10, seed: 3, n_windows: b.n_windows(), ..Default::default() };
    let mut sc = StoreConfig::new(tmp("no-clobber"));
    sc.shards = 2;
    stored(b, &g, &cfg, &sc).unwrap().expect_complete();

    let err = stored(b, &g, &cfg, &sc).unwrap_err();
    assert!(err.to_string().contains("--resume"), "error should point at --resume: {err}");

    // And a resume under a different campaign identity is refused too —
    // merging two campaigns' records would be silent corruption.
    sc.resume = true;
    let other = CampaignConfig { trials: 10, seed: 4, n_windows: b.n_windows(), ..Default::default() };
    let err = stored(b, &g, &other, &sc).unwrap_err();
    assert!(err.to_string().contains("different campaign"), "{err}");
}
