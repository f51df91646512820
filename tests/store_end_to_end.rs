//! End-to-end tests for the durable campaign store (phi-store +
//! orchestrators): a sharded, journal-backed campaign must aggregate
//! bit-identically to the plain single-shot run, no matter how many shards
//! it uses or how often it is killed and resumed along the way.

use phi_reliability::beamsim::campaign::engine_for;
use phi_reliability::beamsim::{run_beam_campaign, BeamConfig, Strikes};
use phi_reliability::carolfi::campaign::execute_trial;
use phi_reliability::carolfi::record::TrialRecord;
use phi_reliability::carolfi::Output;
use phi_reliability::carolfi::{
    open_planned, open_stored, run_campaign, run_stored, AllocationPlanner, Campaign, CampaignConfig, Executor, FaultTarget,
    Injection, IsolateConfig, StoreConfig, StoredRun, TrialKind,
};
use phi_reliability::kernels::{build, golden, Benchmark, SizeClass};
use phi_reliability::sdc_analysis::planner::WilsonPlanner;
use phi_reliability::store::{Journal, JournalEntry};
use bench::spec::journal_records;
use bench::{spec_result, validate_spec, CampaignKind, CampaignSpec, ParsedSpec, PlanSpec, SpecRunner};
use serve::{Runner, SliceRun};
use std::path::{Path, PathBuf};

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

// --- Open once, advance many times -----------------------------------------

/// Every file of a journal directory with its bytes, in name order.
fn segments(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()).collect();
    paths.sort();
    paths.into_iter().map(|p| (p.file_name().unwrap().to_string_lossy().into_owned(), std::fs::read(&p).unwrap())).collect()
}

fn record_lines(records: &[TrialRecord]) -> Vec<String> {
    records.iter().map(|r| serde_json::to_string(r).unwrap()).collect()
}

/// Budgets of the five advance steps; the last one finishes the campaign.
const STEPS: [usize; 5] = [7, 13, 1, 9, 64];

/// Advances one open campaign of `kind` on `b` in [`STEPS`], and runs the
/// same budgets with a reopen from disk before every step, checking after
/// each step that both journals hold the same bytes. Returns the records
/// of both completed campaigns.
fn advance_both_ways<K: TrialKind>(
    kind: &K,
    b: Benchmark,
    g: &Output,
    name: &str,
    records: impl Fn(K::Campaign) -> Vec<TrialRecord>,
) -> (Vec<TrialRecord>, Vec<TrialRecord>) {
    let config = |dir: &str| {
        let mut sc = StoreConfig::new(tmp(&format!("{name}-{dir}")));
        sc.shards = 3;
        sc.checkpoint_every = 4;
        sc
    };
    let (kept_cfg, mut reopened_cfg) = (config("kept"), config("reopened"));
    let factory = || build(b, SizeClass::Test);
    let mut kept = open_stored(kind, factory, Executor::Pool(g), &kept_cfg).unwrap();
    let (mut kept_done, mut reopened_done) = (None, None);
    for (step, budget) in STEPS.into_iter().enumerate() {
        let last = step + 1 == STEPS.len();
        match kept.advance(kind, Executor::Pool(g), Some(budget)).unwrap() {
            StoredRun::Complete(c) if last => kept_done = Some(records(c)),
            StoredRun::Paused { .. } if !last => {}
            _ => panic!("{name}: step {step} of the open campaign ended out of turn"),
        }
        reopened_cfg.resume = step > 0;
        reopened_cfg.budget = Some(budget);
        match run_stored(kind, factory, Executor::Pool(g), &reopened_cfg).unwrap() {
            StoredRun::Complete(c) if last => reopened_done = Some(records(c)),
            StoredRun::Paused { .. } if !last => {}
            _ => panic!("{name}: step {step} of the reopened campaign ended out of turn"),
        }
        assert!(
            segments(&kept_cfg.dir) == segments(&reopened_cfg.dir),
            "{name}: journals differ after step {step}"
        );
    }
    (kept_done.unwrap(), reopened_done.unwrap())
}

#[test]
fn an_open_inject_campaign_advances_exactly_like_reopened_ones() {
    let b = Benchmark::Hotspot;
    let g = golden(b, SizeClass::Test);
    let cfg = CampaignConfig { trials: 40, seed: 31, workers: 1, n_windows: b.n_windows(), ..Default::default() };
    let (kept, reopened) = advance_both_ways(&Injection::new(b.label(), &cfg), b, &g, "advance-inject", |c| c.records);
    let reference = record_lines(&run_campaign(b.label(), || build(b, SizeClass::Test), &g, &cfg).records);
    assert_eq!(record_lines(&kept), reference);
    assert_eq!(record_lines(&reopened), reference);
}

#[test]
fn an_open_beam_campaign_advances_exactly_like_reopened_ones() {
    let b = Benchmark::Dgemm;
    let g = golden(b, SizeClass::Test);
    let cfg = BeamConfig { strikes: 40, seed: 31, workers: 1, n_windows: b.n_windows(), engine: engine_for(b.label()), ..Default::default() };
    let (kept, reopened) = advance_both_ways(&Strikes::new(b.label(), &cfg), b, &g, "advance-beam", |c| c.records);
    let reference = record_lines(&run_beam_campaign(b.label(), || build(b, SizeClass::Test), &g, &cfg).records);
    assert_eq!(record_lines(&kept), reference);
    assert_eq!(record_lines(&reopened), reference);
}

#[test]
fn an_adaptive_campaign_advanced_in_slices_writes_its_one_shot_journal() {
    let b = Benchmark::Nw;
    let g = golden(b, SizeClass::Test);
    let cfg = CampaignConfig { trials: 400, seed: 91, n_windows: b.n_windows(), ..Default::default() };
    let planner = |total_steps| -> Box<dyn AllocationPlanner> { Box::new(WilsonPlanner::for_injection(&cfg, total_steps, 0.5, 8)) };
    let factory = || build(b, SizeClass::Test);

    let one_shot = StoreConfig::new(tmp("adaptive-one-shot"));
    let reference = open_planned(&Injection::new(b.label(), &cfg), factory, Executor::Pool(&g), &one_shot, planner)
        .unwrap()
        .advance(&Injection::new(b.label(), &cfg), Executor::Pool(&g), None)
        .unwrap()
        .expect_complete();

    // A slice budget below the batch size: every slice pauses right after
    // the batch it started.
    let sliced = StoreConfig::new(tmp("adaptive-sliced"));
    let kind = Injection::new(b.label(), &cfg);
    let mut open = open_planned(&kind, factory, Executor::Pool(&g), &sliced, planner).unwrap();
    let mut slices = 0;
    let campaign = loop {
        slices += 1;
        match open.advance(&kind, Executor::Pool(&g), Some(5)).unwrap() {
            StoredRun::Complete(c) => break c,
            StoredRun::Paused { .. } => assert!(slices < 400, "adaptive campaign never completed"),
        }
    };
    assert!(slices > 2, "expected several slices, took {slices}");
    assert_eq!(record_lines(&campaign.records), record_lines(&reference.records));
    assert!(segments(&sliced.dir) == segments(&one_shot.dir), "sliced adaptive journal differs from the one-shot run");
}

// --- The daemon's result documents -----------------------------------------
//
// A served campaign's last slice renders its result document from the
// digest the engine kept of the payloads it journaled and read back;
// `spec_result` renders it from the records alone, serializing them again.
// The two must agree however the campaign was sliced, and whether or not a
// slice reopened it from disk.

/// Serves `spec` through the daemon's runner in slices of `slice` trials
/// until it completes, ending its session after slice `retire_after` (when
/// given) so that the next slice reopens the journal from disk. Returns the
/// result document.
fn serve_in_slices(spec: &CampaignSpec, journal: &Path, slice: usize, retire_after: Option<usize>) -> String {
    let raw = serde_json::to_string(spec).unwrap();
    for slices in 1..1000 {
        match SpecRunner.run_slice(&raw, journal, slice).unwrap() {
            SliceRun::Complete { result } => {
                assert!(retire_after.is_none_or(|n| slices > n), "{}: completed before the retire", journal.display());
                return result;
            }
            SliceRun::Paused { .. } if retire_after == Some(slices) => SpecRunner.retire(journal),
            SliceRun::Paused { .. } => {}
        }
    }
    panic!("{}: campaign never completed", journal.display())
}

#[test]
fn served_result_documents_equal_the_reference_render_of_their_journals() {
    let spec = |kind, b: Benchmark, trials, shards, plan: Option<PlanSpec>| CampaignSpec {
        kind,
        version: if plan.is_some() { 2 } else { 1 },
        benchmark: b.label().into(),
        trials,
        seed: 37,
        size: "test".into(),
        shards,
        isolate: false,
        models: Vec::new(),
        tolerance: 0.0,
        plan,
    };
    let planner = PlanSpec { ci: 0.5, batch: 8, method: Default::default() };
    let specs = [
        ("inject", spec(CampaignKind::Inject, Benchmark::Dgemm, 90, 4, None)),
        ("beam", spec(CampaignKind::Beam, Benchmark::Clamr, 150, 3, None)),
        ("planner", spec(CampaignKind::Inject, Benchmark::Nw, 400, 1, Some(planner))),
    ];
    for (name, spec) in specs {
        let p = validate_spec(spec.clone()).unwrap();
        for retire in [false, true] {
            let journal = tmp(&format!("served-{name}-{retire}"));
            let result = serve_in_slices(&spec, &journal, 7, retire.then_some(3));
            let (_, records) = journal_records(&journal).unwrap();
            let reference = spec_result(spec.kind, p.result_version(), &spec.benchmark, spec.seed, spec.tolerance, &records);
            assert_eq!(result, reference, "{name} campaign, retired mid-campaign: {retire}");
        }
    }
}

// --- A planner campaign on the warden executor -----------------------------
//
// The warden re-execs this test binary as `planner_worker_entry`, which
// serves trials through `bench`'s worker entry: the campaign that entry
// rebuilds from the spec the warden hands it.

/// The planner campaign of the warden pin, validated as a spec that asks
/// for the planner and for isolation together.
fn planner_spec() -> ParsedSpec {
    let spec = CampaignSpec {
        kind: CampaignKind::Inject,
        version: 2,
        benchmark: Benchmark::Nw.label().into(),
        trials: 400,
        seed: 91,
        size: "test".into(),
        shards: 1,
        isolate: true,
        models: Vec::new(),
        tolerance: 0.0,
        plan: Some(PlanSpec { ci: 0.5, batch: 8, method: Default::default() }),
    };
    validate_spec(spec).expect("a planner campaign runs isolated")
}

/// Warden worker: serves the planner campaign's trials (no-op in an
/// ordinary run).
#[test]
fn planner_worker_entry() {
    bench::maybe_run_worker();
}

#[test]
fn a_planner_campaign_journals_the_same_bytes_on_the_warden_as_on_the_pool() {
    let p = planner_spec();
    let (b, cfg, plan) = (p.benchmark, p.campaign_config(), p.spec.plan.clone().unwrap());
    let g = golden(b, p.size);
    let mut iso = p.isolate_config().unwrap();
    iso.args = vec!["planner_worker_entry".into(), "--exact".into(), "--test-threads=1".into(), "--nocapture".into()];
    let kind = Injection::new(b.label(), &cfg);
    let journal = |name: &str, executor: Executor<'_>| {
        let sc = StoreConfig::new(tmp(name));
        let planner = |total_steps| -> Box<dyn AllocationPlanner> {
            Box::new(WilsonPlanner::for_injection(&cfg, total_steps, plan.ci, plan.batch))
        };
        let mut open = open_planned(&kind, || build(b, p.size), executor, &sc, planner).unwrap();
        let campaign = open.advance(&kind, executor, None).unwrap().expect_complete();
        assert!(campaign.records.len() < cfg.trials, "{name}: the planner should stop short of its horizon");
        segments(&sc.dir)
    };
    let pooled = journal("planner-pool", Executor::Pool(&g));
    assert!(pooled == journal("planner-warden", Executor::Warden(&iso)), "the warden journaled other bytes than the pool");
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
    let result = phi_reliability::carolfi::warden::serve(|trial| {
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
