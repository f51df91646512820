//! Byte-identity of the campaign service against direct runs: a spec
//! submitted to `phi-serve` (and therefore sliced, paused and resumed at
//! slice boundaries) must produce exactly the journal records and exactly
//! the result document of the same spec executed directly — the tentpole
//! invariant of the daemon.

use bench::spec::journal_records;
use bench::{
    render_result, run_spec, spec_result, validate_spec, CampaignKind, CampaignSpec, PlanSpec, SpecRun, SpecRunner,
};
use serve::proto::{roundtrip, ClientRequest, ServerReply};
use serve::{EventBus, Runner, ServeConfig, Server, SliceRun};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn test_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/test-serve-bench").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

fn spec(kind: CampaignKind, benchmark: &str, trials: usize, seed: u64) -> CampaignSpec {
    CampaignSpec {
        kind,
        version: 1,
        benchmark: benchmark.into(),
        trials,
        seed,
        size: "test".into(),
        shards: 3,
        isolate: false,
        models: Vec::new(),
        tolerance: 0.0,
        plan: None,
    }
}

/// Runs a spec directly (no daemon, no slicing) and renders its result.
fn direct_run(spec: &CampaignSpec, dir: &Path) -> String {
    let parsed = validate_spec(spec.clone()).expect("valid spec");
    let version = parsed.result_version();
    let records = match run_spec(&parsed, dir, false, None).expect("direct run") {
        SpecRun::Inject(records) => records,
        SpecRun::Beam(campaign) => campaign.records,
        SpecRun::Paused { .. } => panic!("unbudgeted direct run paused"),
    };
    spec_result(spec.kind, version, &spec.benchmark, spec.seed, spec.tolerance, &records)
}

fn start_server(dir: &Path, max_active: usize, slice: usize) -> Server {
    let mut cfg = ServeConfig::new(dir.join("sock"), dir.join("root"));
    cfg.max_active = max_active;
    cfg.slice = slice;
    Server::start(cfg, Arc::new(SpecRunner), Arc::new(EventBus::new())).expect("start server")
}

fn submit(server: &Server, spec: &CampaignSpec) -> String {
    let raw = serde_json::to_string(spec).expect("serialize spec");
    match roundtrip(server.socket(), &ClientRequest::Submit { spec: raw }).expect("submit rpc") {
        ServerReply::Submitted { id } => id,
        other => panic!("unexpected submit reply: {other:?}"),
    }
}

fn fetch_result(server: &Server, id: &str) -> String {
    match roundtrip(server.socket(), &ClientRequest::Result { id: id.to_string(), wait_ms: 300_000 })
        .expect("result rpc")
    {
        ServerReply::Result { result, .. } => result,
        other => panic!("unexpected result reply: {other:?}"),
    }
}

/// Serializes journal records to the canonical JSONL byte stream (what
/// `phi-cli records` prints), for whole-campaign byte comparison.
fn record_bytes(dir: &Path) -> (String, String) {
    let (meta, records) = journal_records(dir).expect("complete journal");
    let meta = serde_json::to_string(&meta).expect("meta serializes");
    let mut lines = String::new();
    for r in &records {
        lines.push_str(&serde_json::to_string(r).expect("record serializes"));
        lines.push('\n');
    }
    (meta, lines)
}

/// An injection campaign submitted to the daemon — and therefore executed
/// as several budgeted slices with journal resumes in between — yields
/// byte-identical journal records and an identical result document to the
/// same spec run directly in one go.
#[test]
fn daemon_campaign_is_byte_identical_to_a_direct_run() {
    let dir = test_dir("byte-identity");
    let spec = spec(CampaignKind::Inject, "nw", 24, 91);

    let direct_dir = dir.join("direct");
    let direct_result = direct_run(&spec, &direct_dir);

    // Slice of 7 forces ceil(24/7) = 4 scheduling turns with three
    // pause/resume boundaries — the adversarial case for identity.
    let server = start_server(&dir, 2, 7);
    let id = submit(&server, &spec);
    let daemon_result = fetch_result(&server, &id);
    assert_eq!(daemon_result, direct_result, "daemon result document diverged from the direct run");

    let daemon_journal = server.root().join(&id).join("journal");
    let (direct_meta, direct_records) = record_bytes(&direct_dir);
    let (daemon_meta, daemon_records) = record_bytes(&daemon_journal);
    assert_eq!(daemon_meta, direct_meta, "journal metadata diverged");
    assert_eq!(daemon_records, direct_records, "journal trial records diverged");

    // The offline renderer agrees with both, from either journal.
    assert_eq!(render_result(&direct_dir, 0.0).expect("render direct"), direct_result);
    assert_eq!(render_result(&daemon_journal, 0.0).expect("render daemon"), direct_result);

    // The persisted result.json is the same bytes clients received.
    let persisted = std::fs::read_to_string(server.root().join(&id).join("result.json")).expect("result.json");
    assert_eq!(persisted, daemon_result);
    server.stop();
}

/// The daemon keeps a campaign open between slices only while its journal
/// is exactly what the open campaign wrote. A fragment appended to the
/// newest segment behind its back makes the next slice reopen from disk,
/// whose scan drops the torn tail; a session that trusted itself would
/// append after the fragment, and the journal would no longer read as
/// complete, so the journal is checked and not only the result document.
#[test]
fn a_journal_changed_under_an_open_campaign_is_reopened_from_disk() {
    let dir = test_dir("stale-session");
    let spec = spec(CampaignKind::Inject, "nw", 24, 91);
    let direct_dir = dir.join("direct");
    let direct_result = direct_run(&spec, &direct_dir);

    let raw = serde_json::to_string(&spec).expect("serialize spec");
    let journal = dir.join("daemon");
    assert_eq!(SpecRunner.run_slice(&raw, &journal, 7).expect("first slice"), SliceRun::Paused { completed: 7 });
    let mut newest = std::fs::OpenOptions::new().append(true).open(journal.join("seg-00000.jsonl")).expect("segment");
    newest.write_all(b"0badc0de {\"Trial\":{\"shard\":0,").expect("append a torn line");
    drop(newest);

    let daemon_result = loop {
        match SpecRunner.run_slice(&raw, &journal, 7).expect("slice") {
            SliceRun::Paused { .. } => continue,
            SliceRun::Complete { result } => break result,
        }
    };
    assert_eq!(daemon_result, direct_result, "result document diverged from the direct run");
    assert_eq!(render_result(&journal, 0.0).expect("render daemon journal"), direct_result);
    assert_eq!(record_bytes(&journal), record_bytes(&direct_dir), "journal records diverged");
}

/// Two campaigns of different kinds submitted concurrently both complete,
/// and each matches its own direct-run result — fair-share slicing does
/// not bleed state between campaigns.
#[test]
fn concurrent_inject_and_beam_campaigns_stay_independent() {
    let dir = test_dir("concurrent");
    let inject = spec(CampaignKind::Inject, "hotspot", 16, 77);
    let beam = spec(CampaignKind::Beam, "dgemm", 16, 77);

    let inject_direct = direct_run(&inject, &dir.join("direct-inject"));
    let beam_direct = direct_run(&beam, &dir.join("direct-beam"));

    let server = start_server(&dir, 2, 5);
    let inject_id = submit(&server, &inject);
    let beam_id = submit(&server, &beam);
    assert_ne!(inject_id, beam_id);

    assert_eq!(fetch_result(&server, &inject_id), inject_direct);
    assert_eq!(fetch_result(&server, &beam_id), beam_direct);
    server.stop();
}

/// A fig5-equivalent model-subset campaign round-trips through the daemon
/// identically too (subsets change the trial stream, so identity here
/// pins the spec → config mapping, not just the default path).
#[test]
fn model_subset_campaigns_match_their_direct_run() {
    let dir = test_dir("model-subset");
    let mut subset = spec(CampaignKind::Inject, "lud", 12, 5);
    subset.models = vec!["single".into(), "zero".into()];
    subset.tolerance = 1e-6;

    let direct_result = direct_run(&subset, &dir.join("direct"));
    let server = start_server(&dir, 1, 5);
    let id = submit(&server, &subset);
    assert_eq!(fetch_result(&server, &id), direct_result);
    server.stop();
}

/// An adaptive (version-2, `plan`-bearing) campaign submitted to the
/// daemon — executed as budgeted slices, each resume replaying the
/// journaled planner decisions — produces the byte-identical journal and
/// result document of the same spec run adaptively in one go.
#[test]
fn adaptive_daemon_campaign_is_byte_identical_to_a_direct_run() {
    let dir = test_dir("adaptive-identity");
    let mut adaptive = spec(CampaignKind::Inject, "nw", 400, 91);
    adaptive.version = 2;
    adaptive.shards = 1;
    // Loose target + small batch: converges quickly at test size while
    // still exercising several allocation decisions.
    adaptive.plan = Some(PlanSpec { ci: 0.5, batch: 8, method: Default::default() });

    let direct_dir = dir.join("direct");
    let direct_result = direct_run(&adaptive, &direct_dir);

    // A slice budget below the batch size forces pauses between (and
    // inside) decisions, so every resume goes through decision replay.
    let server = start_server(&dir, 1, 12);
    let id = submit(&server, &adaptive);
    let daemon_result = fetch_result(&server, &id);
    assert_eq!(daemon_result, direct_result, "adaptive daemon result diverged from the direct adaptive run");
    assert!(daemon_result.contains("\"spec_version\":2"), "{daemon_result}");

    let daemon_journal = server.root().join(&id).join("journal");
    let (direct_meta, direct_records) = record_bytes(&direct_dir);
    let (daemon_meta, daemon_records) = record_bytes(&daemon_journal);
    assert_eq!(daemon_meta, direct_meta, "adaptive journal metadata diverged");
    assert_eq!(daemon_records, direct_records, "adaptive journal trial records diverged");

    // Early stopping actually happened: the executed count is visible in
    // the rendered document and sits below the 400-trial horizon.
    let executed = journal_records(&daemon_journal).expect("complete adaptive journal").1.len();
    assert!(executed < 400, "expected early stop, executed {executed}/400");

    // The offline renderer agrees with both journals.
    assert_eq!(render_result(&direct_dir, 0.0).expect("render direct"), direct_result);
    assert_eq!(render_result(&daemon_journal, 0.0).expect("render daemon"), direct_result);
    server.stop();
}

/// Version admission at the daemon boundary: a version the server does not
/// support is rejected with a reason, while v1 (version-absent) specs are
/// admitted unchanged.
#[test]
fn unsupported_spec_versions_are_rejected_at_submission() {
    let dir = test_dir("version-admission");
    let server = start_server(&dir, 1, 50);
    let raw = "{\"kind\":\"inject\",\"version\":3,\"benchmark\":\"nw\",\"trials\":8,\"seed\":1,\
               \"size\":\"test\",\"shards\":1,\"isolate\":false,\"models\":[],\"tolerance\":0.0}";
    match roundtrip(server.socket(), &ClientRequest::Submit { spec: raw.to_string() }).expect("submit rpc") {
        ServerReply::Rejected { reason } => {
            assert_eq!(reason, "invalid spec: unsupported spec version 3 (supported: 1, 2; absent = 1)");
        }
        other => panic!("expected rejection, got {other:?}"),
    }
    // The same document minus the version key is a valid v1 spec.
    let v1 = spec(CampaignKind::Inject, "nw", 8, 1);
    let id = submit(&server, &v1);
    let result = fetch_result(&server, &id);
    assert!(result.contains("\"spec_version\":1"), "{result}");
    server.stop();
}
