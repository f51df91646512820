//! End-to-end tests of the campaign service over a real Unix socket, with
//! a synthetic [`Runner`] so scheduling, admission, persistence and
//! streaming are exercised without building kernels: submit, disconnect,
//! reconnect by id, fair-share interleaving, cancel, queue-full rejection,
//! and resume of interrupted campaigns across a daemon restart.

use serde::{Deserialize, Serialize};
use serve::proto::{roundtrip, subscribe, ClientRequest, ServerReply};
use serve::{EventBus, Registry, Runner, ServeConfig, Server, SliceRun, SpecInfo};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[derive(Serialize, Deserialize)]
struct TestSpec {
    tag: String,
    total: u64,
    delay_ms: u64,
}

fn spec(tag: &str, total: u64, delay_ms: u64) -> String {
    serde_json::to_string(&TestSpec { tag: tag.into(), total, delay_ms }).unwrap()
}

/// Synthetic runner: progress is a `done` counter file inside the journal
/// directory (durable, so daemon restarts resume), each slice sleeps
/// `delay_ms` to model trial work, and every slice is logged as
/// `(tag, done_before)` for interleaving assertions. Retired journals are
/// logged too.
#[derive(Default)]
struct TestRunner {
    log: Mutex<Vec<(String, u64)>>,
    units: AtomicU64,
    retired: Mutex<Vec<PathBuf>>,
}

impl TestRunner {
    fn tags(&self) -> Vec<String> {
        self.log.lock().unwrap().iter().map(|(t, _)| t.clone()).collect()
    }
}

impl Runner for TestRunner {
    fn validate(&self, raw: &str) -> Result<SpecInfo, String> {
        let s: TestSpec = serde_json::from_str(raw).map_err(|e| e.to_string())?;
        if s.total == 0 {
            return Err("total must be positive".into());
        }
        Ok(SpecInfo { kind: "test".into(), benchmark: s.tag, total: s.total })
    }

    fn run_slice(&self, raw: &str, journal: &Path, budget: usize) -> io::Result<SliceRun> {
        let s: TestSpec = serde_json::from_str(raw).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        std::fs::create_dir_all(journal)?;
        let done_file = journal.join("done");
        let done: u64 =
            std::fs::read_to_string(&done_file).ok().and_then(|r| r.trim().parse().ok()).unwrap_or(0);
        self.log.lock().unwrap().push((s.tag.clone(), done));
        std::thread::sleep(Duration::from_millis(s.delay_ms));
        let ran = (budget as u64).min(s.total - done);
        self.units.fetch_add(ran, Ordering::SeqCst);
        let now = done + ran;
        std::fs::write(&done_file, now.to_string())?;
        if now >= s.total {
            Ok(SliceRun::Complete { result: format!("{{\"tag\":{:?},\"ran\":{now}}}", s.tag) })
        } else {
            Ok(SliceRun::Paused { completed: now })
        }
    }

    fn retire(&self, journal: &Path) {
        self.retired.lock().unwrap().push(journal.to_path_buf());
    }
}

fn test_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/test-serve").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

fn start_server(dir: &Path, runner: Arc<TestRunner>, max_active: usize, slice: usize) -> Server {
    let mut cfg = ServeConfig::new(dir.join("sock"), dir.join("root"));
    cfg.max_active = max_active;
    cfg.slice = slice;
    Server::start(cfg, runner, Arc::new(EventBus::new())).expect("start server")
}

fn wait_for<F: Fn() -> bool>(what: &str, cond: F) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn submit(server: &Server, raw: String) -> String {
    match roundtrip(server.socket(), &ClientRequest::Submit { spec: raw }).expect("submit rpc") {
        ServerReply::Submitted { id } => id,
        other => panic!("unexpected submit reply: {other:?}"),
    }
}

// ---------------------------------------------------------------- registry

/// The fair-share ring is strict round-robin: with two active campaigns
/// each gets every other slice, a third waits in the queue until a ring
/// slot frees, and completion promotes the next waiter.
#[test]
fn registry_ring_is_round_robin_and_promotes_on_completion() {
    let dir = test_dir("registry-ring");
    let runner = TestRunner::default();
    let reg = Registry::open(&dir.join("root"), 2, 64, &runner).expect("open");
    for tag in ["a", "b", "c"] {
        let raw = spec(tag, 30, 0);
        let info = runner.validate(&raw).unwrap();
        reg.submit(raw, info).expect("submit");
    }
    let mut turns = Vec::new();
    // Drive the scheduler loop by hand: a & b alternate while c waits.
    for completed in [10u64, 10, 20, 20] {
        let job = reg.next_job(&runner).expect("job");
        turns.push(job.id.clone());
        reg.slice_done(&job.id, Ok(SliceRun::Paused { completed }), &runner);
    }
    assert_eq!(turns, ["c0001", "c0002", "c0001", "c0002"]);

    // a completes; c is promoted into the freed slot and alternates with b.
    let job = reg.next_job(&runner).expect("job");
    assert_eq!(job.id, "c0001");
    reg.slice_done(&job.id, Ok(SliceRun::Complete { result: "{}".into() }), &runner);
    let mut tail = Vec::new();
    for _ in 0..4 {
        let job = reg.next_job(&runner).expect("job");
        tail.push(job.id.clone());
        reg.slice_done(&job.id, Ok(SliceRun::Paused { completed: 1 }), &runner);
    }
    assert_eq!(tail, ["c0002", "c0003", "c0002", "c0003"]);
    let done = reg.status("c0001").expect("status");
    assert_eq!((done.state.as_str(), done.completed), ("done", 30));
}

/// A campaign cancelled at a slice boundary, or while waiting in the ring,
/// is retired before any client can see it `cancelled`; a finished one is
/// not.
#[test]
fn campaigns_cancelled_in_the_ring_are_retired_before_they_read_cancelled() {
    let dir = test_dir("registry-retire");
    let runner = TestRunner::default();
    let reg = Registry::open(&dir.join("root"), 2, 64, &runner).expect("open");
    for tag in ["a", "b", "c"] {
        let raw = spec(tag, 30, 0);
        let info = runner.validate(&raw).unwrap();
        reg.submit(raw, info).expect("submit");
    }
    let retired = || runner.retired.lock().unwrap().clone();

    // a is cancelled while its slice runs: retired at the slice boundary.
    let job = reg.next_job(&runner).expect("job");
    assert_eq!(job.id, "c0001");
    reg.cancel("c0001");
    assert_eq!(reg.status("c0001").unwrap().state, "running");
    assert!(retired().is_empty());
    assert_eq!(reg.slice_done(&job.id, Ok(SliceRun::Paused { completed: 10 }), &runner).label(), "cancelled");
    assert_eq!(retired(), [reg.journal_dir("c0001")]);

    // b is cancelled while it waits in the ring behind c: retired when its
    // turn comes round, which passes to the next campaign, d.
    let job = reg.next_job(&runner).expect("job");
    assert_eq!(job.id, "c0002");
    reg.slice_done(&job.id, Ok(SliceRun::Paused { completed: 10 }), &runner);
    let job = reg.next_job(&runner).expect("job");
    assert_eq!(job.id, "c0003");
    reg.cancel("c0002");
    reg.slice_done(&job.id, Ok(SliceRun::Complete { result: "{}".into() }), &runner);
    assert_eq!(reg.status("c0002").unwrap().state, "running");
    assert_eq!(retired(), [reg.journal_dir("c0001")], "nothing is retired on completion");
    let raw = spec("d", 30, 0);
    let info = runner.validate(&raw).unwrap();
    reg.submit(raw, info).expect("submit");
    assert_eq!(reg.next_job(&runner).expect("job").id, "c0004");
    assert_eq!(reg.status("c0002").unwrap().state, "cancelled");
    assert_eq!(retired(), [reg.journal_dir("c0001"), reg.journal_dir("c0002")]);
    assert_eq!(reg.unfinished(), ["c0004"]);
}

/// A daemon stopping with unfinished campaigns retires every one of them
/// once its scheduler loop has exited.
#[test]
fn stop_retires_every_unfinished_campaign() {
    let dir = test_dir("service-stop-retire");
    let runner = Arc::new(TestRunner::default());
    let server = start_server(&dir, runner.clone(), 1, 10);
    let running = submit(&server, spec("long", 10_000, 20));
    let queued = submit(&server, spec("queued", 10, 0));
    wait_for("campaign to start", || runner.units.load(Ordering::SeqCst) > 0);
    assert!(runner.retired.lock().unwrap().is_empty());
    server.stop();
    let mut retired = runner.retired.lock().unwrap().clone();
    retired.sort();
    let journal = |id: &str| server.registry().journal_dir(id);
    assert_eq!(retired, [journal(&running), journal(&queued)]);
}

/// Admission control: the waiting queue rejects beyond `max_queue` with a
/// reason, and a stopping daemon rejects everything.
#[test]
fn admission_rejects_when_queue_is_full_or_stopping() {
    let dir = test_dir("registry-admission");
    let runner = TestRunner::default();
    // No scheduler thread: nothing drains the queue, so the cap is exact.
    let reg = Registry::open(&dir.join("root"), 1, 2, &runner).expect("open");
    let admit = |tag: &str| {
        let raw = spec(tag, 10, 0);
        let info = runner.validate(&raw).unwrap();
        reg.submit(raw, info)
    };
    assert!(admit("a").is_ok());
    assert!(admit("b").is_ok());
    let reason = admit("c").expect_err("third submit must be rejected");
    assert!(reason.contains("full"), "unexpected rejection reason: {reason}");

    reg.stop();
    let reason = admit("d").expect_err("stopping daemon must reject");
    assert!(reason.contains("shutting down"), "unexpected rejection reason: {reason}");
}

/// A cancel on a queued campaign is immediate and durable (the marker
/// survives a registry re-open).
#[test]
fn cancel_of_a_queued_campaign_is_immediate_and_durable() {
    let dir = test_dir("registry-cancel");
    let root = dir.join("root");
    let runner = TestRunner::default();
    let reg = Registry::open(&root, 1, 64, &runner).expect("open");
    let raw = spec("a", 10, 0);
    let info = runner.validate(&raw).unwrap();
    let id = reg.submit(raw, info).expect("submit");
    let status = reg.cancel(&id).expect("cancel");
    assert_eq!(status.state, "cancelled");

    let reopened = Registry::open(&root, 1, 64, &runner).expect("reopen");
    assert_eq!(reopened.status(&id).expect("status").state, "cancelled");
}

/// A cancel whose durable marker cannot be written still cancels, but says
/// so in the campaign's status instead of failing silently: a restart would
/// otherwise re-queue a campaign its client saw cancelled.
#[test]
fn a_failed_cancel_marker_write_shows_in_the_status() {
    let dir = test_dir("registry-cancel-marker");
    let root = dir.join("root");
    let runner = TestRunner::default();
    let reg = Registry::open(&root, 1, 64, &runner).expect("open");
    let raw = spec("a", 10, 0);
    let info = runner.validate(&raw).unwrap();
    let id = reg.submit(raw, info).expect("submit");
    // A directory where the marker file goes makes its rename fail.
    std::fs::create_dir_all(root.join(&id).join("cancelled")).expect("block the marker path");
    let status = reg.cancel(&id).expect("cancel");
    assert_eq!(status.state, "cancelled");
    assert!(status.error.contains("cancelled marker"), "status must name the failed marker write: {status:?}");
}

// ---------------------------------------------------------------- service

/// The ISSUE's integration scenario: submit over the socket, disconnect
/// (every `roundtrip` is its own connection), reconnect by id mid-run, and
/// receive the completed result on a third connection.
#[test]
fn submit_disconnect_reconnect_by_id_and_fetch_result() {
    let dir = test_dir("service-reconnect");
    let runner = Arc::new(TestRunner::default());
    let server = start_server(&dir, runner.clone(), 2, 10);
    let id = submit(&server, spec("alpha", 40, 15));

    // New connection: the id alone recovers status while the run is live.
    match roundtrip(server.socket(), &ClientRequest::Status { id: id.clone() }).expect("status rpc") {
        ServerReply::Status { status } => {
            assert_eq!(status.id, id);
            assert_eq!(status.benchmark, "alpha");
            assert_eq!(status.total, 40);
            assert!(matches!(status.state.as_str(), "queued" | "running"), "state: {}", status.state);
        }
        other => panic!("unexpected status reply: {other:?}"),
    }

    // Third connection blocks for the result.
    match roundtrip(server.socket(), &ClientRequest::Result { id: id.clone(), wait_ms: 20_000 })
        .expect("result rpc")
    {
        ServerReply::Result { id: rid, result } => {
            assert_eq!(rid, id);
            assert_eq!(result, "{\"tag\":\"alpha\",\"ran\":40}");
        }
        other => panic!("unexpected result reply: {other:?}"),
    }

    // The result is persisted, and List sees the terminal state.
    let persisted = std::fs::read_to_string(server.root().join(&id).join("result.json")).expect("result.json");
    assert_eq!(persisted, "{\"tag\":\"alpha\",\"ran\":40}");
    match roundtrip(server.socket(), &ClientRequest::List).expect("list rpc") {
        ServerReply::List { campaigns } => {
            let c = campaigns.iter().find(|c| c.id == id).expect("listed");
            assert_eq!((c.state.as_str(), c.completed, c.total), ("done", 40, 40));
        }
        other => panic!("unexpected list reply: {other:?}"),
    }
    server.stop();
}

/// Two concurrent campaigns interleave slices (neither runs to completion
/// before the other starts) and subscribers see per-slice progress events.
#[test]
fn concurrent_campaigns_share_fairly_and_stream_progress() {
    let dir = test_dir("service-fair-share");
    let runner = Arc::new(TestRunner::default());
    let server = start_server(&dir, runner.clone(), 2, 10);
    let a = submit(&server, spec("a", 30, 25));
    let b = submit(&server, spec("b", 30, 25));

    // Subscribe to campaign b and collect its stream until Done.
    let mut stream = subscribe(server.socket(), &b, 100).expect("subscribe");
    let mut events: Vec<ServerReply> = Vec::new();
    loop {
        let reply: ServerReply =
            carolfi::warden::read_frame_blocking(&mut stream).expect("stream frame");
        if matches!(reply, ServerReply::Done) {
            break;
        }
        events.push(reply);
    }

    for id in [&a, &b] {
        match roundtrip(server.socket(), &ClientRequest::Result { id: id.clone(), wait_ms: 20_000 })
            .expect("result rpc")
        {
            ServerReply::Result { result, .. } => assert!(result.contains("\"ran\":30"), "result: {result}"),
            other => panic!("unexpected result reply: {other:?}"),
        }
    }

    // Interleaving: b ran before a finished and a ran before b finished —
    // i.e. the slice log is not two contiguous blocks.
    let tags = runner.tags();
    let first_b = tags.iter().position(|t| t == "b").expect("b ran");
    let last_a = tags.iter().rposition(|t| t == "a").expect("a ran");
    let first_a = tags.iter().position(|t| t == "a").expect("a ran");
    let last_b = tags.iter().rposition(|t| t == "b").expect("b ran");
    assert!(first_b < last_a && first_a < last_b, "no fair-share interleaving in slice log: {tags:?}");
    assert_eq!(tags.iter().filter(|t| *t == "a").count(), 3, "slice log: {tags:?}");
    assert_eq!(tags.iter().filter(|t| *t == "b").count(), 3, "slice log: {tags:?}");

    // The subscriber saw b's progress advance slice by slice: slice_end /
    // campaign_terminal payloads carry the status with `completed`.
    let mut completions = Vec::new();
    let mut gauges = 0;
    for reply in &events {
        match reply {
            ServerReply::Event { id, kind, payload } => {
                assert_eq!(id, &b, "subscription leaked another campaign's event");
                if kind == "slice_end" || kind == "campaign_terminal" {
                    let status: Option<serve::proto::CampaignStatus> =
                        serde_json::from_str(payload).expect("status payload");
                    completions.push(status.expect("status present").completed);
                }
            }
            ServerReply::Gauges { status, .. } => {
                assert_eq!(status.id, b);
                gauges += 1;
            }
            other => panic!("unexpected stream frame: {other:?}"),
        }
    }
    assert_eq!(completions, [10, 20, 30], "streamed progress: {completions:?}");
    assert!(gauges >= 2, "expected the initial and final gauge frames at least");
    server.stop();
}

/// Cancelling a running campaign takes effect at the next slice boundary
/// and `Result` then reports the cancellation instead of blocking forever.
#[test]
fn cancel_of_a_running_campaign_lands_at_the_slice_boundary() {
    let dir = test_dir("service-cancel");
    let runner = Arc::new(TestRunner::default());
    let server = start_server(&dir, runner.clone(), 1, 10);
    let id = submit(&server, spec("long", 10_000, 20));
    wait_for("campaign to start", || runner.units.load(Ordering::SeqCst) > 0);

    match roundtrip(server.socket(), &ClientRequest::Cancel { id: id.clone() }).expect("cancel rpc") {
        ServerReply::Status { status } => assert!(
            matches!(status.state.as_str(), "running" | "cancelled"),
            "state after cancel: {}",
            status.state
        ),
        other => panic!("unexpected cancel reply: {other:?}"),
    }
    match roundtrip(server.socket(), &ClientRequest::Result { id: id.clone(), wait_ms: 20_000 })
        .expect("result rpc")
    {
        ServerReply::Error { reason } => {
            assert!(reason.contains("cancelled"), "unexpected reason: {reason}")
        }
        other => panic!("unexpected result reply: {other:?}"),
    }
    let ran = runner.units.load(Ordering::SeqCst);
    assert!(ran < 10_000, "cancel did not stop the campaign (ran {ran} trials)");
    server.stop();
}

/// Unknown ids are errors, not hangs; invalid specs are rejected at
/// admission with the runner's reason.
#[test]
fn unknown_ids_and_invalid_specs_are_rejected() {
    let dir = test_dir("service-rejects");
    let runner = Arc::new(TestRunner::default());
    let server = start_server(&dir, runner, 1, 10);
    match roundtrip(server.socket(), &ClientRequest::Status { id: "c9999".into() }).expect("status rpc") {
        ServerReply::Error { reason } => assert!(reason.contains("c9999")),
        other => panic!("unexpected reply: {other:?}"),
    }
    match roundtrip(server.socket(), &ClientRequest::Submit { spec: spec("zero", 0, 0) }).expect("submit rpc") {
        ServerReply::Rejected { reason } => {
            assert!(reason.contains("total must be positive"), "reason: {reason}")
        }
        other => panic!("unexpected reply: {other:?}"),
    }
    match roundtrip(server.socket(), &ClientRequest::Submit { spec: "not json".into() }).expect("submit rpc") {
        ServerReply::Rejected { reason } => assert!(reason.contains("invalid spec"), "reason: {reason}"),
        other => panic!("unexpected reply: {other:?}"),
    }
    server.stop();
}

/// A daemon stopped mid-campaign and restarted on the same root resumes
/// the interrupted campaign from its journal — by the same id, without
/// redoing finished work.
#[test]
fn restart_on_the_same_root_resumes_interrupted_campaigns_by_id() {
    let dir = test_dir("service-restart");
    let runner = Arc::new(TestRunner::default());
    let server = start_server(&dir, runner.clone(), 1, 5);
    let id = submit(&server, spec("resume", 40, 20));
    wait_for("some progress before the stop", || runner.units.load(Ordering::SeqCst) >= 5);
    server.stop();

    let before = runner.units.load(Ordering::SeqCst);
    assert!(before < 40, "campaign already finished; nothing to resume");

    let server = start_server(&dir, runner.clone(), 1, 5);
    match roundtrip(server.socket(), &ClientRequest::Result { id: id.clone(), wait_ms: 20_000 })
        .expect("result rpc")
    {
        ServerReply::Result { id: rid, result } => {
            assert_eq!(rid, id, "restart reassigned the campaign id");
            assert_eq!(result, "{\"tag\":\"resume\",\"ran\":40}");
        }
        other => panic!("unexpected result reply: {other:?}"),
    }
    // Exactly `total` units ran across both daemon lifetimes: the restart
    // resumed from the journal instead of starting over.
    assert_eq!(runner.units.load(Ordering::SeqCst), 40);
    let resumed = runner.log.lock().unwrap().iter().any(|(t, done)| t == "resume" && *done >= before);
    assert!(resumed, "no slice resumed from the journaled progress");
    server.stop();
}

/// The socket claim protocol: a live endpoint is refused, a foreign file
/// is never deleted, and a stale socket file is cleaned up.
#[test]
fn socket_claim_refuses_live_endpoints_and_foreign_files() {
    let dir = test_dir("service-claim");
    let runner = Arc::new(TestRunner::default());
    let server = start_server(&dir, runner.clone(), 1, 10);

    // Second daemon on the same (live) socket must fail, not hijack it.
    let cfg = ServeConfig::new(dir.join("sock"), dir.join("root2"));
    let err = match Server::start(cfg, runner.clone(), Arc::new(EventBus::new())) {
        Err(e) => e,
        Ok(_) => panic!("second daemon bound a live socket"),
    };
    assert_eq!(err.kind(), io::ErrorKind::AddrInUse, "unexpected error: {err}");
    server.stop();

    // A regular file at the socket path is refused and left intact.
    let decoy = dir.join("sock");
    std::fs::write(&decoy, b"precious data").expect("write decoy");
    let cfg = ServeConfig::new(decoy.clone(), dir.join("root3"));
    let err = match Server::start(cfg, runner.clone(), Arc::new(EventBus::new())) {
        Err(e) => e,
        Ok(_) => panic!("daemon replaced a foreign file with its socket"),
    };
    assert_eq!(err.kind(), io::ErrorKind::AddrInUse, "unexpected error: {err}");
    assert_eq!(std::fs::read(&decoy).expect("decoy survives"), b"precious data");
    std::fs::remove_file(&decoy).expect("cleanup decoy");

    // A stale socket file (its listener is gone, as after SIGKILL) is
    // cleaned up and rebound instead of refusing forever.
    let stale = dir.join("stale.sock");
    let listener = carolfi::monitor::claim_socket(&stale).expect("first claim");
    drop(listener); // fd closed, socket file left behind — a dead endpoint
    assert!(stale.exists(), "closing the listener should leave the file");
    let _relisten = carolfi::monitor::claim_socket(&stale).expect("stale socket must be reclaimed");
}
