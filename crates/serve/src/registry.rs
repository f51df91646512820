//! Durable campaign registry: admission control, the fair-share ring, and
//! per-campaign persistence.
//!
//! On disk, each campaign owns `<root>/<id>/` with `spec.json` (the
//! submitted spec, verbatim), `journal/` (the phi-store journal the runner
//! appends to), `result.json` (the final result document, written on
//! completion) and a `cancelled` marker. The registry's own three files are
//! written durably (tmp file, fsync, rename, directory fsync). Restarting the
//! daemon on the same root rebuilds the registry from this layout:
//! finished campaigns report their persisted results, cancelled ones stay
//! cancelled, everything else re-queues and resumes from its journal — so
//! resume-by-id survives SIGKILL of the daemon itself. Run exactly one
//! daemon per root: nothing locks the directory against a second instance.
//!
//! ## Lifecycle
//!
//! ```text
//! submit ──> queued ──> running ──> done
//!               │          │  └───> failed     (runner/store error)
//!               └──────────┴──────> cancelled  (queued: immediately;
//!                                    running: at the next slice boundary)
//! ```
//!
//! `done`, `failed` and `cancelled` are terminal. `queued → running` is
//! promotion into the fair-share ring (capacity `max_active`); a running
//! campaign goes to the back of the ring after every slice, so all active
//! campaigns advance at the same trials-per-turn rate.

use crate::proto::CampaignStatus;
use crate::{Runner, SliceRun, SpecInfo};
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Scheduling state of one campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignState {
    Queued,
    Running,
    Done,
    Failed,
    Cancelled,
}

impl CampaignState {
    pub fn label(self) -> &'static str {
        match self {
            CampaignState::Queued => "queued",
            CampaignState::Running => "running",
            CampaignState::Done => "done",
            CampaignState::Failed => "failed",
            CampaignState::Cancelled => "cancelled",
        }
    }

    pub fn is_terminal(self) -> bool {
        matches!(self, CampaignState::Done | CampaignState::Failed | CampaignState::Cancelled)
    }
}

struct Entry {
    spec: String,
    info: SpecInfo,
    state: CampaignState,
    completed: u64,
    result: Option<String>,
    error: String,
    cancel_requested: bool,
}

struct RegState {
    next_id: u64,
    entries: BTreeMap<String, Entry>,
    /// Admitted but not yet promoted into the ring (FIFO).
    queue: VecDeque<String>,
    /// The fair-share ring: campaigns taking scheduling turns.
    ring: VecDeque<String>,
    /// Admitted campaigns whose spec is still being persisted; they count
    /// against the queue cap.
    admitting: usize,
}

/// One scheduling turn handed to the scheduler thread.
pub struct Job {
    pub id: String,
    pub spec: String,
}

/// Thread-safe campaign registry; shared by the scheduler and every client
/// connection.
pub struct Registry {
    root: PathBuf,
    max_active: usize,
    max_queue: usize,
    inner: Mutex<RegState>,
    cv: Condvar,
    shutdown: AtomicBool,
}

impl Registry {
    /// Opens (creating if needed) a registry root and recovers every
    /// campaign directory found in it. `runner` re-validates persisted
    /// specs; a spec the current runner rejects surfaces as a `failed`
    /// campaign rather than poisoning startup.
    pub fn open(root: &Path, max_active: usize, max_queue: usize, runner: &dyn Runner) -> io::Result<Registry> {
        std::fs::create_dir_all(root)?;
        let mut state = RegState {
            next_id: 1,
            entries: BTreeMap::new(),
            queue: VecDeque::new(),
            ring: VecDeque::new(),
            admitting: 0,
        };
        let mut ids: Vec<String> = std::fs::read_dir(root)?
            .filter_map(|e| e.ok())
            .filter(|e| e.path().join("spec.json").is_file())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        ids.sort();
        for id in ids {
            let dir = root.join(&id);
            let spec = std::fs::read_to_string(dir.join("spec.json"))?;
            if let Some(n) = id.strip_prefix('c').and_then(|s| s.parse::<u64>().ok()) {
                state.next_id = state.next_id.max(n + 1);
            }
            let entry = match runner.validate(&spec) {
                Err(reason) => Entry {
                    spec,
                    info: SpecInfo { kind: String::new(), benchmark: String::new(), total: 0 },
                    state: CampaignState::Failed,
                    completed: 0,
                    result: None,
                    error: format!("recovered spec no longer validates: {reason}"),
                    cancel_requested: false,
                },
                Ok(info) => {
                    if let Ok(result) = std::fs::read_to_string(dir.join("result.json")) {
                        let total = info.total;
                        Entry {
                            spec,
                            info,
                            state: CampaignState::Done,
                            completed: total,
                            result: Some(result),
                            error: String::new(),
                            cancel_requested: false,
                        }
                    } else if dir.join("cancelled").exists() {
                        Entry {
                            spec,
                            info,
                            state: CampaignState::Cancelled,
                            completed: 0,
                            result: None,
                            error: String::new(),
                            cancel_requested: false,
                        }
                    } else {
                        state.queue.push_back(id.clone());
                        Entry {
                            spec,
                            info,
                            state: CampaignState::Queued,
                            completed: 0,
                            result: None,
                            error: String::new(),
                            cancel_requested: false,
                        }
                    }
                }
            };
            state.entries.insert(id, entry);
        }
        Ok(Registry {
            root: root.to_path_buf(),
            max_active: max_active.max(1),
            max_queue,
            inner: Mutex::new(state),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        })
    }

    /// The phi-store journal directory of one campaign.
    pub fn journal_dir(&self, id: &str) -> PathBuf {
        self.root.join(id).join("journal")
    }

    /// Admission: registers a validated spec, or rejects with a reason
    /// when the waiting queue is at capacity or the daemon is stopping.
    pub fn submit(&self, spec: String, info: SpecInfo) -> Result<String, String> {
        if self.shutdown.load(Ordering::SeqCst) {
            return Err("daemon is shutting down".into());
        }
        let id = {
            let mut st = self.lock();
            let waiting = st.queue.len() + st.admitting;
            if waiting >= self.max_queue {
                return Err(format!("admission queue is full ({waiting} campaigns waiting)"));
            }
            st.admitting += 1;
            st.next_id += 1;
            format!("c{:04}", st.next_id - 1)
        };
        // The spec is durable before its id is handed out, but its fsyncs
        // run outside the state lock: the scheduler never waits on them.
        let dir = self.root.join(&id);
        let persisted = match std::fs::create_dir_all(&dir) {
            Err(e) => Err(format!("create {}: {e}", dir.display())),
            Ok(()) => write_durable(&dir, "spec.json", spec.as_bytes()).map_err(|e| format!("persist spec for {id}: {e}")),
        };
        let mut st = self.lock();
        st.admitting -= 1;
        persisted?;
        st.entries.insert(
            id.clone(),
            Entry {
                spec,
                info,
                state: CampaignState::Queued,
                completed: 0,
                result: None,
                error: String::new(),
                cancel_requested: false,
            },
        );
        st.queue.push_back(id.clone());
        self.cv.notify_all();
        Ok(id)
    }

    /// Blocks until a campaign is due a scheduling turn (or `None` on
    /// shutdown). Promotes queued campaigns into the ring up to
    /// `max_active`, then rotates the ring.
    pub fn next_job(&self) -> Option<Job> {
        let mut guard = self.lock();
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            let st = &mut *guard;
            while st.ring.len() < self.max_active {
                let Some(id) = st.queue.pop_front() else { break };
                if let Some(e) = st.entries.get_mut(&id) {
                    if e.cancel_requested {
                        self.finish_cancel(e, &id);
                        continue;
                    }
                    e.state = CampaignState::Running;
                    st.ring.push_back(id);
                }
            }
            if let Some(id) = st.ring.pop_front() {
                let e = st.entries.get_mut(&id).expect("ring ids are registered");
                if e.cancel_requested {
                    self.finish_cancel(e, &id);
                    self.cv.notify_all();
                    continue;
                }
                return Some(Job { id: id.clone(), spec: e.spec.clone() });
            }
            guard = self.cv.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Records the outcome of one scheduling turn: rotates a paused
    /// campaign to the back of the ring, retires a finished/failed one,
    /// honours a cancel requested mid-slice. Returns the resulting state.
    pub fn slice_done(&self, id: &str, outcome: io::Result<SliceRun>) -> CampaignState {
        // Persist a result before exposing it — a client told "done" must be
        // able to fetch it from a freshly restarted daemon — and outside the
        // state lock, so no client or submit waits on its fsyncs.
        let outcome = outcome.and_then(|run| match run {
            SliceRun::Complete { result } => match self.persist_result(id, &result) {
                Ok(()) => Ok(SliceRun::Complete { result }),
                Err(err) => Err(io::Error::new(err.kind(), format!("persist result: {err}"))),
            },
            paused => Ok(paused),
        });
        let mut guard = self.lock();
        let st = &mut *guard;
        let Some(e) = st.entries.get_mut(id) else { return CampaignState::Failed };
        let state = match outcome {
            Ok(SliceRun::Paused { completed }) => {
                e.completed = completed;
                if e.cancel_requested {
                    self.finish_cancel(e, id);
                } else {
                    st.ring.push_back(id.to_string());
                }
                e.state
            }
            Ok(SliceRun::Complete { result }) => {
                e.completed = e.info.total;
                e.result = Some(result);
                e.state = CampaignState::Done;
                e.state
            }
            Err(err) => {
                e.error = err.to_string();
                e.state = CampaignState::Failed;
                e.state
            }
        };
        self.cv.notify_all();
        state
    }

    /// Requests cancellation. Queued campaigns cancel immediately; running
    /// ones at their next slice boundary. Terminal states are unchanged.
    pub fn cancel(&self, id: &str) -> Option<CampaignStatus> {
        {
            let mut guard = self.lock();
            let st = &mut *guard;
            if let Some(e) = st.entries.get_mut(id) {
                if !e.state.is_terminal() {
                    e.cancel_requested = true;
                    if e.state == CampaignState::Queued {
                        st.queue.retain(|q| q != id);
                        self.finish_cancel(e, id);
                    }
                }
            }
            self.cv.notify_all();
        }
        self.status(id)
    }

    pub fn status(&self, id: &str) -> Option<CampaignStatus> {
        let st = self.lock();
        st.entries.get(id).map(|e| status_of(id, e))
    }

    pub fn list(&self) -> Vec<CampaignStatus> {
        let st = self.lock();
        st.entries.iter().map(|(id, e)| status_of(id, e)).collect()
    }

    /// Blocks until the campaign is terminal or `wait` elapses. `Ok` holds
    /// the terminal status plus the result document for `done` campaigns;
    /// `Err` is a reason (unknown id / timeout / shutdown).
    pub fn wait_result(&self, id: &str, wait: Duration) -> Result<(CampaignStatus, Option<String>), String> {
        let deadline = Instant::now() + wait;
        let mut st = self.lock();
        loop {
            let Some(e) = st.entries.get(id) else { return Err(format!("unknown campaign id {id:?}")) };
            if e.state.is_terminal() {
                return Ok((status_of(id, e), e.result.clone()));
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return Err("daemon is shutting down".into());
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(format!("campaign {id} still {} after the wait deadline", e.state.label()));
            }
            let (guard, _) = self.cv.wait_timeout(st, deadline - now).unwrap_or_else(|e| e.into_inner());
            st = guard;
        }
    }

    /// True once [`Registry::stop`] ran.
    pub fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Begins shutdown: wakes the scheduler and every waiter.
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.cv.notify_all();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RegState> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Transitions an entry to `cancelled` and persists the marker. Caller
    /// holds the state lock and has removed the id from queue/ring. A
    /// marker that fails to persist leaves the cancel in force for this
    /// daemon, but a restart would re-queue the campaign: the failure goes
    /// into the campaign's `error` so `phi-cli status` shows it.
    fn finish_cancel(&self, e: &mut Entry, id: &str) {
        e.state = CampaignState::Cancelled;
        if let Err(err) = write_durable(&self.root.join(id), "cancelled", b"cancelled by client\n") {
            e.error = format!("persist cancelled marker: {err}");
        }
    }

    fn persist_result(&self, id: &str, result: &str) -> io::Result<()> {
        write_durable(&self.root.join(id), "result.json", result.as_bytes())
    }
}

/// Writes `dir/name` durably: `<name>.tmp`, fsync, rename over `name`, fsync
/// `dir`. A crash leaves either the old file or the whole new one, and once
/// this returns the file survives power loss.
fn write_durable(dir: &Path, name: &str, bytes: &[u8]) -> io::Result<()> {
    let tmp = dir.join(format!("{name}.tmp"));
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, dir.join(name))?;
    std::fs::File::open(dir)?.sync_all()
}

fn status_of(id: &str, e: &Entry) -> CampaignStatus {
    CampaignStatus {
        id: id.to_string(),
        state: e.state.label().to_string(),
        kind: e.info.kind.clone(),
        benchmark: e.info.benchmark.clone(),
        completed: e.completed,
        total: e.info.total,
        error: e.error.clone(),
    }
}
