//! The daemon: socket accept loop, per-connection protocol handling, and
//! the fair-share scheduler thread.
//!
//! One scheduler thread drains the registry ring; each turn runs **one
//! slice** (`cfg.slice` trials) of one campaign through the runner, which
//! drives the whole shared worker pool for that slice. Fair share is
//! round-robin over slices: with `max_active` campaigns in the ring each
//! gets every `max_active`-th slice, so throughput divides evenly without
//! preempting trials mid-flight. Slices are plain store budgets, so a
//! campaign interrupted at any boundary (or by SIGKILL of the daemon)
//! resumes bit-identically.

use crate::bus::EventBus;
use crate::proto::{ClientRequest, ServerReply};
use crate::registry::Registry;
use crate::Runner;
use carolfi::monitor;
use carolfi::warden::{read_frame_blocking, write_frame, MetricsFrame};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Daemon knobs. `socket`/`root` name the endpoint and the registry
/// directory; the rest are scheduling policy.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Unix socket the daemon listens on.
    pub socket: PathBuf,
    /// Registry root: one subdirectory per campaign.
    pub root: PathBuf,
    /// Fair-share ring capacity: campaigns advancing concurrently.
    pub max_active: usize,
    /// Admission cap on the waiting queue; submissions beyond it are
    /// rejected with a reason.
    pub max_queue: usize,
    /// Trials per scheduling turn (the store budget of one slice).
    pub slice: usize,
}

impl ServeConfig {
    pub fn new(socket: PathBuf, root: PathBuf) -> Self {
        ServeConfig { socket, root, max_active: 2, max_queue: 64, slice: 256 }
    }
}

/// A running campaign service. Dropping the handle does **not** stop it;
/// call [`Server::stop`] for a graceful shutdown (finishes the in-flight
/// slice, then joins the scheduler and accept threads).
pub struct Server {
    cfg: ServeConfig,
    registry: Arc<Registry>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Server {
    /// Recovers the registry from `cfg.root`, claims `cfg.socket` (stale
    /// socket files are cleaned; a live endpoint is an error) and starts
    /// the accept and scheduler threads. Interrupted campaigns found in
    /// the registry re-queue immediately.
    pub fn start(cfg: ServeConfig, runner: Arc<dyn Runner>, bus: Arc<EventBus>) -> std::io::Result<Server> {
        let registry = Arc::new(Registry::open(&cfg.root, cfg.max_active, cfg.max_queue, runner.as_ref())?);
        let listener = monitor::claim_socket(&cfg.socket)?;
        let mut threads = Vec::new();

        let (reg, bus_s, run_s, slice) = (registry.clone(), bus.clone(), runner.clone(), cfg.slice.max(1));
        threads.push(
            std::thread::Builder::new()
                .name("phi-serve-sched".into())
                .spawn(move || scheduler_loop(&reg, run_s.as_ref(), &bus_s, slice))?,
        );

        let (reg, bus_a, run_a) = (registry.clone(), bus, runner);
        threads.push(std::thread::Builder::new().name("phi-serve-accept".into()).spawn(move || {
            for conn in listener.incoming() {
                if reg.stopping() {
                    return;
                }
                let Ok(stream) = conn else { continue };
                let (reg_c, bus_c, run_c) = (reg.clone(), bus_a.clone(), run_a.clone());
                let _ = std::thread::Builder::new().name("phi-serve-conn".into()).spawn(move || {
                    let _ = handle_connection(stream, &reg_c, run_c.as_ref(), &bus_c);
                });
            }
        })?);

        Ok(Server { cfg, registry, threads: Mutex::new(threads) })
    }

    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    pub fn socket(&self) -> &Path {
        &self.cfg.socket
    }

    pub fn root(&self) -> &Path {
        &self.cfg.root
    }

    /// Graceful shutdown: stop admitting, let the in-flight slice finish
    /// (its journal checkpoint makes the campaign resumable), wake every
    /// waiter, join the scheduler and accept threads, remove the socket.
    pub fn stop(&self) {
        self.registry.stop();
        // Unblock the accept loop with a throwaway connection.
        let _ = UnixStream::connect(&self.cfg.socket);
        let mut threads = self.threads.lock().unwrap_or_else(|e| e.into_inner());
        for t in threads.drain(..) {
            let _ = t.join();
        }
        let _ = std::fs::remove_file(&self.cfg.socket);
    }
}

fn scheduler_loop(reg: &Registry, runner: &dyn Runner, bus: &EventBus, slice: usize) {
    while let Some(job) = reg.next_job(runner) {
        bus.publish(&job.id, "slice_start", &format!("{{\"id\":{:?},\"budget\":{slice}}}", job.id));
        // The one-slice-at-a-time invariant is what makes this attribution
        // sound: every obs event until set_current(None) is this campaign's.
        bus.set_current(Some(&job.id));
        let outcome = runner.run_slice(&job.spec, &reg.journal_dir(&job.id), slice);
        bus.set_current(None);
        let state = reg.slice_done(&job.id, outcome, runner);
        let status = reg.status(&job.id);
        let payload = serde_json::to_string(&status).unwrap_or_else(|_| "null".into());
        bus.publish(&job.id, if state.is_terminal() { "campaign_terminal" } else { "slice_end" }, &payload);
    }
    // Stopped: no slice runs any more, and nothing the runner holds for an
    // unfinished campaign may outlive the ring.
    for id in reg.unfinished() {
        runner.retire(&reg.journal_dir(&id));
    }
}

fn handle_connection(
    mut stream: UnixStream,
    reg: &Registry,
    runner: &dyn Runner,
    bus: &EventBus,
) -> std::io::Result<()> {
    let req: ClientRequest = read_frame_blocking(&mut stream)?;
    let reply = match req {
        ClientRequest::Submit { spec } => match runner.validate(&spec) {
            Err(reason) => ServerReply::Rejected { reason: format!("invalid spec: {reason}") },
            Ok(info) => match reg.submit(spec, info) {
                Ok(id) => ServerReply::Submitted { id },
                Err(reason) => ServerReply::Rejected { reason },
            },
        },
        ClientRequest::Status { id } => match reg.status(&id) {
            Some(status) => ServerReply::Status { status },
            None => ServerReply::Error { reason: format!("unknown campaign id {id:?}") },
        },
        ClientRequest::List => ServerReply::List { campaigns: reg.list() },
        ClientRequest::Cancel { id } => match reg.cancel(&id) {
            Some(status) => ServerReply::Status { status },
            None => ServerReply::Error { reason: format!("unknown campaign id {id:?}") },
        },
        ClientRequest::Result { id, wait_ms } => {
            match reg.wait_result(&id, Duration::from_millis(wait_ms)) {
                Err(reason) => ServerReply::Error { reason },
                Ok((status, result)) => match result {
                    Some(result) => ServerReply::Result { id, result },
                    // Terminal without a result document: failed/cancelled.
                    None => ServerReply::Error {
                        reason: format!("campaign {id} is {}: {}", status.state, status.error),
                    },
                },
            }
        }
        ClientRequest::Events { id, gauge_ms } => return stream_events(stream, reg, bus, &id, gauge_ms),
    };
    write_frame(&mut stream, &reply)
}

/// Streams `Event` frames as the bus delivers them, a `Gauges` frame every
/// `gauge_ms`, and a final `Gauges` + `Done` once the campaign is terminal.
fn stream_events(mut stream: UnixStream, reg: &Registry, bus: &EventBus, id: &str, gauge_ms: u64) -> std::io::Result<()> {
    let Some(status) = reg.status(id) else {
        return write_frame(&mut stream, &ServerReply::Error { reason: format!("unknown campaign id {id:?}") });
    };
    let rx = bus.subscribe(id);
    let gauge_every = Duration::from_millis(gauge_ms.clamp(50, 60_000));
    write_frame(&mut stream, &gauges(status))?;
    loop {
        match rx.recv_timeout(gauge_every) {
            Ok((ev_id, kind, payload)) => {
                write_frame(&mut stream, &ServerReply::Event { id: ev_id, kind, payload })?;
            }
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                let Some(status) = reg.status(id) else { break };
                let terminal = status.state != "queued" && status.state != "running";
                if terminal || reg.stopping() {
                    // Flush events already queued behind the terminal tick.
                    while let Ok((ev_id, kind, payload)) = rx.try_recv() {
                        write_frame(&mut stream, &ServerReply::Event { id: ev_id, kind, payload })?;
                    }
                    write_frame(&mut stream, &gauges(status))?;
                    return write_frame(&mut stream, &ServerReply::Done);
                }
                write_frame(&mut stream, &gauges(status))?;
            }
        }
    }
    Ok(())
}

fn gauges(status: crate::proto::CampaignStatus) -> ServerReply {
    ServerReply::Gauges {
        status,
        live: Box::new(monitor::status()),
        metrics: MetricsFrame::from_snapshot(&obs::merged_snapshot()),
    }
}
