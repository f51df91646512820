//! The four workloads: their set-up, their reference digests and one timed
//! round each, driven only through the program's public entry points.
//!
//! A round runs every campaign of the workload once, from request to a
//! result document whose `records_crc` matches the in-process reference.
//! Every campaign gets a fresh journal directory under the run's scratch
//! directory, and the round removes it again after the clock stops.

use crate::specs::{Workload, EXECUTORS};
use bench::{CampaignKind, ParsedSpec, SpecResult, SpecRun};
use carolfi::record::TrialRecord;
use carolfi::{ConnectTarget, CoordConfig, ExecutorConfig};
use kernels::{build, golden};
use serve::proto::{roundtrip, ClientRequest, ServerReply};
use serve::{EventBus, ServeConfig, Server, SliceRun};
use std::cell::Cell;
use std::collections::HashMap;
use std::hint::black_box;
use std::io;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How long a client waits on a daemon `Result` before calling it failed.
const RESULT_WAIT_MS: u64 = 120_000;

/// Runs `f` inside a named obs span. Spans record only while a recorder is
/// installed, so untraced rounds pay one relaxed load.
fn timed<T>(span: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = obs::span!(span);
    f()
}

/// The digest a campaign must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    pub crc: u32,
    pub trials: usize,
}

/// The digests of `campaigns` as one argument: `crc:trials`, comma
/// separated, in campaign order. [`decode_expected`] reads it back.
pub fn encode_expected(campaigns: &[Campaign]) -> String {
    let digests: Vec<String> = campaigns
        .iter()
        .map(|c| format!("{:08x}:{}", c.expected.crc, c.expected.trials))
        .collect();
    digests.join(",")
}

pub fn decode_expected(s: &str) -> Option<Vec<Expected>> {
    s.split(',')
        .map(|d| {
            let (crc, trials) = d.split_once(':')?;
            Some(Expected {
                crc: u32::from_str_radix(crc, 16).ok()?,
                trials: trials.parse().ok()?,
            })
        })
        .collect()
}

/// One campaign of a workload: its validated spec, its wire form and the
/// digest of its in-process reference run.
pub struct Campaign {
    pub parsed: ParsedSpec,
    pub json: String,
    pub expected: Expected,
}

/// What one timed round measured. Everything but `wall_s`, `trials` and
/// `campaign_s` feeds the per-layer table only.
#[derive(Debug, Default)]
pub struct Round {
    pub wall_s: f64,
    /// Trials and strikes completed and verified.
    pub trials: u64,
    /// Request to verified result, by the campaign's index in the workload.
    pub campaign_s: Vec<(usize, f64)>,
    /// Operations attempted (campaigns; for the daemon, submits and result
    /// waits) and the reasons of those that failed.
    pub attempted: u64,
    pub failures: Vec<String>,
    pub strikes: u64,
    pub hw_masked: u64,
    pub planner_trials: u64,
    pub planner_horizon: u64,
    pub journal_bytes: u64,
    pub queue_wait_s: Vec<f64>,
    pub leases_granted: u64,
    pub merged: u64,
    pub duplicates: u64,
    pub executor_wall_s: f64,
}

impl Round {
    fn fail(&mut self, what: impl Into<String>) {
        self.failures.push(what.into());
    }

    /// Checks a result document against the reference of campaign `k` and
    /// books it, with the campaign's time since `requested`.
    fn verify(&mut self, k: usize, c: &Campaign, doc: &str, requested: Instant) {
        let got: SpecResult = match serde_json::from_str(doc) {
            Ok(r) => r,
            Err(e) => {
                self.fail(format!(
                    "{}: unparseable result document: {e}",
                    c.parsed.spec.benchmark
                ));
                return;
            }
        };
        if got.records_crc != c.expected.crc || got.trials != c.expected.trials {
            self.fail(format!(
                "{} {} seed {}: digest {:08x}/{} trials, reference {:08x}/{}",
                c.parsed.spec.kind.label(),
                c.parsed.spec.benchmark,
                c.parsed.spec.seed,
                got.records_crc,
                got.trials,
                c.expected.crc,
                c.expected.trials
            ));
            return;
        }
        self.campaign_s.push((k, requested.elapsed().as_secs_f64()));
        self.trials += got.trials as u64;
        if got.kind == CampaignKind::Beam {
            self.strikes += got.trials as u64;
            self.hw_masked += got.hw_masked;
        }
        if c.parsed.spec.plan.is_some() {
            self.planner_trials += got.trials as u64;
            self.planner_horizon += c.parsed.spec.trials as u64;
        }
    }
}

fn result_doc(p: &ParsedSpec, records: &[TrialRecord]) -> String {
    timed("bench.spec_result", || {
        bench::spec_result(
            p.spec.kind,
            p.result_version(),
            &p.spec.benchmark,
            p.spec.seed,
            p.spec.tolerance,
            records,
        )
    })
}

fn journal_meta(p: &ParsedSpec) -> store::CampaignMeta {
    store::CampaignMeta {
        kind: p.spec.kind.label().to_string(),
        benchmark: p.spec.benchmark.clone(),
        seed: p.spec.seed,
        trials: p.spec.trials,
        shards: p.spec.shards,
        n_windows: p.benchmark.n_windows(),
        version: store::journal::FORMAT_VERSION,
    }
}

fn other(msg: String) -> io::Error {
    io::Error::other(msg)
}

/// Bytes of every regular file under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map(|m| m.len()).unwrap_or(0),
            _ => 0,
        })
        .sum()
}

fn remove_dir(dir: &Path) -> io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// The records of the same spec run in process: `run_campaign` /
/// `run_beam_campaign`, or for an adaptive spec a direct `run_spec`.
fn reference_records(p: &ParsedSpec, scratch: &Path) -> io::Result<Vec<TrialRecord>> {
    let (b, size, label) = (p.benchmark, p.size, p.benchmark.label());
    if p.spec.plan.is_some() {
        let dir = scratch.join("reference-adaptive");
        remove_dir(&dir)?;
        let run = bench::run_spec(p, &dir, false, None)?;
        remove_dir(&dir)?;
        return match run {
            SpecRun::Inject(records) => Ok(records),
            _ => Err(other(format!(
                "{label}: adaptive reference run did not complete"
            ))),
        };
    }
    let g = golden(b, size);
    Ok(match p.spec.kind {
        CampaignKind::Inject => {
            carolfi::run_campaign(label, || build(b, size), &g, &p.campaign_config()).records
        }
        CampaignKind::Beam => {
            beamsim::run_beam_campaign(label, || build(b, size), &g, &p.beam_config()).records
        }
    })
}

fn campaign(
    spec: bench::CampaignSpec,
    expected: impl FnOnce(&ParsedSpec) -> io::Result<Expected>,
) -> io::Result<Campaign> {
    let json = serde_json::to_string(&spec).map_err(|e| other(format!("serialize spec: {e}")))?;
    let parsed = bench::validate_spec(spec).map_err(|e| other(format!("invalid spec: {e}")))?;
    let expected = expected(&parsed)?;
    Ok(Campaign {
        parsed,
        json,
        expected,
    })
}

/// Validates specs and computes every reference digest. Runs before the
/// clock starts.
pub fn prepare(specs: Vec<bench::CampaignSpec>, scratch: &Path) -> io::Result<Vec<Campaign>> {
    specs
        .into_iter()
        .map(|spec| {
            campaign(spec, |parsed| {
                let records = reference_records(parsed, scratch)?;
                let doc: SpecResult = serde_json::from_str(&result_doc(parsed, &records))
                    .map_err(|e| other(format!("reference result document: {e}")))?;
                Ok(Expected {
                    crc: doc.records_crc,
                    trials: doc.trials,
                })
            })
        })
        .collect()
}

/// Validates specs and pairs them with digests computed elsewhere.
pub fn with_expected(
    specs: Vec<bench::CampaignSpec>,
    expected: Vec<Expected>,
) -> io::Result<Vec<Campaign>> {
    if specs.len() != expected.len() {
        return Err(other(format!(
            "{} digests for {} campaigns",
            expected.len(),
            specs.len()
        )));
    }
    specs
        .into_iter()
        .zip(expected)
        .map(|(spec, e)| campaign(spec, |_| Ok(e)))
        .collect()
}

/// State a workload keeps across its rounds.
pub struct Runner {
    pub workload: Workload,
    pub campaigns: Vec<Campaign>,
    /// The campaigns cut to one trial, whose rounds time the set-up.
    probes: Vec<Campaign>,
    scratch: PathBuf,
    /// The daemon's recorder, installed for the whole run as `phi-serve`
    /// installs it.
    bus: Option<Arc<EventBus>>,
    serial: Cell<usize>,
}

impl Runner {
    pub fn new(
        workload: Workload,
        campaigns: Vec<Campaign>,
        probes: Vec<Campaign>,
        scratch: PathBuf,
    ) -> Self {
        let bus = (workload == Workload::ServeSliced).then(|| {
            let bus = Arc::new(EventBus::new());
            obs::install(bus.clone());
            carolfi::monitor::enable();
            bus
        });
        Runner {
            workload,
            campaigns,
            probes,
            scratch,
            bus,
            serial: Cell::new(0),
        }
    }

    /// Threads that run trials: the executors of the distributed campaign;
    /// otherwise `run_spec`'s default of one worker per core.
    pub fn workers(&self) -> usize {
        match self.workload {
            Workload::DistTest => EXECUTORS,
            _ => std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// Whether the workload keeps its own recorder installed, so a traced
    /// round must not install or remove one.
    pub fn owns_recorder(&self) -> bool {
        self.bus.is_some()
    }

    fn fresh_dir(&self, tag: &str) -> PathBuf {
        self.serial.set(self.serial.get() + 1);
        self.scratch.join(format!("{tag}-{}", self.serial.get()))
    }

    /// One set-up pass: the seconds before the workload's first trials can
    /// run. That is a round over the one-trial probes, through the same
    /// public calls as a timed round: for the daemon, daemon start plus
    /// submit to `Result` of every probe. For the distributed campaign it
    /// is a two-trial campaign, timed from coordinator bind to the first
    /// executor's runner being built.
    pub fn setup_once(&self) -> io::Result<f64> {
        let mut r = Round::default();
        let ready = match self.workload {
            Workload::DistTest => {
                let dir = self.fresh_dir("setup");
                let ready = run_dist(&self.probes[0].parsed, &dir, &mut r)?;
                remove_dir(&dir)?;
                ready
            }
            _ => {
                r = self.run(&self.probes, false)?;
                r.wall_s
            }
        };
        match r.failures.first() {
            Some(f) => Err(other(format!("set-up probe: {f}"))),
            None => Ok(ready),
        }
    }

    /// One timed pass over every campaign of the workload. A traced round
    /// also times work the daemon does out of the benchmark's reach.
    pub fn round(&self, traced: bool) -> io::Result<Round> {
        self.run(&self.campaigns, traced)
    }

    fn run(&self, campaigns: &[Campaign], traced: bool) -> io::Result<Round> {
        let mut r = Round::default();
        match self.workload {
            Workload::StoredTest | Workload::IsolateTest => {
                let dirs: Vec<PathBuf> = (0..campaigns.len())
                    .map(|_| self.fresh_dir("campaign"))
                    .collect();
                let start = Instant::now();
                for (k, (c, dir)) in campaigns.iter().zip(&dirs).enumerate() {
                    let t = Instant::now();
                    r.attempted += 1;
                    let doc = match timed("bench.run_spec", || {
                        bench::run_spec(&c.parsed, dir, false, None)
                    }) {
                        Ok(SpecRun::Inject(records)) => result_doc(&c.parsed, &records),
                        Ok(SpecRun::Beam(campaign)) => result_doc(&c.parsed, &campaign.records),
                        Ok(SpecRun::Paused { completed, total }) => {
                            r.fail(format!(
                                "{}: paused at {completed}/{total} without a budget",
                                c.parsed.spec.benchmark
                            ));
                            continue;
                        }
                        Err(e) => {
                            r.fail(format!("{}: run_spec: {e}", c.parsed.spec.benchmark));
                            continue;
                        }
                    };
                    r.verify(k, c, &doc, t);
                }
                r.wall_s = start.elapsed().as_secs_f64();
                for dir in &dirs {
                    r.journal_bytes += dir_bytes(dir);
                    remove_dir(dir)?;
                }
            }
            Workload::ServeSliced => self.serve_round(campaigns, &mut r, traced)?,
            Workload::DistTest => {
                let dir = self.fresh_dir("dist");
                let start = Instant::now();
                r.attempted += 1;
                let c = &campaigns[0];
                run_dist(&c.parsed, &dir, &mut r)?;
                if r.failures.is_empty() {
                    match bench::spec::journal_records(&dir.join("coord")) {
                        Ok((_, records)) => r.verify(0, c, &result_doc(&c.parsed, &records), start),
                        Err(e) => r.fail(format!("dist: read merged journal: {e}")),
                    }
                }
                r.wall_s = start.elapsed().as_secs_f64();
                r.journal_bytes += dir_bytes(&dir);
                remove_dir(&dir)?;
            }
        }
        Ok(r)
    }

    /// A fresh daemon on a fresh registry: one client connection at a time
    /// submits every campaign, then waits on each `Result` in submit order.
    fn serve_round(&self, campaigns: &[Campaign], r: &mut Round, traced: bool) -> io::Result<()> {
        let root = self.fresh_dir("serve");
        let socket = PathBuf::from(format!("serve-{}.sock", self.serial.get()));
        let bus = self.bus.clone().expect("the served workload owns a bus");
        let runner = Arc::new(TimedRunner::default());
        let start = Instant::now();
        let server = Server::start(
            ServeConfig::new(socket.clone(), root.clone()),
            runner.clone(),
            bus,
        )?;
        let mut waiting = Vec::new();
        for (k, c) in campaigns.iter().enumerate() {
            r.attempted += 1;
            let t = Instant::now();
            runner
                .submitted
                .lock()
                .expect("submit map lock")
                .insert(c.json.clone(), t);
            let reply = timed("bench.submit_rtt", || {
                roundtrip(
                    &socket,
                    &ClientRequest::Submit {
                        spec: c.json.clone(),
                    },
                )
            });
            match reply {
                Ok(ServerReply::Submitted { id }) => waiting.push((k, c, id, t)),
                Ok(ServerReply::Rejected { reason }) => {
                    r.fail(format!("submit rejected: {reason}"))
                }
                Ok(other) => r.fail(format!("submit answered with {other:?}")),
                Err(e) => r.fail(format!("submit: {e}")),
            }
        }
        for &(k, c, ref id, t) in &waiting {
            r.attempted += 1;
            match roundtrip(
                &socket,
                &ClientRequest::Result {
                    id: id.clone(),
                    wait_ms: RESULT_WAIT_MS,
                },
            ) {
                Ok(ServerReply::Result { result, .. }) => r.verify(k, c, &result, t),
                Ok(ServerReply::Error { reason }) => r.fail(format!("result {id}: {reason}")),
                Ok(other) => r.fail(format!("result {id} answered with {other:?}")),
                Err(e) => r.fail(format!("result {id}: {e}")),
            }
        }
        r.wall_s = start.elapsed().as_secs_f64();
        server.stop();
        r.queue_wait_s = std::mem::take(&mut *runner.waits.lock().expect("queue wait lock"));
        if traced {
            // The daemon renders each result document inside its last
            // slice; re-render from the journal to time the same call.
            for (_, c, id, _) in &waiting {
                if let Ok((_, records)) =
                    bench::spec::journal_records(&server.registry().journal_dir(id))
                {
                    black_box(result_doc(&c.parsed, &records));
                }
            }
        }
        r.journal_bytes += dir_bytes(&root);
        remove_dir(&root)
    }
}

/// `bench::SpecRunner` with the daemon's slices and queue waits timed from
/// outside.
#[derive(Default)]
struct TimedRunner {
    /// Submit instant by spec text, until the campaign's first slice.
    submitted: Mutex<HashMap<String, Instant>>,
    waits: Mutex<Vec<f64>>,
}

impl serve::Runner for TimedRunner {
    fn validate(&self, spec: &str) -> Result<serve::SpecInfo, String> {
        serve::Runner::validate(&bench::SpecRunner, spec)
    }

    fn run_slice(&self, spec: &str, journal: &Path, budget: usize) -> io::Result<SliceRun> {
        if let Some(t) = self.submitted.lock().expect("submit map lock").remove(spec) {
            self.waits
                .lock()
                .expect("queue wait lock")
                .push(t.elapsed().as_secs_f64());
        }
        timed("bench.run_slice", || {
            serve::Runner::run_slice(&bench::SpecRunner, spec, journal, budget)
        })
    }
}

/// The per-trial runner of a distributed executor: the single-host trial
/// path over a target pool, as `phi-coord --executor` builds it, with the
/// computation and the gap between trials (the round trip plus the local
/// journal append and fsync) timed from outside.
fn dist_runner(spec: &str) -> impl FnMut(u64) -> String {
    let p = bench::parse_spec(spec).expect("the coordinator hands out the spec it was given");
    let (b, size, label) = (p.benchmark, p.size, p.benchmark.label());
    let ccfg = p.campaign_config();
    let g = timed("bench.golden", || golden(b, size));
    let pool = carolfi::TargetPool::new(move || build(b, size));
    let total_steps = {
        let probe = pool.acquire();
        let steps = probe.total_steps().max(1);
        pool.release(probe, false);
        steps
    };
    let mut last: Option<Instant> = None;
    move |global: u64| {
        if let Some(last) = last {
            obs::observe_ns("bench.dist_gap", last.elapsed().as_nanos() as u64);
        }
        let payload = timed("bench.dist_runner", || {
            let mut target = pool.acquire();
            let (record, _) = carolfi::campaign::execute_trial(
                label,
                &mut target,
                &g,
                &ccfg,
                total_steps,
                global as usize,
            );
            pool.release(target, record.outcome.is_due());
            serde_json::to_string(&record).expect("trial records serialize")
        });
        last = Some(Instant::now());
        payload
    }
}

/// Runs one campaign through a loopback coordinator and two executor
/// threads, all joined before returning. Returns the seconds from bind to
/// the first executor's runner being ready.
fn run_dist(p: &ParsedSpec, dir: &Path, r: &mut Round) -> io::Result<f64> {
    let spec = serde_json::to_string(&p.spec).map_err(|e| other(format!("serialize spec: {e}")))?;
    let start = Instant::now();
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?.to_string();
    let ccfg = CoordConfig::new(dir.join("coord"), journal_meta(p), spec);
    let ready: Mutex<Option<f64>> = Mutex::new(None);
    let (coord, executors) = std::thread::scope(|s| {
        let coord = s.spawn(|| carolfi::run_coordinator(listener, &ccfg));
        let executors: Vec<_> = (0..EXECUTORS)
            .map(|k| {
                let ecfg = ExecutorConfig::new(
                    format!("ex{k}"),
                    dir.join(format!("ex{k}")),
                    ConnectTarget::Addr(addr.clone()),
                );
                let ready = &ready;
                s.spawn(move || {
                    let t = Instant::now();
                    let summary = carolfi::run_executor(&ecfg, |_, spec| {
                        let runner = dist_runner(spec);
                        ready
                            .lock()
                            .expect("ready lock")
                            .get_or_insert(start.elapsed().as_secs_f64());
                        runner
                    });
                    (summary, t.elapsed().as_secs_f64())
                })
            })
            .collect();
        let executors: Vec<_> = executors
            .into_iter()
            .map(|h| h.join().expect("executor thread"))
            .collect();
        for (summary, _) in &executors {
            if let Err(e) = summary {
                // The coordinator has no deadline of its own: with an
                // executor gone it would wait for it forever.
                eprintln!("perfbench: dist executor failed: {e}");
                std::process::exit(1);
            }
        }
        (coord.join().expect("coordinator thread"), executors)
    });
    for (_, wall) in executors {
        r.executor_wall_s += wall;
    }
    match coord {
        Ok(s) => {
            r.leases_granted += s.leases_granted;
            r.merged += s.merged;
            r.duplicates += s.duplicates;
        }
        Err(e) => r.fail(format!("coordinator: {e}")),
    }
    let ready = ready.into_inner().expect("ready lock");
    ready.ok_or_else(|| other("no executor ever received the campaign".into()))
}
