//! `phi-coord` — distributed campaign coordinator and executor.
//!
//! One binary, two roles (DESIGN.md §14):
//!
//! ```text
//! # Coordinator: owns the campaign journal, sends executors the trials.
//! phi-coord --listen <addr> --store <journal-dir> --benchmark <label>
//!           [--trials N] [--seed N] [--size test|small|paper] [--shards N]
//!           [--resume] [--addr-file <path>] [--lease-timeout-ms N]
//!           [--monitor <socket>]
//!
//! # Executor: computes each trial it is sent, answers with its record.
//! phi-coord --executor --name <id>
//!           (--connect <addr> | --connect-file <path>) [--throttle-ms N]
//! ```
//!
//! The coordinator binds `--listen` (use port 0 for an ephemeral port),
//! writes the resolved address to `--addr-file` (atomically, so executors
//! polling the file never read a torn address), and runs until every shard
//! of the campaign is journaled and sealed: one worker per shard binds an
//! idle executor and sends it each trial the journal lacks. On completion
//! it prints the deterministic result document ([`bench::render_result`])
//! on stdout — byte-identical to a single-host run of the same spec — and a
//! dispatch summary on stderr. A SIGKILLed coordinator is restarted with
//! `--resume` (and a fresh `--listen`): like every stored campaign it
//! resumes from the journal, and its bindings died with its connections.
//!
//! Executors hold no durable state, so they take no `--store` (passing one
//! is a usage error). The coordinator's journal is the only durable copy of
//! a trial: a killed-and-relaunched executor (same `--name`) ends its old
//! connection at `Hello` and recomputes at most the one trial it had not
//! yet answered.
//! `--connect-file` re-reads the address file on every reconnect attempt,
//! which is how executors ride out a coordinator restart onto a new port.
//!
//! Distributed mode covers plain fixed-count injection specs (the paper's
//! 90k-trial campaigns): no `--isolate`, no adaptive plan — an executor
//! runs trials in process, and the coordinator dispatches the fixed shard
//! plan.
//!
//! `--throttle-ms` paces each computed trial; `./ci` uses it to hold kill
//! windows open. Exits 0 on a completed campaign, 1 on I/O or protocol
//! failures, 2 on usage errors.

use bench::{positive_env, RunConfig};
use carolfi::{run_coordinator, run_executor, ConnectTarget, CoordConfig, ExecutorConfig, Injection, TrialKind};
use kernels::Benchmark;
use std::net::TcpListener;
use std::path::PathBuf;
use std::time::Duration;

fn usage() -> ! {
    eprintln!("usage: phi-coord --listen <addr> --store <dir> --benchmark <label> [flags]");
    eprintln!("       phi-coord --executor --name <id> --connect <addr>|--connect-file <path> [flags]");
    eprintln!("see the module docs (cargo doc -p bench) for the full flag set");
    std::process::exit(2);
}

fn fatal(msg: String) -> ! {
    eprintln!("phi-coord: {msg}");
    std::process::exit(1);
}

struct Args {
    executor: bool,
    listen: Option<String>,
    addr_file: Option<PathBuf>,
    store: Option<PathBuf>,
    benchmark: Option<String>,
    trials: Option<usize>,
    seed: Option<u64>,
    size: Option<String>,
    shards: usize,
    resume: bool,
    lease_timeout_ms: u64,
    monitor: Option<PathBuf>,
    name: Option<String>,
    connect: Option<String>,
    connect_file: Option<PathBuf>,
    throttle_ms: u64,
}

fn parse_args() -> Args {
    let mut a = Args {
        executor: false,
        listen: None,
        addr_file: None,
        store: None,
        benchmark: None,
        trials: None,
        seed: None,
        size: None,
        shards: 8,
        resume: false,
        lease_timeout_ms: 2000,
        monitor: None,
        name: None,
        connect: None,
        connect_file: None,
        throttle_ms: 0,
    };
    let mut it = std::env::args().skip(1);
    let positive = |raw: Option<String>, flag: &str| -> usize {
        match raw.and_then(|r| r.trim().parse::<usize>().ok()) {
            Some(n) if n > 0 => n,
            _ => {
                eprintln!("phi-coord: {flag}: expected a positive integer");
                std::process::exit(2);
            }
        }
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--executor" => a.executor = true,
            "--listen" => a.listen = it.next(),
            "--addr-file" => a.addr_file = it.next().map(PathBuf::from),
            "--store" => a.store = it.next().map(PathBuf::from),
            "--benchmark" => a.benchmark = it.next(),
            "--trials" => a.trials = Some(positive(it.next(), "--trials")),
            "--seed" => match it.next().and_then(|r| r.trim().parse::<u64>().ok()) {
                Some(n) => a.seed = Some(n),
                None => usage(),
            },
            "--size" => a.size = it.next(),
            "--shards" => a.shards = positive(it.next(), "--shards"),
            "--resume" => a.resume = true,
            "--lease-timeout-ms" => a.lease_timeout_ms = positive(it.next(), "--lease-timeout-ms") as u64,
            "--monitor" => a.monitor = it.next().map(PathBuf::from),
            "--name" => a.name = it.next(),
            "--connect" => a.connect = it.next(),
            "--connect-file" => a.connect_file = it.next().map(PathBuf::from),
            "--throttle-ms" => a.throttle_ms = positive(it.next(), "--throttle-ms") as u64,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    a
}

/// Writes the bound address where executors will look for it: temp file +
/// rename, so a polling reader sees either the old address or the new one,
/// never a torn prefix.
fn write_addr_file(path: &PathBuf, addr: &str) {
    let tmp = path.with_extension("tmp");
    if let Err(e) = std::fs::write(&tmp, format!("{addr}\n")).and_then(|()| std::fs::rename(&tmp, path)) {
        fatal(format!("write addr file {}: {e}", path.display()));
    }
}

fn run_coordinator_mode(a: &Args) -> ! {
    let Some(dir) = &a.store else {
        eprintln!("phi-coord: coordinator mode requires --store <journal-dir>");
        std::process::exit(2);
    };
    let Some(listen) = &a.listen else {
        eprintln!("phi-coord: coordinator mode requires --listen <addr> (port 0 for ephemeral)");
        std::process::exit(2);
    };
    let Some(label) = &a.benchmark else {
        eprintln!("phi-coord: coordinator mode requires --benchmark <label>");
        std::process::exit(2);
    };
    let Some(b) = Benchmark::from_label(label) else {
        fatal(format!("unknown benchmark {label:?}"));
    };
    let mut cfg = RunConfig::from_env();
    if let Some(t) = a.trials {
        cfg.trials = t;
    }
    if let Some(s) = a.seed {
        cfg.seed = s;
    }
    let mut spec = bench::campaign_spec(
        bench::CampaignKind::Inject,
        b,
        &cfg,
        &bench::StoreArgs { shards: a.shards, ..Default::default() },
    );
    if let Some(size) = &a.size {
        spec.size = size.clone();
    }
    let parsed = bench::validate_spec(spec).unwrap_or_else(|reason| fatal(format!("invalid spec: {reason}")));
    let meta = Injection::new(b.label(), &parsed.campaign_config()).meta(parsed.spec.shards);
    let spec_json =
        serde_json::to_string(&parsed.spec).unwrap_or_else(|e| fatal(format!("serialize spec: {e}")));

    if let Some(socket) = &a.monitor {
        if obs::snapshot().is_none() {
            obs::install(std::sync::Arc::new(obs::CounterRecorder::new()));
        }
        if let Err(e) = carolfi::monitor::serve_monitor(socket) {
            fatal(format!("bind monitor socket {}: {e}", socket.display()));
        }
        if let Err(e) = std::fs::create_dir_all(dir) {
            fatal(format!("create store dir {}: {e}", dir.display()));
        }
        carolfi::monitor::start_heartbeat(dir.join("heartbeat.json"));
    }

    let listener = TcpListener::bind(listen).unwrap_or_else(|e| fatal(format!("bind {listen}: {e}")));
    let addr = listener.local_addr().unwrap_or_else(|e| fatal(format!("local addr: {e}"))).to_string();
    if let Some(path) = &a.addr_file {
        write_addr_file(path, &addr);
    }
    eprintln!("phi-coord: listening on {addr} ({} trials, {} shards)", meta.trials, meta.shards);

    let mut ccfg = CoordConfig::new(dir.clone(), meta, spec_json);
    ccfg.resume = a.resume;
    ccfg.lease_timeout = Duration::from_millis(a.lease_timeout_ms);
    // Undocumented test hook for ./ci's crash drill: abandon (as a SIGKILL
    // would) once this many trials are journaled.
    if std::env::var("PHI_COORD_STOP_AFTER").is_ok() {
        ccfg.stop_after_merged = Some(positive_env("PHI_COORD_STOP_AFTER", 1) as u64);
    }

    let summary = run_coordinator(listener, &ccfg).unwrap_or_else(|e| fatal(format!("coordinator: {e}")));
    eprintln!(
        "phi-coord: merged {} trials ({} re-sent), {} leases granted, {} expired, {} re-dispatched",
        summary.merged, summary.duplicates, summary.leases_granted, summary.leases_expired, summary.redispatched
    );
    if summary.abandoned {
        // The stop hook fired: the journal is mid-campaign by design.
        eprintln!("phi-coord: abandoned after {} merged trials (PHI_COORD_STOP_AFTER)", summary.merged);
        std::process::exit(1);
    }
    let result = bench::render_result(dir, 0.0).unwrap_or_else(|e| fatal(format!("render result: {e}")));
    println!("{result}");
    std::process::exit(0);
}

fn run_executor_mode(a: &Args) -> ! {
    let Some(name) = &a.name else {
        eprintln!("phi-coord: executor mode requires --name <id> (stable across restarts)");
        std::process::exit(2);
    };
    if a.store.is_some() {
        eprintln!("phi-coord: --store is a coordinator flag; executors hold no durable state");
        std::process::exit(2);
    }
    let target = match (&a.connect, &a.connect_file) {
        (Some(addr), None) => ConnectTarget::Addr(addr.clone()),
        (None, Some(path)) => ConnectTarget::File(path.clone()),
        _ => {
            eprintln!("phi-coord: executor mode requires exactly one of --connect <addr> / --connect-file <path>");
            std::process::exit(2);
        }
    };
    let ecfg = ExecutorConfig { name: name.clone(), target, throttle: Duration::from_millis(a.throttle_ms) };

    let summary = run_executor(&ecfg, |meta, spec| {
        let p = bench::parse_spec(spec).unwrap_or_else(|reason| fatal(format!("coordinator spec: {reason}")));
        if p.spec.kind != bench::CampaignKind::Inject || p.spec.isolate || p.spec.plan.is_some() {
            fatal("distributed executors run plain fixed-count injection specs only".into());
        }
        if p.spec.benchmark != meta.benchmark || p.spec.seed != meta.seed || p.spec.trials != meta.trials {
            fatal("coordinator spec disagrees with its campaign meta".into());
        }
        // The same trial runner a warden worker builds from the spec:
        // pooled targets, trials keyed by global index, records serialized
        // with the identical serializer — the byte-identity contract.
        let mut run = p.trial_runner();
        move |global: u64| serde_json::to_string(&run(global as usize)).expect("trial records serialize")
    })
    .unwrap_or_else(|e| fatal(format!("{e}")));
    eprintln!("phi-coord: executor {name} done: {} trials computed", summary.computed);
    std::process::exit(0);
}

fn main() {
    let a = parse_args();
    if a.executor {
        run_executor_mode(&a);
    } else {
        run_coordinator_mode(&a);
    }
}
