//! `phi-cli` — client verbs for the `phi-serve` campaign service.
//!
//! ```text
//! phi-cli submit --socket <s> --kind inject|beam --benchmark <label>
//!                [--trials N] [--seed N] [--size test|small|paper]
//!                [--shards N] [--isolate] [--model <m>]... [--tolerance F]
//!                [--adaptive] [--ci F] [--ci-method wilson|clopper-pearson]
//! phi-cli submit --socket <s> --spec-file <path>   # raw spec JSON, as-is
//! phi-cli status --socket <s> <id>
//! phi-cli list   --socket <s>
//! phi-cli events --socket <s> <id> [--gauges-ms N]
//! phi-cli result --socket <s> <id> [--wait] [--timeout-ms N]
//! phi-cli cancel --socket <s> <id>
//! phi-cli records <journal-dir>              # offline: canonical records JSONL
//! phi-cli render  <journal-dir> [--tolerance F]   # offline: result document
//! ```
//!
//! `submit` defaults come from the same `PHI_*` env the figure binaries
//! read (`PHI_TRIALS`/`PHI_STRIKES`/`PHI_SIZE`/`PHI_SEED`), built through
//! the shared [`bench::campaign_spec`] constructor — one source of truth
//! for what a spec means. `--adaptive`/`--ci` produce a version-2 spec
//! with a `plan` block; `--spec-file` submits a JSON document verbatim
//! (no client-side validation), which is how `./ci` probes the server's
//! own version admission. The offline verbs read any phi-store journal
//! (a figure binary's `--store` directory or a daemon campaign's
//! `journal/`), which is how `./ci` byte-compares daemon output against
//! direct runs; the rendered result document's `spec_version` field
//! reports which spec semantics (1 = fixed-count, 2 = adaptive) the
//! journal was produced under.
//!
//! Exits 0 on success, 1 on daemon-reported errors or I/O failures, 2 on
//! usage errors, and [`EXIT_REJECTED`] (3) when the server rejects a
//! submitted spec — the server's reason is echoed verbatim on stderr, and
//! the distinct code lets scripts tell a rejection from a transport
//! failure. `events` prints one JSON object per line (`Event` and
//! `Gauges` frames verbatim) until the campaign is terminal.

use bench::{CampaignKind, RunConfig, StoreArgs};
use carolfi::warden::read_frame_blocking;
use kernels::Benchmark;
use serve::proto::{roundtrip, subscribe, ClientRequest, ServerReply, DEFAULT_GAUGE_MS};
use std::path::PathBuf;

/// Exit code for a server-side spec rejection (distinct from transport
/// errors, which exit 1).
const EXIT_REJECTED: i32 = 3;

fn usage() -> ! {
    eprintln!("usage: phi-cli <submit|status|list|events|result|cancel> --socket <path> [args]");
    eprintln!("       phi-cli <records|render> <journal-dir> [--tolerance F]");
    eprintln!("see the module docs (cargo doc -p bench) for per-verb flags");
    std::process::exit(2);
}

fn fatal(msg: String) -> ! {
    eprintln!("phi-cli: {msg}");
    std::process::exit(1);
}

struct Args {
    verb: String,
    socket: Option<PathBuf>,
    id: Option<String>,
    kind: String,
    benchmark: Option<String>,
    trials: Option<usize>,
    seed: Option<u64>,
    size: Option<String>,
    shards: Option<usize>,
    isolate: bool,
    models: Vec<String>,
    tolerance: f64,
    adaptive: bool,
    ci: f64,
    ci_method: sdc_analysis::CiMethod,
    spec_file: Option<PathBuf>,
    wait: bool,
    timeout_ms: u64,
    gauges_ms: u64,
    dir: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let Some(verb) = it.next() else { usage() };
    let mut a = Args {
        verb,
        socket: None,
        id: None,
        kind: "inject".into(),
        benchmark: None,
        trials: None,
        seed: None,
        size: None,
        shards: None,
        isolate: false,
        models: Vec::new(),
        tolerance: 0.0,
        adaptive: false,
        ci: 0.01,
        ci_method: Default::default(),
        spec_file: None,
        wait: false,
        timeout_ms: 600_000,
        gauges_ms: DEFAULT_GAUGE_MS,
        dir: None,
    };
    let positive = |raw: Option<String>, flag: &str| -> usize {
        match raw.and_then(|r| r.trim().parse::<usize>().ok()) {
            Some(n) if n > 0 => n,
            _ => {
                eprintln!("phi-cli: {flag}: expected a positive integer");
                std::process::exit(2);
            }
        }
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--socket" => a.socket = it.next().map(PathBuf::from),
            "--kind" => a.kind = it.next().unwrap_or_else(|| usage()),
            "--benchmark" => a.benchmark = it.next(),
            "--trials" => a.trials = Some(positive(it.next(), "--trials")),
            "--seed" => match it.next().and_then(|r| r.trim().parse::<u64>().ok()) {
                Some(n) => a.seed = Some(n),
                None => usage(),
            },
            "--size" => a.size = it.next(),
            "--shards" => a.shards = Some(positive(it.next(), "--shards")),
            "--isolate" => a.isolate = true,
            "--model" => a.models.push(it.next().unwrap_or_else(|| usage())),
            "--tolerance" => match it.next().and_then(|r| r.trim().parse::<f64>().ok()) {
                Some(f) if f.is_finite() && f >= 0.0 => a.tolerance = f,
                _ => usage(),
            },
            "--adaptive" => a.adaptive = true,
            "--ci" => match it.next().and_then(|r| r.trim().parse::<f64>().ok()) {
                Some(f) if f.is_finite() && f > 0.0 && f < 1.0 => a.ci = f,
                _ => usage(),
            },
            "--ci-method" => match it.next().and_then(|r| sdc_analysis::CiMethod::parse(r.trim())) {
                Some(m) => a.ci_method = m,
                None => usage(),
            },
            "--spec-file" => a.spec_file = it.next().map(PathBuf::from),
            "--wait" => a.wait = true,
            "--timeout-ms" => a.timeout_ms = positive(it.next(), "--timeout-ms") as u64,
            "--gauges-ms" => a.gauges_ms = positive(it.next(), "--gauges-ms") as u64,
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') => {
                if matches!(a.verb.as_str(), "records" | "render") {
                    a.dir = Some(PathBuf::from(other));
                } else {
                    a.id = Some(other.to_string());
                }
            }
            _ => usage(),
        }
    }
    a
}

/// Builds the submit spec: figure-binary defaults from the `PHI_*` env
/// (via the shared constructor), then the explicit flags on top. With
/// `--spec-file` the file's JSON is submitted verbatim instead — no
/// client-side construction or validation, so the server's own admission
/// (including version rejection) is what the caller observes.
fn build_spec(a: &Args) -> String {
    if let Some(path) = &a.spec_file {
        return std::fs::read_to_string(path)
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|e| fatal(format!("read spec file {}: {e}", path.display())));
    }
    let Some(label) = &a.benchmark else {
        eprintln!("phi-cli: submit requires --benchmark <label> (or --spec-file <path>)");
        std::process::exit(2);
    };
    let Some(b) = Benchmark::from_label(label) else {
        fatal(format!("unknown benchmark {label:?}"));
    };
    let Some(kind) = CampaignKind::from_label(&a.kind) else {
        eprintln!("phi-cli: --kind: expected inject or beam, got {:?}", a.kind);
        std::process::exit(2);
    };
    let mut cfg = RunConfig::from_env();
    if let Some(t) = a.trials {
        cfg.trials = t;
        cfg.strikes = t;
    }
    if let Some(s) = a.seed {
        cfg.seed = s;
    }
    let store = StoreArgs {
        shards: a.shards.unwrap_or(8),
        isolate: a.isolate,
        adaptive: a.adaptive,
        ci: a.ci,
        ci_method: a.ci_method,
        ..Default::default()
    };
    let mut spec = bench::campaign_spec(kind, b, &cfg, &store);
    if let Some(size) = &a.size {
        spec.size = size.clone();
    }
    spec.models = a.models.clone();
    spec.tolerance = a.tolerance;
    // Validate client-side for a usable diagnostic before the RPC.
    if let Err(reason) = bench::validate_spec(spec.clone()) {
        eprintln!("invalid spec: {reason}");
        std::process::exit(EXIT_REJECTED);
    }
    serde_json::to_string(&spec).unwrap_or_else(|e| fatal(format!("serialize spec: {e}")))
}

fn require_socket(a: &Args) -> &PathBuf {
    a.socket.as_ref().unwrap_or_else(|| {
        eprintln!("phi-cli: {} requires --socket <path>", a.verb);
        std::process::exit(2);
    })
}

fn require_id(a: &Args) -> &str {
    a.id.as_deref().unwrap_or_else(|| {
        eprintln!("phi-cli: {} requires a campaign id", a.verb);
        std::process::exit(2);
    })
}

fn print_status(s: &serve::proto::CampaignStatus) {
    let err = if s.error.is_empty() { String::new() } else { format!("  error: {}", s.error) };
    println!("{}  {:9}  {:6} {:9}  {}/{}{err}", s.id, s.state, s.kind, s.benchmark, s.completed, s.total);
}

fn main() {
    let a = parse_args();
    match a.verb.as_str() {
        "submit" => {
            let spec = build_spec(&a);
            match roundtrip(require_socket(&a), &ClientRequest::Submit { spec }) {
                Ok(ServerReply::Submitted { id }) => println!("{id}"),
                Ok(ServerReply::Rejected { reason }) => {
                    // The server's reason, verbatim — no prefix — so
                    // scripts and humans see exactly what admission said;
                    // the exit code distinguishes this from transport
                    // failures (which exit 1).
                    eprintln!("{reason}");
                    std::process::exit(EXIT_REJECTED);
                }
                Ok(other) => fatal(format!("unexpected reply {other:?}")),
                Err(e) => fatal(format!("submit: {e}")),
            }
        }
        "status" => {
            let id = require_id(&a).to_string();
            match roundtrip(require_socket(&a), &ClientRequest::Status { id }) {
                Ok(ServerReply::Status { status }) => print_status(&status),
                Ok(ServerReply::Error { reason }) => fatal(reason),
                Ok(other) => fatal(format!("unexpected reply {other:?}")),
                Err(e) => fatal(format!("status: {e}")),
            }
        }
        "list" => match roundtrip(require_socket(&a), &ClientRequest::List) {
            Ok(ServerReply::List { campaigns }) => campaigns.iter().for_each(print_status),
            Ok(other) => fatal(format!("unexpected reply {other:?}")),
            Err(e) => fatal(format!("list: {e}")),
        },
        "cancel" => {
            let id = require_id(&a).to_string();
            match roundtrip(require_socket(&a), &ClientRequest::Cancel { id }) {
                Ok(ServerReply::Status { status }) => print_status(&status),
                Ok(ServerReply::Error { reason }) => fatal(reason),
                Ok(other) => fatal(format!("unexpected reply {other:?}")),
                Err(e) => fatal(format!("cancel: {e}")),
            }
        }
        "result" => {
            let id = require_id(&a).to_string();
            let wait_ms = if a.wait { a.timeout_ms } else { 0 };
            match roundtrip(require_socket(&a), &ClientRequest::Result { id, wait_ms }) {
                Ok(ServerReply::Result { result, .. }) => println!("{result}"),
                Ok(ServerReply::Error { reason }) => fatal(reason),
                Ok(other) => fatal(format!("unexpected reply {other:?}")),
                Err(e) => fatal(format!("result: {e}")),
            }
        }
        "events" => {
            let id = require_id(&a);
            let mut stream = subscribe(require_socket(&a), id, a.gauges_ms)
                .unwrap_or_else(|e| fatal(format!("subscribe: {e}")));
            loop {
                let reply: ServerReply = match read_frame_blocking(&mut stream) {
                    Ok(r) => r,
                    // Daemon gone mid-stream: the campaign survives in its
                    // journal; reconnect by id later.
                    Err(e) => fatal(format!("stream: {e}")),
                };
                match &reply {
                    ServerReply::Done => return,
                    ServerReply::Error { reason } => fatal(reason.clone()),
                    _ => match serde_json::to_string(&reply) {
                        Ok(json) => println!("{json}"),
                        Err(e) => fatal(format!("serialize frame: {e}")),
                    },
                }
            }
        }
        "records" => {
            let Some(dir) = &a.dir else { usage() };
            // Its errors name the journal directory already.
            let (_, records) = bench::spec::journal_records(dir).unwrap_or_else(|e| fatal(e.to_string()));
            for r in &records {
                match serde_json::to_string(r) {
                    Ok(json) => println!("{json}"),
                    Err(e) => fatal(format!("serialize record: {e}")),
                }
            }
        }
        "render" => {
            let Some(dir) = &a.dir else { usage() };
            let result = bench::render_result(dir, a.tolerance).unwrap_or_else(|e| fatal(e.to_string()));
            println!("{result}");
        }
        _ => usage(),
    }
}
