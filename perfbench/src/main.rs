//! `perfbench` — the campaign benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//!           [--memory-round <digests>]
//! ```
//!
//! Runs one workload (see `specs.rs` and `README.md`) in the current
//! directory, which it treats as its scratch space: it computes every
//! campaign's reference digest, times the workload's set-up several times,
//! then runs timed rounds over the workload's campaigns for `--seconds`,
//! verifying every result document. The last line of stdout is one JSON
//! object with the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`, which alternates untraced and traced rounds and
//! also prints the profile table). Exits 1 if any operation failed, a
//! digest did not match, or a child process or thread outlived the
//! workload; 2 on usage errors. `--smoke` shrinks every campaign and the
//! set-up repetitions, for the self-tests. `--memory-round` is the memory
//! child described below.
//!
//! Round times are taken as the fastest of many rounds: other work on the
//! host only ever adds time, so the minimum is the estimate of the code's
//! own cost that moves least between runs (Chen & Revels, "Robust
//! benchmarking in noisy environments", 2016). `trials_per_s` is the
//! fastest round's rate and `campaign_s` the geometric mean over the
//! campaigns of each one's fastest time. `setup_s` is the median of the
//! set-up repetitions.
//!
//! Every round runs under glibc's default allocator, untouched.
//! `peak_rss_mb` is the `VmHWM` of a fresh process that runs one round and
//! exits, the median over three such processes: after the timed rounds an
//! untraced run re-executes itself with `--memory-round` and the reference
//! digests, and each child runs and verifies one round. In the long-lived
//! process the peak would depend on the allocator's history: glibc raises
//! its mmap threshold to the largest buffer freed so far, so peaks grew
//! from round to round and varied twofold between seeds.

mod layers;
mod specs;
mod workloads;

use layers::{ratio, Tally, END_TO_END, PER_LAYER};
use specs::{Scale, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::Runner;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 25;

/// Memory children per untraced run; `peak_rss_mb` is their median.
const MEMORY_ROUNDS: usize = 3;

/// How long a finished workload's threads and children get to exit.
const TEARDOWN_GRACE: Duration = Duration::from_secs(5);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    /// Run one round for its peak RSS, against these digests.
    memory_round: Option<Vec<workloads::Expected>>,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] \
         [--memory-round <digests>]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let (mut workload, mut seed, mut seconds, mut trace, mut scale) =
        (None, None, None, None, Scale::Full);
    let mut memory_round = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{arg}: expected a value")))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value();
                workload = Some(
                    Workload::from_name(&name)
                        .unwrap_or_else(|| usage(&format!("unknown workload {name:?}"))),
                );
            }
            "--seed" => {
                seed = Some(
                    value()
                        .parse::<u64>()
                        .unwrap_or_else(|_| usage("--seed: expected an unsigned integer")),
                )
            }
            "--seconds" => match value().parse::<f64>() {
                Ok(s) if s.is_finite() && s > 0.0 => seconds = Some(s),
                _ => usage("--seconds: expected a positive number"),
            },
            "--trace" => match value().as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => usage("--trace: expected 0 or 1"),
            },
            "--smoke" => scale = Scale::Smoke,
            "--memory-round" => {
                memory_round = Some(
                    workloads::decode_expected(&value())
                        .unwrap_or_else(|| usage("--memory-round: expected crc:trials,...")),
                )
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Args {
            workload,
            seed,
            seconds,
            trace,
            scale,
            memory_round,
        },
        _ => usage("--workload, --seed, --seconds and --trace are required"),
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    kib / 1024.0
}

fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.count())
        .unwrap_or(0)
}

/// Pids of live processes whose parent is this process.
fn child_pids() -> Vec<u32> {
    let me = std::process::id();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    entries
        .flatten()
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            // Field 4 of /proc/<pid>/stat, counted after the parenthesised
            // command name (which may itself contain spaces).
            let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
            let fields = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
            fields
                .split_whitespace()
                .nth(1)
                .and_then(|p| p.parse::<u32>().ok())
                == Some(me)
        })
        .collect()
}

/// Waits for the workload's threads and child processes to be gone.
/// `Err` names what outlived it.
fn check_teardown(baseline_threads: usize) -> Result<(), String> {
    let deadline = Instant::now() + TEARDOWN_GRACE;
    loop {
        let (threads, children) = (thread_count(), child_pids());
        if threads <= baseline_threads && children.is_empty() {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err(format!(
                "{} thread(s) beyond the {baseline_threads} at start and child process(es) {children:?} outlived the workload",
                threads.saturating_sub(baseline_threads)
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn metrics_json(names: &[(&str, &str)], values: &[f64]) -> String {
    let fields: Vec<String> = names
        .iter()
        .zip(values)
        .map(|((name, unit), v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn fatal(what: &str, e: impl std::fmt::Display) -> ! {
    eprintln!("perfbench: {what}: {e}");
    std::process::exit(1);
}

/// The memory child: one verified round, then its peak RSS as the last
/// line of stdout. Exits 1 if the round failed.
fn run_memory_round(args: &Args, expected: Vec<workloads::Expected>, scratch: PathBuf) -> ! {
    let specs = specs::specs(args.workload, args.seed, args.scale);
    let campaigns =
        workloads::with_expected(specs, expected).unwrap_or_else(|e| fatal("memory round", e));
    let runner = Runner::new(args.workload, campaigns, Vec::new(), scratch);
    let round = runner
        .round(false)
        .unwrap_or_else(|e| fatal("memory round", e));
    drop(runner);
    for f in &round.failures {
        eprintln!("perfbench: memory round FAILED: {f}");
    }
    println!("{}", peak_rss_mb());
    std::process::exit(if round.failures.is_empty() { 0 } else { 1 });
}

/// Runs the memory child in a fresh subdirectory and waits for it.
/// Returns its peak RSS in MiB.
fn memory_child(args: &Args, runner: &Runner) -> Result<f64, String> {
    let dir = PathBuf::from("memory");
    std::fs::create_dir_all(&dir).map_err(|e| format!("memory round dir: {e}"))?;
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", args.workload.name(), "--trace", "0"])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args([
            "--memory-round",
            &workloads::encode_expected(&runner.campaigns),
        ])
        .current_dir(&dir)
        .stdout(Stdio::piped());
    if args.scale == Scale::Smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .spawn()
        .and_then(|child| child.wait_with_output())
        .map_err(|e| format!("memory round: {e}"))?;
    let _ = std::fs::remove_dir_all(&dir);
    if !out.status.success() {
        return Err(format!("memory round exited with {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .and_then(|l| l.trim().parse::<f64>().ok())
        .ok_or_else(|| "memory round printed no peak RSS".to_string())
}

fn main() {
    // Isolated campaigns re-exec this binary as their warden workers.
    bench::maybe_run_worker();
    let args = parse_args();
    // Warden rendezvous sockets go to the temp dir; keep them inside the
    // scratch directory, under a path short enough for a socket address.
    std::fs::create_dir_all("tmp").unwrap_or_else(|e| fatal("create tmp", e));
    std::env::set_var("TMPDIR", "tmp");
    let baseline_threads = thread_count();
    let scratch = std::env::current_dir().unwrap_or_else(|e| fatal("current dir", e));
    eprintln!(
        "perfbench: {} seed {} for {} s, trace {}, {} cpus",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(0)
    );

    if let Some(expected) = args.memory_round.clone() {
        run_memory_round(&args, expected, scratch);
    }
    let prepare =
        |specs| workloads::prepare(specs, &scratch).unwrap_or_else(|e| fatal("reference runs", e));
    let campaigns = prepare(specs::specs(args.workload, args.seed, args.scale));
    let probes = prepare(specs::probe_specs(args.workload, args.seed, args.scale));
    let runner = Runner::new(args.workload, campaigns, probes, scratch);

    let reps = if args.scale == Scale::Smoke {
        3
    } else {
        SETUP_REPS
    };
    let mut setups = Vec::with_capacity(reps);
    let setup_once = |runner: &Runner| runner.setup_once().unwrap_or_else(|e| fatal("set-up", e));

    let recorder = Arc::new(obs::CounterRecorder::new());
    let mut tally = Tally::new(runner.workers());
    let (mut untraced, mut traced_rounds, mut campaign_s) =
        (Vec::new(), Vec::new(), BTreeMap::new());
    let (mut attempted, mut failures) = (0u64, Vec::new());
    let min_rounds = if args.trace { 2 } else { 1 };
    let start = Instant::now();
    let mut i = 0;
    while i < min_rounds || start.elapsed().as_secs_f64() < args.seconds {
        // Set-up repetitions are spread over the run rather than taken in
        // one burst, so a slow stretch of the host cannot move them all.
        let due = (reps as f64 * start.elapsed().as_secs_f64() / args.seconds).ceil() as usize;
        while setups.len() < due.clamp(1, reps) {
            setups.push(setup_once(&runner));
        }
        let traced = args.trace && i % 2 == 1;
        if traced && !runner.owns_recorder() {
            obs::install(recorder.clone());
        }
        let before = traced.then(obs::merged_snapshot);
        let round = runner.round(traced).unwrap_or_else(|e| fatal("round", e));
        eprintln!(
            "perfbench: round {i}{}: {} trials in {:.3} s",
            if traced { " (traced)" } else { "" },
            round.trials,
            round.wall_s,
        );
        if let Some(before) = before {
            tally.add(
                &round,
                &obs::MetricsSnapshot::delta(&obs::merged_snapshot(), &before),
            );
            if !runner.owns_recorder() {
                obs::uninstall();
            }
            traced_rounds.push((round.trials, round.wall_s));
        } else {
            untraced.push((round.trials, round.wall_s));
            for &(k, t) in &round.campaign_s {
                campaign_s.entry(k).or_insert_with(Vec::new).push(t);
            }
        }
        attempted += round.attempted;
        failures.extend(round.failures);
        i += 1;
    }
    let rounds = i;
    while setups.len() < reps {
        setups.push(setup_once(&runner));
    }
    let mut peaks = Vec::new();
    for _ in 0..if args.trace { 0 } else { MEMORY_ROUNDS } {
        attempted += 1;
        match memory_child(&args, &runner) {
            Ok(mb) => peaks.push(mb),
            Err(e) => failures.push(e),
        }
    }
    eprintln!("perfbench: peak RSS of the memory rounds (MiB): {peaks:?}");
    eprintln!("perfbench: set-up repetitions (s): {setups:?}");
    eprintln!(
        "perfbench: campaign times (s): {:?}",
        campaign_s.values().collect::<Vec<_>>()
    );
    let setup_s = median(setups);
    // Trials per second of the fastest round, excluding the workload's
    // set-up.
    let rate = |rounds: &[(u64, f64)]| {
        rounds
            .iter()
            .map(|&(trials, wall)| {
                ratio(
                    trials as f64,
                    if wall > setup_s { wall - setup_s } else { wall },
                )
            })
            .fold(0.0, f64::max)
    };
    // Each campaign's fastest time, then their geometric mean: every
    // campaign weighs the same share however long it runs, and no single
    // campaign decides the figure, as the middle one of a median would when
    // its neighbours lie far apart.
    let fastest: Vec<f64> = campaign_s
        .into_values()
        .map(|t: Vec<f64>| t.into_iter().fold(f64::INFINITY, f64::min))
        .collect();
    let campaign_s = if fastest.is_empty() {
        0.0
    } else {
        (fastest.iter().map(|t| t.ln()).sum::<f64>() / fastest.len() as f64).exp()
    };
    drop(runner);
    obs::uninstall();
    if let Err(leak) = check_teardown(baseline_threads) {
        attempted += 1;
        failures.push(leak);
    }

    for f in &failures {
        eprintln!("perfbench: FAILED: {f}");
    }
    let failed = failures.len() as u64;
    let metrics = if args.trace {
        let overhead = ratio(rate(&untraced), rate(&traced_rounds));
        print!("{}", tally.table());
        metrics_json(&PER_LAYER, &tally.metrics(overhead))
    } else {
        let verified = ratio(attempted.saturating_sub(failed) as f64, attempted as f64);
        metrics_json(
            &END_TO_END,
            &[
                rate(&untraced),
                setup_s,
                campaign_s,
                median(peaks),
                verified,
            ],
        )
    };
    eprintln!(
        "perfbench: {rounds} rounds in {:.2} s",
        start.elapsed().as_secs_f64()
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        failed == 0,
        attempted.max(1)
    );
    std::process::exit(if failed == 0 { 0 } else { 1 });
}
