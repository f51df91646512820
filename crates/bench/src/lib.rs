//! Shared harness for the figure-regeneration binaries.
//!
//! Every evaluation figure of the paper is regenerated by a binary in
//! `src/bin/` (see DESIGN.md's per-experiment index). Campaigns are
//! expensive relative to the analysis, so completed campaigns are cached as
//! JSON-lines record logs under `target/campaign_cache/` — the same format
//! as the paper's public log repository — and re-used across binaries:
//! `fig3_tolerance` reads the same beam corpus `fig2_beam_fit` produced.
//!
//! Knobs (environment variables):
//! * `PHI_TRIALS` — injections per benchmark (default 4000);
//! * `PHI_STRIKES` — beam strikes per benchmark (default 8000);
//! * `PHI_SIZE` — `test`, `small` (default) or `paper`;
//! * `PHI_SEED` — master seed (default 2017);
//! * `PHI_NO_CACHE` — set to recompute campaigns from scratch.
//!
//! The figure binaries additionally accept the durable-store flags parsed
//! by [`StoreArgs`] (`--store <dir>`, `--shards N`, `--resume`,
//! `--budget N`), which replace the plain cache with a crash-safe,
//! resumable `phi-store` journal per campaign.

use beamsim::{run_beam_campaign, BeamCampaign, BeamConfig, Strikes};
use carolfi::orchestrator::StoreConfig;
use carolfi::record::{read_log, write_log, TrialRecord};
use carolfi::{run_campaign, CampaignConfig, Output, TrialKind};
use kernels::{build, golden, Benchmark, SizeClass};
use std::path::{Path, PathBuf};
use std::sync::Arc;

pub mod spec;
pub use spec::{
    campaign_spec, parse_spec, pvf_row, render_result, run_spec, spec_result, validate_spec, CampaignKind,
    CampaignSpec, ParsedSpec, PlanSpec, SpecResult, SpecRun, SpecRunner,
};

/// Exit code when a stored campaign pauses on budget exhaustion: not an
/// error (the journal holds a resumable prefix), not success (the figures
/// were not produced). `./ci` relies on it to script interruption.
pub const EXIT_PAUSED: i32 = 3;

/// Runtime configuration from the environment.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub trials: usize,
    pub strikes: usize,
    pub size: SizeClass,
    pub seed: u64,
    pub use_cache: bool,
}

impl RunConfig {
    /// Reads the `PHI_*` knobs, exiting with a diagnostic on malformed
    /// values. A typo'd `PHI_TRIALS=400O` must not silently run the default
    /// 4000-trial campaign.
    pub fn from_env() -> Self {
        match Self::from_lookup(|k| std::env::var(k).ok()) {
            Ok(cfg) => cfg,
            Err(msg) => {
                eprintln!("error: {msg}");
                std::process::exit(2);
            }
        }
    }

    /// Parses the configuration from an arbitrary key lookup (testable form
    /// of [`RunConfig::from_env`]). Missing keys fall back to defaults;
    /// present-but-invalid values are errors.
    pub fn from_lookup(get: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        let positive = |key: &str, default: usize| parse_positive(get(key), key, default);
        let size = match get("PHI_SIZE").as_deref().map(str::trim) {
            None => SizeClass::Small,
            Some("test") => SizeClass::Test,
            Some("small") => SizeClass::Small,
            Some("paper") => SizeClass::Paper,
            Some(other) => return Err(format!("PHI_SIZE: expected test, small or paper, got {other:?}")),
        };
        let seed = match get("PHI_SEED") {
            None => 2017,
            Some(raw) => raw
                .trim()
                .parse::<u64>()
                .map_err(|_| format!("PHI_SEED: expected an unsigned integer, got {raw:?}"))?,
        };
        Ok(RunConfig {
            trials: positive("PHI_TRIALS", 4000)?,
            strikes: positive("PHI_STRIKES", 8000)?,
            size,
            seed,
            use_cache: get("PHI_NO_CACHE").is_none(),
        })
    }

    /// The wire/env tag of the size class (`test`/`small`/`paper`).
    pub fn size_tag(&self) -> &'static str {
        match self.size {
            SizeClass::Test => "test",
            SizeClass::Small => "small",
            SizeClass::Paper => "paper",
        }
    }
}

fn parse_positive(raw: Option<String>, key: &str, default: usize) -> Result<usize, String> {
    match raw {
        None => Ok(default),
        Some(raw) => match raw.trim().parse::<usize>() {
            Ok(0) => Err(format!("{key}: must be at least 1, got {raw:?}")),
            Ok(n) => Ok(n),
            Err(_) => Err(format!("{key}: expected a positive integer, got {raw:?}")),
        },
    }
}

/// Reads one positive-integer `PHI_*` knob with a binary-specific default,
/// exiting with a diagnostic on malformed values — the same contract as
/// [`RunConfig::from_env`], for binaries that don't use the full config.
pub fn positive_env(key: &str, default: usize) -> usize {
    parse_positive(std::env::var(key).ok(), key, default).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(2);
    })
}

/// Reports a fatal I/O failure, naming the path involved, and exits
/// non-zero — the campaign-store counterpart of the `PHI_*` env-validation
/// diagnostics. A silent `.expect()` backtrace names neither.
pub fn io_fatal(what: &str, path: &Path, err: &std::io::Error) -> ! {
    eprintln!("error: {what} {}: {err}", path.display());
    std::process::exit(1);
}

fn cache_dir() -> PathBuf {
    let p = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/campaign_cache");
    if let Err(e) = std::fs::create_dir_all(&p) {
        io_fatal("create campaign cache dir", &p, &e);
    }
    p
}

fn cached<F: FnOnce() -> Vec<TrialRecord>>(key: String, use_cache: bool, run: F) -> Vec<TrialRecord> {
    let path = cache_dir().join(format!("{key}.jsonl"));
    if use_cache {
        if let Ok(f) = std::fs::File::open(&path) {
            if let Ok(records) = read_log(std::io::BufReader::new(f)) {
                if !records.is_empty() {
                    return records;
                }
            }
        }
    }
    let records = run();
    // A cache that silently fails to persist turns every later binary into a
    // full re-run; fail loudly instead.
    match std::fs::File::create(&path) {
        Err(e) => io_fatal("write campaign cache", &path, &e),
        Ok(f) => {
            if let Err(e) = write_log(std::io::BufWriter::new(f), &records) {
                io_fatal("write campaign cache", &path, &e);
            }
        }
    }
    records
}

/// The golden (fault-free) output of a benchmark, timed under the `golden`
/// span — every campaign the figure binaries and `run_spec` run in process
/// classifies against one of these.
pub(crate) fn golden_output(b: Benchmark, size: SizeClass) -> Output {
    let _span = obs::span!("golden");
    golden(b, size)
}

/// Runs (or loads) the CAROL-FI injection campaign for one benchmark.
pub fn injection_records(b: Benchmark, cfg: &RunConfig) -> Vec<TrialRecord> {
    let key = format!("inject-{}-{}-{}-{}", b.label(), cfg.trials, cfg.seed, cfg.size_tag());
    cached(key, cfg.use_cache, || {
        let g = golden_output(b, cfg.size);
        let ccfg = CampaignConfig { trials: cfg.trials, seed: cfg.seed, n_windows: b.n_windows(), ..Default::default() };
        run_campaign(b.label(), || build(b, cfg.size), &g, &ccfg).records
    })
}

/// Runs (or loads) the beam campaign for one benchmark, rebuilding the
/// `BeamCampaign` around the (possibly cached) records through the beam
/// kind's finish step, MCA log included. The rebuilt report carries outcome
/// counts but no timing (cache loads have none).
pub fn beam_records(b: Benchmark, cfg: &RunConfig) -> BeamCampaign {
    let key = format!("beam-{}-{}-{}-{}", b.label(), cfg.strikes, cfg.seed, cfg.size_tag());
    let bcfg = BeamConfig {
        strikes: cfg.strikes,
        seed: cfg.seed,
        n_windows: b.n_windows(),
        engine: beamsim::campaign::engine_for(b.label()),
        ..Default::default()
    };
    let records = cached(key, cfg.use_cache, || {
        let g = golden_output(b, cfg.size);
        run_beam_campaign(b.label(), || build(b, cfg.size), &g, &bcfg).records
    });
    let kind = Strikes::new(b.label(), &bcfg);
    let report = kind.report(&records, 0, 0, 0);
    kind.finish(records, report)
}

/// Worker-mode entry for `--isolate`: when this process was spawned by a
/// warden ([`carolfi::warden::worker_active`]), rebuild the campaign from
/// the [`CampaignSpec`] the supervisor passed through the warden spec
/// environment variable, serve its trials over the supervision socket
/// until shutdown and exit; otherwise return immediately. Figure binaries
/// call this first thing in `main`, before any argument parsing or output.
pub fn maybe_run_worker() {
    if !carolfi::warden::worker_active() {
        return;
    }
    let raw = carolfi::warden::worker_spec().unwrap_or_default();
    let spec = parse_spec(&raw).unwrap_or_else(|reason| {
        eprintln!("error: bad warden worker spec {raw:?}: {reason}");
        std::process::exit(2);
    });
    // Workers always record: their counters ride back to the supervisor as
    // metrics frames over the supervision socket, where they fold into the
    // cross-process hub — so `--isolate` no longer blinds `--telemetry` or
    // the live monitor. Outcome-class counting stays off in the worker
    // (`count_outcomes: false`): the supervisor counts each trial exactly
    // once when it journals the winning record, so warden retries of a
    // killed attempt never double-count.
    obs::install(Arc::new(obs::CounterRecorder::new()));
    let result = carolfi::warden::serve(spec.trial_runner(false));
    std::process::exit(if result.is_ok() { 0 } else { 1 });
}

/// Command-line selection of the durable campaign store.
///
/// `--store <dir>` switches a figure binary from the ephemeral
/// `target/campaign_cache/` to a crash-safe `phi-store` journal under
/// `<dir>`, one sub-journal per campaign. `--shards N` picks the shard
/// count (the aggregate is bit-identical for any N), `--resume` continues
/// an existing store, `--budget N` caps how many trials this invocation
/// may execute before pausing (exit code [`EXIT_PAUSED`]), and
/// `--isolate` runs every trial in a supervised child process (crashes,
/// fatal signals and hangs of the victim become DUE records instead of
/// taking the campaign down).
///
/// `--monitor <socket>` (usable with or without `--store`) additionally
/// serves live campaign status — per-shard progress, throughput, ETA,
/// outcome mix, worker health — on a Unix socket that `phi-top` renders;
/// with `--store` it also persists a periodic `heartbeat.json` in the store
/// root for post-mortem inspection.
///
/// `--adaptive` (requires `--store`) switches injection campaigns to the
/// adaptive stratified planner: `PHI_TRIALS` becomes the horizon, and each
/// campaign stops early once every (fault model × time window) stratum's
/// 95 % Wilson interval per outcome class is narrower than the `--ci`
/// target (default 0.01, the paper's §6 worst-case error-bar budget).
#[derive(Debug, Clone, Default)]
pub struct StoreArgs {
    pub dir: Option<PathBuf>,
    pub shards: usize,
    pub resume: bool,
    pub budget: Option<usize>,
    pub isolate: bool,
    pub monitor: Option<PathBuf>,
    /// Run injection campaigns under the adaptive CI-driven planner.
    pub adaptive: bool,
    /// Target CI width for `--adaptive`, in (0, 1).
    pub ci: f64,
    /// Interval method for the `--adaptive` stopping rule
    /// (`--ci-method wilson|clopper-pearson`, default Wilson).
    pub ci_method: sdc_analysis::CiMethod,
}

impl StoreArgs {
    /// Parses the store flags from the process arguments, exiting with a
    /// diagnostic on malformed usage. Unrelated flags (`--telemetry`) are
    /// ignored.
    pub fn from_args() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(msg) => {
                eprintln!("error: {msg}");
                std::process::exit(2);
            }
        }
    }

    /// Testable form of [`StoreArgs::from_args`].
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = StoreArgs { shards: 8, ci: 0.01, ..Default::default() };
        let mut ci_given = false;
        let mut ci_method_given = false;
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag}: expected a value"));
            match arg.as_str() {
                "--store" => out.dir = Some(PathBuf::from(value("--store")?)),
                "--monitor" => out.monitor = Some(PathBuf::from(value("--monitor")?)),
                "--resume" => out.resume = true,
                "--isolate" => out.isolate = true,
                "--adaptive" => out.adaptive = true,
                "--shards" => {
                    let raw = value("--shards")?;
                    out.shards = match raw.trim().parse::<usize>() {
                        Ok(0) | Err(_) => return Err(format!("--shards: expected a positive integer, got {raw:?}")),
                        Ok(n) => n,
                    };
                }
                "--budget" => {
                    let raw = value("--budget")?;
                    out.budget = match raw.trim().parse::<usize>() {
                        Ok(0) | Err(_) => return Err(format!("--budget: expected a positive integer, got {raw:?}")),
                        Ok(n) => Some(n),
                    };
                }
                "--ci" => {
                    let raw = value("--ci")?;
                    out.ci = match raw.trim().parse::<f64>() {
                        Ok(v) if v.is_finite() && v > 0.0 && v < 1.0 => v,
                        _ => return Err(format!("--ci: expected a number in (0, 1), got {raw:?}")),
                    };
                    ci_given = true;
                }
                "--ci-method" => {
                    let raw = value("--ci-method")?;
                    out.ci_method = sdc_analysis::CiMethod::parse(raw.trim())
                        .ok_or_else(|| format!("--ci-method: expected wilson or clopper-pearson, got {raw:?}"))?;
                    ci_method_given = true;
                }
                _ => {}
            }
        }
        if out.dir.is_none() && (out.resume || out.budget.is_some() || out.isolate || out.adaptive) {
            return Err("--resume/--budget/--isolate/--adaptive: only meaningful together with --store <dir>".into());
        }
        if ci_given && !out.adaptive {
            return Err("--ci: only meaningful together with --adaptive".into());
        }
        if ci_method_given && !out.adaptive {
            return Err("--ci-method: only meaningful together with --adaptive".into());
        }
        Ok(out)
    }

    /// Store configuration for one named campaign, as a journal directory
    /// under the store root. `None` when `--store` was not given.
    fn config(&self, campaign: &str) -> Option<StoreConfig> {
        self.dir.as_ref().map(|root| {
            let mut sc = StoreConfig::new(root.join(campaign));
            sc.shards = self.shards;
            sc.resume = self.resume;
            sc.budget = self.budget;
            sc
        })
    }
}

/// Runs a spec through [`spec::run_spec`] with figure-binary exit
/// semantics: paused runs report progress on stderr (stdout stays
/// byte-identical to the cache-backed run) and exit with [`EXIT_PAUSED`];
/// invalid specs and store errors exit non-zero with a diagnostic.
fn spec_run_or_exit(
    kind: spec::CampaignKind,
    b: Benchmark,
    cfg: &RunConfig,
    store: &StoreArgs,
    sc: &StoreConfig,
) -> spec::SpecRun {
    let parsed = validate_spec(campaign_spec(kind, b, cfg, store)).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(2);
    });
    match run_spec(&parsed, &sc.dir, store.resume, store.budget) {
        Err(e) => io_fatal("campaign store", &sc.dir, &e),
        Ok(spec::SpecRun::Paused { completed, total }) => {
            eprintln!(
                "{}: paused at {completed}/{total} trials (budget exhausted); rerun with --resume to continue",
                b.label()
            );
            std::process::exit(EXIT_PAUSED);
        }
        Ok(run) => run,
    }
}

/// [`injection_records`] with an optional durable store: with `--store` the
/// campaign runs sharded against a crash-safe journal (resumable, and
/// bit-identical to the cache-backed path); without it, falls through to
/// the plain cache. The stored path goes through the shared
/// [`spec`] machinery — the same code `phi-serve` slices run on.
pub fn injection_records_stored(b: Benchmark, cfg: &RunConfig, store: &StoreArgs) -> Vec<TrialRecord> {
    let Some(sc) = store.config(&format!("inject-{}", b.label())) else {
        return injection_records(b, cfg);
    };
    match spec_run_or_exit(spec::CampaignKind::Inject, b, cfg, store, &sc) {
        spec::SpecRun::Inject(records) => records,
        _ => unreachable!("inject specs produce injection records"),
    }
}

/// [`beam_records`] with an optional durable store (see
/// [`injection_records_stored`]). Unlike the cache path, a completed stored
/// run carries a full MCA log, rebuilt from the journaled mechanisms.
pub fn beam_records_stored(b: Benchmark, cfg: &RunConfig, store: &StoreArgs) -> BeamCampaign {
    let Some(sc) = store.config(&format!("beam-{}", b.label())) else {
        return beam_records(b, cfg);
    };
    match spec_run_or_exit(spec::CampaignKind::Beam, b, cfg, store, &sc) {
        spec::SpecRun::Beam(campaign) => campaign,
        _ => unreachable!("beam specs produce beam campaigns"),
    }
}

/// Prints a rule line for the tables.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// True when `--telemetry` was passed to the binary.
pub fn telemetry_requested() -> bool {
    std::env::args().any(|a| a == "--telemetry")
}

/// Installs a [`obs::CounterRecorder`] when `--telemetry` is on the command
/// line; pass the handle to [`print_telemetry`] before exiting.
pub fn telemetry_from_args() -> Option<Arc<obs::CounterRecorder>> {
    telemetry_requested().then(|| {
        let rec = Arc::new(obs::CounterRecorder::new());
        obs::install(rec.clone());
        rec
    })
}

/// Starts the live-monitoring plane when `--monitor <socket>` was passed:
/// serves status snapshots (and streaming subscriptions) for `phi-top` on
/// the Unix socket, and — when the campaign is store-backed — persists a
/// periodic `heartbeat.json` in the store root.
///
/// Call after [`telemetry_from_args`]: monitoring needs a recorder, so one
/// is installed here only if `--telemetry` didn't already provide it.
pub fn monitor_from_args(store: &StoreArgs) {
    let Some(socket) = &store.monitor else { return };
    if obs::snapshot().is_none() {
        obs::install(Arc::new(obs::CounterRecorder::new()));
    }
    if let Err(e) = carolfi::monitor::serve_monitor(socket) {
        io_fatal("bind monitor socket", socket, &e);
    }
    if let Some(dir) = &store.dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            io_fatal("create store root for heartbeat", dir, &e);
        }
        carolfi::monitor::start_heartbeat(dir.join("heartbeat.json"));
    }
}

/// Everything a figure binary's preamble establishes, in one place.
pub struct Figure {
    pub cfg: RunConfig,
    pub store: StoreArgs,
    /// Hand back to [`print_telemetry`] before exiting.
    pub telemetry: Option<Arc<obs::CounterRecorder>>,
}

/// The shared figure-binary preamble: worker-mode takeover first (in
/// `--isolate` worker mode this process never returns from it), then
/// `--telemetry`, the `PHI_*` env config, the store flags, and the
/// `--monitor` plane — one helper so every binary parses the same flags
/// the same way.
pub fn figure_setup() -> Figure {
    maybe_run_worker();
    let telemetry = telemetry_from_args();
    let cfg = RunConfig::from_env();
    let store = StoreArgs::from_args();
    monitor_from_args(&store);
    Figure { cfg, store, telemetry }
}

/// Uninstalls the recorder and prints the diagnose-style footer: counters
/// plus per-span percentile rows (p50/p95/p99), merged across this process
/// and — under `--isolate` — every warden worker's relayed metrics frames,
/// so the footer totals match what the workers actually did.
pub fn print_telemetry(rec: Option<Arc<obs::CounterRecorder>>) {
    if let Some(_rec) = rec {
        let merged = obs::merged_snapshot();
        obs::uninstall();
        println!();
        print!("{merged}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults_are_sane() {
        let cfg = RunConfig::from_env();
        assert!(cfg.trials > 0 && cfg.strikes > 0);
    }

    fn lookup<'a>(pairs: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |k| pairs.iter().find(|(key, _)| *key == k).map(|(_, v)| v.to_string())
    }

    #[test]
    fn from_lookup_applies_defaults_when_unset() {
        let cfg = RunConfig::from_lookup(lookup(&[])).unwrap();
        assert_eq!(cfg.trials, 4000);
        assert_eq!(cfg.strikes, 8000);
        assert_eq!(cfg.seed, 2017);
        assert!(matches!(cfg.size, SizeClass::Small));
        assert!(cfg.use_cache);
    }

    #[test]
    fn from_lookup_parses_valid_overrides() {
        let cfg = RunConfig::from_lookup(lookup(&[
            ("PHI_TRIALS", "10"),
            ("PHI_STRIKES", " 20 "),
            ("PHI_SEED", "7"),
            ("PHI_SIZE", "paper"),
            ("PHI_NO_CACHE", "1"),
        ]))
        .unwrap();
        assert_eq!(cfg.trials, 10);
        assert_eq!(cfg.strikes, 20);
        assert_eq!(cfg.seed, 7);
        assert!(matches!(cfg.size, SizeClass::Paper));
        assert!(!cfg.use_cache);
    }

    #[test]
    fn from_lookup_rejects_zero_trials() {
        let err = RunConfig::from_lookup(lookup(&[("PHI_TRIALS", "0")])).unwrap_err();
        assert!(err.contains("PHI_TRIALS") && err.contains("at least 1"), "{err}");
    }

    #[test]
    fn from_lookup_rejects_malformed_values() {
        for (key, val) in [("PHI_TRIALS", "400O"), ("PHI_STRIKES", "-5"), ("PHI_SEED", "0xBEEF"), ("PHI_SIZE", "huge")] {
            let err = RunConfig::from_lookup(lookup(&[(key, val)])).unwrap_err();
            assert!(err.contains(key), "error {err:?} should name {key}");
            assert!(err.contains(val), "error {err:?} should echo the bad value {val:?}");
        }
    }

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn store_args_default_to_disabled() {
        let sa = StoreArgs::parse(argv(&["--telemetry"])).unwrap();
        assert!(sa.dir.is_none() && !sa.resume && sa.budget.is_none());
        assert!(sa.config("inject-nw").is_none());
    }

    #[test]
    fn store_args_parse_full_set() {
        let sa = StoreArgs::parse(argv(&[
            "--store", "/tmp/s", "--shards", "4", "--resume", "--budget", "99", "--isolate", "--monitor", "/tmp/s.sock",
        ]))
        .unwrap();
        assert_eq!(sa.dir.as_deref(), Some(Path::new("/tmp/s")));
        assert_eq!(sa.shards, 4);
        assert!(sa.resume);
        assert!(sa.isolate);
        assert_eq!(sa.budget, Some(99));
        assert_eq!(sa.monitor.as_deref(), Some(Path::new("/tmp/s.sock")));
        let sc = sa.config("beam-nw").unwrap();
        assert_eq!(sc.dir, Path::new("/tmp/s/beam-nw"));
        assert_eq!(sc.shards, 4);
        assert!(sc.resume);
        assert_eq!(sc.budget, Some(99));
    }

    #[test]
    fn store_args_reject_malformed_usage() {
        for bad in [
            vec!["--store"],
            vec!["--shards", "0"],
            vec!["--store", "/tmp/s", "--shards", "four"],
            vec!["--store", "/tmp/s", "--budget", "-1"],
            vec!["--resume"],
            vec!["--budget", "10"],
            vec!["--isolate"],
            vec!["--monitor"],
            vec!["--adaptive"],
            vec!["--store", "/tmp/s", "--ci", "0.05"],
            vec!["--store", "/tmp/s", "--adaptive", "--ci", "0"],
            vec!["--store", "/tmp/s", "--adaptive", "--ci", "1.5"],
            vec!["--store", "/tmp/s", "--adaptive", "--ci", "tight"],
        ] {
            assert!(StoreArgs::parse(argv(&bad)).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn adaptive_flags_parse_and_default() {
        let sa = StoreArgs::parse(argv(&["--store", "/tmp/s"])).unwrap();
        assert!(!sa.adaptive);
        assert_eq!(sa.ci, 0.01, "--ci defaults to the paper's 1% error-bar budget");
        let sa = StoreArgs::parse(argv(&["--store", "/tmp/s", "--adaptive"])).unwrap();
        assert!(sa.adaptive);
        assert_eq!(sa.ci, 0.01);
        let sa = StoreArgs::parse(argv(&["--store", "/tmp/s", "--adaptive", "--ci", "0.05"])).unwrap();
        assert!(sa.adaptive);
        assert_eq!(sa.ci, 0.05);
    }

    #[test]
    fn adaptive_flags_become_a_v2_plan_block() {
        let cfg = RunConfig { trials: 100, strikes: 10, size: SizeClass::Test, seed: 1, use_cache: false };
        let sa = StoreArgs { dir: Some(PathBuf::from("/tmp/s")), shards: 1, adaptive: true, ci: 0.05, ..Default::default() };
        let spec = campaign_spec(CampaignKind::Inject, Benchmark::Dgemm, &cfg, &sa);
        assert_eq!(spec.version, 2);
        assert_eq!(spec.plan.as_ref().map(|p| p.ci), Some(0.05));
        assert!(validate_spec(spec).is_ok());
        // Without --adaptive the spec stays version 1 with no plan block.
        let sa = StoreArgs { dir: Some(PathBuf::from("/tmp/s")), shards: 1, ci: 0.01, ..Default::default() };
        let spec = campaign_spec(CampaignKind::Inject, Benchmark::Dgemm, &cfg, &sa);
        assert_eq!(spec.version, 1);
        assert!(spec.plan.is_none());
    }

    #[test]
    fn monitor_flag_works_without_a_store() {
        // Live monitoring is useful for cache-backed runs too; only the
        // durable heartbeat requires a store root.
        let sa = StoreArgs::parse(argv(&["--monitor", "/tmp/live.sock"])).unwrap();
        assert!(sa.dir.is_none());
        assert_eq!(sa.monitor.as_deref(), Some(Path::new("/tmp/live.sock")));
    }

    #[test]
    fn isolate_config_carries_the_campaign_identity() {
        let cfg = RunConfig { trials: 18, strikes: 16, size: SizeClass::Test, seed: 91, use_cache: false };
        let sa = StoreArgs { dir: Some(PathBuf::from("/tmp/s")), shards: 3, isolate: true, ..Default::default() };
        let parsed = validate_spec(campaign_spec(CampaignKind::Beam, Benchmark::Dgemm, &cfg, &sa)).unwrap();
        let iso = parsed.isolate_config().unwrap();
        let spec = parse_spec(&iso.spec).unwrap().spec;
        assert_eq!(spec.kind, CampaignKind::Beam);
        assert_eq!(spec.benchmark, "dgemm");
        assert_eq!(spec.size, "test");
        assert_eq!(spec.trials, 16, "beam campaigns count strikes");
        assert_eq!(spec.seed, 91);
        let parsed = validate_spec(campaign_spec(CampaignKind::Inject, Benchmark::Nw, &cfg, &sa)).unwrap();
        let inj = parse_spec(&parsed.isolate_config().unwrap().spec).unwrap().spec;
        assert_eq!(inj.trials, 18, "injection campaigns count trials");
    }

    #[test]
    fn beam_cache_path_keeps_the_mca_log() {
        let cfg = RunConfig { trials: 16, strikes: 300, size: SizeClass::Test, seed: 5150, use_cache: false };
        let b = Benchmark::Hotspot;
        let bcfg = BeamConfig {
            strikes: cfg.strikes,
            seed: cfg.seed,
            n_windows: b.n_windows(),
            engine: beamsim::campaign::engine_for(b.label()),
            ..Default::default()
        };
        let live = run_beam_campaign(b.label(), || build(b, cfg.size), &golden(b, cfg.size), &bcfg);
        let cached = beam_records(b, &cfg);
        assert!(live.mca.corrected_count() > 0, "the reference campaign must log MCA events");
        assert_eq!(cached.mca.events(), live.mca.events());
    }

    #[test]
    fn stored_helper_matches_cache_backed_run() {
        let cfg = RunConfig { trials: 24, strikes: 16, size: SizeClass::Test, seed: 77, use_cache: false };
        let plain = injection_records(Benchmark::Hotspot, &cfg);
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/test-bench-store");
        let _ = std::fs::remove_dir_all(&root);
        let sa = StoreArgs { dir: Some(root), shards: 3, ..Default::default() };
        let stored = injection_records_stored(Benchmark::Hotspot, &cfg, &sa);
        assert_eq!(plain.len(), stored.len());
        for (x, y) in plain.iter().zip(&stored) {
            assert_eq!(x.trial, y.trial);
            assert_eq!(x.outcome, y.outcome);
            assert_eq!(x.mechanism, y.mechanism);
        }
    }

    #[test]
    fn cache_roundtrip() {
        let cfg = RunConfig { trials: 16, strikes: 16, size: SizeClass::Test, seed: 424242, use_cache: true };
        let a = injection_records(Benchmark::Nw, &cfg);
        let b = injection_records(Benchmark::Nw, &cfg); // from cache
        assert_eq!(a.len(), b.len());
        assert_eq!(a.len(), 16);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.outcome.label(), y.outcome.label());
        }
    }
}
