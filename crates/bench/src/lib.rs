//! Shared harness for the figure-regeneration binaries.
//!
//! Every evaluation figure of the paper is regenerated by a binary in
//! `src/bin/` (see DESIGN.md's per-experiment index). Each binary starts
//! with [`figure_setup`] and runs its campaigns through [`injection_records`]
//! or [`beam_campaign`], which build one [`CampaignSpec`] from the knobs and
//! flags. Without `--store` the campaign runs in memory, so a figure always
//! reflects the code that printed it; nothing is written to disk.
//!
//! Knobs (environment variables):
//! * `PHI_TRIALS` — injections per benchmark (default 4000);
//! * `PHI_STRIKES` — beam strikes per benchmark (default 8000);
//! * `PHI_SIZE` — `test`, `small` (default) or `paper`;
//! * `PHI_SEED` — master seed (default 2017).
//!
//! The durable-store flags parsed by [`StoreArgs`] (`--store <dir>`,
//! `--shards N`, `--resume`, `--budget N`, ...) run each campaign against a
//! crash-safe, resumable `phi-store` journal instead. A finished store is
//! the way to reuse a corpus: `fig3_tolerance --store R --resume` reads the
//! beam journals `fig2_beam_fit --store R` wrote, and `table_varclass`
//! reads `fig4_outcomes`' injection journals the same way.

use beamsim::{run_beam_campaign, BeamCampaign};
use carolfi::record::TrialRecord;
use carolfi::{run_campaign, Output};
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
    positive_or_exit(std::env::var(key).ok(), key, default)
}

/// Exits 2 when `PHI_SIZE` or `PHI_SEED` is set, naming the variable: for
/// the binaries that run at a fixed size and fixed seeds, whose default
/// output EXPERIMENTS.md quotes, so a setting they would ignore is an
/// error rather than a silent no-op.
pub fn refuse_size_and_seed() {
    if let Some(msg) = fixed_run_refusal(|key| std::env::var_os(key).is_some()) {
        eprintln!("error: {msg}");
        std::process::exit(2);
    }
}

/// Testable form of [`refuse_size_and_seed`]: the diagnostic for the first
/// variable `is_set` reports.
fn fixed_run_refusal(is_set: impl Fn(&str) -> bool) -> Option<String> {
    ["PHI_SIZE", "PHI_SEED"]
        .into_iter()
        .find(|&key| is_set(key))
        .map(|key| format!("{key}: this binary runs at a fixed size and seeds; unset it"))
}

/// [`positive_env`] for a value from elsewhere, such as a command-line
/// argument: `None` takes the default, and the diagnostic names `key`.
pub fn positive_or_exit(raw: Option<String>, key: &str, default: usize) -> usize {
    parse_positive(raw, key, default).unwrap_or_else(|msg| {
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

/// The golden (fault-free) output of a benchmark, timed under the `golden`
/// span — every campaign the figure binaries and `run_spec` run in process
/// classifies against one of these.
pub(crate) fn golden_output(b: Benchmark, size: SizeClass) -> Output {
    let _span = obs::span!("golden");
    golden(b, size)
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
    // the live monitor. Outcomes are not among them: the supervisor counts
    // each trial once, where it journals the record, so a warden retry of a
    // killed attempt never double-counts.
    obs::install(Arc::new(obs::CounterRecorder::new()));
    let result = carolfi::warden::serve(spec.trial_runner());
    std::process::exit(if result.is_ok() { 0 } else { 1 });
}

/// Command-line selection of the durable campaign store.
///
/// `--store <dir>` switches a figure binary from the in-memory engine to a
/// crash-safe `phi-store` journal under `<dir>`, one sub-journal per
/// campaign. `--shards N` picks the shard count (the aggregate is
/// bit-identical for any N), `--resume` continues an existing store,
/// `--budget N` caps how many trials this invocation may execute before
/// pausing (exit code [`EXIT_PAUSED`]), and `--isolate` runs every trial in
/// a supervised child process (crashes, fatal signals and hangs of the
/// victim become DUE records instead of taking the campaign down).
///
/// `--monitor <socket>` (requires `--store`) additionally serves live
/// campaign status — per-shard progress, throughput, ETA, outcome mix,
/// worker health — on a Unix socket that `phi-top` renders, and persists a
/// periodic `heartbeat.json` in the store root for post-mortem inspection.
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
    /// diagnostic on malformed usage, an unknown argument included.
    /// `--telemetry` is accepted and left to [`telemetry_from_args`].
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
                // Read by `telemetry_from_args`.
                "--telemetry" => {}
                // A typo such as `--stroe` must not run the campaign without
                // its journal.
                _ => return Err(format!("{arg}: unknown argument")),
            }
        }
        if out.dir.is_none()
            && (out.resume || out.budget.is_some() || out.isolate || out.adaptive || out.monitor.is_some())
        {
            return Err(
                "--resume/--budget/--isolate/--adaptive/--monitor: only meaningful together with --store <dir>".into(),
            );
        }
        if ci_given && !out.adaptive {
            return Err("--ci: only meaningful together with --adaptive".into());
        }
        if ci_method_given && !out.adaptive {
            return Err("--ci-method: only meaningful together with --adaptive".into());
        }
        Ok(out)
    }

    /// The journal directory of one named campaign under the store root;
    /// `None` when `--store` was not given.
    fn journal_dir(&self, campaign: &str) -> Option<PathBuf> {
        self.dir.as_ref().map(|root| root.join(campaign))
    }
}

/// Runs one figure campaign from the spec the figure's knobs and flags
/// describe: with `--store` through [`run_spec`] against the campaign's
/// journal, otherwise with the in-memory engine on the same spec's config.
/// Paused runs report progress on stderr (stdout stays byte-identical to
/// the in-memory run) and exit with [`EXIT_PAUSED`]; invalid specs and
/// store errors exit non-zero with a diagnostic.
fn figure_campaign(kind: CampaignKind, b: Benchmark, fig: &Figure) -> SpecRun {
    let p = validate_spec(campaign_spec(kind, b, &fig.cfg, &fig.store)).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(2);
    });
    let Some(dir) = fig.store.journal_dir(&format!("{}-{}", kind.label(), b.label())) else {
        let golden = golden_output(b, p.size);
        let factory = || build(b, p.size);
        return match kind {
            CampaignKind::Inject => {
                SpecRun::Inject(run_campaign(b.label(), factory, &golden, &p.campaign_config()).records)
            }
            CampaignKind::Beam => SpecRun::Beam(run_beam_campaign(b.label(), factory, &golden, &p.beam_config())),
        };
    };
    match run_spec(&p, &dir, fig.store.resume, fig.store.budget) {
        Err(e) => io_fatal("campaign store", &dir, &e),
        Ok(SpecRun::Paused { completed, total }) => {
            eprintln!(
                "{}: paused at {completed}/{total} trials (budget exhausted); rerun with --resume to continue",
                b.label()
            );
            std::process::exit(EXIT_PAUSED);
        }
        Ok(run) => run,
    }
}

/// Runs the CAROL-FI injection campaign for one benchmark: against its
/// journal under `--store`, in memory otherwise, from one spec.
pub fn injection_records(b: Benchmark, fig: &Figure) -> Vec<TrialRecord> {
    match figure_campaign(CampaignKind::Inject, b, fig) {
        SpecRun::Inject(records) => records,
        _ => unreachable!("inject specs produce injection records"),
    }
}

/// Runs the beam campaign for one benchmark, like [`injection_records`].
/// The stored and in-memory paths both finish through the beam kind, so
/// either carries the full MCA log.
pub fn beam_campaign(b: Benchmark, fig: &Figure) -> BeamCampaign {
    match figure_campaign(CampaignKind::Beam, b, fig) {
        SpecRun::Beam(campaign) => campaign,
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

/// Starts the live-monitoring plane when `--monitor <socket>` was passed
/// (always together with `--store`): serves status snapshots (and streaming
/// subscriptions) for `phi-top` on the Unix socket and persists a periodic
/// `heartbeat.json` in the store root.
///
/// Call after [`telemetry_from_args`]: monitoring needs a recorder, so one
/// is installed here only if `--telemetry` didn't already provide it.
pub fn monitor_from_args(store: &StoreArgs) {
    let (Some(socket), Some(dir)) = (&store.monitor, &store.dir) else { return };
    if obs::snapshot().is_none() {
        obs::install(Arc::new(obs::CounterRecorder::new()));
    }
    if let Err(e) = carolfi::monitor::serve_monitor(socket) {
        io_fatal("bind monitor socket", socket, &e);
    }
    if let Err(e) = std::fs::create_dir_all(dir) {
        io_fatal("create store root for heartbeat", dir, &e);
    }
    carolfi::monitor::start_heartbeat(dir.join("heartbeat.json"));
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
    }

    #[test]
    fn from_lookup_parses_valid_overrides() {
        let cfg = RunConfig::from_lookup(lookup(&[
            ("PHI_TRIALS", "10"),
            ("PHI_STRIKES", " 20 "),
            ("PHI_SEED", "7"),
            ("PHI_SIZE", "paper"),
        ]))
        .unwrap();
        assert_eq!(cfg.trials, 10);
        assert_eq!(cfg.strikes, 20);
        assert_eq!(cfg.seed, 7);
        assert!(matches!(cfg.size, SizeClass::Paper));
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

    #[test]
    fn fixed_runs_refuse_size_and_seed() {
        assert_eq!(fixed_run_refusal(|_| false), None);
        for key in ["PHI_SIZE", "PHI_SEED"] {
            let msg = fixed_run_refusal(|k| k == key).expect("a set variable is refused");
            assert!(msg.starts_with(key), "{msg}");
        }
        assert!(fixed_run_refusal(|k| k == "PHI_TRIALS").is_none(), "trial counts stay settable");
    }

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn store_args_default_to_disabled() {
        let sa = StoreArgs::parse(argv(&["--telemetry"])).unwrap();
        assert!(sa.dir.is_none() && !sa.resume && sa.budget.is_none());
        assert!(sa.journal_dir("inject-nw").is_none());
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
        assert_eq!(sa.journal_dir("beam-nw").as_deref(), Some(Path::new("/tmp/s/beam-nw")));
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
            vec!["--monitor", "/tmp/live.sock"],
            vec!["--adaptive"],
            vec!["--store", "/tmp/s", "--ci", "0.05"],
            vec!["--store", "/tmp/s", "--adaptive", "--ci", "0"],
            vec!["--store", "/tmp/s", "--adaptive", "--ci", "1.5"],
            vec!["--store", "/tmp/s", "--adaptive", "--ci", "tight"],
            vec!["--stroe", "/tmp/s"],
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
        let cfg = RunConfig { trials: 100, strikes: 10, size: SizeClass::Test, seed: 1 };
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
    fn isolate_config_carries_the_campaign_identity() {
        let cfg = RunConfig { trials: 18, strikes: 16, size: SizeClass::Test, seed: 91 };
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

    fn figure(cfg: RunConfig, store: &[&str]) -> Figure {
        Figure { cfg, store: StoreArgs::parse(argv(store)).unwrap(), telemetry: None }
    }

    fn lines(records: &[TrialRecord]) -> Vec<String> {
        records.iter().map(|r| serde_json::to_string(r).unwrap()).collect()
    }

    #[test]
    fn storeless_and_stored_entries_yield_the_same_campaigns() {
        let cfg = RunConfig { trials: 24, strikes: 300, size: SizeClass::Test, seed: 5150 };
        let b = Benchmark::Hotspot;
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/test-bench-store");
        let _ = std::fs::remove_dir_all(&root);
        let (plain, stored) = (figure(cfg, &[]), figure(cfg, &["--store", root.to_str().unwrap(), "--shards", "3"]));
        let records = injection_records(b, &plain);
        assert_eq!(records.len(), cfg.trials);
        assert_eq!(lines(&records), lines(&injection_records(b, &stored)));
        let (live, journaled) = (beam_campaign(b, &plain), beam_campaign(b, &stored));
        assert_eq!(live.records.len(), cfg.strikes);
        assert_eq!(lines(&live.records), lines(&journaled.records));
        assert!(live.mca.corrected_count() > 0, "the reference campaign must log MCA events");
        assert_eq!(live.mca.events(), journaled.mca.events());
    }

    #[test]
    fn storeless_records_ignore_a_stale_file_at_the_old_cache_path() {
        // Until the figure cache was deleted, a storeless run served this
        // file, written by whatever build ran the campaign first.
        let cfg = RunConfig { trials: 16, strikes: 16, size: SizeClass::Test, seed: 424242 };
        let b = Benchmark::Nw;
        let ccfg = carolfi::CampaignConfig { trials: cfg.trials, seed: cfg.seed, n_windows: b.n_windows(), ..Default::default() };
        let fresh = run_campaign(b.label(), || build(b, cfg.size), &golden(b, cfg.size), &ccfg).records;
        let mut stale = fresh.clone();
        stale[0].outcome = if stale[0].outcome.is_masked() {
            carolfi::record::OutcomeRecord::Due(carolfi::record::DueKind::Timeout)
        } else {
            carolfi::record::OutcomeRecord::Masked
        };
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/campaign_cache");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("inject-{}-{}-{}-test.jsonl", b.label(), cfg.trials, cfg.seed));
        std::fs::write(&path, lines(&stale).iter().map(|l| format!("{l}\n")).collect::<String>()).unwrap();
        let records = injection_records(b, &figure(cfg, &[]));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
        assert_ne!(lines(&stale), lines(&fresh));
        assert_eq!(lines(&records), lines(&fresh));
    }
}
