//! Campaign specs — the single source of truth for campaign construction.
//!
//! A [`CampaignSpec`] is the JSON document `phi-serve` accepts over the
//! wire, and the figure binaries build the *same* struct from their
//! `PHI_*` env + store flags before running: every execution path
//! (in-process, `--isolate`, daemon slice) derives its `CampaignConfig` /
//! `BeamConfig` / `IsolateConfig` / `StoreConfig` from one
//! [`ParsedSpec`], which is what makes the daemon's byte-identity
//! guarantee a structural property instead of a test-enforced hope.
//!
//! ## Wire versioning
//!
//! The spec wire format is versioned (DESIGN.md §12.3). A document without
//! a `version` key is version 1 — the original fixed-trial-count format,
//! which still parses and serializes byte-for-byte unchanged. Version 2
//! adds the optional `plan` block configuring the adaptive stratified
//! planner ([`PlanSpec`]); unknown versions are rejected at admission with
//! a reason naming the supported set. This module is the *only* place spec
//! JSON is parsed or emitted — `phi-cli`, `phi-serve` and the figure
//! binaries all route through [`parse_spec`] / [`validate_spec`].
//!
//! [`spec_result`] renders the deterministic result document (outcome
//! counts, fig5-style PVF rows, tolerance analysis, a CRC over the
//! serialized records); [`render_result`] recomputes it offline from any
//! journal directory — including adaptive decision-ordered journals — so
//! `phi-cli render <dir>` of a direct figure-binary run byte-compares
//! against the daemon's `result.json`. The daemon builds the same document
//! from the digest the engine kept of the journaled payloads instead of
//! serializing the records again.

use crate::{golden_output, RunConfig, StoreArgs};
use beamsim::{BeamCampaign, BeamConfig, Strikes};
use carolfi::models::FaultModel;
use carolfi::orchestrator::{StoreConfig, StoredRun};
use carolfi::record::TrialRecord;
use carolfi::{
    open_planned, open_stored, CampaignConfig, Executor, FaultTarget, Injection, IsolateConfig, Output, StoredCampaign,
    TargetPool, TrialKind,
};
use kernels::{build, Benchmark, SizeClass};
use sdc_analysis::planner::{CiMethod, WilsonPlanner, DEFAULT_BATCH};
use sdc_analysis::pvf::{by_model, PvfKind};
use serde::__private::{field, required, to_content, Content, ContentError, Reader};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

/// The two campaign families a spec can describe. Serializes to the
/// original wire strings (`"inject"` / `"beam"`), so the enum is invisible
/// on the wire — it only replaces the stringly-typed dispatch in code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignKind {
    /// CAROL-FI fault injection.
    Inject,
    /// Beam-strike simulation.
    Beam,
}

impl CampaignKind {
    /// The wire/journal tag of this kind.
    pub fn label(self) -> &'static str {
        match self {
            CampaignKind::Inject => "inject",
            CampaignKind::Beam => "beam",
        }
    }

    /// Resolves a wire tag; `None` for anything but `inject`/`beam`.
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "inject" => Some(CampaignKind::Inject),
            "beam" => Some(CampaignKind::Beam),
            _ => None,
        }
    }
}

impl Serialize for CampaignKind {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(self.label())
    }
}

impl<'de> Deserialize<'de> for CampaignKind {
    fn deserialize(r: &mut Reader<'de>) -> Result<Self, ContentError> {
        let label = r.string()?;
        CampaignKind::from_label(&label)
            .ok_or_else(|| ContentError::msg(&format!("kind: expected \"inject\" or \"beam\", got {label:?}")))
    }
}

/// Adaptive-planner configuration — the `plan` block of a version-2 spec.
///
/// Present ⇒ the campaign runs under the widest-CI-first stratified
/// planner ([`WilsonPlanner`]) instead of executing the full fixed trial
/// count: `trials` becomes the *horizon* (upper bound), and the campaign
/// stops early once every (fault model × time window) stratum's 95 %
/// Wilson interval per outcome class is narrower than `ci`.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSpec {
    /// Target full CI width per stratum per outcome class, in (0, 1).
    pub ci: f64,
    /// Trials per allocation decision (default [`DEFAULT_BATCH`]).
    pub batch: usize,
    /// Interval method the stopping rule measures (default Wilson;
    /// `clopper-pearson` for the conservative exact interval). Omitted
    /// from the wire when Wilson, so pre-existing v2 specs round-trip
    /// byte-identically.
    pub method: CiMethod,
}

impl Serialize for PlanSpec {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        let mut m = vec![
            ("ci".to_string(), Content::F64(self.ci)),
            ("batch".to_string(), Content::U64(self.batch as u64)),
        ];
        if self.method != CiMethod::Wilson {
            m.push(("method".to_string(), Content::Str(self.method.label().to_string())));
        }
        s.serialize_content(Content::Map(m))
    }
}

impl<'de> Deserialize<'de> for PlanSpec {
    fn deserialize(r: &mut Reader<'de>) -> Result<Self, ContentError> {
        // `batch` and `method` are optional; a repeated key keeps its first
        // value, as in derived readers.
        let (mut ci, mut batch, mut method) = (None, None, None::<String>);
        let ci = r
            .map(|r, key| {
                match key {
                    "ci" if ci.is_none() => ci = Some(field(r, key)?),
                    "batch" if batch.is_none() => batch = Some(field(r, key)?),
                    "method" if method.is_none() => method = Some(field(r, key)?),
                    _ => r.skip()?,
                }
                Ok(())
            })
            .and_then(|()| required(ci, "ci"))
            .map_err(|e| ContentError::msg(&format!("plan: {e}")))?;
        let method = match method {
            Some(label) => CiMethod::parse(&label)
                .ok_or_else(|| ContentError::msg(&format!("plan.method: expected wilson or clopper-pearson, got {label:?}")))?,
            None => CiMethod::Wilson,
        };
        Ok(PlanSpec { ci, batch: batch.unwrap_or(DEFAULT_BATCH), method })
    }
}

/// One campaign, fully specified. This is the daemon's wire spec and the
/// figure binaries' internal campaign description; see the module docs.
///
/// All version-1 fields are required on the wire; `phi-cli submit` fills
/// defaults client-side from the same `PHI_*` env the figure binaries
/// read. `version` and `plan` are the version-2 extensions: both are
/// omitted from serialized version-1 specs, so a v1 document round-trips
/// byte-identically through this struct.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    pub kind: CampaignKind,
    /// Wire-format version; absent on the wire ⇒ 1. [`validate_spec`]
    /// rejects anything outside the supported set {1, 2} with a reason.
    pub version: u32,
    /// Benchmark label (see [`Benchmark::from_label`]).
    pub benchmark: String,
    /// Trials (injection) or strikes (beam); under an adaptive `plan` this
    /// is the horizon — the planner may stop well short of it.
    pub trials: usize,
    pub seed: u64,
    /// Size-class tag: `test`, `small` or `paper`.
    pub size: String,
    /// Journal shard count (aggregates are bit-identical for any value).
    /// Adaptive campaigns journal single-sharded regardless.
    pub shards: usize,
    /// Run every trial in a supervised child process.
    pub isolate: bool,
    /// Fault-model subset by label (`single`/`double`/`random`/`zero`);
    /// empty = all four. Injection only.
    pub models: Vec<String>,
    /// SDC relative-error tolerance for the result document's
    /// `sdc_beyond_tolerance` count (0 = every SDC counts).
    pub tolerance: f64,
    /// Adaptive-planner block (version 2 only).
    pub plan: Option<PlanSpec>,
}

impl Serialize for CampaignSpec {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        // Hand-rolled so the version-1 byte layout is preserved exactly:
        // the original field order, no `version` key for v1, and `plan`
        // only when present.
        let err = <S::Error as serde::ser::Error>::custom;
        let mut m: Vec<(String, Content)> = Vec::with_capacity(11);
        m.push(("kind".into(), to_content(&self.kind).map_err(err)?));
        if self.version != 1 {
            m.push(("version".into(), Content::U64(self.version as u64)));
        }
        m.push(("benchmark".into(), Content::Str(self.benchmark.clone())));
        m.push(("trials".into(), Content::U64(self.trials as u64)));
        m.push(("seed".into(), Content::U64(self.seed)));
        m.push(("size".into(), Content::Str(self.size.clone())));
        m.push(("shards".into(), Content::U64(self.shards as u64)));
        m.push(("isolate".into(), Content::Bool(self.isolate)));
        m.push(("models".into(), to_content(&self.models).map_err(err)?));
        m.push(("tolerance".into(), Content::F64(self.tolerance)));
        if let Some(plan) = &self.plan {
            m.push(("plan".into(), to_content(plan).map_err(err)?));
        }
        s.serialize_content(Content::Map(m))
    }
}

impl<'de> Deserialize<'de> for CampaignSpec {
    fn deserialize(r: &mut Reader<'de>) -> Result<Self, ContentError> {
        // `version` is carried through as-parsed; range-checking it is
        // validate_spec's job, so the rejection reason reaches clients
        // verbatim instead of wrapped in a parse diagnostic. A repeated key
        // keeps its first value, as in derived readers.
        let (mut kind, mut version, mut benchmark, mut trials, mut seed, mut size) = (None, None, None, None, None, None);
        let (mut shards, mut isolate, mut models, mut tolerance, mut plan) = (None, None, None, None, None);
        r.map(|r, key| {
            match key {
                "kind" if kind.is_none() => kind = Some(field(r, key)?),
                "version" if version.is_none() => version = Some(field(r, key)?),
                "benchmark" if benchmark.is_none() => benchmark = Some(field(r, key)?),
                "trials" if trials.is_none() => trials = Some(field(r, key)?),
                "seed" if seed.is_none() => seed = Some(field(r, key)?),
                "size" if size.is_none() => size = Some(field(r, key)?),
                "shards" if shards.is_none() => shards = Some(field(r, key)?),
                "isolate" if isolate.is_none() => isolate = Some(field(r, key)?),
                "models" if models.is_none() => models = Some(field(r, key)?),
                "tolerance" if tolerance.is_none() => tolerance = Some(field(r, key)?),
                // Absent or null: no plan. Its errors carry their own prefix.
                "plan" if plan.is_none() => plan = Some(Option::<PlanSpec>::deserialize(r)?),
                _ => r.skip()?,
            }
            Ok(())
        })?;
        Ok(CampaignSpec {
            kind: required(kind, "kind")?,
            version: version.unwrap_or(1),
            benchmark: required(benchmark, "benchmark")?,
            trials: required(trials, "trials")?,
            seed: required(seed, "seed")?,
            size: required(size, "size")?,
            shards: required(shards, "shards")?,
            isolate: required(isolate, "isolate")?,
            models: required(models, "models")?,
            tolerance: required(tolerance, "tolerance")?,
            plan: plan.flatten(),
        })
    }
}

/// Builds the spec a figure binary's env + flags describe — the shared
/// constructor `phi-cli submit` and the figure campaign entries
/// ([`crate::injection_records`], [`crate::beam_campaign`]) both use.
/// `--adaptive`/`--ci` flags become a version-2 `plan` block; without them
/// the spec is version 1, bit-identical to what earlier releases emitted.
pub fn campaign_spec(kind: CampaignKind, b: Benchmark, cfg: &RunConfig, store: &StoreArgs) -> CampaignSpec {
    let plan = store.adaptive.then_some(PlanSpec { ci: store.ci, batch: DEFAULT_BATCH, method: store.ci_method });
    CampaignSpec {
        kind,
        version: if plan.is_some() { 2 } else { 1 },
        benchmark: b.label().to_string(),
        trials: if kind == CampaignKind::Beam { cfg.strikes } else { cfg.trials },
        seed: cfg.seed,
        size: cfg.size_tag().to_string(),
        shards: store.shards,
        isolate: store.isolate,
        models: Vec::new(),
        tolerance: 0.0,
        plan,
    }
}

/// A validated spec with its labels resolved against the registries.
#[derive(Debug)]
pub struct ParsedSpec {
    pub spec: CampaignSpec,
    pub benchmark: Benchmark,
    pub size: SizeClass,
    /// Resolved model subset; the full set when `spec.models` is empty.
    pub models: Vec<FaultModel>,
}

fn model_from_label(label: &str) -> Option<FaultModel> {
    FaultModel::ALL.into_iter().find(|m| m.label() == label)
}

/// Parses and validates a JSON spec; `Err` is a client-facing reason.
pub fn parse_spec(json: &str) -> Result<ParsedSpec, String> {
    let spec: CampaignSpec = serde_json::from_str(json).map_err(|e| format!("malformed spec JSON: {e}"))?;
    validate_spec(spec)
}

/// Validates an already-decoded spec.
pub fn validate_spec(spec: CampaignSpec) -> Result<ParsedSpec, String> {
    if spec.version != 1 && spec.version != 2 {
        return Err(format!("unsupported spec version {} (supported: 1, 2; absent = 1)", spec.version));
    }
    let Some(benchmark) = Benchmark::from_label(&spec.benchmark) else {
        return Err(format!("benchmark: unknown label {:?}", spec.benchmark));
    };
    let size = match spec.size.as_str() {
        "test" => SizeClass::Test,
        "small" => SizeClass::Small,
        "paper" => SizeClass::Paper,
        other => return Err(format!("size: expected test, small or paper, got {other:?}")),
    };
    if spec.trials == 0 {
        return Err("trials: must be at least 1".into());
    }
    if spec.shards == 0 {
        return Err("shards: must be at least 1".into());
    }
    if !(spec.tolerance.is_finite() && spec.tolerance >= 0.0) {
        return Err(format!("tolerance: must be a finite non-negative number, got {}", spec.tolerance));
    }
    if let Some(plan) = &spec.plan {
        if spec.version < 2 {
            return Err("plan: adaptive planning requires spec version 2".into());
        }
        if spec.kind == CampaignKind::Beam {
            return Err("plan: adaptive planning stratifies by fault model; it applies to inject only".into());
        }
        if !spec.models.is_empty() {
            // The adaptive journal's offline reader re-derives strata from
            // the journal meta alone, which does not carry a model subset.
            return Err("plan: adaptive planning is not supported together with a models subset".into());
        }
        if !(plan.ci.is_finite() && plan.ci > 0.0 && plan.ci < 1.0) {
            return Err(format!("plan.ci: target CI width must be in (0, 1), got {}", plan.ci));
        }
        if plan.batch == 0 {
            return Err("plan.batch: must be at least 1".into());
        }
    }
    let models = if spec.models.is_empty() {
        FaultModel::ALL.to_vec()
    } else {
        if spec.kind == CampaignKind::Beam {
            return Err("models: beam campaigns draw their own mechanisms; model subsets apply to inject only".into());
        }
        spec.models
            .iter()
            .map(|l| model_from_label(l).ok_or_else(|| format!("models: unknown fault model {l:?}")))
            .collect::<Result<Vec<_>, _>>()?
    };
    Ok(ParsedSpec { spec, benchmark, size, models })
}

impl ParsedSpec {
    pub fn campaign_config(&self) -> CampaignConfig {
        CampaignConfig {
            trials: self.spec.trials,
            models: self.models.clone(),
            seed: self.spec.seed,
            n_windows: self.benchmark.n_windows(),
            ..Default::default()
        }
    }

    pub fn beam_config(&self) -> BeamConfig {
        BeamConfig {
            strikes: self.spec.trials,
            seed: self.spec.seed,
            n_windows: self.benchmark.n_windows(),
            engine: beamsim::campaign::engine_for(self.benchmark.label()),
            ..Default::default()
        }
    }

    /// The version stamped into this campaign's result document: 2 when
    /// the run is adaptive (its journal uses the decision-ordered v2
    /// layout), 1 otherwise. Derived from execution semantics — not the
    /// submitted document's `version` field — so [`render_result`] can
    /// recompute the identical value offline from the journal meta alone.
    pub fn result_version(&self) -> u32 {
        if self.spec.plan.is_some() {
            2
        } else {
            1
        }
    }

    /// Store configuration rooted at `dir`. `resume`/`budget` vary per
    /// invocation (a daemon slice opens with resume-if-journal-exists; a
    /// figure binary passes its `--resume`/`--budget` flags).
    pub fn store_config(&self, dir: &Path, resume: bool, budget: Option<usize>) -> StoreConfig {
        let mut sc = StoreConfig::new(dir.to_path_buf());
        sc.shards = self.spec.shards;
        sc.resume = resume;
        sc.budget = budget;
        sc
    }

    /// Isolation settings: re-exec the current executable as a warden
    /// worker carrying this spec, from which [`crate::maybe_run_worker`]
    /// rebuilds the campaign.
    pub fn isolate_config(&self) -> io::Result<IsolateConfig> {
        let spec = serde_json::to_string(&self.spec).map_err(io::Error::other)?;
        let mut iso = IsolateConfig::new(std::env::current_exe()?, Vec::new(), spec);
        iso.trial_wall =
            std::time::Duration::from_millis(crate::positive_env("PHI_TRIAL_WALL_MS", 30_000) as u64);
        Ok(iso)
    }

    /// This campaign's trial runner: its kind over pooled targets and the
    /// golden output, running a trial by global index — what warden workers
    /// and `phi-coord` executors execute, bit-identical to the engine's pool
    /// executor. Like [`TrialKind::run`], it counts and announces nothing.
    pub fn trial_runner(&self) -> Box<dyn FnMut(usize) -> TrialRecord> {
        let (b, size) = (self.benchmark, self.size);
        let g = golden_output(b, size);
        let pool = TargetPool::new(move || build(b, size));
        let probe = build(b, size);
        let total_steps = probe.total_steps().max(1);
        pool.seed(probe);
        match self.spec.kind {
            CampaignKind::Inject => {
                let cfg = self.campaign_config();
                Box::new(move |trial| Injection::new(b.label(), &cfg).run(&pool, &g, total_steps, trial).0)
            }
            CampaignKind::Beam => {
                let cfg = self.beam_config();
                Box::new(move |trial| Strikes::new(b.label(), &cfg).run(&pool, &g, total_steps, trial).0)
            }
        }
    }

    /// The executor the spec's `isolate` field picks: warden workers, or
    /// pooled targets classified against the golden output.
    fn executor(&self) -> io::Result<OwnedExecutor> {
        Ok(if self.spec.isolate {
            OwnedExecutor::Warden(self.isolate_config()?)
        } else {
            OwnedExecutor::Pool(golden_output(self.benchmark, self.size))
        })
    }
}

/// Outcome of executing (a slice of) a spec against a journal directory.
pub enum SpecRun {
    /// Budget exhausted; the journal holds a resumable prefix.
    Paused { completed: u64, total: usize },
    Inject(Vec<TrialRecord>),
    Beam(BeamCampaign),
}

fn spec_run<C>(run: StoredRun<C>, complete: impl FnOnce(C) -> SpecRun) -> SpecRun {
    match run {
        StoredRun::Paused { completed, total } => SpecRun::Paused { completed, total },
        StoredRun::Complete(c) => complete(c),
    }
}

/// Executes a spec against `dir` — the one entry point every caller
/// (figure binaries, daemon slices) shares: every spec runs through the
/// campaign engine, an adaptive one with the planner as its trial source.
/// Opens the campaign (creating its journal, or with `resume` continuing
/// it) and advances it once by `budget` trials.
pub fn run_spec(p: &ParsedSpec, dir: &Path, resume: bool, budget: Option<usize>) -> io::Result<SpecRun> {
    OpenSpec::open(p, dir, resume)?.advance(budget)
}

/// What [`OpenSpec`] holds for an executor: the golden output or the
/// isolation settings an [`Executor`] borrows.
enum OwnedExecutor {
    Pool(Output),
    Warden(IsolateConfig),
}

impl OwnedExecutor {
    fn borrow(&self) -> Executor<'_> {
        match self {
            OwnedExecutor::Pool(golden) => Executor::Pool(golden),
            OwnedExecutor::Warden(iso) => Executor::Warden(iso),
        }
    }
}

/// Victim factory of an open campaign: the target pool owns it, so it has
/// to be nameable.
type Factory = Box<dyn Fn() -> Box<dyn FaultTarget> + Send + Sync>;

fn factory(b: Benchmark, size: SizeClass) -> Factory {
    Box::new(move || build(b, size))
}

/// A spec's campaign, open against its journal directory: the engine's
/// open campaign plus everything its trial kind and executor borrow.
/// [`run_spec`] opens one and advances it once; the daemon keeps one open
/// between the slices of a campaign.
struct OpenSpec {
    label: &'static str,
    executor: OwnedExecutor,
    kind: SpecKind,
    campaign: StoredCampaign<Box<dyn FaultTarget>, Factory>,
}

/// The trial kind's configuration; an injection campaign under a planner
/// also keeps the plan's target width for its verdict line.
enum SpecKind {
    Inject { cfg: CampaignConfig, ci: Option<f64> },
    Beam(BeamConfig),
}

impl OpenSpec {
    fn open(p: &ParsedSpec, dir: &Path, resume: bool) -> io::Result<OpenSpec> {
        let sc = p.store_config(dir, resume, None);
        let (b, size, label, executor) = (p.benchmark, p.size, p.benchmark.label(), p.executor()?);
        let (kind, campaign) = match p.spec.kind {
            CampaignKind::Inject => {
                let (cfg, ci) = (p.campaign_config(), p.spec.plan.as_ref().map(|plan| plan.ci));
                let (kind, factory) = (Injection::new(label, &cfg), factory(b, size));
                let campaign = match &p.spec.plan {
                    None => open_stored(&kind, factory, executor.borrow(), &sc)?,
                    Some(plan) => open_planned(&kind, factory, executor.borrow(), &sc, |total_steps| {
                        Box::new(WilsonPlanner::for_injection(&cfg, total_steps, plan.ci, plan.batch).with_method(plan.method))
                    })?,
                };
                (SpecKind::Inject { cfg, ci }, campaign)
            }
            CampaignKind::Beam => {
                let cfg = p.beam_config();
                let campaign = open_stored(&Strikes::new(label, &cfg), factory(b, size), executor.borrow(), &sc)?;
                (SpecKind::Beam(cfg), campaign)
            }
        };
        Ok(OpenSpec { label, executor, kind, campaign })
    }

    /// Runs up to `budget` more trials (`None` = to completion).
    fn advance(&mut self, budget: Option<usize>) -> io::Result<SpecRun> {
        let (label, executor) = (self.label, self.executor.borrow());
        Ok(match &self.kind {
            SpecKind::Inject { cfg, ci } => {
                let run = self.campaign.advance(&Injection::new(label, cfg), executor, budget)?;
                if let (StoredRun::Complete(c), Some(ci)) = (&run, ci) {
                    // One stderr line per completed adaptive campaign so
                    // humans (and ./ci) can read the early-stopping verdict
                    // without parsing the result document.
                    let (r, executed, horizon) = (&c.report, c.records.len(), cfg.trials);
                    if r.strata_open == 0 {
                        eprintln!("{label}: adaptive planner closed every stratum at ci <= {ci} after {executed} of {horizon} trials");
                    } else {
                        let (open, total, widest) = (r.strata_open, r.strata_total, r.widest_ci);
                        eprintln!("{label}: adaptive planner exhausted its horizon with {open}/{total} strata open (widest ci {widest:.4})");
                    }
                }
                spec_run(run, |c| SpecRun::Inject(c.records))
            }
            SpecKind::Beam(cfg) => {
                spec_run(self.campaign.advance(&Strikes::new(label, cfg), executor, budget)?, SpecRun::Beam)
            }
        })
    }
}

// ---------------------------------------------------------------------------
// Deterministic result documents.

/// One fig5-style PVF row: label column plus one ` {:8.1}` percentage per
/// fault model — shared by `fig5_fault_models` and the result documents so
/// the daemon's aggregates are byte-comparable against figure output.
pub fn pvf_row(label: &str, records: &[TrialRecord], kind: PvfKind) -> String {
    let table = by_model(records, kind);
    let mut row = format!("{label:9}");
    for m in FaultModel::ALL {
        let pct = table.get(m).map(|p| p.percent()).unwrap_or(0.0);
        row.push_str(&format!(" {pct:8.1}"));
    }
    row
}

/// The deterministic aggregate document persisted as a campaign's
/// `result.json`. Field order is fixed by declaration order, so two
/// documents built from identical records serialize byte-identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpecResult {
    pub kind: CampaignKind,
    /// Version of the campaign semantics this document was rendered under:
    /// 2 for adaptive (early-stopped, decision-ordered) campaigns, 1 for
    /// fixed-count.
    pub spec_version: u32,
    pub benchmark: String,
    /// Trials actually executed — under an adaptive plan this is where the
    /// planner stopped, not the horizon.
    pub trials: usize,
    pub seed: u64,
    pub masked: u64,
    pub hw_masked: u64,
    pub sdc: u64,
    pub due: u64,
    /// Fig5-style PVF rows ([`pvf_row`]); empty for beam campaigns (their
    /// records carry no injection fault model).
    pub sdc_pvf_row: String,
    pub due_pvf_row: String,
    pub tolerance: f64,
    /// SDCs whose worst per-element relative error exceeds `tolerance`
    /// (paper §5 tolerance analysis; non-finite corruption always counts).
    pub sdc_beyond_tolerance: u64,
    pub records: u64,
    /// CRC-32 over the newline-terminated serialized records in global
    /// trial order (decision order for adaptive campaigns) — the
    /// byte-identity digest of the whole campaign.
    pub records_crc: u32,
}

/// Renders the result document for a completed campaign from its records
/// alone: the reference renderer, which serializes every record once more
/// to digest it. The daemon's completion path builds the same document
/// from the digest the engine kept of the journaled payloads
/// ([`StoredCampaign::payload_crc`]); `phi-cli render` of a daemon journal
/// therefore checks the two digest sources against each other.
pub fn spec_result(
    kind: CampaignKind,
    spec_version: u32,
    benchmark: &str,
    seed: u64,
    tolerance: f64,
    records: &[TrialRecord],
) -> String {
    let (mut line, mut records_crc) = (String::new(), 0u32);
    for r in records {
        line.clear();
        Serialize::write_json(r, &mut line).expect("trial records serialize");
        line.push('\n');
        records_crc = store::crc32_update(records_crc, line.as_bytes());
    }
    result_document(kind, spec_version, benchmark, seed, tolerance, records, records_crc)
}

/// The result document of `records`, whose newline-terminated serialized
/// form has the CRC-32 `records_crc`: the one builder behind both digest
/// sources, so their documents are byte-identical.
fn result_document(
    kind: CampaignKind,
    spec_version: u32,
    benchmark: &str,
    seed: u64,
    tolerance: f64,
    records: &[TrialRecord],
    records_crc: u32,
) -> String {
    let mut masked = 0u64;
    let mut hw_masked = 0u64;
    let mut sdc = 0u64;
    let mut due = 0u64;
    let mut beyond = 0u64;
    for r in records {
        match &r.outcome {
            carolfi::record::OutcomeRecord::Masked => masked += 1,
            carolfi::record::OutcomeRecord::HardwareMasked => hw_masked += 1,
            carolfi::record::OutcomeRecord::Sdc(diff) => {
                sdc += 1;
                if diff.max_rel_err > tolerance || diff.max_rel_err.is_nan() {
                    beyond += 1;
                }
            }
            carolfi::record::OutcomeRecord::Due(_) => due += 1,
        }
    }
    let (sdc_pvf_row, due_pvf_row) = if kind == CampaignKind::Inject {
        (pvf_row(benchmark, records, PvfKind::Sdc), pvf_row(benchmark, records, PvfKind::Due))
    } else {
        (String::new(), String::new())
    };
    let result = SpecResult {
        kind,
        spec_version,
        benchmark: benchmark.to_string(),
        trials: records.len(),
        seed,
        masked,
        hw_masked,
        sdc,
        due,
        sdc_pvf_row,
        due_pvf_row,
        tolerance,
        sdc_beyond_tolerance: beyond,
        records: records.len() as u64,
        records_crc,
    };
    serde_json::to_string(&result).expect("spec results serialize")
}

// ---------------------------------------------------------------------------
// Offline journal readers (byte-compare tooling).

/// Reads a complete journal's trial records in global trial order,
/// reconstructed from the shard plan (shard ranges are contiguous; global
/// index = range start + shard-local seq). Adaptive journals
/// (`meta.version ≥ 2`) are single-sharded and decision-ordered: records
/// come back in journal order, complete once the shard is sealed. Errors
/// on incomplete journals, and on any journal a resume would refuse: the
/// engine's own reader ([`carolfi::orchestrator::read_journal`]) runs, so
/// every shard's sequence is gapless and within its range, checkpoints
/// agree with it, and every record carries the trial its position (or the
/// journaled decisions) implies. Every error names `dir` once.
pub fn journal_records(dir: &Path) -> io::Result<(store::CampaignMeta, Vec<TrialRecord>)> {
    let scan = store::Journal::scan(dir).map_err(|e| match e.kind() {
        // The store's corruption reports name the segment or directory.
        io::ErrorKind::InvalidData => e,
        kind => io::Error::new(kind, format!("{}: {e}", dir.display())),
    })?;
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, format!("{}: {msg}", dir.display()));
    let meta = scan.meta.clone().ok_or_else(|| invalid("empty journal".into()))?;
    let read = carolfi::orchestrator::read_journal(&meta, &scan.entries).map_err(|e| invalid(e.to_string()))?;
    if let Some(unfinished) = read.unfinished {
        return Err(invalid(unfinished));
    }
    Ok((meta, read.records.into_iter().flatten().collect()))
}

/// Recomputes the result document from a journal directory — the offline
/// counterpart of what the daemon persists, for byte-comparison. The
/// rendered `spec_version` is derived from the journal format (adaptive
/// v2 journals render as spec version 2), matching what the executing
/// path stamped. Every error names `dir` once, as [`journal_records`]'s do.
pub fn render_result(dir: &Path, tolerance: f64) -> io::Result<String> {
    let (meta, records) = journal_records(dir)?;
    let kind = CampaignKind::from_label(&meta.kind).ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidData, format!("{}: unknown campaign kind {:?}", dir.display(), meta.kind))
    })?;
    let version = if meta.version >= store::ADAPTIVE_FORMAT_VERSION { 2 } else { 1 };
    Ok(spec_result(kind, version, &meta.benchmark, meta.seed, tolerance, &records))
}

// ---------------------------------------------------------------------------
// The daemon's runner.

/// A campaign the daemon keeps open between its slices, with the spec text
/// it was opened for.
struct Session {
    spec: String,
    open: OpenSpec,
}

/// Open campaigns by journal directory. Process-global because the runner
/// is a unit struct its embedders construct afresh for every call; the
/// scheduler bounds it to the campaigns in its ring.
static SESSIONS: Mutex<BTreeMap<PathBuf, Session>> = Mutex::new(BTreeMap::new());

fn sessions() -> MutexGuard<'static, BTreeMap<PathBuf, Session>> {
    SESSIONS.lock().unwrap_or_else(|e| e.into_inner())
}

/// [`serve::Runner`] over real campaigns: validates specs with
/// [`parse_spec`] and executes slices through the same open and advance
/// steps as [`run_spec`] — the code path of the figure binaries, which is
/// the byte-identity guarantee.
///
/// A campaign stays open between its slices, so a slice costs in
/// proportion to its own trials: it continues from the open journal
/// writer, records, golden output, warm target pool and planner instead of
/// rescanning the journal. A slice continues a session only when the
/// newest journal segment on disk is exactly what the session wrote; it
/// reopens from disk otherwise (the first slice after a daemon start, or a
/// journal changed underneath). A session ends when its campaign completes
/// or a slice fails, and [`serve::Runner::retire`] ends it when the
/// campaign leaves the ring unfinished.
///
/// The last slice takes its result document's `records_crc` from the
/// engine's digest of the journaled payloads
/// ([`StoredCampaign::payload_crc`]), so completing costs no second
/// serialization of the records either.
pub struct SpecRunner;

impl serve::Runner for SpecRunner {
    fn validate(&self, spec: &str) -> Result<serve::SpecInfo, String> {
        let p = parse_spec(spec)?;
        Ok(serve::SpecInfo {
            kind: p.spec.kind.label().to_string(),
            benchmark: p.spec.benchmark.clone(),
            total: p.spec.trials as u64,
        })
    }

    fn run_slice(&self, spec: &str, journal: &Path, budget: usize) -> io::Result<serve::SliceRun> {
        let p = parse_spec(spec).map_err(io::Error::other)?;
        let session = sessions().remove(journal);
        let mut open = match session.filter(|s| s.spec == spec && s.open.campaign.is_current()) {
            Some(session) => session.open,
            None => OpenSpec::open(&p, journal, store::Journal::exists(journal))?,
        };
        let version = p.result_version();
        let records = match open.advance(Some(budget))? {
            SpecRun::Paused { completed, .. } => {
                sessions().insert(journal.to_path_buf(), Session { spec: spec.to_string(), open });
                return Ok(serve::SliceRun::Paused { completed });
            }
            SpecRun::Inject(records) => records,
            SpecRun::Beam(campaign) => campaign.records,
        };
        let crc = open.campaign.payload_crc().expect("a completed campaign has its payload digest");
        Ok(serve::SliceRun::Complete {
            result: result_document(p.spec.kind, version, &p.spec.benchmark, p.spec.seed, p.spec.tolerance, &records, crc),
        })
    }

    fn retire(&self, journal: &Path) {
        sessions().remove(journal);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v1_spec() -> CampaignSpec {
        CampaignSpec {
            kind: CampaignKind::Inject,
            version: 1,
            benchmark: "dgemm".into(),
            trials: 64,
            seed: 2017,
            size: "test".into(),
            shards: 4,
            isolate: false,
            models: Vec::new(),
            tolerance: 0.0,
            plan: None,
        }
    }

    #[test]
    fn v1_wire_format_is_byte_compatible() {
        // The exact document earlier releases emitted: original field
        // order, no version, no plan.
        let json = serde_json::to_string(&v1_spec()).unwrap();
        assert_eq!(
            json,
            "{\"kind\":\"inject\",\"benchmark\":\"dgemm\",\"trials\":64,\"seed\":2017,\
             \"size\":\"test\",\"shards\":4,\"isolate\":false,\"models\":[],\"tolerance\":0.0}"
        );
        let back: CampaignSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, v1_spec());
    }

    #[test]
    fn absent_version_means_one() {
        let p = parse_spec(
            "{\"kind\":\"beam\",\"benchmark\":\"dgemm\",\"trials\":8,\"seed\":1,\
             \"size\":\"test\",\"shards\":1,\"isolate\":false,\"models\":[],\"tolerance\":0.0}",
        )
        .unwrap();
        assert_eq!(p.spec.version, 1);
        assert_eq!(p.spec.kind, CampaignKind::Beam);
        assert!(p.spec.plan.is_none());
    }

    #[test]
    fn v2_spec_with_plan_roundtrips() {
        let mut spec = v1_spec();
        spec.version = 2;
        spec.plan = Some(PlanSpec { ci: 0.05, batch: 16, method: CiMethod::Wilson });
        let json = serde_json::to_string(&spec).unwrap();
        assert!(json.contains("\"version\":2"), "{json}");
        assert!(json.contains("\"plan\":{\"ci\":0.05,\"batch\":16}"), "{json}");
        let back: CampaignSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
        assert!(validate_spec(back).is_ok());
    }

    #[test]
    fn plan_method_is_on_the_wire_only_when_not_wilson() {
        // Wilson is the default and stays invisible, so pre-existing v2
        // documents keep their byte layout.
        let mut spec = v1_spec();
        spec.version = 2;
        spec.plan = Some(PlanSpec { ci: 0.05, batch: 16, method: CiMethod::Wilson });
        let json = serde_json::to_string(&spec).unwrap();
        assert!(json.contains("\"plan\":{\"ci\":0.05,\"batch\":16}"), "{json}");

        spec.plan = Some(PlanSpec { ci: 0.05, batch: 16, method: CiMethod::ClopperPearson });
        let json = serde_json::to_string(&spec).unwrap();
        assert!(json.contains("\"plan\":{\"ci\":0.05,\"batch\":16,\"method\":\"clopper-pearson\"}"), "{json}");
        let back: CampaignSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
        assert!(validate_spec(back).is_ok());

        let err = parse_spec(
            "{\"kind\":\"inject\",\"version\":2,\"benchmark\":\"dgemm\",\"trials\":64,\"seed\":1,\
             \"size\":\"test\",\"shards\":1,\"isolate\":false,\"models\":[],\"tolerance\":0.0,\
             \"plan\":{\"ci\":0.1,\"method\":\"exact\"}}",
        )
        .unwrap_err();
        assert!(err.contains("wilson or clopper-pearson"), "{err}");
    }

    #[test]
    fn plan_batch_defaults_when_absent() {
        let p = parse_spec(
            "{\"kind\":\"inject\",\"version\":2,\"benchmark\":\"dgemm\",\"trials\":64,\"seed\":1,\
             \"size\":\"test\",\"shards\":1,\"isolate\":false,\"models\":[],\"tolerance\":0.0,\
             \"plan\":{\"ci\":0.1}}",
        )
        .unwrap();
        assert_eq!(p.spec.plan, Some(PlanSpec { ci: 0.1, batch: DEFAULT_BATCH, method: CiMethod::Wilson }));
    }

    #[test]
    fn unknown_versions_are_rejected_with_a_reason() {
        let mut spec = v1_spec();
        spec.version = 3;
        let err = validate_spec(spec).unwrap_err();
        assert_eq!(err, "unsupported spec version 3 (supported: 1, 2; absent = 1)");
    }

    #[test]
    fn plan_is_rejected_outside_version_2() {
        let mut spec = v1_spec();
        spec.plan = Some(PlanSpec { ci: 0.05, batch: 32, method: CiMethod::Wilson });
        let err = validate_spec(spec).unwrap_err();
        assert!(err.contains("requires spec version 2"), "{err}");
    }

    #[test]
    fn plan_restrictions_are_enforced() {
        let adaptive = |f: fn(&mut CampaignSpec)| {
            let mut spec = v1_spec();
            spec.version = 2;
            spec.plan = Some(PlanSpec { ci: 0.05, batch: 32, method: CiMethod::Wilson });
            f(&mut spec);
            validate_spec(spec)
        };
        assert!(adaptive(|s| s.kind = CampaignKind::Beam).unwrap_err().contains("inject only"));
        // The planner is a trial source of the engine, so it runs on the
        // warden executor too.
        assert!(adaptive(|s| s.isolate = true).is_ok());
        assert!(adaptive(|s| s.models = vec!["single".into()]).unwrap_err().contains("models subset"));
        let ci = adaptive(|s| s.plan = Some(PlanSpec { ci: 1.5, batch: 32, method: CiMethod::Wilson }));
        assert!(ci.unwrap_err().contains("plan.ci"));
        let batch = adaptive(|s| s.plan = Some(PlanSpec { ci: 0.05, batch: 0, method: CiMethod::Wilson }));
        assert!(batch.unwrap_err().contains("plan.batch"));
    }

    #[test]
    fn malformed_kind_is_rejected() {
        let err = parse_spec(
            "{\"kind\":\"laser\",\"benchmark\":\"dgemm\",\"trials\":8,\"seed\":1,\
             \"size\":\"test\",\"shards\":1,\"isolate\":false,\"models\":[],\"tolerance\":0.0}",
        )
        .unwrap_err();
        assert!(err.contains("expected \"inject\" or \"beam\""), "{err}");
        assert!(err.contains("laser"), "{err}");
    }

    #[test]
    fn campaigns_leaving_the_ring_unfinished_leave_no_session() {
        use serve::Runner as _;
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/test-bench-sessions");
        let _ = std::fs::remove_dir_all(&dir);
        let has_session = |journal: &Path| sessions().contains_key(journal);
        let mut spec = v1_spec();
        spec.trials = 20_000;
        let raw = serde_json::to_string(&spec).unwrap();

        // A paused slice keeps its campaign open; retiring it ends that.
        let journal = dir.join("direct");
        assert_eq!(SpecRunner.run_slice(&raw, &journal, 4).unwrap(), serve::SliceRun::Paused { completed: 4 });
        assert!(has_session(&journal));
        SpecRunner.retire(&journal);
        assert!(!has_session(&journal));

        let mut cfg = serve::ServeConfig::new(dir.join("sock"), dir.join("root"));
        cfg.max_active = 1;
        cfg.slice = 8;
        let server = serve::Server::start(cfg, std::sync::Arc::new(SpecRunner), std::sync::Arc::new(serve::EventBus::new()))
            .unwrap();
        let reg = server.registry();
        let submit = || reg.submit(raw.clone(), SpecRunner.validate(&raw).unwrap()).unwrap();
        let wait_for = |what: &str, cond: &dyn Fn() -> bool| {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
            while !cond() {
                assert!(std::time::Instant::now() < deadline, "timed out waiting for {what}");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        };

        // Cancelled between slices.
        let cancelled = submit();
        wait_for("a first slice", &|| reg.status(&cancelled).unwrap().completed > 0);
        reg.cancel(&cancelled);
        wait_for("the cancel", &|| reg.status(&cancelled).unwrap().state == "cancelled");
        assert!(reg.status(&cancelled).unwrap().completed < 20_000);
        assert!(!has_session(&reg.journal_dir(&cancelled)));

        // Left unfinished by a stop.
        let stopped = submit();
        wait_for("a first slice", &|| reg.status(&stopped).unwrap().completed > 0);
        server.stop();
        assert!(reg.status(&stopped).unwrap().completed < 20_000);
        assert!(!has_session(&reg.journal_dir(&stopped)));
    }

    /// A finished 4-trial, 2-shard journal of checksummed lines, one per
    /// `(shard, seq, trial)`: the payload of each carries `trial`.
    fn journal_of(name: &str, lines: &[(usize, u64, usize)]) -> PathBuf {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/test-bench-journals").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        let meta = store::CampaignMeta {
            kind: "inject".into(),
            benchmark: "dgemm".into(),
            seed: 1,
            trials: 4,
            shards: 2,
            n_windows: 4,
            version: 1,
        };
        let mut writer = store::JournalWriter::create(&dir, meta).unwrap();
        for &(shard, seq, trial) in lines {
            writer.append(&store::JournalEntry::Trial { shard, seq, payload: masked_payload(trial) }).unwrap();
        }
        writer.close().unwrap();
        dir
    }

    /// The payload of a masked DGEMM record of `trial`.
    fn masked_payload(trial: usize) -> String {
        let record = TrialRecord {
            trial,
            benchmark: "dgemm".into(),
            model: None,
            mechanism: "single".into(),
            inject_step: 0,
            total_steps: 4,
            window: 0,
            n_windows: 4,
            injection: None,
            outcome: carolfi::record::OutcomeRecord::Masked,
            executed_steps: 4,
        };
        serde_json::to_string(&record).unwrap()
    }

    fn refusal(name: &str, lines: &[(usize, u64, usize)]) -> String {
        journal_records(&journal_of(name, lines)).unwrap_err().to_string()
    }

    const FULL: [(usize, u64, usize); 4] = [(0, 0, 0), (0, 1, 1), (1, 0, 2), (1, 1, 3)];

    #[test]
    fn journal_records_refuses_a_record_at_the_wrong_position() {
        let (_, records) = journal_records(&journal_of("good", &FULL)).unwrap();
        assert_eq!(records.iter().map(|r| r.trial).collect::<Vec<_>>(), [0, 1, 2, 3]);
        let err = refusal("misplaced", &[(0, 0, 0), (0, 1, 3), (1, 0, 2), (1, 1, 3)]);
        assert!(err.contains("shard 0 seq 1: payload carries trial 3, expected 1"), "{err}");
    }

    #[test]
    fn journal_records_refuses_a_repeated_line() {
        let err = refusal("repeated", &[(0, 0, 0), (0, 1, 1), (0, 1, 1), (1, 0, 2), (1, 1, 3)]);
        assert!(err.contains("shard 0: trial sequence not gapless (expected seq 2, found 1)"), "{err}");
    }

    #[test]
    fn journal_records_refuses_a_line_past_its_shard_range() {
        let err = refusal("past-range", &[(0, 0, 0), (0, 1, 1), (0, 2, 2), (1, 0, 2), (1, 1, 3)]);
        assert!(err.contains("shard 0: journal has 3 trials, plan allows 2"), "{err}");
    }

    #[test]
    fn journal_records_refuses_a_line_for_a_shard_the_plan_lacks() {
        let err = refusal("foreign-shard", &[(0, 0, 0), (0, 1, 1), (1, 0, 2), (1, 1, 3), (5, 0, 0)]);
        assert!(err.contains("trial for shard 5, journal has 2 shards"), "{err}");
    }

    #[test]
    fn journal_records_refuses_an_unsealed_planner_journal() {
        // One two-trial decision with both records journaled, but no seal:
        // only the planner's seal finishes a format-2 journal.
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/test-bench-journals/planner-unsealed");
        let _ = std::fs::remove_dir_all(&dir);
        let meta = store::CampaignMeta {
            kind: "inject".into(),
            benchmark: "dgemm".into(),
            seed: 1,
            trials: 4,
            shards: 1,
            n_windows: 4,
            version: store::ADAPTIVE_FORMAT_VERSION,
        };
        let mut writer = store::JournalWriter::create(&dir, meta).unwrap();
        let decision = store::JournalEntry::Plan { batch: 0, stratum: "single/w0".into(), widest_ci: 0.5, trials: vec![0, 1] };
        writer.append(&decision).unwrap();
        for trial in [0, 1] {
            writer.append(&store::JournalEntry::Trial { shard: 0, seq: trial as u64, payload: masked_payload(trial) }).unwrap();
        }
        writer.close().unwrap();
        let err = journal_records(&dir).unwrap_err().to_string();
        assert!(err.contains("adaptive journal incomplete (2 trials executed, not sealed)"), "{err}");
    }

    #[test]
    fn journal_errors_name_the_directory_once() {
        let missing = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/test-bench-journals/no-such-journal");
        let repeated = journal_of("named-once", &[(0, 0, 0), (0, 1, 1), (0, 1, 1), (1, 0, 2), (1, 1, 3)]);
        assert_eq!(journal_records(&missing).unwrap_err().kind(), io::ErrorKind::NotFound);
        for dir in [missing, repeated] {
            let name = dir.display().to_string();
            for err in [journal_records(&dir).unwrap_err(), render_result(&dir, 0.0).unwrap_err()] {
                assert_eq!(err.to_string().matches(&name).count(), 1, "{err}");
            }
        }
    }

    #[test]
    fn result_documents_carry_the_spec_version() {
        let doc = spec_result(CampaignKind::Inject, 2, "dgemm", 1, 0.0, &[]);
        assert!(doc.starts_with("{\"kind\":\"inject\",\"spec_version\":2,"), "{doc}");
        let back: SpecResult = serde_json::from_str(&doc).unwrap();
        assert_eq!(back.spec_version, 2);
        assert_eq!(back.kind, CampaignKind::Inject);
    }
}
