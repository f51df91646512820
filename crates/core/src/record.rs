//! Serialisable trial records — the equivalent of the paper's public log
//! repository (`UFRGS-CAROL/sc17-log-data`).
//!
//! Each injection (or simulated beam strike) produces one [`TrialRecord`]
//! carrying what CAROL-FI logs: the source position of the corrupted
//! variable, its frame and thread, the fault type, the time window, and the
//! classified outcome. SDC outcomes carry a [`DiffSummary`] — compact
//! statistics of the corrupted-output geometry plus a bounded sample of the
//! corrupted elements — from which the spatial-pattern classifier and the
//! tolerance sweep run without retaining whole corrupted outputs in memory.

use crate::models::{FaultModel, InjectionDetail};
use crate::output::Mismatch;
use serde::{Deserialize, Serialize};

/// Serde codec for f64 fields that may be non-finite: JSON has no
/// Infinity/NaN, so they are encoded as the strings "inf"/"-inf"/"nan".
pub mod finite_or_tag {
    use serde::__private::{ContentError, Reader};
    use serde::{Deserialize, Serializer};

    pub fn serialize<S: Serializer>(v: &f64, s: S) -> Result<S::Ok, S::Error> {
        if v.is_finite() {
            s.serialize_f64(*v)
        } else if v.is_nan() {
            s.serialize_str("nan")
        } else if *v > 0.0 {
            s.serialize_str("inf")
        } else {
            s.serialize_str("-inf")
        }
    }

    /// A number, or one of the three tags.
    pub fn deserialize(r: &mut Reader<'_>) -> Result<f64, ContentError> {
        if r.peek() != Some(b'"') {
            return f64::deserialize(r);
        }
        match &*r.string()? {
            "inf" => Ok(f64::INFINITY),
            "-inf" => Ok(f64::NEG_INFINITY),
            "nan" => Ok(f64::NAN),
            other => Err(ContentError::msg(&format!("bad float tag {other:?}"))),
        }
    }
}

/// Maximum corrupted elements retained verbatim per record.
pub const MISMATCH_SAMPLE_CAP: usize = 64;

/// Compact geometry/severity statistics of a corrupted output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiffSummary {
    /// Output grid dimensions.
    pub dims: [usize; 3],
    /// Total number of corrupted elements.
    pub wrong: usize,
    /// Number of distinct coordinates touched along each dimension.
    pub distinct: [usize; 3],
    /// Bounding box (inclusive) of the corrupted elements.
    pub bbox_min: [usize; 3],
    pub bbox_max: [usize; 3],
    /// Largest per-element relative error (∞ for NaN/Inf corruption).
    #[serde(with = "finite_or_tag")]
    pub max_rel_err: f64,
    /// Mean of the finite per-element relative errors.
    #[serde(with = "finite_or_tag")]
    pub mean_rel_err: f64,
    /// Number of corrupted elements with non-finite values.
    pub nonfinite: usize,
    /// Up to [`MISMATCH_SAMPLE_CAP`] example mismatches.
    pub sample: Vec<Mismatch>,
}

impl DiffSummary {
    /// Summarises a (non-empty) mismatch list.
    pub fn from_mismatches(mismatches: &[Mismatch], dims: [usize; 3]) -> Self {
        assert!(!mismatches.is_empty(), "DiffSummary requires at least one mismatch");
        let mut bbox_min = [usize::MAX; 3];
        let mut bbox_max = [0usize; 3];
        let mut seen: [std::collections::HashSet<usize>; 3] = Default::default();
        let mut max_rel_err = 0.0f64;
        let mut finite_sum = 0.0f64;
        let mut finite_n = 0usize;
        let mut nonfinite = 0usize;
        for m in mismatches {
            for d in 0..3 {
                bbox_min[d] = bbox_min[d].min(m.coord[d]);
                bbox_max[d] = bbox_max[d].max(m.coord[d]);
                seen[d].insert(m.coord[d]);
            }
            max_rel_err = max_rel_err.max(m.rel_err);
            if m.rel_err.is_finite() {
                finite_sum += m.rel_err;
                finite_n += 1;
            } else {
                nonfinite += 1;
            }
        }
        DiffSummary {
            dims,
            wrong: mismatches.len(),
            distinct: [seen[0].len(), seen[1].len(), seen[2].len()],
            bbox_min,
            bbox_max,
            max_rel_err,
            mean_rel_err: if finite_n > 0 { finite_sum / finite_n as f64 } else { f64::INFINITY },
            nonfinite,
            sample: mismatches.iter().take(MISMATCH_SAMPLE_CAP).copied().collect(),
        }
    }

    /// Bounding-box volume restricted to dimensions the corruption spans.
    pub fn bbox_volume(&self) -> usize {
        (0..3).map(|d| self.bbox_max[d] - self.bbox_min[d] + 1).product()
    }

    /// Fraction of the bounding box actually corrupted (cluster density).
    pub fn density(&self) -> f64 {
        self.wrong as f64 / self.bbox_volume() as f64
    }
}

/// Why a DUE was declared.
///
/// Serde is written by hand (matching the derive's externally tagged shape,
/// with a direct JSON writer like the derive's) so journals can skew across
/// harness versions in both directions:
///
/// * **backward**: pre-PR-5 journals carry only `Crash`/`Timeout`, which
///   this reader still parses bit-identically;
/// * **forward**: a tag this build does not know (journal written by a
///   newer harness) decodes as [`DueKind::Unknown`] instead of aborting the
///   whole parse — the trial stays a DUE, only its sub-classification is
///   degraded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DueKind {
    /// The program crashed (panic: out-of-bounds index, arithmetic guard…).
    Crash { message: String },
    /// The watchdog killed a runaway execution.
    Timeout,
    /// The isolated worker process died on a signal mid-trial (abort,
    /// segfault, OOM kill) — only produced by the `--isolate` warden.
    Signal { signo: i32 },
    /// The warden's wall-clock watchdog SIGKILLed a hung worker.
    Killed,
    /// A DUE kind journaled by a newer harness than this reader; `raw`
    /// preserves the tag so re-serialization stays stable.
    Unknown { raw: String },
}

impl Serialize for DueKind {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        use serde::__private::Content;
        let content = match self {
            DueKind::Crash { message } => Content::Map(vec![(
                "Crash".to_string(),
                Content::Map(vec![("message".to_string(), Content::Str(message.clone()))]),
            )]),
            DueKind::Timeout => Content::Str("Timeout".to_string()),
            DueKind::Signal { signo } => Content::Map(vec![(
                "Signal".to_string(),
                Content::Map(vec![("signo".to_string(), Content::I64(*signo as i64))]),
            )]),
            DueKind::Killed => Content::Str("Killed".to_string()),
            // Degraded round-trip: an Unknown keeps its original tag (any
            // payload it once carried is already lost at parse time).
            DueKind::Unknown { raw } => Content::Str(raw.clone()),
        };
        s.serialize_content(content)
    }

    fn write_json(&self, out: &mut String) -> Result<(), serde::__private::ContentError> {
        use serde::__private::{write_i64, write_str};
        match self {
            DueKind::Crash { message } => {
                out.push_str("{\"Crash\":{\"message\":");
                write_str(out, message);
                out.push_str("}}");
            }
            DueKind::Timeout => out.push_str("\"Timeout\""),
            DueKind::Signal { signo } => {
                out.push_str("{\"Signal\":{\"signo\":");
                write_i64(out, *signo as i64);
                out.push_str("}}");
            }
            DueKind::Killed => out.push_str("\"Killed\""),
            DueKind::Unknown { raw } => write_str(out, raw),
        }
        Ok(())
    }
}

/// The payloads of `DueKind`'s struct variants.
#[derive(Deserialize)]
struct CrashPayload {
    message: String,
}

#[derive(Deserialize)]
struct SignalPayload {
    signo: i32,
}

impl<'de> Deserialize<'de> for DueKind {
    fn deserialize(r: &mut serde::__private::Reader<'de>) -> Result<Self, serde::__private::ContentError> {
        use serde::__private::{payload, unit};
        r.variant(|r, tag, has_payload| {
            // Any other tag, a unit variant's, skips a payload it carries.
            if matches!(tag, "Crash" | "Signal") {
                payload(has_payload, tag)?;
            } else {
                unit(r, has_payload)?;
            }
            Ok(match tag {
                "Crash" => DueKind::Crash { message: CrashPayload::deserialize(r)?.message },
                "Signal" => DueKind::Signal { signo: SignalPayload::deserialize(r)?.signo },
                "Timeout" => DueKind::Timeout,
                "Killed" => DueKind::Killed,
                other => DueKind::Unknown { raw: other.to_string() },
            })
        })
    }
}

/// Classified outcome of one trial (paper §2.1 taxonomy).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OutcomeRecord {
    /// Output bit-identical to the golden copy.
    Masked,
    /// The fault never reached architectural state (beam simulator only:
    /// e.g. ECC-corrected strike, strike on idle resource).
    HardwareMasked,
    /// Silent data corruption.
    Sdc(DiffSummary),
    /// Detected unrecoverable error.
    Due(DueKind),
}

impl OutcomeRecord {
    pub fn is_sdc(&self) -> bool {
        matches!(self, OutcomeRecord::Sdc(_))
    }
    pub fn is_due(&self) -> bool {
        matches!(self, OutcomeRecord::Due(_))
    }
    pub fn is_masked(&self) -> bool {
        matches!(self, OutcomeRecord::Masked | OutcomeRecord::HardwareMasked)
    }

    pub fn label(&self) -> &'static str {
        match self {
            OutcomeRecord::Masked => "masked",
            OutcomeRecord::HardwareMasked => "hw-masked",
            OutcomeRecord::Sdc(_) => "sdc",
            OutcomeRecord::Due(_) => "due",
        }
    }
}

/// Variable identity, owned (record form of [`crate::target::VarInfo`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VarDesc {
    pub name: String,
    pub class: crate::target::VarClass,
    pub frame: String,
    pub thread: Option<u16>,
    pub decl: String,
}

/// One fault-injection (or beam-strike) trial.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrialRecord {
    /// Trial index within its campaign (also the RNG stream id).
    pub trial: usize,
    /// Benchmark name.
    pub benchmark: String,
    /// Source-level fault model, when the trial used one (injection
    /// campaigns); `None` for beam-strike trials.
    pub model: Option<FaultModel>,
    /// Free-form mechanism label (fault-model name or architectural effect).
    pub mechanism: String,
    /// Step at which the fault was applied.
    pub inject_step: usize,
    /// Nominal steps of a fault-free run.
    pub total_steps: usize,
    /// Time window index in `0..n_windows` (paper Fig. 6).
    pub window: usize,
    /// Number of windows the benchmark's timeline is divided into.
    pub n_windows: usize,
    /// What was corrupted (absent when the fault was masked in hardware).
    pub injection: Option<InjectionDetail>,
    /// Classified outcome.
    pub outcome: OutcomeRecord,
    /// Steps the (possibly crashed) run actually executed.
    pub executed_steps: usize,
}

impl TrialRecord {
    /// The injected variable as an owned descriptor, if any.
    pub fn var_desc(&self) -> Option<VarDesc> {
        self.injection.as_ref().map(|d| VarDesc {
            name: d.var_name.clone(),
            class: d.var_class,
            frame: d.frame.clone(),
            thread: d.thread,
            decl: d.decl.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mm(coord: [usize; 3], rel: f64) -> Mismatch {
        Mismatch { coord, expected: 1.0, got: 1.0 + rel, rel_err: rel }
    }

    #[test]
    fn summary_of_single_mismatch() {
        let s = DiffSummary::from_mismatches(&[mm([3, 4, 0], 0.5)], [8, 8, 1]);
        assert_eq!(s.wrong, 1);
        assert_eq!(s.distinct, [1, 1, 1]);
        assert_eq!(s.bbox_min, [3, 4, 0]);
        assert_eq!(s.bbox_max, [3, 4, 0]);
        assert_eq!(s.bbox_volume(), 1);
        assert_eq!(s.density(), 1.0);
        assert_eq!(s.max_rel_err, 0.5);
    }

    #[test]
    fn summary_tracks_spans_and_density() {
        // A full 2x3 block.
        let ms: Vec<Mismatch> = (0..2).flat_map(|i| (0..3).map(move |j| mm([i, j, 0], 0.1))).collect();
        let s = DiffSummary::from_mismatches(&ms, [8, 8, 1]);
        assert_eq!(s.wrong, 6);
        assert_eq!(s.distinct, [2, 3, 1]);
        assert_eq!(s.bbox_volume(), 6);
        assert!((s.density() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nonfinite_mismatches_are_counted() {
        let ms = [mm([0, 0, 0], f64::INFINITY), mm([0, 1, 0], 0.2)];
        let s = DiffSummary::from_mismatches(&ms, [4, 4, 1]);
        assert_eq!(s.nonfinite, 1);
        assert!(s.max_rel_err.is_infinite());
        assert!((s.mean_rel_err - 0.2).abs() < 1e-12);
    }

    #[test]
    fn sample_is_capped() {
        let ms: Vec<Mismatch> = (0..1000).map(|i| mm([i, 0, 0], 0.1)).collect();
        let s = DiffSummary::from_mismatches(&ms, [1000, 1, 1]);
        assert_eq!(s.sample.len(), MISMATCH_SAMPLE_CAP);
        assert_eq!(s.wrong, 1000);
    }

    /// Writes records as JSON lines (the public-repository log format), one
    /// `serde_json::to_string` per line, and parses each line back.
    fn log_roundtrip_of(records: &[TrialRecord]) -> Vec<TrialRecord> {
        let log: String = records.iter().map(|r| serde_json::to_string(r).unwrap() + "\n").collect();
        log.lines().map(|line| serde_json::from_str(line).unwrap()).collect()
    }

    #[test]
    fn log_roundtrip() {
        let rec = TrialRecord {
            trial: 3,
            benchmark: "dgemm".into(),
            model: Some(FaultModel::Double),
            mechanism: "double".into(),
            inject_step: 10,
            total_steps: 40,
            window: 1,
            n_windows: 4,
            injection: Some(InjectionDetail {
                var_name: "matrix_a".into(),
                var_class: crate::target::VarClass::Matrix,
                frame: "<global>".into(),
                thread: None,
                decl: "dgemm.rs:42".into(),
                elem_index: 17,
                bits: vec![3, 5],
                mechanism: "double".into(),
            }),
            outcome: OutcomeRecord::Due(DueKind::Timeout),
            executed_steps: 160,
        };
        let back = log_roundtrip_of(std::slice::from_ref(&rec));
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].trial, 3);
        assert_eq!(back[0].outcome, OutcomeRecord::Due(DueKind::Timeout));
        assert_eq!(back[0].var_desc().unwrap().name, "matrix_a");
    }

    #[test]
    fn outcome_predicates() {
        assert!(OutcomeRecord::Masked.is_masked());
        assert!(OutcomeRecord::HardwareMasked.is_masked());
        assert!(OutcomeRecord::Due(DueKind::Timeout).is_due());
        let s = DiffSummary::from_mismatches(&[mm([0, 0, 0], 1.0)], [1, 1, 1]);
        assert!(OutcomeRecord::Sdc(s).is_sdc());
    }

    /// Wrapper exercising `finite_or_tag` in isolation.
    #[derive(Debug, Serialize, Deserialize)]
    struct Tagged {
        #[serde(with = "finite_or_tag")]
        v: f64,
    }

    #[test]
    fn finite_or_tag_roundtrips_nonfinite_values() {
        for (v, tag) in [(f64::INFINITY, "inf"), (f64::NEG_INFINITY, "-inf"), (f64::NAN, "nan")] {
            let json = serde_json::to_string(&Tagged { v }).unwrap();
            assert!(json.contains(&format!("\"{tag}\"")), "{v} should serialize as the tag {tag:?}, got {json}");
            let back: Tagged = serde_json::from_str(&json).unwrap();
            assert_eq!(back.v.to_bits(), v.to_bits(), "round-trip of {tag} must be bit-exact");
        }
    }

    #[test]
    fn finite_or_tag_roundtrips_finite_values() {
        for v in [0.0, -0.0, 1.5, -273.15, f64::MIN_POSITIVE, f64::MAX] {
            let json = serde_json::to_string(&Tagged { v }).unwrap();
            let back: Tagged = serde_json::from_str(&json).unwrap();
            assert_eq!(back.v.to_bits(), v.to_bits(), "round-trip of {v} must be bit-exact");
        }
    }

    #[test]
    fn finite_or_tag_rejects_unknown_tag_strings() {
        let err = serde_json::from_str::<Tagged>("{\"v\":\"not-a-float\"}").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("bad float tag"), "error should name the problem, got {msg:?}");
        assert!(msg.contains("not-a-float"), "error should echo the bad tag, got {msg:?}");
    }

    // -- DueKind version-skew suite -------------------------------------
    //
    // Journals outlive binaries in both directions: a harness from before
    // the warden must read post-warden journals (degrading unknown DUE
    // kinds) and the current harness must read pre-warden journals
    // bit-identically.

    #[test]
    fn due_kind_all_variants_roundtrip() {
        for kind in [
            DueKind::Crash { message: "index out of bounds".into() },
            DueKind::Timeout,
            DueKind::Signal { signo: 6 },
            DueKind::Signal { signo: 11 },
            DueKind::Killed,
        ] {
            let json = serde_json::to_string(&kind).unwrap();
            let back: DueKind = serde_json::from_str(&json).unwrap();
            assert_eq!(back, kind, "round-trip through {json}");
        }
    }

    #[test]
    fn due_kind_parses_pre_warden_journal_forms() {
        // Byte-for-byte the shapes PR-2 journals contain.
        let crash: DueKind = serde_json::from_str("{\"Crash\":{\"message\":\"boom\"}}").unwrap();
        assert_eq!(crash, DueKind::Crash { message: "boom".into() });
        let timeout: DueKind = serde_json::from_str("\"Timeout\"").unwrap();
        assert_eq!(timeout, DueKind::Timeout);
    }

    #[test]
    fn due_kind_serialized_forms_are_stable() {
        // Old readers key on these exact shapes; pin them.
        assert_eq!(serde_json::to_string(&DueKind::Timeout).unwrap(), "\"Timeout\"");
        assert_eq!(serde_json::to_string(&DueKind::Killed).unwrap(), "\"Killed\"");
        assert_eq!(
            serde_json::to_string(&DueKind::Signal { signo: 9 }).unwrap(),
            "{\"Signal\":{\"signo\":9}}"
        );
        assert_eq!(
            serde_json::to_string(&DueKind::Crash { message: "m".into() }).unwrap(),
            "{\"Crash\":{\"message\":\"m\"}}"
        );
    }

    #[test]
    fn due_kind_unknown_tag_degrades_instead_of_aborting() {
        // A unit-shaped tag from a future harness version.
        let unit: DueKind = serde_json::from_str("\"Evaporated\"").unwrap();
        assert_eq!(unit, DueKind::Unknown { raw: "Evaporated".into() });
        // A payload-carrying tag: the payload is dropped, the tag kept.
        let payload: DueKind = serde_json::from_str("{\"Hyperspace\":{\"depth\":3}}").unwrap();
        assert_eq!(payload, DueKind::Unknown { raw: "Hyperspace".into() });
        // Degraded values re-serialize to their tag and re-parse stably, so
        // a rewrite of an old journal does not oscillate.
        let json = serde_json::to_string(&payload).unwrap();
        assert_eq!(json, "\"Hyperspace\"");
        let again: DueKind = serde_json::from_str(&json).unwrap();
        assert_eq!(again, payload);
    }

    #[test]
    fn record_with_future_due_kind_still_parses_as_a_due() {
        // An entire TrialRecord written by a newer harness: the outcome
        // stays a DUE (counts, fractions and figure aggregation all keep
        // working), only the kind is degraded.
        let json = "{\"trial\":0,\"benchmark\":\"nw\",\"model\":null,\"mechanism\":\"single\",\
                    \"inject_step\":1,\"total_steps\":4,\"window\":0,\"n_windows\":4,\
                    \"injection\":null,\"outcome\":{\"Due\":\"Vaporized\"},\"executed_steps\":0}";
        let rec: TrialRecord = serde_json::from_str(json).unwrap();
        assert!(rec.outcome.is_due());
        assert_eq!(rec.outcome, OutcomeRecord::Due(DueKind::Unknown { raw: "Vaporized".into() }));
    }

    #[test]
    fn record_with_signal_due_roundtrips_through_the_log_format() {
        let rec = TrialRecord {
            trial: 7,
            benchmark: "lud".into(),
            model: Some(FaultModel::Random),
            mechanism: "random".into(),
            inject_step: 3,
            total_steps: 9,
            window: 1,
            n_windows: 4,
            injection: None,
            outcome: OutcomeRecord::Due(DueKind::Signal { signo: 6 }),
            executed_steps: 0,
        };
        let back = log_roundtrip_of(std::slice::from_ref(&rec));
        assert_eq!(back[0].outcome, OutcomeRecord::Due(DueKind::Signal { signo: 6 }));
    }
}
