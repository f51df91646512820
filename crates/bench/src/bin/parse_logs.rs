//! Log parser — the equivalent of the paper artifact's `parser-scripts`
//! (appendix A.5: "The parser scripts are located in the parser-scripts
//! folder … how to execute and how to interpret the results produced").
//!
//! Reads one or more campaign logs and prints the aggregate analyses:
//! outcome breakdown, fault-model and window PVFs, per-class rates and,
//! for SDC records, the spatial-pattern histogram and the tolerance curve.
//!
//! Three input shapes are understood:
//! * **plain JSONL record logs** — one `TrialRecord` per line, as
//!   `phi-cli records <journal-dir>` prints them;
//! * **phi-obs event streams** — `{"seq":..,"kind":..,"data":{..}}`
//!   envelopes from `obs::JsonlRecorder`; `trial`/`strike` events carry a
//!   full record, other kinds are counted and skipped;
//! * **phi-store journal directories** (a `--store` campaign sub-dir):
//!   records are recovered from the checksummed segments and the per-shard
//!   completion status is printed.
//!
//! Non-record lines in a JSONL file are counted and skipped. Every other
//! failure makes the exit status 1, after the analyses of what could be
//! read: a named input that is missing or unreadable, a journal without
//! campaign metadata or failing its scan or shard replay, or a trial
//! payload that does not decode.
//!
//! ```text
//! cargo run --release -p bench --bin parse_logs -- /tmp/phi-store/inject-nw
//! cargo run --release -p bench --bin parse_logs -- /tmp/phi-store/inject-*
//! ```

use carolfi::record::{OutcomeRecord, TrialRecord};
use sdc_analysis::pvf::{by_class, by_model, by_window, OutcomeBreakdown, PvfKind};
use sdc_analysis::spatial;
use sdc_analysis::tolerance::{paper_tolerances, ToleranceCurve};
use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::Path;
use store::{Journal, JournalEntry, ShardPlan, ShardProgress};

fn analyse(benchmark: &str, records: &[TrialRecord]) {
    println!("== {benchmark}: {} records", records.len());
    let bd = OutcomeBreakdown::of(records);
    println!("   masked {:5.1}%  sdc {:5.1}%  due {:5.1}%", bd.masked_pct(), bd.sdc_pct(), bd.due_pct());

    let sdc_m = by_model(records, PvfKind::Sdc);
    if !sdc_m.groups.is_empty() {
        let due_m = by_model(records, PvfKind::Due);
        let cells: Vec<String> = sdc_m
            .groups
            .iter()
            .map(|(m, p)| format!("{}={:.1}/{:.1}", m.label(), p.percent(), due_m.get(*m).map(|d| d.percent()).unwrap_or(0.0)))
            .collect();
        println!("   model sdc/due: {}", cells.join("  "));
    }

    let sdc_w = by_window(records, PvfKind::Sdc);
    let cells: Vec<String> = sdc_w.groups.iter().map(|(w, p)| format!("w{w}={:.1}", p.percent())).collect();
    println!("   window sdc: {}", cells.join(" "));

    let sdc_c = by_class(records, PvfKind::Sdc);
    let due_c = by_class(records, PvfKind::Due);
    let cells: Vec<String> = sdc_c
        .groups
        .iter()
        .map(|(c, p)| format!("{}={:.1}/{:.1}", c.label(), p.percent(), due_c.get(*c).map(|d| d.percent()).unwrap_or(0.0)))
        .collect();
    println!("   class sdc/due: {}", cells.join("  "));

    let summaries: Vec<_> = records
        .iter()
        .filter_map(|r| match &r.outcome {
            OutcomeRecord::Sdc(s) => Some(s),
            _ => None,
        })
        .collect();
    if !summaries.is_empty() {
        let hist = spatial::histogram(summaries.iter().copied());
        let cells: Vec<String> = hist.iter().map(|(p, n)| format!("{p}={n}")).collect();
        println!("   spatial: {}", cells.join(" "));
        let curve = ToleranceCurve::from_summaries(benchmark, summaries.iter().copied(), &paper_tolerances());
        let red: Vec<String> =
            curve.tolerances.iter().zip(curve.fit_reduction_percent()).map(|(t, r)| format!("{:.1}%→−{:.0}%", t * 100.0, r)).collect();
        println!("   tolerance: {}", red.join(" "));
    }
    println!();
}

/// One line of a `obs::JsonlRecorder` export. `trial` and `strike` events
/// carry a full [`TrialRecord`] as their payload.
#[derive(serde::Deserialize)]
struct ObsEnvelope {
    #[allow(dead_code)]
    seq: u64,
    kind: String,
    data: TrialRecord,
}

/// Reports an input (or part of one) that could not be read and clears
/// `ok`, which sets the exit status.
fn unreadable(input: impl Display, what: impl Display, ok: &mut bool) -> Vec<TrialRecord> {
    eprintln!("{input}: {what}");
    *ok = false;
    Vec::new()
}

/// Loads a flat JSONL file, accepting both plain record lines and phi-obs
/// event envelopes; unrecognised lines are counted, not fatal.
fn load_file(path: &str, ok: &mut bool) -> Vec<TrialRecord> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return unreadable(path, e, ok),
    };
    let mut records = Vec::new();
    let mut skipped = 0usize;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        if let Ok(r) = serde_json::from_str::<TrialRecord>(line) {
            records.push(r);
        } else if let Ok(env) = serde_json::from_str::<ObsEnvelope>(line) {
            if env.kind == "trial" || env.kind == "strike" {
                records.push(env.data);
            } else {
                skipped += 1;
            }
        } else {
            skipped += 1;
        }
    }
    if skipped > 0 {
        eprintln!("{path}: skipped {skipped} non-record line(s)");
    }
    records
}

/// Loads a phi-store journal directory, printing the campaign header and
/// per-shard completion status before handing the records to the analyses.
fn load_journal(dir: &Path, ok: &mut bool) -> Vec<TrialRecord> {
    let scan = match Journal::scan(dir) {
        Ok(s) => s,
        Err(e) => return unreadable(dir.display(), e, ok),
    };
    let Some(meta) = scan.meta else {
        return unreadable(dir.display(), "journal holds no campaign metadata", ok);
    };
    let progress = match ShardProgress::replay(meta.shards, &scan.entries) {
        Ok(p) => p,
        Err(e) => return unreadable(dir.display(), e, ok),
    };
    println!(
        "journal {} — {} campaign on {}, seed {}, {} trials over {} shards, {} segment(s)",
        dir.display(),
        meta.kind,
        meta.benchmark,
        meta.seed,
        meta.trials,
        meta.shards,
        scan.segments.len()
    );
    if scan.torn_bytes > 0 {
        println!("   recovered: dropped {}-byte torn tail from the newest segment", scan.torn_bytes);
    }
    let plan = ShardPlan::new(meta.trials, meta.shards);
    for (shard, state) in progress.shards.iter().enumerate() {
        let range = plan.range(shard);
        let status = if state.done {
            "done".to_string()
        } else {
            format!("{}/{} in progress", state.completed, range.len())
        };
        println!("   shard {shard}: trials {}..{} — {status}", range.start, range.end);
    }
    let total = progress.completed();
    println!(
        "   {} of {} trials journaled{}",
        total,
        meta.trials,
        if progress.all_done() { ", campaign complete" } else { " (resumable with --resume)" }
    );
    println!();

    let mut records = Vec::new();
    for entry in &scan.entries {
        if let JournalEntry::Trial { payload, .. } = entry {
            match serde_json::from_str::<TrialRecord>(payload) {
                Ok(r) => records.push(r),
                Err(e) => {
                    unreadable(dir.display(), format_args!("undecodable trial payload: {e}"), ok);
                }
            }
        }
    }
    records.sort_by_key(|r| r.trial);
    records
}

fn main() {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: parse_logs <log.jsonl | journal-dir> [more ...]");
        eprintln!("journal directories are the per-campaign sub-directories of a --store root;");
        eprintln!("JSONL logs hold one trial record per line (`phi-cli records <journal-dir>`)");
        eprintln!("or phi-obs event envelopes; exits 1 if any input cannot be read");
        std::process::exit(2);
    }
    let mut ok = true;
    let mut per_benchmark: BTreeMap<String, Vec<TrialRecord>> = BTreeMap::new();
    for path in &paths {
        let records =
            if Path::new(path).is_dir() { load_journal(Path::new(path), &mut ok) } else { load_file(path, &mut ok) };
        for r in records {
            per_benchmark.entry(r.benchmark.clone()).or_default().push(r);
        }
    }
    for (benchmark, records) in &per_benchmark {
        analyse(benchmark, records);
    }
    if !ok {
        std::process::exit(1);
    }
}
