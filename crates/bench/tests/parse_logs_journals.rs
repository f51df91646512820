//! `parse_logs` reads journal directories through the campaign engine's
//! reader: it analyses a finished journal, reports an unfinished one as
//! resumable, and refuses, with the engine's message and exit status 1,
//! every journal a `--resume` would refuse.

use carolfi::models::FaultModel;
use carolfi::record::{OutcomeRecord, TrialRecord};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use store::{CampaignMeta, JournalEntry, JournalWriter};

/// A 4-trial, 2-shard DGEMM journal named `name` holding one trial line per
/// `(shard, seq, trial)`, whose payload is a masked record of `trial`, and
/// a seal for each shard of `sealed`.
fn journal(name: &str, lines: &[(usize, u64, usize)], sealed: &[usize]) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/test-parse-logs").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    let meta = CampaignMeta {
        kind: "inject".into(),
        benchmark: "dgemm".into(),
        seed: 1,
        trials: 4,
        shards: 2,
        n_windows: 4,
        version: store::journal::FORMAT_VERSION,
    };
    let mut writer = JournalWriter::create(&dir, meta).unwrap();
    for &(shard, seq, trial) in lines {
        let record = TrialRecord {
            trial,
            benchmark: "dgemm".into(),
            model: Some(FaultModel::Single),
            mechanism: "single".into(),
            inject_step: 0,
            total_steps: 4,
            window: 0,
            n_windows: 4,
            injection: None,
            outcome: OutcomeRecord::Masked,
            executed_steps: 4,
        };
        writer.append(&JournalEntry::Trial { shard, seq, payload: record.encode().unwrap() }).unwrap();
    }
    for &shard in sealed {
        writer.append(&JournalEntry::ShardDone { shard }).unwrap();
    }
    writer.close().unwrap();
    dir
}

fn parse_logs(dir: &Path) -> (Option<i32>, String, String) {
    let Output { status, stdout, stderr } = Command::new(env!("CARGO_BIN_EXE_parse_logs")).arg(dir).output().unwrap();
    (status.code(), String::from_utf8(stdout).unwrap(), String::from_utf8(stderr).unwrap())
}

#[test]
fn a_finished_journal_is_analysed() {
    let dir = journal("finished", &[(0, 0, 0), (0, 1, 1), (1, 0, 2), (1, 1, 3)], &[0, 1]);
    let (code, out, err) = parse_logs(&dir);
    assert_eq!(code, Some(0), "{err}");
    assert!(out.contains("inject campaign on dgemm, seed 1, 4 trials over 2 shards"), "{out}");
    assert!(out.contains("shard 1: trials 2..4 — done"), "{out}");
    assert!(out.contains("4 of 4 trials journaled, campaign complete"), "{out}");
    assert!(out.contains("== dgemm: 4 records"), "{out}");
}

#[test]
fn an_unfinished_journal_is_analysed_and_reported_resumable() {
    let dir = journal("unfinished", &[(0, 0, 0), (1, 0, 2)], &[]);
    let (code, out, err) = parse_logs(&dir);
    assert_eq!(code, Some(0), "{err}");
    assert!(out.contains("shard 0: trials 0..2 — 1/2 in progress"), "{out}");
    assert!(out.contains("2 of 4 trials journaled (resumable with --resume)"), "{out}");
    assert!(out.contains("== dgemm: 2 records"), "{out}");
}

#[test]
fn a_journal_the_engine_refuses_exits_1_with_its_message() {
    // Shard 0's second line carries trial 5 where trial 1 belongs.
    let dir = journal("refused", &[(0, 0, 0), (0, 1, 5), (1, 0, 2), (1, 1, 3)], &[0, 1]);
    let (code, out, err) = parse_logs(&dir);
    assert_eq!(code, Some(1), "stdout:\n{out}");
    assert!(err.contains(&format!("{}: shard 0 seq 1: payload carries trial 5, expected 1", dir.display())), "{err}");
    assert!(!out.contains("== dgemm"), "a refused journal yields no records to analyse:\n{out}");
}
