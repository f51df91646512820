//! Scaled-down pass of every workload named in `BENCHMARK.json`, through
//! the built binary, untraced and traced: every campaign digest must match
//! its reference, nothing may outlive the run, and the emitted metric names
//! must be exactly the ones `BENCHMARK.json` declares.

use std::path::PathBuf;
use std::process::Command;

fn benchmark_json() -> String {
    std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("read BENCHMARK.json")
}

/// The `"name"` values of one top-level array of `BENCHMARK.json`.
fn names_in(section: &str) -> Vec<String> {
    let text = benchmark_json();
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("arrays are closed")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

/// Metric names of a result line, in emitted order.
fn emitted_names(line: &str) -> Vec<String> {
    let metrics = &line[line.find("\"metrics\"").expect("metrics key")..];
    let chunks: Vec<&str> = metrics.split("{\"value\"").collect();
    // Each metric's name ends the chunk before its value object.
    chunks[..chunks.len() - 1]
        .iter()
        .filter_map(|chunk| chunk.rsplit_once("\": ").map(|(head, _)| head))
        .filter_map(|head| head.rsplit_once('"').map(|(_, name)| name.to_string()))
        .collect()
}

fn run(workload: &str, trace: &str) -> String {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ])
        .current_dir(&dir)
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_passes_a_scaled_down_run() {
    let workloads = names_in("workloads");
    assert_eq!(workloads.len(), 4);
    for w in &workloads {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let line = run(w, trace);
            assert!(
                line.starts_with("{\"correct\": true,") && line.contains("\"failed\": 0,"),
                "{w}: {line}"
            );
            assert_eq!(
                emitted_names(&line),
                names_in(section),
                "{w} --trace {trace}"
            );
        }
    }
}

#[test]
fn unknown_workloads_are_usage_errors() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "hit",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
