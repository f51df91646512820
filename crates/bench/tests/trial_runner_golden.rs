//! Warden workers and `phi-coord` executors compute their golden output
//! through `ParsedSpec::trial_runner`, so their golden runs must show under
//! the `golden` span like every other golden computation in `bench`. This
//! is a test binary of its own because the recorder it installs is
//! process-global: no other test may run a golden while it counts.

use std::sync::Arc;

#[test]
fn trial_runner_records_exactly_one_golden_span() {
    let spec = r#"{"kind":"inject","benchmark":"dgemm","trials":8,"seed":2017,"size":"test","shards":1,"isolate":false,"models":[],"tolerance":0.0}"#;
    let parsed = bench::parse_spec(spec).expect("valid spec");
    let rec = Arc::new(obs::CounterRecorder::new());
    obs::install(rec.clone());
    let mut run = parsed.trial_runner();
    for trial in 0..4 {
        run(trial);
    }
    obs::uninstall();
    let goldens = rec.snapshot().hists.get("golden").map_or(0, |h| h.count);
    assert_eq!(goldens, 1, "one golden run per trial runner, timed under the golden span");
}
