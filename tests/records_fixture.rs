//! Cross-commit record fixture.
//!
//! Every other byte-identity pin compares two paths built from the same
//! source: pooled against factory-per-trial trials, a plain run against a
//! stored, isolated, served or distributed one. A slip that shifts both
//! paths the same way (an `executed_steps` accounting error in the shared
//! supervisor, say) passes them all. This suite pins the records against
//! constants instead.
//!
//! Each campaign asserts its trial count and the CRC-32 of its records'
//! JSON lines: `store::crc32` over each `serde_json::to_string(record)`
//! followed by `\n`, in trial order — the `records_crc` of the result
//! document (`bench::spec_result`).
//!
//! The constants were produced by running this suite, with the expected
//! values left blank, against the tree before the golden snapshot ladder
//! landed (the commit whose trials replayed their fault-free prefix from
//! step 0), and copying the printed table. They change only with a
//! deliberate record-format or semantics change, which CHANGES.md records.

use phi_reliability::beamsim::campaign::engine_for;
use phi_reliability::beamsim::{run_beam_campaign, BeamConfig};
use phi_reliability::carolfi::{run_campaign, CampaignConfig, TrialRecord};
use phi_reliability::kernels::{build, golden, Benchmark, SizeClass};

/// `(kind, benchmark, size, trials, records_crc)`.
const EXPECTED: &[(&str, &str, &str, usize, u32)] = &[
    ("inject", "clamr", "test", 120, 3985654281),
    ("inject", "dgemm", "test", 120, 2903998162),
    ("inject", "hotspot", "test", 120, 635140718),
    ("inject", "lavamd", "test", 120, 469350506),
    ("inject", "lud", "test", 120, 2335653006),
    ("inject", "nw", "test", 120, 2301454447),
    ("beam", "clamr", "test", 200, 2463175430),
    ("beam", "dgemm", "test", 200, 2086494346),
    ("beam", "hotspot", "test", 200, 4281708698),
    ("beam", "lavamd", "test", 200, 2001286959),
    ("beam", "lud", "test", 200, 3399165111),
    ("inject", "hotspot", "small", 24, 1865086308),
    ("inject", "lud", "small", 24, 241790930),
];

const SEED: u64 = 2017;

fn records_crc(records: &[TrialRecord]) -> u32 {
    let mut bytes = Vec::new();
    for r in records {
        bytes.extend_from_slice(serde_json::to_string(r).expect("trial records serialize").as_bytes());
        bytes.push(b'\n');
    }
    phi_reliability::store::crc32(&bytes)
}

fn size_label(size: SizeClass) -> &'static str {
    match size {
        SizeClass::Test => "test",
        SizeClass::Small => "small",
        SizeClass::Paper => "paper",
    }
}

fn inject(b: Benchmark, size: SizeClass, trials: usize) -> Vec<TrialRecord> {
    let g = golden(b, size);
    let cfg = CampaignConfig { trials, seed: SEED, workers: 2, n_windows: b.n_windows(), ..Default::default() };
    run_campaign(b.label(), || build(b, size), &g, &cfg).records
}

fn beam(b: Benchmark, size: SizeClass, strikes: usize) -> Vec<TrialRecord> {
    let g = golden(b, size);
    let cfg = BeamConfig {
        strikes,
        seed: SEED,
        workers: 2,
        n_windows: b.n_windows(),
        engine: engine_for(b.label()),
        ..Default::default()
    };
    run_beam_campaign(b.label(), || build(b, size), &g, &cfg).records
}

#[test]
fn campaign_records_match_the_committed_fixture() {
    let mut got: Vec<(&str, &str, &str, usize, u32)> = Vec::new();
    let mut push = |kind: &'static str, b: Benchmark, size: SizeClass, records: Vec<TrialRecord>| {
        got.push((kind, b.label(), size_label(size), records.len(), records_crc(&records)));
    };
    for b in Benchmark::ALL {
        push("inject", b, SizeClass::Test, inject(b, SizeClass::Test, 120));
    }
    for b in Benchmark::BEAM {
        push("beam", b, SizeClass::Test, beam(b, SizeClass::Test, 200));
    }
    for b in [Benchmark::Hotspot, Benchmark::Lud] {
        push("inject", b, SizeClass::Small, inject(b, SizeClass::Small, 24));
    }
    let table: String = got.iter().map(|row| format!("    {row:?},\n")).collect();
    assert_eq!(got, EXPECTED, "records changed; the campaigns now produce:\n{table}");
}
