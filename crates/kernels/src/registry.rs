//! Benchmark registry: uniform construction of the six paper benchmarks.

use crate::clamr::{Clamr, ClamrParams};
use crate::dgemm::{Dgemm, DgemmParams};
use crate::hotspot::{Hotspot, HotspotParams};
use crate::lavamd::{Lavamd, LavamdParams};
use crate::lud::{Lud, LudParams};
use crate::nw::{Nw, NwParams};
use carolfi::output::Output;
use carolfi::target::{FaultTarget, StepOutcome};

/// The six benchmarks of paper §3.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize)]
pub enum Benchmark {
    Clamr,
    Dgemm,
    Hotspot,
    Lavamd,
    Lud,
    Nw,
}

impl Benchmark {
    /// All six, in the paper's presentation order.
    pub const ALL: [Benchmark; 6] =
        [Benchmark::Clamr, Benchmark::Dgemm, Benchmark::Hotspot, Benchmark::Lavamd, Benchmark::Lud, Benchmark::Nw];

    /// The five benchmarks used in the beam experiments ("NW was only tested
    /// with our fault injection", paper §3.2).
    pub const BEAM: [Benchmark; 5] =
        [Benchmark::Clamr, Benchmark::Dgemm, Benchmark::Hotspot, Benchmark::Lavamd, Benchmark::Lud];

    pub fn label(self) -> &'static str {
        match self {
            Benchmark::Clamr => "clamr",
            Benchmark::Dgemm => "dgemm",
            Benchmark::Hotspot => "hotspot",
            Benchmark::Lavamd => "lavamd",
            Benchmark::Lud => "lud",
            Benchmark::Nw => "nw",
        }
    }

    /// Execution-time windows used in Fig. 6: "CLAMR is divided into nine
    /// time windows of equal length. DGEMM and HotSpot are split into five
    /// time windows while LUD and NW are divided into four parts each."
    /// (LavaMD is not shown in Fig. 6; it gets four windows.)
    pub fn n_windows(self) -> usize {
        match self {
            Benchmark::Clamr => 9,
            Benchmark::Dgemm | Benchmark::Hotspot => 5,
            Benchmark::Lavamd | Benchmark::Lud | Benchmark::Nw => 4,
        }
    }

    pub fn from_label(s: &str) -> Option<Benchmark> {
        Benchmark::ALL.into_iter().find(|b| b.label() == s)
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Problem-size presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeClass {
    /// Tiny — unit/integration tests.
    Test,
    /// Small — fast campaigns on modest machines.
    Small,
    /// Paper-shaped — 228 logical threads where applicable.
    Paper,
}

/// Builds a fresh instance of `bench` at size `size`.
pub fn build(bench: Benchmark, size: SizeClass) -> Box<dyn FaultTarget> {
    match (bench, size) {
        (Benchmark::Clamr, SizeClass::Test) => Box::new(Clamr::new(ClamrParams::test())),
        (Benchmark::Clamr, SizeClass::Small) => Box::new(Clamr::new(ClamrParams::small())),
        (Benchmark::Clamr, SizeClass::Paper) => Box::new(Clamr::new(ClamrParams::paper())),
        (Benchmark::Dgemm, SizeClass::Test) => Box::new(Dgemm::new(DgemmParams::test())),
        (Benchmark::Dgemm, SizeClass::Small) => Box::new(Dgemm::new(DgemmParams::small())),
        (Benchmark::Dgemm, SizeClass::Paper) => Box::new(Dgemm::new(DgemmParams::paper())),
        (Benchmark::Hotspot, SizeClass::Test) => Box::new(Hotspot::new(HotspotParams::test())),
        (Benchmark::Hotspot, SizeClass::Small) => Box::new(Hotspot::new(HotspotParams::small())),
        (Benchmark::Hotspot, SizeClass::Paper) => Box::new(Hotspot::new(HotspotParams::paper())),
        (Benchmark::Lavamd, SizeClass::Test) => Box::new(Lavamd::new(LavamdParams::test())),
        (Benchmark::Lavamd, SizeClass::Small) => Box::new(Lavamd::new(LavamdParams::small())),
        (Benchmark::Lavamd, SizeClass::Paper) => Box::new(Lavamd::new(LavamdParams::paper())),
        (Benchmark::Lud, SizeClass::Test) => Box::new(Lud::new(LudParams::test())),
        (Benchmark::Lud, SizeClass::Small) => Box::new(Lud::new(LudParams::small())),
        (Benchmark::Lud, SizeClass::Paper) => Box::new(Lud::new(LudParams::paper())),
        (Benchmark::Nw, SizeClass::Test) => Box::new(Nw::new(NwParams::test())),
        (Benchmark::Nw, SizeClass::Small) => Box::new(Nw::new(NwParams::small())),
        (Benchmark::Nw, SizeClass::Paper) => Box::new(Nw::new(NwParams::paper())),
    }
}

/// Runs a fault-free instance to completion and returns the golden output.
///
/// It steps with `step()`, the exact path, never `run_until`: kernels
/// specialise `run_until` with fast passes taken while the control state is
/// pristine (DGEMM's panel loop, HotSpot's single sweep), which every
/// fault-free trial runs, so each such trial's output is checked against an
/// independent run of the exact path.
pub fn golden(bench: Benchmark, size: SizeClass) -> Output {
    let mut t = build(bench, size);
    while t.step() == StepOutcome::Continue {}
    t.output()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_build_and_run_at_test_size() {
        for b in Benchmark::ALL {
            let g = golden(b, SizeClass::Test);
            assert!(!g.is_empty(), "{b}");
        }
    }

    #[test]
    fn goldens_are_reproducible() {
        for b in Benchmark::ALL {
            let a = golden(b, SizeClass::Test);
            let c = golden(b, SizeClass::Test);
            assert!(a.matches(&c), "{b} must be deterministic");
        }
    }

    #[test]
    fn labels_roundtrip() {
        for b in Benchmark::ALL {
            assert_eq!(Benchmark::from_label(b.label()), Some(b));
        }
        assert_eq!(Benchmark::from_label("nope"), None);
    }

    #[test]
    fn window_counts_match_the_paper() {
        assert_eq!(Benchmark::Clamr.n_windows(), 9);
        assert_eq!(Benchmark::Dgemm.n_windows(), 5);
        assert_eq!(Benchmark::Hotspot.n_windows(), 5);
        assert_eq!(Benchmark::Lud.n_windows(), 4);
        assert_eq!(Benchmark::Nw.n_windows(), 4);
    }

    #[test]
    fn beam_set_excludes_nw() {
        assert!(!Benchmark::BEAM.contains(&Benchmark::Nw));
        assert_eq!(Benchmark::BEAM.len(), 5);
    }

    #[test]
    fn reset_restores_every_kernel_to_a_bit_identical_rerun() {
        // The pool contract for rung 0: after a full run — even one with
        // injected corruption — restoring the pristine snapshot must return
        // the target to its pre-run state, so stepping to completion again
        // reproduces the golden output bit for bit.
        for b in Benchmark::ALL {
            let g = golden(b, SizeClass::Test);
            let mut t = build(b, SizeClass::Test);
            let rung0 = t.snapshot().unwrap_or_else(|| panic!("{b} must support snapshots"));
            while t.step() == StepOutcome::Continue {}
            // Corrupt injectable state the way a fault model would, to prove
            // the restore repairs inputs and controls, not just cursors.
            for v in t.variables() {
                if let Some(byte) = v.bytes.first_mut() {
                    *byte ^= 0x55;
                }
            }
            assert!(t.restore(&rung0), "{b} must support in-place restore");
            while t.step() == StepOutcome::Continue {}
            assert!(t.output().bits_equal(&g), "{b}: post-restore rerun must be bit-identical to the golden run");
        }
    }

    #[test]
    fn a_snapshot_of_another_kernel_or_size_is_refused() {
        for b in Benchmark::ALL {
            let rung0 = build(b, SizeClass::Test).snapshot().unwrap_or_else(|| panic!("{b} must support snapshots"));
            for other in Benchmark::ALL.into_iter().filter(|&o| o != b) {
                let mut t = build(other, SizeClass::Test);
                assert!(!t.converged(&rung0) && !t.restore(&rung0), "{other} took a snapshot of {b}");
            }
            let mut small = build(b, SizeClass::Small);
            assert!(!small.converged(&rung0) && !small.restore(&rung0), "{b} at Small took a snapshot taken at Test");
        }
    }

    #[test]
    fn every_benchmark_exposes_control_and_bulk_state() {
        use carolfi::target::VarClass;
        for b in Benchmark::ALL {
            let mut t = build(b, SizeClass::Test);
            let vars = t.variables();
            assert!(vars.iter().any(|v| v.info.class == VarClass::ControlVariable), "{b} lacks control variables");
            assert!(vars.iter().any(|v| v.info.class == VarClass::Pointer), "{b} lacks pointer variables");
            assert!(vars.iter().any(|v| v.bytes.len() > 1024), "{b} lacks bulk data");
        }
    }
}
