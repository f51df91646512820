//! Workload definitions: which campaigns each workload runs, derived from
//! the seed alone.
//!
//! The kernel mix and campaign sizes of a workload are fixed; the seed only
//! picks each campaign's RNG seed. That keeps the work per run the same
//! across seeds, so the spread between seeded runs measures the host and
//! the code, not a changing workload.

use bench::{CampaignKind, CampaignSpec, PlanSpec};
use kernels::Benchmark;
use sdc_analysis::CiMethod;

/// The benchmark's workloads, in `BENCHMARK.json` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    StoredTest,
    ServeSliced,
    IsolateTest,
    DistTest,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::StoredTest,
        Workload::ServeSliced,
        Workload::IsolateTest,
        Workload::DistTest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StoredTest => "stored-test",
            Workload::ServeSliced => "serve-sliced",
            Workload::IsolateTest => "isolate-test",
            Workload::DistTest => "dist-test",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Full-size campaigns, or the scaled-down pass the self-tests run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    fn trials(self, full: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Smoke => (full / 16).max(8),
        }
    }
}

/// Journal shards of the stored and isolated campaigns (the figure
/// binaries' default).
const SHARDS: usize = 8;

/// Shards of the distributed campaign: one lease per shard.
const DIST_SHARDS: usize = 4;

/// Executors of the distributed campaign.
pub const EXECUTORS: usize = 2;

/// SplitMix64 finaliser: decorrelates the per-campaign seeds derived from
/// one workload seed.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn campaign_seed(seed: u64, index: usize) -> u64 {
    mix(mix(seed) ^ index as u64)
}

fn spec(
    kind: CampaignKind,
    b: Benchmark,
    trials: usize,
    size: &str,
    shards: usize,
    isolate: bool,
) -> CampaignSpec {
    CampaignSpec {
        kind,
        version: 1,
        benchmark: b.label().to_string(),
        trials,
        seed: 0,
        size: size.to_string(),
        shards,
        isolate,
        models: Vec::new(),
        tolerance: 0.0,
        plan: None,
    }
}

fn inject_and_beam(inject: usize, beam: usize, isolate: bool) -> Vec<CampaignSpec> {
    let mut out: Vec<CampaignSpec> = Benchmark::ALL
        .iter()
        .map(|&b| spec(CampaignKind::Inject, b, inject, "test", SHARDS, isolate))
        .collect();
    out.extend(
        Benchmark::BEAM
            .iter()
            .map(|&b| spec(CampaignKind::Beam, b, beam, "test", SHARDS, isolate)),
    );
    out
}

/// The campaigns one round of `w` runs. A pure function of its arguments.
pub fn specs(w: Workload, seed: u64, scale: Scale) -> Vec<CampaignSpec> {
    let mut out = match w {
        Workload::StoredTest => inject_and_beam(scale.trials(512), scale.trials(2048), false),
        Workload::IsolateTest => inject_and_beam(scale.trials(192), scale.trials(384), true),
        Workload::ServeSliced => {
            let mut adaptive = spec(
                CampaignKind::Inject,
                Benchmark::Lud,
                scale.trials(1024),
                "test",
                1,
                false,
            );
            adaptive.version = 2;
            // A target no stratum can reach within the horizon: the planner
            // makes every allocation decision and always uses the whole
            // horizon, so the work per round does not depend on the seed.
            adaptive.plan = Some(PlanSpec {
                ci: 0.05,
                batch: 32,
                method: CiMethod::Wilson,
            });
            vec![
                spec(
                    CampaignKind::Inject,
                    Benchmark::Dgemm,
                    scale.trials(1536),
                    "test",
                    SHARDS,
                    false,
                ),
                spec(
                    CampaignKind::Inject,
                    Benchmark::Hotspot,
                    scale.trials(1536),
                    "test",
                    SHARDS,
                    false,
                ),
                adaptive,
                spec(
                    CampaignKind::Beam,
                    Benchmark::Clamr,
                    scale.trials(2048),
                    "test",
                    SHARDS,
                    false,
                ),
            ]
        }
        Workload::DistTest => {
            vec![spec(
                CampaignKind::Inject,
                Benchmark::Hotspot,
                scale.trials(96),
                "test",
                DIST_SHARDS,
                false,
            )]
        }
    };
    for (i, s) in out.iter_mut().enumerate() {
        s.seed = campaign_seed(seed, i);
    }
    out
}

/// The set-up probes of `w`: every campaign of [`specs`] cut to its
/// smallest run, one trial (one per executor, each on its own shard, for
/// the distributed campaign). Timing a probe through the same public call
/// a round uses times the program's own set-up before its first trial.
pub fn probe_specs(w: Workload, seed: u64, scale: Scale) -> Vec<CampaignSpec> {
    let mut out = specs(w, seed, scale);
    for s in &mut out {
        if w == Workload::DistTest {
            s.trials = EXECUTORS;
            s.shards = EXECUTORS;
        } else {
            s.trials = 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_are_a_pure_function_of_the_seed() {
        for w in Workload::ALL {
            for scale in [Scale::Full, Scale::Smoke] {
                assert_eq!(specs(w, 7, scale), specs(w, 7, scale), "{}", w.name());
                assert_ne!(
                    specs(w, 7, scale),
                    specs(w, 8, scale),
                    "{}: the seed must matter",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn the_seed_changes_only_campaign_seeds() {
        for w in Workload::ALL {
            let strip = |mut v: Vec<CampaignSpec>| {
                v.iter_mut().for_each(|s| s.seed = 0);
                v
            };
            assert_eq!(
                strip(specs(w, 1, Scale::Full)),
                strip(specs(w, 2, Scale::Full)),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn every_spec_validates() {
        for w in Workload::ALL {
            for s in specs(w, 3, Scale::Full)
                .into_iter()
                .chain(specs(w, 3, Scale::Smoke))
                .chain(probe_specs(w, 3, Scale::Full))
            {
                bench::validate_spec(s).unwrap();
            }
        }
    }

    #[test]
    fn workload_names_roundtrip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("hit"), None);
    }
}
