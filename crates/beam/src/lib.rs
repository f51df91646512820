//! # beamsim — a LANSCE neutron-beam experiment simulator
//!
//! Reproduces the beam-experiment half of *Experimental and Analytical Study
//! of Xeon Phi Reliability* (paper §4) without a particle accelerator:
//!
//! * [`flux`] models the neutron environments — the JESD89A sea-level
//!   reference flux (13 n/cm²·h), its altitude scaling, and the accelerated
//!   LANSCE beam (10⁵–2.5 × 10⁶ n/cm²·s, "6 to 8 orders of magnitude higher
//!   than the atmospheric flux");
//! * [`effects`] turns a [`phidev::strike::ArchEffect`] into an actual
//!   corruption of the victim program's architectural state, through the
//!   same [`carolfi::FaultApplicator`] interface the injector uses — one
//!   word, a 512-bit vector's worth of lanes, a cache line in flight, one
//!   thread's control state, or a core's shared state;
//! * [`campaign`] runs strike-executions end to end: sample a strike,
//!   propagate it through the device model (SECDED corrects or machine-checks
//!   protected storage; unprotected latch/logic/dispatch upsets corrupt
//!   silently), run the victim to completion and classify against the
//!   golden output, then estimate SDC/DUE **FIT rates** with Poisson
//!   confidence intervals. [`Strikes`] is the beam trial kind of the
//!   `carolfi` campaign engine, so beam campaigns run stored, sharded,
//!   resumed and process-isolated exactly like injection campaigns.
//!
//! ## What is measured vs. what is calibrated
//!
//! The per-outcome probabilities P(SDC | strike), P(DUE | strike) and the
//! spatial/severity structure of the corrupted outputs are *measured* by
//! running the actual kernels. The device's total sensitive cross-section
//! [`campaign::SIGMA_RAW_CM2`] is a calibration constant (the real value is
//! proprietary silicon data); it converts outcome probabilities into
//! absolute FIT and is chosen so the most sensitive benchmark lands near the
//! paper's ≈193 FIT ceiling.

pub mod campaign;
pub mod effects;
pub mod flux;

pub use campaign::{run_beam_campaign, BeamCampaign, BeamConfig, Strikes};
pub use effects::BeamApplicator;
pub use flux::{FluxEnvironment, LANSCE_FLUX_HIGH, LANSCE_FLUX_LOW, SEA_LEVEL_FLUX};
