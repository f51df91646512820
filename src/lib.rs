//! # phi-reliability
//!
//! Facade crate for the Rust reproduction of *Experimental and Analytical
//! Study of Xeon Phi Reliability* (Oliveira et al., SC'17). Re-exports the
//! workspace crates so examples and integration tests have a single import
//! root:
//!
//! * [`carolfi`] — the CAROL-FI-style high-level fault injector.
//! * [`phidev`] — Knights Corner device model (topology, ECC, strike effects).
//! * [`kernels`] — the six HPC benchmarks (CLAMR, DGEMM, HotSpot, LavaMD,
//!   LUD, NW) as injectable, deterministic Rust ports.
//! * [`beamsim`] — the LANSCE neutron-beam experiment simulator.
//! * [`sdc_analysis`] — FIT/MTBF statistics, spatial-pattern classification,
//!   tolerance sweeps, PVF and time-window analysis.
//! * [`mitigation`] — ABFT, residue checking, duplication-with-comparison,
//!   parity and checkpointing cost models.
//! * [`store`] — durable campaign store: crash-safe journal, deterministic
//!   sharding and resumable orchestration (used via the campaign engine,
//!   `carolfi::run_stored`, for injection and beam campaigns alike).
//! * [`obs`] — zero-dependency telemetry: counters, span histograms and the
//!   cross-process metrics hub behind `--telemetry` / `--monitor`.

pub use beamsim;
pub use carolfi;
pub use kernels;
pub use mitigation;
pub use obs;
pub use phidev;
pub use sdc_analysis;
pub use store;
