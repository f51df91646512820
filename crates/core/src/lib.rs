//! # carolfi — a CAROL-FI-style high-level fault injector
//!
//! Rust reproduction of the fault-injection half of *Experimental and
//! Analytical Study of Xeon Phi Reliability* (Oliveira et al., SC'17).
//!
//! The original CAROL-FI drives GDB: it interrupts a running OpenMP binary at
//! a random time, picks a random thread/frame/variable from the debug
//! information, flips bits in that variable's memory according to one of four
//! fault models (*Single*, *Double*, *Random*, *Zero*), resumes the program,
//! and classifies the outcome against a golden output as **Masked**, **SDC**
//! (silent data corruption) or **DUE** (detected unrecoverable error — crash
//! or watchdog timeout).
//!
//! This crate keeps the same observable contract without a debugger:
//!
//! * Programs under test implement [`FaultTarget`]: they run cooperatively in
//!   `step()` increments (full speed between steps) and declare their state
//!   once, field by field, through [`FaultTarget::state`]. Their live
//!   variables — including per-logical-thread control variables and global
//!   arrays — come back from that declaration as [`Variable`] views, the
//!   moral equivalent of DWARF debug info.
//! * The [`supervisor`] pauses at a randomly sampled step, selects a
//!   thread/frame/variable exactly like CAROL-FI's Flip-script, applies a
//!   [`FaultModel`], resumes, and classifies the outcome. A watchdog converts
//!   runaway executions into timeout DUEs; panics (out-of-bounds indexing
//!   from corrupted control variables, etc.) become crash DUEs.
//! * The [`campaign`] module runs thousands of independent trials in
//!   parallel, deterministically per seed, and produces serialisable
//!   [`record::TrialRecord`] logs comparable to the paper's public log
//!   repository.
//! * The [`orchestrator`] module is the campaign engine: one runner for
//!   every [`TrialKind`] (injection here, beam strikes in `beamsim`) and
//!   [`Executor`] (pooled targets or supervised worker processes), in
//!   memory or durably sharded over a `phi-store` journal so campaigns
//!   survive crashes and resume across invocations bit-identically.
//!
//! The injector is deliberately generic over the fault *applicator*
//! ([`FaultApplicator`]), so the beam-experiment simulator (`beamsim` crate)
//! can reuse the same supervisor machinery with device-level architectural
//! effects instead of source-level fault models.

pub mod adaptive;
pub mod bytesview;
pub mod campaign;
pub mod dist;
pub mod fuel;
pub mod models;
pub mod monitor;
pub mod orchestrator;
pub mod output;
pub mod panic_guard;
pub mod pool;
pub mod record;
pub mod rng;
pub mod select;
pub mod supervisor;
pub mod target;
pub mod warden;

pub use adaptive::{AllocationPlanner, PlanDecision};
pub use campaign::{run_campaign, Campaign, CampaignConfig, Injection};
pub use dist::{run_coordinator, run_executor, ConnectTarget, CoordConfig, CoordSummary, ExecutorConfig, ExecutorSummary};
pub use orchestrator::{open_planned, open_stored, run_in_memory, run_stored, Executor, StoreConfig, StoredCampaign, StoredRun, TrialKind};
pub use warden::{IsolateConfig, IsolatedTrial, Warden};
pub use fuel::Fuel;
pub use models::{FaultApplicator, FaultModel, InjectionDetail};
pub use output::{Mismatch, Output};
pub use pool::{Ladder, TargetPool};
pub use record::{OutcomeRecord, TrialRecord, VarDesc};
pub use select::VariableSelector;
pub use supervisor::{run_trial, run_trial_mut, DueCause, TrialConfig, TrialOutcome};
pub use target::{FaultTarget, FrameId, Snapshot, StepOutcome, VarClass, VarInfo, Variable};
