//! `phi-serve` — campaign-as-a-service.
//!
//! The figure binaries run one campaign per process; this crate turns the
//! same orchestration machinery into a long-running daemon many clients
//! share. A [`server::Server`] listens on a Unix socket speaking the
//! warden's length-prefixed JSON framing ([`carolfi::warden::write_frame`]
//! / [`read_frame_blocking`](carolfi::warden::read_frame_blocking)),
//! accepts campaign specs as JSON, and schedules them with:
//!
//! * **admission control** — submissions beyond the waiting-queue cap (or
//!   with invalid specs) are rejected with a reason, never silently
//!   dropped;
//! * **fair-share scheduling** — up to `max_active` campaigns advance in a
//!   round-robin ring, each turn running one bounded *slice* of trials
//!   through the shared worker pool, so a big campaign cannot starve a
//!   small one;
//! * **durability** — every campaign persists in a registry directory
//!   (`<root>/<id>/{spec.json,journal/,result.json}`) under a
//!   server-assigned id, so clients can disconnect, reconnect by id, and a
//!   restarted daemon resumes interrupted campaigns from their journals;
//! * **streaming** — subscribed clients receive per-trial obs events plus
//!   periodic [`StatusSnapshot`](carolfi::monitor::StatusSnapshot) /
//!   [`MetricsFrame`](carolfi::warden::MetricsFrame) gauges.
//!
//! The crate is deliberately **kernel-free**: it never builds a benchmark
//! or runs a trial itself. Specs are opaque JSON validated and executed by
//! a [`Runner`] the embedder provides (`bench::SpecRunner` in the real
//! daemon), which keeps the scheduling/persistence layer testable with
//! synthetic runners and keeps the byte-identity guarantee where it
//! belongs: the runner reuses the exact campaign-engine path
//! (`carolfi::run_stored`) the figure binaries call, and slices are plain
//! store *budgets*, whose resume machinery is already pinned bit-identical
//! for any interruption pattern.

pub mod bus;
pub mod proto;
pub mod registry;
pub mod server;

pub use bus::EventBus;
pub use proto::{ClientRequest, ServerReply};
pub use registry::{CampaignState, Registry};
pub use server::{Server, ServeConfig};

use std::path::Path;

/// What validating a campaign spec yields: enough identity for status
/// lines and progress accounting, without the service layer understanding
/// the spec itself.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecInfo {
    /// Campaign kind (`"inject"` / `"beam"` for the real runner).
    pub kind: String,
    /// Benchmark label, for status displays.
    pub benchmark: String,
    /// Total trials (or strikes) the campaign will run.
    pub total: u64,
}

/// Outcome of one scheduling turn over a campaign.
#[derive(Debug, Clone, PartialEq)]
pub enum SliceRun {
    /// The slice budget ran out before the campaign finished; `completed`
    /// trials are journaled so far.
    Paused { completed: u64 },
    /// The campaign finished; `result` is its serialized result document
    /// (opaque to the service — persisted verbatim as `result.json` and
    /// returned verbatim to clients).
    Complete { result: String },
}

/// Executes campaign specs on behalf of the service.
///
/// Contract for [`run_slice`](Runner::run_slice): create the journal under
/// `journal` on the first call, resume it on every later call, run at most
/// `budget` further trials, and report [`SliceRun::Paused`] or
/// [`SliceRun::Complete`]. The same spec sliced any way must yield the
/// same journal records and the same final `result` — the store's
/// budget/resume determinism provides exactly this for the real runner.
pub trait Runner: Send + Sync + 'static {
    /// Checks a spec without running anything; `Err` is the
    /// admission-rejection reason shown to the client.
    fn validate(&self, spec: &str) -> Result<SpecInfo, String>;

    /// Runs one slice of at most `budget` trials against the journal
    /// directory.
    fn run_slice(&self, spec: &str, journal: &Path, budget: usize) -> std::io::Result<SliceRun>;
}
