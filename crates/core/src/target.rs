//! The program-under-test abstraction.
//!
//! CAROL-FI observes a victim program through GDB: the program runs at full
//! speed, is interrupted at a random wall-clock time, and its live variables
//! (per thread, per stack frame, plus globals) are enumerated from debug
//! information. Here the victim implements [`FaultTarget`] instead: it
//! advances in coarse [`FaultTarget::step`] increments (one stencil
//! iteration, one blocked-factorisation panel, one AMR timestep, …) and
//! enumerates its injectable state through [`FaultTarget::variables`].
//!
//! A *step boundary* plays the role of the asynchronous interrupt; because
//! steps are small relative to the whole run (dozens to hundreds per
//! execution), the injection-time resolution matches the paper's
//! time-window analysis (4–9 windows per benchmark).

use crate::output::Output;

/// Result of advancing the target by one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// More work remains.
    Continue,
    /// The program finished; `output()` is ready to be compared.
    Done,
}

/// Coarse variable classes used by the paper's per-class vulnerability
/// analysis (§6): e.g. DGEMM's "matrices" vs "control variables", CLAMR's
/// mesh "Sort"/"Tree"/"others", LavaMD's charge/distance input arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize)]
pub enum VarClass {
    /// Dense input/output matrices (DGEMM, LUD, HotSpot grids, NW score matrix).
    Matrix,
    /// Read-only input arrays (LavaMD charge/distance, NW reference).
    InputArray,
    /// Loop counters, bounds, cursors — one copy per logical thread.
    ControlVariable,
    /// Physical/model constants kept live through the run (HotSpot Rx/Ry/Rz…).
    Constant,
    /// CLAMR mesh: cell-key sorting state.
    SortState,
    /// CLAMR mesh: spatial-tree (k-d tree) state.
    TreeState,
    /// CLAMR mesh: remaining mesh bookkeeping.
    MeshOther,
    /// Scratch/temporary buffers.
    Buffer,
    /// Pointer/base-address variables (CAROL-FI injects into pointers too;
    /// corrupting them is the segfault path).
    Pointer,
}

impl VarClass {
    /// Short label used in logs and printed tables.
    pub fn label(self) -> &'static str {
        match self {
            VarClass::Matrix => "matrix",
            VarClass::InputArray => "input-array",
            VarClass::ControlVariable => "control",
            VarClass::Constant => "constant",
            VarClass::SortState => "sort",
            VarClass::TreeState => "tree",
            VarClass::MeshOther => "mesh-other",
            VarClass::Buffer => "buffer",
            VarClass::Pointer => "pointer",
        }
    }
}

/// Which "stack frame" a variable lives in.
///
/// CAROL-FI walks from the current frame upward to the external frame that
/// holds the globals and picks one frame at random. Our targets expose the
/// same two-level structure: global state and the active subroutine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameId {
    /// Globals / heap allocations visible to the whole program.
    Global,
    /// A named subroutine frame (e.g. `"lud_perimeter"`, `"kdtree_build"`).
    Sub(&'static str),
}

impl FrameId {
    pub fn label(self) -> &'static str {
        match self {
            FrameId::Global => "<global>",
            FrameId::Sub(name) => name,
        }
    }
}

/// Static description of an injectable variable — the debug-info record.
#[derive(Debug, Clone, Copy)]
pub struct VarInfo {
    /// Source-level variable name (`"matrix_a"`, `"loop_k"`, …).
    pub name: &'static str,
    /// Coarse class for the per-class analysis.
    pub class: VarClass,
    /// Owning frame.
    pub frame: FrameId,
    /// Owning logical thread, if thread-private (`None` for globals).
    pub thread: Option<u16>,
    /// Source file the variable is declared in (mimics DWARF `DW_AT_decl_file`).
    pub file: &'static str,
    /// Source line (mimics DWARF `DW_AT_decl_line`).
    pub line: u32,
}

impl VarInfo {
    /// Convenience constructor for a global variable.
    pub fn global(name: &'static str, class: VarClass, file: &'static str, line: u32) -> Self {
        VarInfo { name, class, frame: FrameId::Global, thread: None, file, line }
    }

    /// Convenience constructor for a thread-private variable in a subroutine
    /// frame.
    pub fn local(
        name: &'static str,
        class: VarClass,
        frame: &'static str,
        thread: u16,
        file: &'static str,
        line: u32,
    ) -> Self {
        VarInfo { name, class, frame: FrameId::Sub(frame), thread: Some(thread), file, line }
    }
}

/// A live, mutable view of one variable's memory.
///
/// `elem_size` is the machine-word granularity the fault models operate on:
/// for an `f64` array it is 8, so a *Random* fault randomises one 8-byte
/// element rather than the whole array — matching how GDB's `set` writes a
/// single object member.
pub struct Variable<'a> {
    pub info: VarInfo,
    pub bytes: &'a mut [u8],
    pub elem_size: usize,
}

impl<'a> Variable<'a> {
    /// Builds a variable view over a slice of plain numeric values.
    pub fn from_slice<T: crate::bytesview::PlainBits>(info: VarInfo, values: &'a mut [T]) -> Self {
        let elem_size = std::mem::size_of::<T>();
        Variable { info, bytes: crate::bytesview::as_bytes_mut(values), elem_size }
    }

    /// Builds a variable view over a single plain numeric value.
    pub fn from_scalar<T: crate::bytesview::PlainBits>(info: VarInfo, value: &'a mut T) -> Self {
        Self::from_slice(info, std::slice::from_mut(value))
    }

    /// Number of `elem_size`-byte elements in the variable.
    pub fn elem_count(&self) -> usize {
        debug_assert!(self.elem_size > 0);
        self.bytes.len() / self.elem_size
    }
}

impl std::fmt::Debug for Variable<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Variable")
            .field("name", &self.info.name)
            .field("class", &self.info.class)
            .field("frame", &self.info.frame)
            .field("thread", &self.info.thread)
            .field("len_bytes", &self.bytes.len())
            .field("elem_size", &self.elem_size)
            .finish()
    }
}

/// A program under test.
///
/// Implementations must be deterministic: constructing two targets with the
/// same parameters and stepping them to completion must produce bit-identical
/// outputs. The supervisor relies on this to classify any mismatch as an SDC.
pub trait FaultTarget: Send {
    /// Benchmark name (`"dgemm"`, `"hotspot"`, …).
    fn name(&self) -> &'static str;

    /// Nominal number of steps a fault-free run takes. Used to sample the
    /// injection time and to bound the watchdog.
    fn total_steps(&self) -> usize;

    /// Number of steps executed so far.
    fn steps_executed(&self) -> usize;

    /// Advances the program by one cooperative step.
    ///
    /// May panic if injected corruption drives it into an invalid state
    /// (out-of-bounds access, fuel exhaustion) — the supervisor converts
    /// panics into DUEs.
    fn step(&mut self) -> StepOutcome;

    /// Runs at full speed until `steps_executed()` reaches `step_bound`,
    /// the program finishes, or `fuel` runs out (a timeout panic the
    /// supervisor classifies as a DUE).
    ///
    /// This is the supervisor's run-ahead primitive (ZOFI's stance: run at
    /// full speed, interrupt at the precomputed firing point): a trial is
    /// two `run_until` phases around a single injection, and the non-firing
    /// path costs one fuel decrement-and-branch per step instead of
    /// per-step supervisor bookkeeping. Through `Box<dyn FaultTarget>` the
    /// whole phase is one virtual call rather than two per step.
    ///
    /// Overriding implementations must stay observably identical to this
    /// default: burn exactly one fuel unit immediately *before* each step
    /// (so a timeout fires with the same executed-step count), preserve
    /// `step()`'s effects bit for bit — including when the target is
    /// already finished — and return `Done` the moment a step reports it.
    fn run_until(&mut self, step_bound: usize, fuel: &mut crate::fuel::Fuel) -> StepOutcome {
        while self.steps_executed() < step_bound {
            fuel.burn(1);
            if let StepOutcome::Done = self.step() {
                return StepOutcome::Done;
            }
        }
        StepOutcome::Continue
    }

    /// Enumerates the live injectable variables, CAROL-FI's frame walk.
    fn variables(&mut self) -> Vec<Variable<'_>>;

    /// The program output, valid once `step` returned [`StepOutcome::Done`].
    fn output(&self) -> Output;

    /// Fraction of nominal work completed, in `[0, 1]`; used by the
    /// time-window analysis.
    fn progress(&self) -> f64 {
        let total = self.total_steps().max(1);
        (self.steps_executed() as f64 / total as f64).min(1.0)
    }

    /// Captures the target's complete state at a step boundary, or `None`
    /// when the target does not support snapshots (the default).
    ///
    /// The snapshot is the campaign's record of a fault-free run at
    /// `steps_executed()`: rung 0 is taken from a freshly built target, the
    /// later rungs of the golden ladder ([`crate::pool::Ladder`]) from
    /// fault-free prefixes. Capture with one copy of the state.
    fn snapshot(&self) -> Option<Snapshot> {
        None
    }

    /// Restores a state captured by [`FaultTarget::snapshot`] on a target
    /// of the same type and parameters, in place, returning `true` on
    /// success.
    ///
    /// The contract is strict bit-identity: after a restore, the target
    /// must be indistinguishable from the one the snapshot was taken of —
    /// every injectable byte enumerated by [`FaultTarget::variables`] (a
    /// previous trial may have corrupted any of them), `steps_executed()`,
    /// and whatever else steers later steps — so stepping on produces
    /// exactly the output the snapshotted target would have. Campaign
    /// pools use this to reuse one target per worker and to start a trial
    /// from the nearest golden rung instead of step 0. They rebuild after a
    /// DUE, because a panicked trial may have left the state torn
    /// mid-`step`.
    ///
    /// The default returns `false`: targets without snapshots are rebuilt
    /// by their factory for every trial and replay from step 0.
    fn restore(&mut self, _snapshot: &Snapshot) -> bool {
        false
    }
}

/// A target's complete state at a step boundary, as captured by
/// [`FaultTarget::snapshot`]: opaque to everyone but the target type that
/// took it. `Sync`, because every worker of a campaign restores from the
/// same snapshots.
pub struct Snapshot(Box<dyn std::any::Any + Send + Sync>);

impl Snapshot {
    /// Wraps a target's copy of its own state.
    pub fn new<S: std::any::Any + Send + Sync>(state: S) -> Self {
        Snapshot(Box::new(state))
    }

    /// The wrapped state, if it has type `S`.
    pub fn get<S: std::any::Any>(&self) -> Option<&S> {
        self.0.downcast_ref()
    }
}

/// Boxed targets forward the trait, so registries can hand out
/// `Box<dyn FaultTarget>` and campaigns can run against it directly.
impl FaultTarget for Box<dyn FaultTarget> {
    fn name(&self) -> &'static str {
        self.as_ref().name()
    }
    fn total_steps(&self) -> usize {
        self.as_ref().total_steps()
    }
    fn steps_executed(&self) -> usize {
        self.as_ref().steps_executed()
    }
    fn step(&mut self) -> StepOutcome {
        self.as_mut().step()
    }
    fn run_until(&mut self, step_bound: usize, fuel: &mut crate::fuel::Fuel) -> StepOutcome {
        // Forwarded so a boxed target pays one virtual dispatch per phase,
        // not two per step — and so kernel specializations stay reachable
        // through registries that hand out `Box<dyn FaultTarget>`.
        self.as_mut().run_until(step_bound, fuel)
    }
    fn variables(&mut self) -> Vec<Variable<'_>> {
        self.as_mut().variables()
    }
    fn output(&self) -> Output {
        self.as_ref().output()
    }
    fn progress(&self) -> f64 {
        self.as_ref().progress()
    }
    fn snapshot(&self) -> Option<Snapshot> {
        self.as_ref().snapshot()
    }
    fn restore(&mut self, snapshot: &Snapshot) -> bool {
        self.as_mut().restore(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variable_from_slice_reports_elements() {
        let mut data = vec![0.0f32; 10];
        let info = VarInfo::global("g", VarClass::Matrix, file!(), line!());
        let var = Variable::from_slice(info, &mut data);
        assert_eq!(var.elem_size, 4);
        assert_eq!(var.elem_count(), 10);
        assert_eq!(var.bytes.len(), 40);
    }

    #[test]
    fn variable_from_scalar_is_one_element() {
        let mut x = 7u64;
        let info = VarInfo::local("loop_i", VarClass::ControlVariable, "gemm_kernel", 3, file!(), line!());
        let var = Variable::from_scalar(info, &mut x);
        assert_eq!(var.elem_count(), 1);
        assert_eq!(var.info.thread, Some(3));
        assert_eq!(var.info.frame, FrameId::Sub("gemm_kernel"));
    }

    #[test]
    fn frame_labels() {
        assert_eq!(FrameId::Global.label(), "<global>");
        assert_eq!(FrameId::Sub("f").label(), "f");
    }

    #[test]
    fn class_labels_are_distinct() {
        let all = [
            VarClass::Matrix,
            VarClass::InputArray,
            VarClass::ControlVariable,
            VarClass::Constant,
            VarClass::SortState,
            VarClass::TreeState,
            VarClass::MeshOther,
            VarClass::Buffer,
            VarClass::Pointer,
        ];
        let labels: std::collections::HashSet<_> = all.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), all.len());
    }
}
