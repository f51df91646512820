//! The program-under-test abstraction.
//!
//! CAROL-FI observes a victim program through GDB: the program runs at full
//! speed, is interrupted at a random wall-clock time, and its live variables
//! (per thread, per stack frame, plus globals) are enumerated from debug
//! information. Here the victim implements [`FaultTarget`] instead: it
//! advances in coarse [`FaultTarget::step`] increments (one stencil
//! iteration, one blocked-factorisation panel, one AMR timestep, …) and
//! declares its mutable state through [`FaultTarget::state`], field by
//! field. That one declaration is the stand-in for the debug info: the
//! injectable variables ([`FaultTarget::variables`]), the golden snapshot,
//! its restore and the convergence compare are all derived from it.
//!
//! A *step boundary* plays the role of the asynchronous interrupt; because
//! steps are small relative to the whole run (dozens to hundreds per
//! execution), the injection-time resolution matches the paper's
//! time-window analysis (4–9 windows per benchmark).

use crate::bytesview::{as_bytes_mut, scalar_bytes_mut, PlainBits};
use crate::output::Output;
use std::ops::ControlFlow;

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
    pub fn from_slice<T: PlainBits>(info: VarInfo, values: &'a mut [T]) -> Self {
        let elem_size = std::mem::size_of::<T>();
        Variable { info, bytes: as_bytes_mut(values), elem_size }
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

/// Receives a target's mutable state from [`FaultTarget::state`], one
/// field at a time, in declaration order. Every view lives as long as the
/// target's borrow (`'a`), so a visitor may keep them, as
/// [`FaultTarget::variables`] does. Returning `Break` ends the walk.
pub trait StateVisitor<'a> {
    /// One field: its bytes, the width of one element, whether it is a
    /// growable `Vec`, and its [`VarInfo`] when a fault may strike it.
    fn field(&mut self, info: Option<&VarInfo>, bytes: &'a mut [u8], elem_size: usize, growable: bool) -> ControlFlow<()>;

    /// Asked before a growable field is handed over, with its length in
    /// elements: the length it must have then. A restore answers with the
    /// snapshot's, so the field resizes in place; the default keeps it.
    fn resize(&mut self, len: usize) -> ControlFlow<(), usize> {
        ControlFlow::Continue(len)
    }
}

/// Typed declarations for [`FaultTarget::state`]. `info` is `None` for
/// step state that no fault can reach, such as a step counter: a restore
/// and a compare treat it like any other field.
impl<'a> dyn StateVisitor<'a> + '_ {
    /// A single value.
    pub fn scalar<T: PlainBits>(&mut self, info: impl Into<Option<VarInfo>>, value: &'a mut T) -> ControlFlow<()> {
        self.field(info.into().as_ref(), scalar_bytes_mut(value), std::mem::size_of::<T>(), false)
    }

    /// An array whose length is fixed at construction.
    pub fn slice<T: PlainBits>(&mut self, info: impl Into<Option<VarInfo>>, values: &'a mut [T]) -> ControlFlow<()> {
        self.field(info.into().as_ref(), as_bytes_mut(values), std::mem::size_of::<T>(), false)
    }

    /// An array whose length changes as the program runs.
    pub fn vec<T: PlainBits + Default>(&mut self, info: impl Into<Option<VarInfo>>, values: &'a mut Vec<T>) -> ControlFlow<()> {
        let len = self.resize(values.len())?;
        values.resize(len, T::default());
        self.field(info.into().as_ref(), as_bytes_mut(values), std::mem::size_of::<T>(), true)
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

    /// Declares the target's mutable state to `v`, each field once: the one
    /// description of the state, from which [`FaultTarget::variables`],
    /// [`FaultTarget::restore`] and [`FaultTarget::converged`] derive.
    ///
    /// Destructure `self` without `..`, so that a field added later fails
    /// to compile until it is declared or ignored by name. Declare
    ///
    /// * every injectable field with its [`VarInfo`]. Their order is the
    ///   variable registry's, which the selector indexes, so records
    ///   depend on it;
    /// * step state that no fault can reach with `None`: the step counter,
    ///   and anything else later steps read;
    ///
    /// and ignore only what never changes after construction (parameters,
    /// totals) or is rebuilt before every read. Pass a `Break` from `v` on
    /// at once; the `?` operator does.
    fn state<'a>(&'a mut self, v: &mut dyn StateVisitor<'a>) -> ControlFlow<()>;

    /// The program output, valid once `step` returned [`StepOutcome::Done`].
    fn output(&self) -> Output;

    /// Fraction of nominal work completed, in `[0, 1]`; used by the
    /// time-window analysis.
    fn progress(&self) -> f64 {
        let total = self.total_steps().max(1);
        (self.steps_executed() as f64 / total as f64).min(1.0)
    }

    /// Enumerates the live injectable variables, CAROL-FI's frame walk: the
    /// fields [`FaultTarget::state`] declares with a [`VarInfo`], in
    /// declaration order.
    fn variables(&mut self) -> Vec<Variable<'_>> {
        let mut vars = Variables(Vec::new());
        let _ = self.state(&mut vars);
        vars.0
    }

    /// Captures the target's state at a step boundary, or `None` when the
    /// target does not take part in the golden ladder (the default): a pool
    /// then builds a fresh one for every trial, which replays from step 0.
    ///
    /// A target opts in by returning `Some(Snapshot::capture(self))`, once
    /// [`FaultTarget::state`] declares everything that steers later steps.
    /// The snapshot is the campaign's record of a fault-free run at
    /// `steps_executed()`: rung 0 is taken from a freshly built target, the
    /// later rungs of the golden ladder ([`crate::pool::Ladder`]) from
    /// fault-free prefixes.
    fn snapshot(&mut self) -> Option<Snapshot> {
        None
    }

    /// Copies a snapshot of this target back into its declared fields, in
    /// place, growable ones resized, and returns `true`; or returns `false`
    /// when the snapshot's layout is not this target's declaration (another
    /// kernel, or other parameters). A refused restore may have written
    /// the fields before the first one that differs in shape.
    ///
    /// Afterwards the target is indistinguishable from the one the snapshot
    /// was taken of — every declared byte, so every injectable byte a
    /// previous trial may have corrupted, the step count and whatever else
    /// steers later steps — so stepping on produces exactly the output the
    /// snapshotted target would have. Campaign pools use this to reuse one
    /// target per worker and to start a trial from the nearest golden rung
    /// instead of step 0. They rebuild after a DUE, because a panicked
    /// trial may have left the state torn mid-`step`.
    fn restore(&mut self, snapshot: &Snapshot) -> bool {
        let mut restore = Restore(Cursor::new(snapshot));
        snapshot.name == self.name() && self.state(&mut restore).is_continue() && restore.0.finished()
    }

    /// True when every declared field equals the snapshot's bit for bit:
    /// the read-only twin of [`FaultTarget::restore`].
    ///
    /// A faulted trial whose state matches a golden rung re-converged: the
    /// targets are deterministic, so the rest of its run is the golden
    /// run's and it will end Masked. The supervisor then stops the trial
    /// early ([`crate::supervisor::run_trial_mut`]). Floats compare by
    /// their bits, since `-0.0 == 0.0` and `NaN != NaN` under `==`. The
    /// one-element fields (the step count, scalars and control blocks) are
    /// compared as the walk meets them and the arrays once it is over, and
    /// the compare stops at the first difference, so a mismatch usually
    /// costs little.
    fn converged(&mut self, snapshot: &Snapshot) -> bool {
        let mut compare = Compare::new(snapshot);
        snapshot.name == self.name() && self.state(&mut compare).is_continue() && compare.finished()
    }
}

/// Collects the declared fields that have a [`VarInfo`].
struct Variables<'a>(Vec<Variable<'a>>);

impl<'a> StateVisitor<'a> for Variables<'a> {
    fn field(&mut self, info: Option<&VarInfo>, bytes: &'a mut [u8], elem_size: usize, _: bool) -> ControlFlow<()> {
        if let Some(&info) = info {
            self.0.push(Variable { info, bytes, elem_size });
        }
        ControlFlow::Continue(())
    }
}

/// A target's declared state at a step boundary, as captured by
/// [`Snapshot::capture`]: the bytes of every field [`FaultTarget::state`]
/// declares, with each field's shape. `Sync`, because every worker of a
/// campaign restores from the same snapshots.
pub struct Snapshot {
    /// [`FaultTarget::name`] of the target it was taken of.
    name: &'static str,
    /// Every declared field, in declaration order.
    slots: Box<[Slot]>,
    /// The fields' bytes, in declaration order.
    bytes: Box<[u8]>,
}

/// One declared field's shape in a [`Snapshot`].
#[derive(Clone, Copy, PartialEq)]
struct Slot {
    bytes: usize,
    elem_size: usize,
    growable: bool,
}

impl Slot {
    /// One element of fixed size: a step count, a scalar or a control
    /// field.
    fn small(self) -> bool {
        !self.growable && self.bytes == self.elem_size
    }
}

impl Snapshot {
    /// Captures `target`'s declared state with one copy of each field.
    pub fn capture<T: FaultTarget + ?Sized>(target: &mut T) -> Snapshot {
        let mut capture = Capture::default();
        let _ = target.state(&mut capture);
        let Capture { slots, bytes } = capture;
        Snapshot { name: target.name(), slots: slots.into(), bytes: bytes.into() }
    }
}

#[derive(Default)]
struct Capture {
    slots: Vec<Slot>,
    bytes: Vec<u8>,
}

impl<'a> StateVisitor<'a> for Capture {
    fn field(&mut self, _: Option<&VarInfo>, bytes: &'a mut [u8], elem_size: usize, growable: bool) -> ControlFlow<()> {
        self.slots.push(Slot { bytes: bytes.len(), elem_size, growable });
        self.bytes.extend_from_slice(bytes);
        ControlFlow::Continue(())
    }
}

/// A walk over a snapshot's slots beside a target's declaration.
struct Cursor<'s> {
    snapshot: &'s Snapshot,
    slot: usize,
    at: usize,
}

impl<'s> Cursor<'s> {
    fn new(snapshot: &'s Snapshot) -> Self {
        Cursor { snapshot, slot: 0, at: 0 }
    }

    /// The saved bytes of the next slot, when the field the target
    /// declares there has the slot's shape.
    fn next(&mut self, shape: Slot) -> Option<&'s [u8]> {
        if self.snapshot.slots.get(self.slot) != Some(&shape) {
            return None;
        }
        self.slot += 1;
        let saved = &self.snapshot.bytes[self.at..self.at + shape.bytes];
        self.at += shape.bytes;
        Some(saved)
    }

    /// The saved length in elements of the next slot, a growable one.
    fn len(&self) -> Option<usize> {
        let slot = self.snapshot.slots.get(self.slot)?;
        slot.growable.then(|| slot.bytes / slot.elem_size)
    }

    /// True once every slot was walked.
    fn finished(&self) -> bool {
        self.slot == self.snapshot.slots.len()
    }
}

/// Copies the saved bytes into each declared field.
struct Restore<'s>(Cursor<'s>);

impl<'a> StateVisitor<'a> for Restore<'_> {
    fn field(&mut self, _: Option<&VarInfo>, bytes: &'a mut [u8], elem_size: usize, growable: bool) -> ControlFlow<()> {
        let Some(saved) = self.0.next(Slot { bytes: bytes.len(), elem_size, growable }) else { return ControlFlow::Break(()) };
        bytes.copy_from_slice(saved);
        ControlFlow::Continue(())
    }

    fn resize(&mut self, _: usize) -> ControlFlow<(), usize> {
        self.0.len().map_or(ControlFlow::Break(()), ControlFlow::Continue)
    }
}

/// Compares each declared field with its saved bytes and breaks at the
/// first difference: the one-element fields (the step count, scalars and
/// control blocks) as the walk meets them, the arrays once it is over, so
/// a mismatch usually costs little.
struct Compare<'a, 's> {
    cursor: Cursor<'s>,
    /// The arrays met so far, beside their saved bytes.
    arrays: Vec<(&'a [u8], &'s [u8])>,
}

impl<'s> Compare<'_, 's> {
    fn new(snapshot: &'s Snapshot) -> Self {
        Compare { cursor: Cursor::new(snapshot), arrays: Vec::new() }
    }

    /// True when the walk met every slot and the arrays match too.
    fn finished(&self) -> bool {
        self.cursor.finished() && self.arrays.iter().all(|(now, saved)| now == saved)
    }
}

impl<'a> StateVisitor<'a> for Compare<'a, '_> {
    fn field(&mut self, _: Option<&VarInfo>, bytes: &'a mut [u8], elem_size: usize, growable: bool) -> ControlFlow<()> {
        let slot = Slot { bytes: bytes.len(), elem_size, growable };
        let Some(saved) = self.cursor.next(slot) else { return ControlFlow::Break(()) };
        if !slot.small() {
            self.arrays.push((bytes, saved));
        } else if saved != &*bytes {
            return ControlFlow::Break(());
        }
        ControlFlow::Continue(())
    }

    fn resize(&mut self, len: usize) -> ControlFlow<(), usize> {
        if self.cursor.len() == Some(len) {
            ControlFlow::Continue(len)
        } else {
            ControlFlow::Break(())
        }
    }
}

/// Boxed targets forward the trait, so registries can hand out
/// `Box<dyn FaultTarget>` and campaigns can run against it directly. Every
/// method is forwarded, the derived ones too, so a boxed target keeps its
/// own overrides: a run-to-end reference stays one.
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
    fn state<'a>(&'a mut self, v: &mut dyn StateVisitor<'a>) -> ControlFlow<()> {
        self.as_mut().state(v)
    }
    fn output(&self) -> Output {
        self.as_ref().output()
    }
    fn progress(&self) -> f64 {
        self.as_ref().progress()
    }
    fn variables(&mut self) -> Vec<Variable<'_>> {
        self.as_mut().variables()
    }
    fn snapshot(&mut self) -> Option<Snapshot> {
        self.as_mut().snapshot()
    }
    fn restore(&mut self, snapshot: &Snapshot) -> bool {
        self.as_mut().restore(snapshot)
    }
    fn converged(&mut self, snapshot: &Snapshot) -> bool {
        self.as_mut().converged(snapshot)
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
    fn variable_over_one_value_is_one_element() {
        let mut x = 7u64;
        let info = VarInfo::local("loop_i", VarClass::ControlVariable, "gemm_kernel", 3, file!(), line!());
        let var = Variable::from_slice(info, std::slice::from_mut(&mut x));
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

    /// A victim whose layout the tests vary: `grid` fixed, `mesh`
    /// growable, `threads` control scalars.
    struct Shaped {
        name: &'static str,
        grid: Vec<f32>,
        mesh: Vec<u32>,
        ctrl: Vec<u64>,
        done: usize,
    }

    impl Shaped {
        fn new(name: &'static str, grid: usize, threads: usize) -> Self {
            Shaped { name, grid: vec![1.5; grid], mesh: vec![7; 3], ctrl: vec![2; threads], done: 0 }
        }
    }

    impl FaultTarget for Shaped {
        fn name(&self) -> &'static str {
            self.name
        }
        fn total_steps(&self) -> usize {
            4
        }
        fn steps_executed(&self) -> usize {
            self.done
        }
        fn step(&mut self) -> StepOutcome {
            self.done += 1;
            self.mesh.push(self.done as u32);
            self.grid.iter_mut().for_each(|g| *g *= 2.0);
            if self.done >= 4 {
                StepOutcome::Done
            } else {
                StepOutcome::Continue
            }
        }
        fn state<'a>(&'a mut self, v: &mut dyn StateVisitor<'a>) -> ControlFlow<()> {
            let Shaped { name: _, grid, mesh, ctrl, done } = self;
            v.scalar(None, done)?;
            v.slice(VarInfo::global("grid", VarClass::Matrix, file!(), line!()), grid)?;
            v.vec(VarInfo::global("mesh", VarClass::MeshOther, file!(), line!()), mesh)?;
            for (t, c) in ctrl.iter_mut().enumerate() {
                v.scalar(VarInfo::local("c", VarClass::ControlVariable, "f", t as u16, file!(), line!()), c)?;
            }
            ControlFlow::Continue(())
        }
        fn output(&self) -> Output {
            Output::F32Grid { dims: [self.grid.len(), 1, 1], data: self.grid.clone() }
        }
    }

    #[test]
    fn restore_resizes_growable_fields_and_converged_sees_every_field() {
        let mut t = Shaped::new("shaped", 6, 2);
        let rung0 = Snapshot::capture(&mut t);
        t.step();
        let rung1 = Snapshot::capture(&mut t);
        assert!(t.converged(&rung1) && !t.converged(&rung0));
        t.step();
        t.ctrl[1] = 99;
        assert!(t.restore(&rung0));
        assert_eq!((t.done, t.mesh.len(), t.ctrl[1], t.grid[5]), (0, 3, 2, 1.5), "shrunk in place");
        assert!(t.converged(&rung0));
        assert!(t.restore(&rung1));
        assert_eq!(t.mesh, [7, 7, 7, 1], "grown in place");
        for flip in [|t: &mut Shaped| t.done += 1, |t: &mut Shaped| t.mesh.push(0), |t: &mut Shaped| t.grid[3] = -t.grid[3]] {
            let mut u = Shaped::new("shaped", 6, 2);
            assert!(u.restore(&rung1));
            flip(&mut u);
            assert!(!u.converged(&rung1));
        }
        assert_eq!(t.variables().iter().map(|v| v.info.name).collect::<Vec<_>>(), ["grid", "mesh", "c", "c"]);
    }

    /// A run-to-end reference: its `converged` is never true.
    struct RunToEnd(Shaped);

    impl FaultTarget for RunToEnd {
        fn name(&self) -> &'static str {
            self.0.name()
        }
        fn total_steps(&self) -> usize {
            self.0.total_steps()
        }
        fn steps_executed(&self) -> usize {
            self.0.steps_executed()
        }
        fn step(&mut self) -> StepOutcome {
            self.0.step()
        }
        fn state<'a>(&'a mut self, v: &mut dyn StateVisitor<'a>) -> ControlFlow<()> {
            self.0.state(v)
        }
        fn output(&self) -> Output {
            self.0.output()
        }
        fn converged(&mut self, _: &Snapshot) -> bool {
            false
        }
    }

    #[test]
    fn a_boxed_target_keeps_its_own_overrides() {
        let mut boxed: Box<dyn FaultTarget> = Box::new(RunToEnd(Shaped::new("shaped", 6, 2)));
        let rung = Snapshot::capture(&mut boxed);
        assert!(boxed.restore(&rung));
        assert!(!boxed.converged(&rung), "the box swapped the override for the derived compare");
    }

    #[test]
    fn a_snapshot_of_another_layout_is_refused() {
        let rung = Snapshot::capture(&mut Shaped::new("shaped", 6, 2));
        // Another kernel with the same layout, a longer fixed array, and
        // one control block more or less.
        for mut other in [Shaped::new("other", 6, 2), Shaped::new("shaped", 7, 2), Shaped::new("shaped", 6, 3), Shaped::new("shaped", 6, 1)] {
            assert!(!other.converged(&rung), "{} {} {}", other.name, other.grid.len(), other.ctrl.len());
            assert!(!other.restore(&rung), "{} {} {}", other.name, other.grid.len(), other.ctrl.len());
        }
        assert!(Shaped::new("shaped", 6, 2).restore(&rung));
    }
}
