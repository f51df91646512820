//! Duplication-with-comparison as a transparent [`FaultTarget`] wrapper —
//! the paper's §7 future work ("we plan to implement the mitigation
//! techniques based on the radiation and fault injection analysis. Then, we
//! will validate them with … fault injection campaigns") made concrete.
//!
//! [`DwcControls`] shadows every *control-class* variable of the wrapped
//! program (the variables the §6 analysis flags as critical for DGEMM and
//! LUD) with a replica. At every step boundary — exactly where the injector
//! can have struck — the replicas are compared: a mismatch raises a typed
//! panic, turning a would-be SDC or wild-pointer crash into an immediate,
//! attributable *detection*. The replicas themselves are exposed as
//! injectable state too (protection hardware is not immune to strikes);
//! corrupting a replica also trips the comparison, which is safe-side.
//!
//! Validated end to end by `cargo run -p bench --bin hardening_validation`
//! and the `dwc_wrapper_*` tests: under the same campaign seed, the wrapper
//! converts control-variable SDCs into detections without touching the
//! masked fraction of non-control faults.

use carolfi::output::Output;
use carolfi::target::{FaultTarget, FrameId, Snapshot, StateVisitor, StepOutcome, VarClass, VarInfo};
use std::ops::ControlFlow;

/// Panic payload raised when a control replica disagrees (recognisable in
/// the DUE crash message).
pub const DWC_DETECTION: &str = "dwc: control-replica mismatch on";

/// A [`FaultTarget`] whose control-class variables are DWC-protected.
pub struct DwcControls<T: FaultTarget> {
    inner: T,
    /// Shadow copies of control variables, keyed by (name, thread).
    shadow: Vec<ShadowSlot>,
    /// Detections counted so far (before the panic unwinds, for tests).
    detections: usize,
}

struct ShadowSlot {
    name: &'static str,
    thread: Option<u16>,
    bytes: Vec<u8>,
}

fn is_protected(info: &VarInfo) -> bool {
    info.class == VarClass::ControlVariable
}

impl<T: FaultTarget> DwcControls<T> {
    pub fn new(mut inner: T) -> Self {
        let shadow = inner
            .variables()
            .iter()
            .filter(|v| is_protected(&v.info))
            .map(|v| ShadowSlot { name: v.info.name, thread: v.info.thread, bytes: v.bytes.to_vec() })
            .collect();
        DwcControls { inner, shadow, detections: 0 }
    }

    /// Number of mismatches detected so far.
    pub fn detections(&self) -> usize {
        self.detections
    }

    /// Compares every protected variable with its replica; panics on the
    /// first mismatch (the detection path).
    fn compare(&mut self) {
        let shadow = std::mem::take(&mut self.shadow);
        {
            let vars = self.inner.variables();
            for (idx, v) in vars.iter().filter(|v| is_protected(&v.info)).enumerate() {
                let slot = &shadow[idx];
                debug_assert_eq!(slot.name, v.info.name);
                if slot.bytes != v.bytes {
                    self.detections += 1;
                    self.shadow = shadow;
                    panic!("{DWC_DETECTION} {} (thread {:?})", v.info.name, v.info.thread);
                }
            }
        }
        self.shadow = shadow;
    }

    /// Refreshes the replicas from the (legitimately updated) originals.
    fn refresh(&mut self) {
        let mut shadow = std::mem::take(&mut self.shadow);
        {
            let vars = self.inner.variables();
            for (idx, v) in vars.iter().filter(|v| is_protected(&v.info)).enumerate() {
                shadow[idx].bytes.clear();
                shadow[idx].bytes.extend_from_slice(v.bytes);
            }
        }
        self.shadow = shadow;
    }
}

impl<T: FaultTarget> FaultTarget for DwcControls<T> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn total_steps(&self) -> usize {
        self.inner.total_steps()
    }
    fn steps_executed(&self) -> usize {
        self.inner.steps_executed()
    }

    fn step(&mut self) -> StepOutcome {
        // The comparison runs where the interrupt can have struck: at the
        // step boundary, before the corrupted value is consumed.
        self.compare();
        let r = self.inner.step();
        // The program legitimately advances its cursors during the step.
        self.refresh();
        r
    }

    fn state<'a>(&'a mut self, v: &mut dyn StateVisitor<'a>) -> ControlFlow<()> {
        // The original state AND the replicas: the protection storage is
        // itself strike-able, and a restore brings it back with the rest.
        let DwcControls { inner, shadow, detections } = self;
        inner.state(v)?;
        v.scalar(None, detections)?;
        for slot in shadow {
            let elem_size = 8.min(slot.bytes.len().max(1));
            let frame = FrameId::Sub("dwc_shadow");
            let info = VarInfo { name: slot.name, class: VarClass::Buffer, frame, thread: slot.thread, file: file!(), line: line!() };
            v.field(Some(&info), &mut slot.bytes, elem_size, false)?;
        }
        ControlFlow::Continue(())
    }

    fn output(&self) -> Output {
        self.inner.output()
    }

    /// On the golden ladder exactly when the wrapped program is.
    fn snapshot(&mut self) -> Option<Snapshot> {
        self.inner.snapshot()?;
        Some(Snapshot::capture(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy victim with one critical control variable.
    struct Toy {
        data: Vec<u64>,
        cursor: u64,
        done: usize,
    }
    impl Toy {
        fn new() -> Self {
            Toy { data: (0..32).collect(), cursor: 0, done: 0 }
        }
    }
    impl FaultTarget for Toy {
        fn name(&self) -> &'static str {
            "toy"
        }
        fn total_steps(&self) -> usize {
            8
        }
        fn steps_executed(&self) -> usize {
            self.done
        }
        fn step(&mut self) -> StepOutcome {
            let base = (self.cursor as usize) * 4;
            for i in 0..4 {
                self.data[base + i] = self.data[base + i].wrapping_mul(7).wrapping_add(1);
            }
            self.cursor += 1;
            self.done += 1;
            if self.done >= 8 {
                StepOutcome::Done
            } else {
                StepOutcome::Continue
            }
        }
        fn state<'a>(&'a mut self, v: &mut dyn StateVisitor<'a>) -> ControlFlow<()> {
            let Toy { data, cursor, done } = self;
            v.scalar(None, done)?;
            v.slice(VarInfo::global("data", VarClass::Matrix, file!(), 1), data)?;
            v.scalar(VarInfo::local("cursor", VarClass::ControlVariable, "loop", 0, file!(), 2), cursor)
        }
        fn output(&self) -> Output {
            Output::I32Grid { dims: [32, 1, 1], data: self.data.iter().map(|&x| x as i32).collect() }
        }
        fn snapshot(&mut self) -> Option<Snapshot> {
            Some(Snapshot::capture(self))
        }
    }

    #[test]
    fn fault_free_run_is_unchanged_by_the_wrapper() {
        let mut plain = Toy::new();
        while plain.step() == StepOutcome::Continue {}
        let mut hardened = DwcControls::new(Toy::new());
        while hardened.step() == StepOutcome::Continue {}
        assert!(hardened.output().matches(&plain.output()));
        assert_eq!(hardened.detections(), 0);
    }

    #[test]
    fn corrupted_control_is_detected_before_use() {
        let _quiet = carolfi::panic_guard::silence_panics();
        let mut hardened = DwcControls::new(Toy::new());
        hardened.step();
        hardened.inner.cursor = 99; // the strike
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| hardened.step()));
        let payload = r.unwrap_err();
        let msg = payload.downcast_ref::<String>().expect("message");
        assert!(msg.contains(DWC_DETECTION), "{msg}");
    }

    #[test]
    fn corrupted_replica_is_also_detected() {
        let _quiet = carolfi::panic_guard::silence_panics();
        let mut hardened = DwcControls::new(Toy::new());
        hardened.step();
        hardened.shadow[0].bytes[0] ^= 0xff;
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| hardened.step()));
        assert!(r.is_err());
    }

    #[test]
    fn data_faults_pass_through_unprotected() {
        // DWC on controls must not mask data corruption: it still becomes an
        // SDC, exactly as selective hardening intends.
        let mut plain = Toy::new();
        while plain.step() == StepOutcome::Continue {}
        let golden = plain.output();
        let mut hardened = DwcControls::new(Toy::new());
        hardened.step();
        hardened.inner.data[31] ^= 1 << 20;
        while hardened.step() == StepOutcome::Continue {}
        assert!(!hardened.output().matches(&golden));
    }

    #[test]
    fn reset_restores_wrapper_and_replicas() {
        let mut plain = Toy::new();
        while plain.step() == StepOutcome::Continue {}
        let golden = plain.output();

        let mut hardened = DwcControls::new(Toy::new());
        let rung0 = hardened.snapshot().expect("wrapper snapshots when the inner target does");
        hardened.step();
        hardened.shadow[0].bytes[0] ^= 0xff; // corrupt the replica too
        assert!(hardened.restore(&rung0), "wrapper must restore when the inner target does");
        while hardened.step() == StepOutcome::Continue {}
        assert!(hardened.output().bits_equal(&golden), "post-restore rerun must match the golden run");
        assert_eq!(hardened.detections(), 0);
    }

    #[test]
    fn wrapper_exposes_replicas_as_injectable_state() {
        let mut hardened = DwcControls::new(Toy::new());
        let vars = hardened.variables();
        let shadows = vars.iter().filter(|v| v.info.frame == FrameId::Sub("dwc_shadow")).count();
        assert_eq!(shadows, 1);
    }
}
