//! LUD — blocked LU decomposition (paper §3.2).
//!
//! "LUD is a dense linear algebra like DGEMM. However, LUD uses less memory
//! than DGEMM and has more interdependencies resulting in an algorithm that
//! is less compute-bound than DGEMM."
//!
//! The port follows Rodinia's blocked, pivot-free Doolittle factorisation
//! over a single-precision matrix made diagonally dominant at generation
//! time (as Rodinia's inputs are). Each diagonal block index `d` takes three
//! cooperative steps — *diagonal* factorisation, *perimeter* panels, and the
//! *internal* trailing-submatrix update — so a run has `3 × (n / b)` steps.
//! The trailing update (the hot phase) is parallelised over logical threads
//! with the usual fixed physical partition + injectable control reads, which
//! lets corrupted thread state produce the row/column interdependency
//! effects the paper observed: mid-run injections are the most critical
//! because the middle of the run maximises (work touched so far) ×
//! (iterations left to spread it).

use crate::par::{par_for_each, static_partition};
use carolfi::fuel::Fuel;
use carolfi::output::Output;
use carolfi::target::{FaultTarget, Snapshot, StateVisitor, StepOutcome, VarClass, VarInfo};
use rand::Rng;
use std::ops::ControlFlow;

/// LUD sizing parameters.
#[derive(Debug, Clone, Copy)]
pub struct LudParams {
    /// Matrix dimension; must be a multiple of `block`.
    pub n: usize,
    pub block: usize,
    pub logical_threads: usize,
    pub workers: usize,
    pub seed: u64,
}

impl LudParams {
    pub fn test() -> Self {
        LudParams { n: 48, block: 8, logical_threads: 16, workers: 1, seed: 0x10D }
    }

    pub fn small() -> Self {
        LudParams { n: 128, block: 16, logical_threads: 64, workers: 1, seed: 0x10D }
    }

    pub fn paper() -> Self {
        LudParams { n: 192, block: 16, logical_threads: phidev::KNC_LOGICAL_THREADS, workers: 1, seed: 0x10D }
    }
}

/// Per-logical-thread control block for the trailing update.
#[derive(Debug, Clone, Copy)]
struct Ctrl {
    d_local: u64,
    n_local: u64,
    b_local: u64,
    nb_local: u64,
    col_cur: u64,
    /// Inner-loop scratch, rewritten before every use (dead at interrupts).
    acc_scratch: f32,
    l_scratch: f32,
    u_scratch: f32,
    row_scratch: u64,
    col_scratch: u64,
}

/// Factorisation phases within one diagonal index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Diagonal,
    Perimeter,
    Internal,
}

/// The LUD fault target.
pub struct Lud {
    p: LudParams,
    a: Vec<f32>,
    /// Global diagonal cursor (injectable).
    d: u64,
    /// Pointer base of the matrix (injectable; the segfault path).
    ptr_m: u64,
    ctrl: Vec<Ctrl>,
    done: usize,
    total: usize,
}

impl Lud {
    pub fn new(p: LudParams) -> Self {
        assert!(p.n.is_multiple_of(p.block), "n must be a multiple of block");
        assert!(p.logical_threads > 0, "LUD needs at least one logical thread");
        let nb = p.n / p.block;
        let mut rng = carolfi::rng::fork(p.seed, 0);
        let mut a: Vec<f32> = (0..p.n * p.n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        for i in 0..p.n {
            a[i * p.n + i] += p.n as f32; // diagonal dominance ⇒ pivot-free LU is stable
        }
        let ctrl = (0..p.logical_threads)
            .map(|_| Ctrl {
                d_local: 0,
                n_local: p.n as u64,
                b_local: p.block as u64,
                nb_local: nb as u64,
                col_cur: 0,
                acc_scratch: 0.0,
                l_scratch: 0.0,
                u_scratch: 0.0,
                row_scratch: 0,
                col_scratch: 0,
            })
            .collect();
        Lud { p, a, d: 0, ptr_m: 0, ctrl, done: 0, total: 3 * nb }
    }

    /// Input matrix of a fresh instance (for verification tests).
    pub fn input(p: LudParams) -> Vec<f32> {
        Lud::new(p).a
    }

    /// Sequential unblocked Doolittle LU for correctness tests.
    pub fn reference(p: LudParams) -> Vec<f32> {
        let mut a = Lud::input(p);
        let n = p.n;
        for k in 0..n {
            for i in k + 1..n {
                a[i * n + k] /= a[k * n + k];
                for j in k + 1..n {
                    a[i * n + j] -= a[i * n + k] * a[k * n + j];
                }
            }
        }
        a
    }

    fn b(&self) -> usize {
        self.p.block
    }
    fn n(&self) -> usize {
        self.p.n
    }

    fn phase(&self) -> Phase {
        match self.done % 3 {
            0 => Phase::Diagonal,
            1 => Phase::Perimeter,
            _ => Phase::Internal,
        }
    }

    /// Factors the diagonal block at the (injectable) global cursor.
    fn step_diagonal(&mut self) {
        let (n, b) = (self.n(), self.b());
        let d = self.d as usize; // corrupted cursor ⇒ wrong/OOB block
        let base = d * b;
        let pm = self.ptr_m as usize;
        let mut fuel = Fuel::with_factor((b * b) as u64 + 1, 8.0);
        for k in 0..b {
            for i in k + 1..b {
                fuel.burn(1);
                let pivot = self.a[pm + (base + k) * n + base + k];
                let l = self.a[pm + (base + i) * n + base + k] / pivot;
                self.a[pm + (base + i) * n + base + k] = l;
                for j in k + 1..b {
                    let u = self.a[pm + (base + k) * n + base + j];
                    self.a[pm + (base + i) * n + base + j] -= l * u;
                }
            }
        }
    }

    /// Updates the row and column panels right/below the diagonal block.
    fn step_perimeter(&mut self) {
        let (n, b) = (self.n(), self.b());
        let d = self.d as usize;
        let base = d * b;
        let nb = n / b;
        let mut fuel = Fuel::with_factor((n * b) as u64 + 1, 8.0);
        // Row panel: solve L · X = A[d][j] for each block column j > d.
        for jb in d + 1..nb {
            let cbase = jb * b;
            for c in 0..b {
                for k in 0..b {
                    fuel.burn(1);
                    let x = self.a[(base + k) * n + cbase + c];
                    for i in k + 1..b {
                        let l = self.a[(base + i) * n + base + k];
                        self.a[(base + i) * n + cbase + c] -= l * x;
                    }
                }
            }
        }
        // Column panel: solve X · U = A[i][d] for each block row i > d.
        for ib in d + 1..nb {
            let rbase = ib * b;
            for r in 0..b {
                for k in 0..b {
                    fuel.burn(1);
                    let mut x = self.a[(rbase + r) * n + base + k];
                    for m in 0..k {
                        x -= self.a[(rbase + r) * n + base + m] * self.a[(base + m) * n + base + k];
                    }
                    self.a[(rbase + r) * n + base + k] = x / self.a[(base + k) * n + base + k];
                }
            }
        }
    }

    /// Trailing-submatrix update, parallel over logical threads.
    fn step_internal(&mut self) {
        let (n, b) = (self.n(), self.b());
        let d = self.d as usize;
        let row0 = (d + 1) * b;
        if row0 >= n {
            return; // last diagonal block has no trailing matrix
        }
        let trailing_rows = n - row0;
        // `head` holds the already-factored panel rows (shared read);
        // `tail` is physically partitioned into per-thread write stripes.
        let (head, tail) = self.a.split_at_mut(row0 * n);
        struct Item<'a> {
            ctl: &'a mut Ctrl,
            stripe: &'a mut [f32],
            stripe_row0: usize,
        }
        let mut items: Vec<Item<'_>> = Vec::with_capacity(self.ctrl.len());
        {
            let mut rest: &mut [f32] = tail;
            for (t, ctl) in self.ctrl.iter_mut().enumerate() {
                let (s, e) = static_partition(trailing_rows, self.p.logical_threads, t);
                let (stripe, next) = rest.split_at_mut((e - s) * n);
                rest = next;
                items.push(Item { ctl, stripe, stripe_row0: row0 + s });
            }
        }
        let head_ref: &[f32] = head;
        par_for_each(&mut items, self.p.workers, |_, item| {
            thread_trailing(item.ctl, item.stripe, item.stripe_row0, head_ref, n, b);
        });
        for ctl in &mut self.ctrl {
            ctl.d_local += 1;
        }
    }
}

/// One thread's trailing update: stripe -= L-panel × U-panel. Reads are
/// driven by the injectable control block; writes stay in the stripe.
fn thread_trailing(ctl: &mut Ctrl, stripe: &mut [f32], stripe_row0: usize, head: &[f32], n_phys: usize, _b_phys: usize) {
    let n_l = ctl.n_local as usize;
    let b_l = ctl.b_local as usize;
    let d_l = ctl.d_local as usize;
    let base = d_l.saturating_mul(b_l);
    let rows = stripe.len() / n_phys;
    let mut fuel = Fuel::with_factor(((rows + 1) * (n_phys + 1)) as u64, 4.0);
    let col0 = base + b_l + (ctl.col_cur as usize) % n_l.max(1);
    for r in 0..rows {
        fuel.burn(1);
        for j in col0..n_l {
            fuel.burn(1);
            let mut acc = 0.0;
            for k in 0..b_l {
                // L element lives in this thread's own stripe columns.
                let l = stripe[r * n_l + base + k];
                // U element lives in the factored head rows.
                let u = head[(base + k) * n_l + j];
                ctl.l_scratch = l;
                ctl.u_scratch = u;
                acc += l * u;
            }
            ctl.acc_scratch = acc;
            ctl.row_scratch = r as u64;
            ctl.col_scratch = j as u64;
            stripe[r * n_l + j] -= acc;
        }
        let _ = stripe_row0;
    }
    ctl.col_cur = 0;
}

impl FaultTarget for Lud {
    fn name(&self) -> &'static str {
        "lud"
    }

    fn total_steps(&self) -> usize {
        self.total
    }

    fn steps_executed(&self) -> usize {
        self.done
    }

    fn step(&mut self) -> StepOutcome {
        match self.phase() {
            Phase::Diagonal => self.step_diagonal(),
            Phase::Perimeter => self.step_perimeter(),
            Phase::Internal => {
                self.step_internal();
                self.d += 1;
            }
        }
        self.done += 1;
        if self.done >= self.total {
            StepOutcome::Done
        } else {
            StepOutcome::Continue
        }
    }

    fn state<'a>(&'a mut self, v: &mut dyn StateVisitor<'a>) -> ControlFlow<()> {
        // `p` and `total` are the fixed configuration.
        let Lud { p: _, a, d, ptr_m, ctrl, done, total: _ } = self;
        v.scalar(None, done)?;
        v.slice(VarInfo::global("matrix", VarClass::Matrix, file!(), 1), a)?;
        v.scalar(VarInfo::global("diag_cursor", VarClass::ControlVariable, file!(), 2), d)?;
        v.scalar(VarInfo::global("matrix_ptr", VarClass::Pointer, file!(), 3), ptr_m)?;
        for (t, ctl) in ctrl.iter_mut().enumerate() {
            let Ctrl { d_local, n_local, b_local, nb_local, col_cur, acc_scratch, l_scratch, u_scratch, row_scratch, col_scratch } =
                ctl;
            let (t, f, class) = (t as u16, "lud_internal", VarClass::ControlVariable);
            v.scalar(VarInfo::local("d_local", class, f, t, file!(), 10), d_local)?;
            v.scalar(VarInfo::local("n_local", class, f, t, file!(), 11), n_local)?;
            v.scalar(VarInfo::local("b_local", class, f, t, file!(), 12), b_local)?;
            v.scalar(VarInfo::local("nb_local", class, f, t, file!(), 13), nb_local)?;
            v.scalar(VarInfo::local("col_cur", class, f, t, file!(), 14), col_cur)?;
            v.scalar(VarInfo::local("acc", VarClass::Buffer, f, t, file!(), 15), acc_scratch)?;
            v.scalar(VarInfo::local("l_val", VarClass::Buffer, f, t, file!(), 16), l_scratch)?;
            v.scalar(VarInfo::local("u_val", VarClass::Buffer, f, t, file!(), 17), u_scratch)?;
            v.scalar(VarInfo::local("row", class, f, t, file!(), 18), row_scratch)?;
            v.scalar(VarInfo::local("col", class, f, t, file!(), 19), col_scratch)?;
        }
        ControlFlow::Continue(())
    }

    fn output(&self) -> Output {
        Output::F32Grid { dims: [self.p.n, self.p.n, 1], data: self.a.clone() }
    }

    fn snapshot(&mut self) -> Option<Snapshot> {
        Some(Snapshot::capture(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_to_done(mut l: Lud) -> Output {
        while l.step() == StepOutcome::Continue {}
        l.output()
    }

    #[test]
    fn matches_unblocked_reference() {
        let p = LudParams::test();
        let reference = Lud::reference(p);
        let Output::F32Grid { data, .. } = run_to_done(Lud::new(p)) else { panic!() };
        for (i, (&got, &exp)) in data.iter().zip(&reference).enumerate() {
            let tol = 1e-3 * exp.abs().max(1.0);
            assert!((got - exp).abs() <= tol, "element {i}: {got} vs {exp}");
        }
    }

    #[test]
    fn lu_product_reconstructs_input() {
        let p = LudParams::test();
        let input = Lud::input(p);
        let Output::F32Grid { data: lu, .. } = run_to_done(Lud::new(p)) else { panic!() };
        let n = p.n;
        // (L·U)[i][j] with L unit-lower and U upper from the packed result.
        for i in (0..n).step_by(7) {
            for j in (0..n).step_by(7) {
                let mut acc = 0.0f64;
                for k in 0..=i.min(j) {
                    let l = if k == i { 1.0 } else { lu[i * n + k] as f64 };
                    let u = lu[k * n + j] as f64;
                    acc += l * u;
                }
                let exp = input[i * n + j] as f64;
                assert!((acc - exp).abs() < 2e-2 * exp.abs().max(1.0), "LU({i},{j}) = {acc}, input {exp}");
            }
        }
    }

    #[test]
    fn deterministic_across_workers() {
        let p = LudParams::test();
        let a = run_to_done(Lud::new(p));
        let b = run_to_done(Lud::new(LudParams { workers: 3, ..p }));
        assert!(a.matches(&b));
    }

    #[test]
    #[should_panic(expected = "at least one logical thread")]
    fn zero_logical_threads_are_refused() {
        Lud::new(LudParams { logical_threads: 0, ..LudParams::test() });
    }

    #[test]
    fn total_steps_is_three_per_block() {
        let p = LudParams::test();
        assert_eq!(Lud::new(p).total_steps(), 3 * (p.n / p.block));
    }

    #[test]
    fn corrupted_global_cursor_crashes_or_corrupts() {
        let _quiet = carolfi::panic_guard::silence_panics();
        let p = LudParams::test();
        let golden = run_to_done(Lud::new(p));
        let mut l = Lud::new(p);
        for _ in 0..6 {
            l.step();
        }
        l.d = 1000; // way out of range
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            while l.step() == StepOutcome::Continue {}
            l.output()
        }));
        match r {
            Err(_) => {}                                 // crash DUE
            Ok(out) => assert!(!out.matches(&golden)),   // or an SDC
        }
    }

    #[test]
    fn corrupted_thread_dlocal_gives_sdc() {
        let _quiet = carolfi::panic_guard::silence_panics();
        let p = LudParams::test();
        let golden = run_to_done(Lud::new(p));
        let mut l = Lud::new(p);
        for _ in 0..3 {
            l.step();
        }
        l.ctrl[2].d_local = 0; // thread 2 falls one diagonal behind
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            while l.step() == StepOutcome::Continue {}
            l.output()
        }));
        match r {
            Err(_) => {}
            Ok(out) => assert!(!out.matches(&golden)),
        }
    }
}
