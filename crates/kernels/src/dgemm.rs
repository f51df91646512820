//! DGEMM — blocked dense matrix multiplication (paper §3.2).
//!
//! "DGEMM is an optimized version of a matrix multiplication algorithm […] a
//! compute-bound program that is often used to rank supercomputers."
//!
//! The port computes `C = A × B` over double-precision square matrices with
//! a blocked k-loop: each cooperative step multiplies one k-panel, so a run
//! takes `⌈n / block⌉` steps. Rows of `C` are statically partitioned over
//! the logical threads (the paper's 228 OpenMP threads); every logical
//! thread carries **nine private integer loop-control variables** — the
//! population the paper singles out: "each of the 228 threads active in
//! parallel on the Xeon Phi allocates those nine integers to have its own
//! copy of the loop control variables" (§6, DGEMM). Corrupting them skips or
//! repeats panels (line/square SDCs) or drives indexing out of bounds
//! (crash DUEs); corrupted loop *bounds* that spin without touching memory
//! exhaust the fuel watchdog (timeout DUEs).

use crate::par::{par_for_each, static_partition};
use carolfi::bytesview::bits_eq;
use carolfi::fuel::Fuel;
use carolfi::output::Output;
use carolfi::target::{FaultTarget, Snapshot, StepOutcome, VarClass, VarInfo, Variable};
use rand::Rng;

/// DGEMM sizing parameters.
#[derive(Debug, Clone, Copy)]
pub struct DgemmParams {
    /// Matrix dimension (n × n).
    pub n: usize,
    /// k-panel width per step.
    pub block: usize,
    /// Logical (OpenMP-style) threads.
    pub logical_threads: usize,
    /// OS worker threads for the inner loops.
    pub workers: usize,
    /// Input-generation seed.
    pub seed: u64,
}

impl DgemmParams {
    /// Tiny instance for unit tests.
    pub fn test() -> Self {
        DgemmParams { n: 48, block: 8, logical_threads: 16, workers: 1, seed: 0xD6E3 }
    }

    /// Small instance for fast campaigns.
    pub fn small() -> Self {
        DgemmParams { n: 128, block: 16, logical_threads: 64, workers: 1, seed: 0xD6E3 }
    }

    /// Paper-shaped instance (228 logical threads).
    pub fn paper() -> Self {
        DgemmParams { n: 256, block: 16, logical_threads: phidev::KNC_LOGICAL_THREADS, workers: 1, seed: 0xD6E3 }
    }
}

/// Per-logical-thread control block: the nine integers of paper §6.
#[derive(Debug, Clone, Copy)]
struct Ctrl {
    /// Next k-panel this thread processes.
    kb: u64,
    /// First row of the thread's C stripe.
    row_start: u64,
    /// One past the last row of the stripe.
    row_end: u64,
    /// Thread-local copy of the matrix dimension (kept in a register by the
    /// original OpenMP code; injectable like any local).
    n_local: u64,
    /// Thread-local copy of the panel width.
    block_local: u64,
    /// Thread-local copy of the panel count.
    nb_local: u64,
    /// Resume cursors for the i/j/k loops (zero at step boundaries in a
    /// fault-free run).
    i_cur: u64,
    j_cur: u64,
    k_cur: u64,
    /// Accumulator / index scratch, rewritten before every use.
    acc_scratch: f64,
    aidx_scratch: u64,
}

impl Ctrl {
    /// Every field's bits, for [`FaultTarget::converged`].
    fn bits(&self) -> [u64; 11] {
        let Ctrl { kb, row_start, row_end, n_local, block_local, nb_local, i_cur, j_cur, k_cur, acc_scratch, aidx_scratch } =
            *self;
        [kb, row_start, row_end, n_local, block_local, nb_local, i_cur, j_cur, k_cur, acc_scratch.to_bits(), aidx_scratch]
    }
}

/// The DGEMM fault target.
#[derive(Clone)]
pub struct Dgemm {
    p: DgemmParams,
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
    ctrl: Vec<Ctrl>,
    /// Pointer base for the input matrices (the C code's pointer local;
    /// injectable — the segfault path).
    ptr_a: u64,
    done: usize,
    total: usize,
    /// Transposed k-panel of `b`, rebuilt from `b` every fast-path step so
    /// injected corruption in `b` flows through identically. Harness
    /// scratch: not injectable, not part of the snapshot contract.
    bt: Vec<f64>,
}

impl Dgemm {
    pub fn new(p: DgemmParams) -> Self {
        assert!(p.n > 0 && p.block > 0 && p.logical_threads > 0);
        let mut rng = carolfi::rng::fork(p.seed, 0);
        let a: Vec<f64> = (0..p.n * p.n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f64> = (0..p.n * p.n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let nb = p.n.div_ceil(p.block);
        let ctrl = (0..p.logical_threads)
            .map(|t| {
                let (s, e) = static_partition(p.n, p.logical_threads, t);
                Ctrl {
                    kb: 0,
                    row_start: s as u64,
                    row_end: e as u64,
                    n_local: p.n as u64,
                    block_local: p.block as u64,
                    nb_local: nb as u64,
                    i_cur: 0,
                    j_cur: 0,
                    k_cur: 0,
                    acc_scratch: 0.0,
                    aidx_scratch: 0,
                }
            })
            .collect();
        Dgemm { p, a, b, c: vec![0.0; p.n * p.n], ctrl, ptr_a: 0, done: 0, total: nb, bt: Vec::new() }
    }

    /// True when every injectable byte that steers the panel loops still
    /// holds the value a fault-free run has at this step boundary, so the
    /// specialized panel loop in [`Dgemm::fast_step`] is observably
    /// identical to [`thread_panel`]. Any corruption of the control
    /// population (or the pointer base) fails the check and drops the
    /// run back to the exact per-thread path.
    fn control_is_pristine(&self) -> bool {
        if self.ptr_a != 0 || self.p.n == 0 || !self.p.n.is_multiple_of(self.p.block) {
            return false;
        }
        let step = self.done as u64;
        let (n, block, nb) = (self.p.n as u64, self.p.block as u64, self.total as u64);
        self.ctrl.iter().enumerate().all(|(t, c)| {
            let (s, e) = static_partition(self.p.n, self.p.logical_threads, t);
            c.kb == step
                && c.row_start == s as u64
                && c.row_end == e as u64
                && c.n_local == n
                && c.block_local == block
                && c.nb_local == nb
                && c.i_cur == 0
                && c.j_cur == 0
                && c.k_cur == 0
        })
    }

    /// One clean-state step: every thread multiplies its C stripe by the
    /// current k-panel with the per-iteration bookkeeping hoisted out —
    /// no resume-cursor writes, no per-element fuel burns (provably
    /// unreachable in a clean state), and the k-panel of `b` transposed
    /// once so both input streams are contiguous. Floating-point
    /// accumulation order (k ascending, one acc per (i, j)) is identical
    /// to [`thread_panel`], so outputs are bit-identical.
    fn fast_step(&mut self) -> StepOutcome {
        let n = self.p.n;
        let block = self.p.block;
        if self.done < self.total {
            let k0 = self.done * block;
            self.bt.resize(n * block, 0.0);
            for kk in 0..block {
                let brow = &self.b[(k0 + kk) * n..(k0 + kk) * n + n];
                for (j, &v) in brow.iter().enumerate() {
                    self.bt[j * block + kk] = v;
                }
            }
            for ctl in self.ctrl.iter_mut() {
                let rs = ctl.row_start as usize;
                let rows = (ctl.row_end - ctl.row_start) as usize;
                let mut last_acc = None;
                for i in 0..rows {
                    let arow = (rs + i) * n;
                    let ap = &self.a[arow + k0..arow + k0 + block];
                    for j in 0..n {
                        let bp = &self.bt[j * block..j * block + block];
                        let mut acc = 0.0;
                        for (&x, &y) in ap.iter().zip(bp) {
                            acc += x * y;
                        }
                        self.c[arow + j] += acc;
                        last_acc = Some(acc);
                    }
                }
                // The slow path's scratch writes are overwritten every
                // iteration; only the final values survive a step.
                if let Some(acc) = last_acc {
                    ctl.acc_scratch = acc;
                    ctl.aidx_scratch = ((rs + rows - 1) * n + (n - 1)) as u64;
                }
                ctl.kb += 1;
            }
        }
        self.done += 1;
        if self.done >= self.total {
            StepOutcome::Done
        } else {
            StepOutcome::Continue
        }
    }

    /// Reference (unblocked, sequential) product for correctness tests.
    pub fn reference(p: DgemmParams) -> Vec<f64> {
        let g = Dgemm::new(p);
        let n = p.n;
        let mut c = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0;
                for k in 0..n {
                    acc += g.a[i * n + k] * g.b[k * n + j];
                }
                c[i * n + j] = acc;
            }
        }
        c
    }
}

/// One logical thread's share of one step: multiply its C stripe by one
/// k-panel. All reads are driven by the (injectable) control block; writes
/// land in the thread's pre-partitioned physical stripe, so corrupted
/// control can produce wrong values or panics but never a data race.
fn thread_panel(ctl: &mut Ctrl, c_stripe: &mut [f64], a: &[f64], b: &[f64], n_phys: usize, pa: usize) {
    if ctl.kb >= ctl.nb_local {
        return; // finished all panels (or corrupted past the end — work lost)
    }
    let n_l = ctl.n_local as usize;
    let block_l = ctl.block_local as usize;
    let k0 = (ctl.kb as usize).saturating_mul(block_l);
    let rows = match ctl.row_end.checked_sub(ctl.row_start) {
        Some(r) => r as usize,
        None => panic!("corrupted row bounds: start {} > end {}", ctl.row_start, ctl.row_end),
    };
    // Fuel bounds the loop *counts* (a corrupted bound that spins without
    // touching memory); OOB indexing panics on its own.
    let mut fuel = Fuel::with_factor((rows as u64 + 1) * (n_phys as u64 + 1), 4.0);
    let i0 = if rows == 0 { 0 } else { (ctl.i_cur as usize) % rows };
    for i in i0..rows {
        fuel.burn(1);
        ctl.i_cur = i as u64;
        let arow = (ctl.row_start as usize + i) * n_l;
        let crow = i * n_l;
        let j0 = (ctl.j_cur as usize) % n_l.max(1);
        for j in j0..n_l {
            fuel.burn(1);
            let mut acc = 0.0;
            let kstart = k0 + (ctl.k_cur as usize) % block_l.max(1);
            for k in kstart..k0 + block_l {
                acc += a[pa + arow + k] * b[pa + k * n_l + j];
            }
            ctl.k_cur = 0;
            ctl.acc_scratch = acc;
            ctl.aidx_scratch = (arow + j) as u64;
            c_stripe[crow + j] += acc;
        }
        ctl.j_cur = 0;
    }
    ctl.i_cur = 0;
    ctl.kb += 1;
}

impl FaultTarget for Dgemm {
    fn name(&self) -> &'static str {
        "dgemm"
    }

    fn total_steps(&self) -> usize {
        self.total
    }

    fn steps_executed(&self) -> usize {
        self.done
    }

    fn step(&mut self) -> StepOutcome {
        let n = self.p.n;
        // Zip each logical thread's control block with its physical C stripe.
        struct Item<'a> {
            ctl: &'a mut Ctrl,
            stripe: &'a mut [f64],
        }
        let mut items: Vec<Item<'_>> = Vec::with_capacity(self.ctrl.len());
        {
            let mut rest: &mut [f64] = &mut self.c;
            let mut prev_end = 0usize;
            for (t, ctl) in self.ctrl.iter_mut().enumerate() {
                let (s, e) = static_partition(n, self.p.logical_threads, t);
                debug_assert_eq!(s, prev_end);
                let (stripe, tail) = rest.split_at_mut((e - s) * n);
                rest = tail;
                prev_end = e;
                items.push(Item { ctl, stripe });
            }
        }
        let a = &self.a;
        let b = &self.b;
        let pa = self.ptr_a as usize;
        par_for_each(&mut items, self.p.workers, |_, item| {
            thread_panel(item.ctl, item.stripe, a, b, n, pa);
        });
        self.done += 1;
        if self.done >= self.total {
            StepOutcome::Done
        } else {
            StepOutcome::Continue
        }
    }

    fn run_until(&mut self, step_bound: usize, fuel: &mut Fuel) -> StepOutcome {
        // Run-ahead specialization (ZOFI-style full-speed phase): while the
        // control population is provably fault-free, take the monomorphic
        // panel loop; any injected divergence falls back to the exact
        // resumable path for that step. One fuel unit per step, burned
        // before the step — same accounting as the default implementation.
        while self.done < step_bound {
            fuel.burn(1);
            let out = if self.control_is_pristine() { self.fast_step() } else { self.step() };
            if let StepOutcome::Done = out {
                return StepOutcome::Done;
            }
        }
        StepOutcome::Continue
    }

    fn variables(&mut self) -> Vec<Variable<'_>> {
        let mut vars = Vec::with_capacity(3 + 9 * self.ctrl.len());
        vars.push(Variable::from_slice(VarInfo::global("matrix_a", VarClass::Matrix, file!(), 30), &mut self.a));
        vars.push(Variable::from_slice(VarInfo::global("matrix_b", VarClass::Matrix, file!(), 31), &mut self.b));
        vars.push(Variable::from_slice(VarInfo::global("matrix_c", VarClass::Matrix, file!(), 32), &mut self.c));
        vars.push(Variable::from_scalar(VarInfo::global("matrix_ptr", VarClass::Pointer, file!(), 33), &mut self.ptr_a));
        for (t, ctl) in self.ctrl.iter_mut().enumerate() {
            let t16 = t as u16;
            let f = "gemm_kernel";
            vars.push(Variable::from_scalar(VarInfo::local("kb", VarClass::ControlVariable, f, t16, file!(), 60), &mut ctl.kb));
            vars.push(Variable::from_scalar(VarInfo::local("row_start", VarClass::ControlVariable, f, t16, file!(), 61), &mut ctl.row_start));
            vars.push(Variable::from_scalar(VarInfo::local("row_end", VarClass::ControlVariable, f, t16, file!(), 62), &mut ctl.row_end));
            vars.push(Variable::from_scalar(VarInfo::local("n_local", VarClass::ControlVariable, f, t16, file!(), 63), &mut ctl.n_local));
            vars.push(Variable::from_scalar(VarInfo::local("block_local", VarClass::ControlVariable, f, t16, file!(), 64), &mut ctl.block_local));
            vars.push(Variable::from_scalar(VarInfo::local("nb_local", VarClass::ControlVariable, f, t16, file!(), 65), &mut ctl.nb_local));
            vars.push(Variable::from_scalar(VarInfo::local("i_cur", VarClass::ControlVariable, f, t16, file!(), 66), &mut ctl.i_cur));
            vars.push(Variable::from_scalar(VarInfo::local("j_cur", VarClass::ControlVariable, f, t16, file!(), 67), &mut ctl.j_cur));
            vars.push(Variable::from_scalar(VarInfo::local("k_cur", VarClass::ControlVariable, f, t16, file!(), 68), &mut ctl.k_cur));
            vars.push(Variable::from_scalar(VarInfo::local("acc", VarClass::Buffer, f, t16, file!(), 69), &mut ctl.acc_scratch));
            vars.push(Variable::from_scalar(VarInfo::local("a_idx", VarClass::Buffer, f, t16, file!(), 70), &mut ctl.aidx_scratch));
        }
        vars
    }

    fn output(&self) -> Output {
        Output::F64Grid { dims: [self.p.n, self.p.n, 1], data: self.c.clone() }
    }

    fn snapshot(&self) -> Option<Snapshot> {
        Some(Snapshot::new(self.clone()))
    }

    fn restore(&mut self, snapshot: &Snapshot) -> bool {
        let Some(s) = snapshot.get::<Dgemm>() else { return false };
        self.a.copy_from_slice(&s.a);
        self.b.copy_from_slice(&s.b);
        self.c.copy_from_slice(&s.c);
        self.ctrl.copy_from_slice(&s.ctrl);
        self.ptr_a = s.ptr_a;
        self.done = s.done;
        true
    }

    fn converged(&self, snapshot: &Snapshot) -> bool {
        let Some(s) = snapshot.get::<Dgemm>() else { return false };
        // Neither `restore` copies nor this compares: `p` and `total`, the
        // fixed configuration, and `bt`, scratch rebuilt from `b` before
        // every read.
        let Dgemm { p: _, a, b, c, ctrl, ptr_a, done, total: _, bt: _ } = s;
        self.done == *done
            && self.ptr_a == *ptr_a
            && self.ctrl.iter().map(Ctrl::bits).eq(ctrl.iter().map(Ctrl::bits))
            && bits_eq(&self.c, c)
            && bits_eq(&self.a, a)
            && bits_eq(&self.b, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_to_done(mut g: Dgemm) -> Output {
        while g.step() == StepOutcome::Continue {}
        g.output()
    }

    /// Every injectable bit of state: C, the control population, the
    /// pointer base, and the step counter. The fast path must leave all of
    /// it bit-identical to the resumable path.
    fn state_digest(g: &Dgemm) -> Vec<u64> {
        let mut d: Vec<u64> = g.c.iter().map(|v| v.to_bits()).collect();
        for c in &g.ctrl {
            d.extend([
                c.kb,
                c.row_start,
                c.row_end,
                c.n_local,
                c.block_local,
                c.nb_local,
                c.i_cur,
                c.j_cur,
                c.k_cur,
                c.acc_scratch.to_bits(),
                c.aidx_scratch,
            ]);
        }
        d.push(g.ptr_a);
        d.push(g.done as u64);
        d
    }

    #[test]
    fn run_until_fast_path_is_bit_identical_to_step() {
        let p = DgemmParams::test();
        let mut slow = Dgemm::new(p);
        let mut fast = Dgemm::new(p);
        assert!(fast.control_is_pristine());
        let mut fuel = Fuel::new(u64::MAX);
        // Partial phase (run-ahead to an interior step), then to completion —
        // exercising both Continue and Done exits of the specialization.
        assert_eq!(fast.run_until(2, &mut fuel), StepOutcome::Continue);
        for _ in 0..2 {
            slow.step();
        }
        assert_eq!(state_digest(&slow), state_digest(&fast), "mid-run divergence");
        assert_eq!(fast.run_until(usize::MAX, &mut fuel), StepOutcome::Done);
        while slow.step() == StepOutcome::Continue {}
        assert_eq!(state_digest(&slow), state_digest(&fast), "final state divergence");
        assert_eq!(u64::MAX - fuel.remaining(), slow.done as u64, "one fuel unit per step");
    }

    #[test]
    fn corrupted_control_falls_back_to_the_exact_path() {
        let p = DgemmParams::test();
        let mut slow = Dgemm::new(p);
        let mut fast = Dgemm::new(p);
        let mut fuel = Fuel::new(u64::MAX);
        fast.run_until(2, &mut fuel);
        for _ in 0..2 {
            slow.step();
        }
        // Inject the same control fault into both: thread 3 repeats a panel.
        slow.ctrl[3].kb = 0;
        fast.ctrl[3].kb = 0;
        assert!(!fast.control_is_pristine());
        assert_eq!(fast.run_until(usize::MAX, &mut fuel), StepOutcome::Done);
        while slow.step() == StepOutcome::Continue {}
        assert_eq!(state_digest(&slow), state_digest(&fast), "faulty-run divergence");
    }

    #[test]
    fn matches_reference_product() {
        let p = DgemmParams::test();
        let reference = Dgemm::reference(p);
        let out = run_to_done(Dgemm::new(p));
        let Output::F64Grid { data, .. } = out else { panic!() };
        for (i, (&got, &exp)) in data.iter().zip(&reference).enumerate() {
            assert!((got - exp).abs() <= 1e-10 * exp.abs().max(1.0), "element {i}: {got} vs {exp}");
        }
    }

    #[test]
    fn is_deterministic_across_runs_and_workers() {
        let p = DgemmParams::test();
        let a = run_to_done(Dgemm::new(p));
        let b = run_to_done(Dgemm::new(p));
        let c = run_to_done(Dgemm::new(DgemmParams { workers: 4, ..p }));
        assert!(a.matches(&b));
        assert!(a.matches(&c));
    }

    #[test]
    fn exposes_nine_controls_per_thread() {
        let p = DgemmParams::test();
        let mut g = Dgemm::new(p);
        let vars = g.variables();
        let controls = vars.iter().filter(|v| v.info.class == VarClass::ControlVariable).count();
        assert_eq!(controls, 9 * p.logical_threads);
        let matrices = vars.iter().filter(|v| v.info.class == VarClass::Matrix).count();
        assert_eq!(matrices, 3);
    }

    #[test]
    fn total_steps_is_panel_count() {
        let p = DgemmParams::test();
        assert_eq!(Dgemm::new(p).total_steps(), p.n.div_ceil(p.block));
    }

    #[test]
    fn corrupted_row_bounds_panic() {
        let _quiet = carolfi::panic_guard::silence_panics();
        let mut g = Dgemm::new(DgemmParams::test());
        g.step();
        g.ctrl[0].row_start = 1000;
        g.ctrl[0].row_end = 0;
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| g.step()));
        assert!(r.is_err());
    }

    #[test]
    fn corrupted_kb_skips_work_silently() {
        let p = DgemmParams::test();
        let golden = run_to_done(Dgemm::new(p));
        let mut g = Dgemm::new(p);
        g.step();
        g.ctrl[3].kb = g.ctrl[3].nb_local; // thread 3 believes it is done
        while g.step() == StepOutcome::Continue {}
        let m = g.output().mismatches(&golden);
        assert!(!m.is_empty(), "missing panels must corrupt thread 3's stripe");
        // All corrupted elements lie inside thread 3's row stripe.
        let (s, e) = static_partition(p.n, p.logical_threads, 3);
        for mm in &m {
            assert!(mm.coord[0] >= s && mm.coord[0] < e);
        }
    }

    #[test]
    fn corrupted_n_local_causes_due_or_sdc_not_hang() {
        let _quiet = carolfi::panic_guard::silence_panics();
        let mut g = Dgemm::new(DgemmParams::test());
        g.step();
        g.ctrl[1].n_local = u64::MAX / 2;
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| while g.step() == StepOutcome::Continue {}));
        // Either a crash DUE (OOB) or fuel timeout; must not hang.
        assert!(r.is_err());
    }
}
