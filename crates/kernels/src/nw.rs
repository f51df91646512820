//! NW — Needleman-Wunsch global sequence alignment (paper §3.2).
//!
//! "Needleman-Wunsch is a dynamic programming algorithm developed to compare
//! biological sequences. It is representative of dynamic programming
//! techniques that construct a new output using previous results."
//!
//! The port fills the `(n+1)²` integer score matrix in anti-diagonal
//! wavefronts of `b × b` blocks (Rodinia's blocked OpenMP schedule): blocks
//! on one anti-diagonal are independent, so each is computed into a private
//! tile in parallel and written back deterministically. A final traceback
//! step walks the alignment path from `(n, n)`; because the DP recurrence is
//! exact over integers, a fault-free traceback always finds a consistent
//! predecessor — corrupted scores break that consistency, and large
//! corruptions derail the walk entirely (a crash DUE), reproducing the
//! paper's observation that "NW will most likely crash when the value is
//! largely different from the expected one" while the *Zero* model is almost
//! always masked (the uncomputed region of the DP matrix is zero).
//!
//! NW is the paper's only integer benchmark.

use crate::par::par_for_each;
use carolfi::fuel::Fuel;
use carolfi::output::Output;
use carolfi::target::{FaultTarget, Snapshot, StateVisitor, StepOutcome, VarClass, VarInfo};
use rand::Rng;
use std::ops::ControlFlow;

/// NW sizing parameters.
#[derive(Debug, Clone, Copy)]
pub struct NwParams {
    /// Sequence length; the DP matrix is (n+1)². Must be a multiple of `block`.
    pub n: usize,
    pub block: usize,
    pub workers: usize,
    pub seed: u64,
}

impl NwParams {
    pub fn test() -> Self {
        NwParams { n: 48, block: 8, workers: 1, seed: 0x0811 }
    }

    pub fn small() -> Self {
        NwParams { n: 128, block: 16, workers: 1, seed: 0x0811 }
    }

    pub fn paper() -> Self {
        NwParams { n: 256, block: 16, workers: 1, seed: 0x0811 }
    }

    fn bb(&self) -> usize {
        self.n / self.block
    }
}

/// Gap penalty (Rodinia's default).
const PENALTY: i32 = 10;
/// Alphabet size of the substitution matrix (BLOSUM-like).
const ALPHABET: usize = 24;
/// Traceback tolerance: small inconsistencies are followed best-effort;
/// beyond this many the walk is declared derailed (crash).
const TRACEBACK_SLACK: usize = 64;

/// Per-logical-thread control block (one thread per block column).
#[derive(Debug, Clone, Copy)]
struct Ctrl {
    diag_cur: u64,
    b_local: u64,
    n_local: u64,
    stride_local: u64,
    /// Inner-loop scratch, rewritten before every use (dead at interrupts).
    ti_scratch: u64,
    tj_scratch: u64,
    gi_scratch: u64,
    diag_val: i64,
    up_val: i64,
    left_val: i64,
}

/// The NW fault target.
pub struct Nw {
    p: NwParams,
    /// Substitution scores for every DP cell (Rodinia's `reference`).
    refm: Vec<i32>,
    /// The DP score matrix (`input_itemsets`).
    score: Vec<i32>,
    /// Gap penalty (injectable constant).
    penalty: i32,
    seq1: Vec<i32>,
    seq2: Vec<i32>,
    /// Alignment path recorded by the traceback: `(i, j, score)` triples,
    /// (-1, -1, 0)-padded to its maximum length. This is the program output
    /// (Rodinia's NW writes the traceback path to its result file), which is
    /// why most single-cell matrix corruptions — off the path — are masked,
    /// and why the Zero model "does not cause any errors" (paper §6, NW).
    path: Vec<i32>,
    /// Base offsets of the two big arrays — the C code's pointer variables,
    /// which CAROL-FI injects into like any other variable ("Such variables
    /// include pointers"). Zero in a fault-free run; a corrupted high bit
    /// sends every access out of bounds (segfault ⇒ DUE), a corrupted low
    /// bit shears reads (SDC), and the Zero model restores the valid base.
    ptr_score: u64,
    ptr_ref: u64,
    ctrl: Vec<Ctrl>,
    done: usize,
    total: usize,
}

/// Deterministic BLOSUM-like substitution matrix: positive diagonal,
/// mostly non-positive off-diagonal, symmetric, with zeros present.
fn substitution_matrix(seed: u64) -> Vec<i32> {
    let mut rng = carolfi::rng::fork(seed, 101);
    let mut m = vec![0i32; ALPHABET * ALPHABET];
    for i in 0..ALPHABET {
        for j in 0..=i {
            let v = if i == j { rng.gen_range(4..=11) } else { rng.gen_range(-4..=1) };
            m[i * ALPHABET + j] = v;
            m[j * ALPHABET + i] = v;
        }
    }
    m
}

impl Nw {
    pub fn new(p: NwParams) -> Self {
        assert!(p.n.is_multiple_of(p.block), "n must be a multiple of block");
        let np1 = p.n + 1;
        let mut rng = carolfi::rng::fork(p.seed, 0);
        let seq1: Vec<i32> = (0..p.n).map(|_| rng.gen_range(0..ALPHABET as i32)).collect();
        let seq2: Vec<i32> = (0..p.n).map(|_| rng.gen_range(0..ALPHABET as i32)).collect();
        let sub = substitution_matrix(p.seed);
        let mut refm = vec![0i32; np1 * np1];
        for i in 1..np1 {
            for j in 1..np1 {
                refm[i * np1 + j] = sub[seq1[i - 1] as usize * ALPHABET + seq2[j - 1] as usize];
            }
        }
        let mut score = vec![0i32; np1 * np1];
        for i in 1..np1 {
            score[i * np1] = -(i as i32) * PENALTY;
            score[i] = -(i as i32) * PENALTY;
        }
        let bb = p.bb();
        let ctrl = (0..bb)
            .map(|_| Ctrl {
                diag_cur: 0,
                b_local: p.block as u64,
                n_local: np1 as u64,
                stride_local: bb as u64,
                ti_scratch: 0,
                tj_scratch: 0,
                gi_scratch: 0,
                diag_val: 0,
                up_val: 0,
                left_val: 0,
            })
            .collect();
        // 2·bb − 1 wavefront steps + 1 traceback step.
        Nw { p, refm, score, penalty: PENALTY, seq1, seq2, path: vec![-1; (2 * p.n + 1) * 3], ptr_score: 0, ptr_ref: 0, ctrl, done: 0, total: 2 * bb - 1 + 1 }
    }

    /// Sequential reference DP fill for correctness tests.
    pub fn reference(p: NwParams) -> Vec<i32> {
        let nw = Nw::new(p);
        let np1 = p.n + 1;
        let mut s = nw.score.clone();
        for i in 1..np1 {
            for j in 1..np1 {
                let diag = s[(i - 1) * np1 + (j - 1)] + nw.refm[i * np1 + j];
                let up = s[(i - 1) * np1 + j] - PENALTY;
                let left = s[i * np1 + (j - 1)] - PENALTY;
                s[i * np1 + j] = diag.max(up).max(left);
            }
        }
        s
    }

    /// Computes one block into a private tile. `ib`/`jb` are block coords.
    fn compute_block(&self, ctl: &mut Ctrl, ib: usize, jb: usize) -> Vec<i32> {
        let b = ctl.b_local as usize;
        let np1 = ctl.n_local as usize;
        let pen = self.penalty;
        carolfi::fuel::guard_alloc((b + 1).saturating_mul(b + 1));
        let mut fuel = Fuel::with_factor(((b + 1) * (b + 1)) as u64, 8.0);
        // Tile with a halo row/col loaded from the global matrix.
        let mut tile = vec![0i32; (b + 1) * (b + 1)];
        let r0 = ib * b; // global row of tile row 0 (the halo)
        let c0 = jb * b;
        let sbase = self.ptr_score as usize;
        let rbase = self.ptr_ref as usize;
        for (tj, t) in tile.iter_mut().enumerate().take(b + 1) {
            *t = self.score[sbase + r0 * np1 + c0 + tj];
        }
        for ti in 1..=b {
            tile[ti * (b + 1)] = self.score[sbase + (r0 + ti) * np1 + c0];
        }
        for ti in 1..=b {
            for tj in 1..=b {
                fuel.burn(1);
                let gi = r0 + ti;
                let gj = c0 + tj;
                let diag = tile[(ti - 1) * (b + 1) + (tj - 1)] + self.refm[rbase + gi * np1 + gj];
                let up = tile[(ti - 1) * (b + 1) + tj] - pen;
                let left = tile[ti * (b + 1) + (tj - 1)] - pen;
                ctl.ti_scratch = ti as u64;
                ctl.tj_scratch = tj as u64;
                ctl.gi_scratch = gi as u64;
                ctl.diag_val = diag as i64;
                ctl.up_val = up as i64;
                ctl.left_val = left as i64;
                tile[ti * (b + 1) + tj] = diag.max(up).max(left);
            }
        }
        tile
    }

    /// Traceback from (n, n): follows exact DP consistency, tolerating up to
    /// [`TRACEBACK_SLACK`] inconsistent cells before declaring a crash, and
    /// records the alignment path — the program output.
    fn traceback(&mut self) {
        let np1 = self.p.n + 1;
        let (mut i, mut j) = (self.p.n as i64, self.p.n as i64);
        let mut inconsistent = 0usize;
        let mut fuel = Fuel::with_factor((2 * np1) as u64, 4.0);
        let mut out = 0usize;
        while i > 0 || j > 0 {
            fuel.burn(1);
            if out + 3 <= self.path.len() {
                self.path[out] = i as i32;
                self.path[out + 1] = j as i32;
                self.path[out + 2] = self.score[self.ptr_score as usize + i as usize * np1 + j as usize];
                out += 3;
            }
            if i == 0 {
                j -= 1;
                continue;
            }
            if j == 0 {
                i -= 1;
                continue;
            }
            let (iu, ju) = (i as usize, j as usize);
            let sbase = self.ptr_score as usize;
            let rbase = self.ptr_ref as usize;
            let here = self.score[sbase + iu * np1 + ju];
            let diag = self.score[sbase + (iu - 1) * np1 + (ju - 1)] + self.refm[rbase + iu * np1 + ju];
            let up = self.score[sbase + (iu - 1) * np1 + ju] - self.penalty;
            let left = self.score[sbase + iu * np1 + (ju - 1)] - self.penalty;
            if here == diag {
                i -= 1;
                j -= 1;
            } else if here == up {
                i -= 1;
            } else if here == left {
                j -= 1;
            } else {
                // Corrupted DP state: follow the best predecessor, but a
                // badly corrupted matrix derails the walk entirely.
                inconsistent += 1;
                if inconsistent > TRACEBACK_SLACK {
                    panic!("nw traceback derailed after {inconsistent} inconsistent cells");
                }
                if diag >= up && diag >= left {
                    i -= 1;
                    j -= 1;
                } else if up >= left {
                    i -= 1;
                } else {
                    j -= 1;
                }
            }
        }
    }
}

impl FaultTarget for Nw {
    fn name(&self) -> &'static str {
        "nw"
    }

    fn total_steps(&self) -> usize {
        self.total
    }

    fn steps_executed(&self) -> usize {
        self.done
    }

    fn step(&mut self) -> StepOutcome {
        let bb = self.p.bb();
        if self.done < 2 * bb - 1 {
            // Wavefront fill: blocks (ib, jb) with ib + jb == diag_cur,
            // distributed over logical threads by block row.
            struct Task {
                ib: usize,
                jb: usize,
                tile: Vec<i32>,
                thread: usize,
            }
            let mut tasks: Vec<Task> = Vec::new();
            let mut listing_fuel = Fuel::with_factor((4 * bb * bb) as u64, 4.0);
            for (t, ctl) in self.ctrl.iter().enumerate() {
                let diag = ctl.diag_cur as usize;
                let stride = (ctl.stride_local as usize).max(1);
                let mut ib = t;
                while ib < diag.saturating_add(1) {
                    listing_fuel.burn(1);
                    let jb = diag - ib;
                    // Corrupted diag/stride can propose out-of-range blocks;
                    // the tile computation's indexing panics on real OOB.
                    if ib < bb && jb < bb {
                        tasks.push(Task { ib, jb, tile: Vec::new(), thread: t });
                    }
                    ib += stride;
                }
            }
            // Each task owns a copy of its thread's control block; the
            // scratch updates are merged back for the owning thread's last
            // task (deterministic: tasks of one thread run in order within
            // one chunk only when workers=1; the scratch is dead state, so
            // per-run variation in which task's copy wins would still be
            // fault-free-identical — we keep it deterministic by merging in
            // task order).
            let this = &*self;
            let mut ctls: Vec<Ctrl> = tasks.iter().map(|t| this.ctrl[t.thread]).collect();
            {
                struct Job<'a> {
                    task: &'a mut Task,
                    ctl: &'a mut Ctrl,
                }
                let mut jobs: Vec<Job<'_>> = tasks.iter_mut().zip(ctls.iter_mut()).map(|(task, ctl)| Job { task, ctl }).collect();
                par_for_each(&mut jobs, self.p.workers, |_, job| {
                    job.task.tile = this.compute_block(job.ctl, job.task.ib, job.task.jb);
                });
            }
            for (task, ctl) in tasks.iter().zip(ctls) {
                self.ctrl[task.thread] = ctl;
            }
            // Deterministic write-back of tile interiors.
            let np1 = self.p.n + 1;
            let b = self.p.block;
            for task in &tasks {
                for ti in 1..=b {
                    for tj in 1..=b {
                        self.score[(task.ib * b + ti) * np1 + task.jb * b + tj] = task.tile[ti * (b + 1) + tj];
                    }
                }
            }
            for ctl in &mut self.ctrl {
                ctl.diag_cur += 1;
            }
        } else {
            self.traceback();
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
        let Nw { p: _, refm, score, penalty, seq1, seq2, path, ptr_score, ptr_ref, ctrl, done, total: _ } = self;
        v.scalar(None, done)?;
        v.slice(VarInfo::global("itemsets", VarClass::Matrix, file!(), 1), score)?;
        v.slice(VarInfo::global("alignment_path", VarClass::Matrix, file!(), 1), path)?;
        v.slice(VarInfo::global("reference", VarClass::InputArray, file!(), 2), refm)?;
        v.scalar(VarInfo::global("penalty", VarClass::Constant, file!(), 3), penalty)?;
        v.slice(VarInfo::global("seq1", VarClass::InputArray, file!(), 4), seq1)?;
        v.slice(VarInfo::global("seq2", VarClass::InputArray, file!(), 5), seq2)?;
        v.scalar(VarInfo::global("itemsets_ptr", VarClass::Pointer, file!(), 6), ptr_score)?;
        v.scalar(VarInfo::global("reference_ptr", VarClass::Pointer, file!(), 7), ptr_ref)?;
        for (t, ctl) in ctrl.iter_mut().enumerate() {
            let Ctrl { diag_cur, b_local, n_local, stride_local, ti_scratch, tj_scratch, gi_scratch, diag_val, up_val, left_val } =
                ctl;
            let (t, f, class) = (t as u16, "nw_wavefront", VarClass::ControlVariable);
            v.scalar(VarInfo::local("diag_cur", class, f, t, file!(), 10), diag_cur)?;
            v.scalar(VarInfo::local("b_local", class, f, t, file!(), 11), b_local)?;
            v.scalar(VarInfo::local("n_local", class, f, t, file!(), 12), n_local)?;
            v.scalar(VarInfo::local("stride_local", class, f, t, file!(), 13), stride_local)?;
            v.scalar(VarInfo::local("ti", class, f, t, file!(), 14), ti_scratch)?;
            v.scalar(VarInfo::local("tj", class, f, t, file!(), 15), tj_scratch)?;
            v.scalar(VarInfo::local("gi", class, f, t, file!(), 16), gi_scratch)?;
            v.scalar(VarInfo::local("diag_val", VarClass::Buffer, f, t, file!(), 17), diag_val)?;
            v.scalar(VarInfo::local("up_val", VarClass::Buffer, f, t, file!(), 18), up_val)?;
            v.scalar(VarInfo::local("left_val", VarClass::Buffer, f, t, file!(), 19), left_val)?;
        }
        ControlFlow::Continue(())
    }

    fn output(&self) -> Output {
        Output::I32Grid { dims: [self.path.len() / 3, 3, 1], data: self.path.clone() }
    }

    fn snapshot(&mut self) -> Option<Snapshot> {
        Some(Snapshot::capture(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_to_done(mut nw: Nw) -> Output {
        while nw.step() == StepOutcome::Continue {}
        nw.output()
    }

    #[test]
    fn matches_sequential_reference_exactly() {
        let p = NwParams::test();
        let reference = Nw::reference(p);
        let mut nw = Nw::new(p);
        while nw.step() == StepOutcome::Continue {}
        assert_eq!(nw.score, reference, "integer DP must agree bit-for-bit");
    }

    #[test]
    fn traceback_path_is_monotone_and_anchored() {
        let p = NwParams::test();
        let mut nw = Nw::new(p);
        while nw.step() == StepOutcome::Continue {}
        let Output::I32Grid { data, .. } = nw.output() else { panic!() };
        assert_eq!(data[0], p.n as i32);
        assert_eq!(data[1], p.n as i32);
        let mut prev = (i32::MAX, i32::MAX);
        for step in data.chunks(3) {
            if step[0] < 0 {
                break; // padding
            }
            assert!(step[0] <= prev.0 && step[1] <= prev.1, "path must walk up-left");
            prev = (step[0], step[1]);
        }
    }

    #[test]
    fn off_path_corruption_is_masked() {
        let p = NwParams::test();
        let golden = run_to_done(Nw::new(p));
        let mut nw = Nw::new(p);
        while nw.done < nw.total - 1 {
            nw.step();
        }
        let np1 = p.n + 1;
        // A corner far from the main diagonal path: flip a low bit there.
        nw.score[2 * np1 + (np1 - 3)] ^= 1;
        nw.step();
        assert!(nw.output().matches(&golden), "an off-path low-bit flip must not change the alignment");
    }

    #[test]
    fn deterministic_across_workers() {
        let p = NwParams::test();
        let a = run_to_done(Nw::new(p));
        let b = run_to_done(Nw::new(NwParams { workers: 3, ..p }));
        assert!(a.matches(&b));
    }

    #[test]
    fn fault_free_traceback_never_panics() {
        run_to_done(Nw::new(NwParams::test()));
    }

    #[test]
    fn uncomputed_region_is_zero_mid_run() {
        // The basis for the Zero model's masking on NW.
        let p = NwParams::test();
        let mut nw = Nw::new(p);
        for _ in 0..3 {
            nw.step();
        }
        let np1 = p.n + 1;
        let zeros = nw.score.iter().skip(np1).filter(|&&v| v == 0).count();
        assert!(zeros > np1 * np1 / 4, "expected a large uncomputed zero region, found {zeros}");
    }

    #[test]
    fn corrupted_pointer_high_bit_crashes() {
        let _quiet = carolfi::panic_guard::silence_panics();
        let p = NwParams::test();
        let mut nw = Nw::new(p);
        nw.step();
        nw.ptr_score = 1 << 40; // segfault-equivalent
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            while nw.step() == StepOutcome::Continue {}
        }));
        assert!(r.is_err(), "wild pointer must crash");
    }

    #[test]
    fn corrupted_pointer_low_bits_shear_reads_into_sdc() {
        let _quiet = carolfi::panic_guard::silence_panics();
        let p = NwParams::test();
        let golden = run_to_done(Nw::new(p));
        let mut nw = Nw::new(p);
        nw.step();
        nw.ptr_score = 2; // shifted halo loads
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            while nw.step() == StepOutcome::Continue {}
            nw.output()
        }));
        if let Ok(out) = r {
            assert!(!out.matches(&golden), "sheared reads must corrupt the output");
        }
    }

    #[test]
    fn zeroed_pointer_is_the_valid_base() {
        let p = NwParams::test();
        let golden = run_to_done(Nw::new(p));
        let mut nw = Nw::new(p);
        nw.step();
        nw.ptr_score = 0; // the Zero fault model's result — a valid pointer
        while nw.step() == StepOutcome::Continue {}
        assert!(nw.output().matches(&golden));
    }

    #[test]
    fn single_low_bit_flip_is_sdc_not_crash() {
        let _quiet = carolfi::panic_guard::silence_panics();
        let p = NwParams::test();
        let golden = run_to_done(Nw::new(p));
        let mut nw = Nw::new(p);
        while nw.done < nw.total - 1 {
            nw.step();
        }
        let np1 = p.n + 1;
        nw.score[p.n * np1 + p.n] ^= 1; // the traceback anchor is always on the path
        nw.step(); // traceback tolerates a single inconsistency
        assert!(!nw.output().matches(&golden));
    }

    #[test]
    fn score_zeros_are_common_in_reference_inputs() {
        let p = NwParams::test();
        let nw = Nw::new(p);
        let zeros = nw.refm.iter().filter(|&&v| v == 0).count();
        assert!(zeros > 0, "substitution matrix must contain zeros for Zero-model masking");
    }
}
