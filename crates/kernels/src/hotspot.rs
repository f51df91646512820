//! HotSpot — iterative thermal simulation of a chip floorplan (paper §3.2).
//!
//! "HotSpot simulates the heat dissipation in an architectural floor plan to
//! estimate processor temperature. HotSpot is a memory-bound algorithm as
//! its arithmetic intensity is low."
//!
//! The port keeps the Rodinia OpenMP version's structure: single-precision
//! temperature and power grids, an explicit finite-difference update per
//! iteration with the physical constants (`Rx`, `Ry`, `Rz`, `Cap`, ambient
//! temperature) kept live through the whole run. Those constants, together
//! with the per-thread loop controls, are the variables the paper found to
//! cause most of HotSpot's SDCs and DUEs — while corruption of the
//! temperature grid itself is *attenuated* by the open-system dissipation
//! term, the mechanism behind HotSpot's dramatic FIT reduction under a
//! small output tolerance (Fig. 3: −95 % at a 2 % tolerance).
//!
//! One cooperative step = one stencil iteration over the double-buffered
//! grid, rows statically partitioned over the logical threads.

use crate::par::{par_for_each, static_partition};
use carolfi::fuel::Fuel;
use carolfi::output::Output;
use carolfi::target::{FaultTarget, Snapshot, StateVisitor, StepOutcome, VarClass, VarInfo};
use rand::Rng;
use std::ops::ControlFlow;

// Rodinia hotspot physical constants.
const CHIP_HEIGHT: f32 = 0.016;
const CHIP_WIDTH: f32 = 0.016;
const T_CHIP: f32 = 0.0005;
const FACTOR_CHIP: f32 = 0.5;
const SPEC_HEAT_SI: f32 = 1.75e6;
const K_SI: f32 = 100.0;
const MAX_PD: f32 = 3.0e6;
/// Solver tolerance driving the timestep. Rodinia ships 0.001, which yields
/// a per-iteration dissipation of ~0.1 % — physically fine but requiring the
/// hours-long runs of the real experiments for perturbations to visibly
/// decay. We run far fewer iterations per execution, so we use a coarser
/// (still stable: the update coefficient stays ≈0.13 < 1) timestep that
/// reproduces the paper's observed behaviour — injected temperature errors
/// spread over the grid while their peak magnitude attenuates — within a
/// 20–60-iteration run.
const PRECISION: f32 = 0.1;
const AMB_TEMP: f32 = 80.0;

/// HotSpot sizing parameters.
#[derive(Debug, Clone, Copy)]
pub struct HotspotParams {
    pub rows: usize,
    pub cols: usize,
    /// Stencil iterations (= cooperative steps).
    pub iterations: usize,
    pub logical_threads: usize,
    pub workers: usize,
    pub seed: u64,
}

impl HotspotParams {
    pub fn test() -> Self {
        HotspotParams { rows: 48, cols: 48, iterations: 20, logical_threads: 16, workers: 1, seed: 0x407 }
    }

    pub fn small() -> Self {
        HotspotParams { rows: 96, cols: 96, iterations: 120, logical_threads: 64, workers: 1, seed: 0x407 }
    }

    pub fn paper() -> Self {
        HotspotParams { rows: 160, cols: 160, iterations: 150, logical_threads: phidev::KNC_LOGICAL_THREADS, workers: 1, seed: 0x407 }
    }
}

/// Per-logical-thread loop-control block.
///
/// In the OpenMP original the stripe bounds are *recomputed from the thread
/// id at every parallel region*, so `row_start`/`row_end` are dead at the
/// interrupt points and corrupting them is masked; the sticky state is the
/// thread id and the grid-dimension copies.
#[derive(Debug, Clone, Copy)]
struct Ctrl {
    /// Dead-at-boundary bounds, rewritten each iteration (masked targets).
    row_start: u64,
    row_end: u64,
    /// Sticky thread identity and geometry copies (live targets).
    tid_local: u64,
    nthreads_local: u64,
    rows_local: u64,
    cols_local: u64,
    iter_local: u64,
    /// Inner-loop scratch, rewritten before every use (dead at interrupts).
    idx_scratch: u64,
    gr_scratch: u64,
    t_scratch: f32,
    top_scratch: f32,
    left_scratch: f32,
    delta_scratch: f32,
}

/// Live physical constants (injectable `Constant`-class scalars).
#[derive(Debug, Clone, Copy)]
struct Consts {
    step_div_cap: f32,
    rx_1: f32,
    ry_1: f32,
    rz_1: f32,
    amb: f32,
}

/// The HotSpot fault target.
#[derive(Clone)]
pub struct Hotspot {
    p: HotspotParams,
    t_src: Vec<f32>,
    t_dst: Vec<f32>,
    power: Vec<f32>,
    consts: Consts,
    ctrl: Vec<Ctrl>,
    /// Pointer base for the grids (injectable; the segfault path).
    ptr_temp: u64,
    /// Raw setup parameters, dead once the derived constants are computed —
    /// CAROL-FI still sees them in the frame, and injections there are
    /// masked, the dominant fate of HotSpot's constant-class injections.
    raw: [f32; 6],
    done: usize,
}

impl Hotspot {
    pub fn new(p: HotspotParams) -> Self {
        assert!(p.rows > 2 && p.cols > 2 && p.iterations > 0 && p.logical_threads > 0);
        let mut rng = carolfi::rng::fork(p.seed, 0);
        let n = p.rows * p.cols;
        // Rodinia's input files hold temperatures ≈ 323–343 K and power
        // densities up to ~0.01 W per cell; we generate the same ranges.
        let t_src: Vec<f32> = (0..n).map(|_| 323.0 + 20.0 * rng.gen::<f32>()).collect();
        let power: Vec<f32> = (0..n).map(|_| 0.01 * rng.gen::<f32>()).collect();

        let grid_height = CHIP_HEIGHT / p.rows as f32;
        let grid_width = CHIP_WIDTH / p.cols as f32;
        let cap = FACTOR_CHIP * SPEC_HEAT_SI * T_CHIP * grid_width * grid_height;
        let rx = grid_width / (2.0 * K_SI * T_CHIP * grid_height);
        let ry = grid_height / (2.0 * K_SI * T_CHIP * grid_width);
        let rz = T_CHIP / (K_SI * grid_height * grid_width);
        let max_slope = MAX_PD / (FACTOR_CHIP * T_CHIP * SPEC_HEAT_SI);
        let step = PRECISION / max_slope;

        let consts = Consts { step_div_cap: step / cap, rx_1: 1.0 / rx, ry_1: 1.0 / ry, rz_1: 1.0 / rz, amb: AMB_TEMP };
        let ctrl = (0..p.logical_threads)
            .map(|t| {
                let (s, e) = static_partition(p.rows, p.logical_threads, t);
                Ctrl {
                    row_start: s as u64,
                    row_end: e as u64,
                    tid_local: t as u64,
                    nthreads_local: p.logical_threads as u64,
                    rows_local: p.rows as u64,
                    cols_local: p.cols as u64,
                    iter_local: 0,
                    idx_scratch: 0,
                    gr_scratch: 0,
                    t_scratch: 0.0,
                    top_scratch: 0.0,
                    left_scratch: 0.0,
                    delta_scratch: 0.0,
                }
            })
            .collect();
        Hotspot { p, t_dst: t_src.clone(), t_src, power, consts, ctrl, ptr_temp: 0, raw: [rx, ry, rz, cap, step, max_slope], done: 0 }
    }

    /// Sequential reference implementation (one full run) for tests.
    pub fn reference(p: HotspotParams) -> Vec<f32> {
        let mut h = Hotspot::new(p);
        let (rows, cols) = (p.rows, p.cols);
        for _ in 0..p.iterations {
            for r in 0..rows {
                for c in 0..cols {
                    let idx = r * cols + c;
                    let t = h.t_src[idx];
                    let top = h.t_src[if r > 0 { idx - cols } else { idx }];
                    let bottom = h.t_src[if r + 1 < rows { idx + cols } else { idx }];
                    let left = h.t_src[if c > 0 { idx - 1 } else { idx }];
                    let right = h.t_src[if c + 1 < cols { idx + 1 } else { idx }];
                    h.t_dst[idx] = t + h.consts.step_div_cap
                        * (h.power[idx]
                            + (top + bottom - 2.0 * t) * h.consts.ry_1
                            + (left + right - 2.0 * t) * h.consts.rx_1
                            + (h.consts.amb - t) * h.consts.rz_1);
                }
            }
            std::mem::swap(&mut h.t_src, &mut h.t_dst);
        }
        h.t_src
    }

    /// True when every control field a step reads holds the value it has
    /// at every step boundary of a clean run, so [`Hotspot::fast_step`] is
    /// observably identical to [`thread_rows`] on every thread: the
    /// pointer base is zero and each thread's identity and geometry copies
    /// are its own. The other fields are dead at a step boundary:
    /// `row_start`/`row_end` are recomputed before use, the index and value
    /// scratch is written before it is read, and `iter_local` is only
    /// incremented. Grids, power and constants are data, which both paths
    /// run the same arithmetic over, corrupted or not.
    fn control_is_pristine(&self) -> bool {
        let (n, rows, cols) = (self.p.logical_threads as u64, self.p.rows as u64, self.p.cols as u64);
        self.ptr_temp == 0
            && self.ctrl.iter().enumerate().all(|(t, c)| {
                c.tid_local == t as u64 && c.nthreads_local == n && c.rows_local == rows && c.cols_local == cols
            })
    }

    /// One clean-state step: a single sweep over the grid by rows, with the
    /// boundary columns peeled off, and no per-cell fuel burn (the exact
    /// path burns at most `stripe_rows·(cols+1)` of its
    /// `4·(stripe_rows+1)·(cols+1)` units, so its watchdog cannot fire
    /// here) and no per-cell scratch store. Afterwards each thread gets the
    /// values the exact path leaves: its stripe bounds, the scratch of its
    /// stripe's last cell (when the stripe has one) and one more
    /// `iter_local`. Each cell goes through [`cell_delta`], so outputs are
    /// bit-identical.
    fn fast_step(&mut self) -> StepOutcome {
        let (rows, cols) = (self.p.rows, self.p.cols);
        let k = self.consts;
        let src = &self.t_src;
        for (r, (out, pw)) in self.t_dst.chunks_exact_mut(cols).zip(self.power.chunks_exact(cols)).enumerate() {
            let row = &src[r * cols..][..cols];
            let top = &src[r.saturating_sub(1) * cols..][..cols];
            let bottom = &src[(r + 1).min(rows - 1) * cols..][..cols];
            let last = cols - 1;
            out[0] = row[0] + cell_delta(row[0], top[0], bottom[0], row[0], row[1], pw[0], &k);
            let inner = out[1..last].iter_mut().zip(row.windows(3)).zip(top[1..last].iter().zip(&bottom[1..last])).zip(&pw[1..last]);
            for (((o, w), (&tp, &bt)), &p) in inner {
                *o = w[1] + cell_delta(w[1], tp, bt, w[0], w[2], p, &k);
            }
            out[last] = row[last] + cell_delta(row[last], top[last], bottom[last], row[last - 1], row[last], pw[last], &k);
        }
        for (t, ctl) in self.ctrl.iter_mut().enumerate() {
            let (s, e) = static_partition(rows, self.p.logical_threads, t);
            ctl.row_start = s as u64;
            ctl.row_end = e as u64;
            if e > s {
                // The exact path's last cell: row e − 1, column cols − 1.
                let idx = e * cols - 1;
                let t_val = src[idx];
                let top = src[if e > 1 { idx - cols } else { idx }];
                let bottom = src[if e < rows { idx + cols } else { idx }];
                let left = src[idx - 1];
                ctl.idx_scratch = idx as u64;
                ctl.gr_scratch = (e - 1) as u64;
                ctl.t_scratch = t_val;
                ctl.top_scratch = top;
                ctl.left_scratch = left;
                ctl.delta_scratch = cell_delta(t_val, top, bottom, left, t_val, self.power[idx], &k);
            }
            ctl.iter_local += 1;
        }
        self.finish_step()
    }

    /// Swaps the grids and counts the step, as every step ends.
    fn finish_step(&mut self) -> StepOutcome {
        std::mem::swap(&mut self.t_src, &mut self.t_dst);
        self.done += 1;
        if self.done >= self.p.iterations {
            StepOutcome::Done
        } else {
            StepOutcome::Continue
        }
    }
}

/// One cell's temperature change, in the operation order both the exact
/// path and the fast pass use, so the two round alike.
#[inline(always)]
fn cell_delta(t: f32, top: f32, bottom: f32, left: f32, right: f32, power: f32, k: &Consts) -> f32 {
    k.step_div_cap * (power + (top + bottom - 2.0 * t) * k.ry_1 + (left + right - 2.0 * t) * k.rx_1 + (k.amb - t) * k.rz_1)
}

/// One logical thread's share of one stencil iteration.
fn thread_rows(ctl: &mut Ctrl, dst_stripe: &mut [f32], src: &[f32], power: &[f32], k: &Consts, ptrs: (usize, usize)) {
    let (pt, pp) = ptrs;
    let rows_l = ctl.rows_local as usize;
    let cols_l = ctl.cols_local as usize;
    // The parallel region recomputes the stripe bounds from the sticky
    // thread identity (so an injection into row_start/row_end is dead here,
    // but a corrupted tid/nthreads/rows copy derails the recomputation).
    let nthreads = ctl.nthreads_local as usize;
    let tid = ctl.tid_local as usize;
    if nthreads == 0 || tid >= nthreads {
        panic!("corrupted thread identity: tid {tid} of {nthreads}");
    }
    let (s, e) = crate::par::static_partition(rows_l, nthreads, tid);
    ctl.row_start = s as u64;
    ctl.row_end = e as u64;
    let stripe_rows = match ctl.row_end.checked_sub(ctl.row_start) {
        Some(r) => r as usize,
        None => panic!("corrupted row bounds: start {} > end {}", ctl.row_start, ctl.row_end),
    };
    let mut fuel = Fuel::with_factor((stripe_rows as u64 + 1) * (cols_l as u64 + 1), 4.0);
    for r in 0..stripe_rows {
        fuel.burn(1);
        let gr = ctl.row_start as usize + r;
        for c in 0..cols_l {
            fuel.burn(1);
            let idx = gr * cols_l + c;
            ctl.idx_scratch = idx as u64;
            ctl.gr_scratch = gr as u64;
            let t = src[pt + idx];
            let top = src[pt + if gr > 0 { idx - cols_l } else { idx }];
            let bottom = src[pt + if gr + 1 < rows_l { idx + cols_l } else { idx }];
            let left = src[pt + if c > 0 { idx - 1 } else { idx }];
            let right = src[pt + if c + 1 < cols_l { idx + 1 } else { idx }];
            let delta = cell_delta(t, top, bottom, left, right, power[pp + idx], k);
            ctl.t_scratch = t;
            ctl.top_scratch = top;
            ctl.left_scratch = left;
            ctl.delta_scratch = delta;
            dst_stripe[r * cols_l + c] = t + delta;
        }
    }
    ctl.iter_local += 1;
}

impl FaultTarget for Hotspot {
    fn name(&self) -> &'static str {
        "hotspot"
    }

    fn total_steps(&self) -> usize {
        self.p.iterations
    }

    fn steps_executed(&self) -> usize {
        self.done
    }

    fn run_until(&mut self, step_bound: usize, fuel: &mut Fuel) -> StepOutcome {
        // Run-ahead specialization (ZOFI-style full-speed phase), as in
        // DGEMM: while the control state is one a clean run could have,
        // take the single-sweep pass; any other state takes the exact path
        // for that step. One fuel unit per step, burned before the step.
        while self.done < step_bound {
            fuel.burn(1);
            let out = if self.control_is_pristine() { self.fast_step() } else { self.step() };
            if let StepOutcome::Done = out {
                return StepOutcome::Done;
            }
        }
        StepOutcome::Continue
    }

    fn step(&mut self) -> StepOutcome {
        struct Item<'a> {
            ctl: &'a mut Ctrl,
            stripe: &'a mut [f32],
        }
        let cols = self.p.cols;
        let mut items: Vec<Item<'_>> = Vec::with_capacity(self.ctrl.len());
        {
            let mut rest: &mut [f32] = &mut self.t_dst;
            for (t, ctl) in self.ctrl.iter_mut().enumerate() {
                let (s, e) = static_partition(self.p.rows, self.p.logical_threads, t);
                let (stripe, tail) = rest.split_at_mut((e - s) * cols);
                rest = tail;
                items.push(Item { ctl, stripe });
            }
        }
        let src = &self.t_src;
        let power = &self.power;
        let consts = self.consts;
        let ptrs = (self.ptr_temp as usize, self.ptr_temp as usize);
        par_for_each(&mut items, self.p.workers, |_, item| {
            thread_rows(item.ctl, item.stripe, src, power, &consts, ptrs);
        });
        self.finish_step()
    }

    fn state<'a>(&'a mut self, v: &mut dyn StateVisitor<'a>) -> ControlFlow<()> {
        // `p` is the fixed configuration.
        let Hotspot { p: _, t_src, t_dst, power, consts, ctrl, ptr_temp, raw, done } = self;
        v.scalar(None, done)?;
        v.slice(VarInfo::global("temp", VarClass::Matrix, file!(), 1), t_src)?;
        v.slice(VarInfo::global("temp_scratch", VarClass::Matrix, file!(), 2), t_dst)?;
        v.slice(VarInfo::global("power", VarClass::InputArray, file!(), 3), power)?;
        let Consts { step_div_cap, rx_1, ry_1, rz_1, amb } = consts;
        v.scalar(VarInfo::global("step_div_cap", VarClass::Constant, file!(), 4), step_div_cap)?;
        v.scalar(VarInfo::global("rx_1", VarClass::Constant, file!(), 5), rx_1)?;
        v.scalar(VarInfo::global("ry_1", VarClass::Constant, file!(), 6), ry_1)?;
        v.scalar(VarInfo::global("rz_1", VarClass::Constant, file!(), 7), rz_1)?;
        v.scalar(VarInfo::global("amb_temp", VarClass::Constant, file!(), 8), amb)?;
        v.scalar(VarInfo::global("temp_ptr", VarClass::Pointer, file!(), 9), ptr_temp)?;
        let [rx, ry, rz, cap, step, slope] = raw;
        v.scalar(VarInfo::global("rx", VarClass::Constant, file!(), 9), rx)?;
        v.scalar(VarInfo::global("ry", VarClass::Constant, file!(), 9), ry)?;
        v.scalar(VarInfo::global("rz", VarClass::Constant, file!(), 9), rz)?;
        v.scalar(VarInfo::global("cap", VarClass::Constant, file!(), 9), cap)?;
        v.scalar(VarInfo::global("step", VarClass::Constant, file!(), 9), step)?;
        v.scalar(VarInfo::global("max_slope", VarClass::Constant, file!(), 9), slope)?;
        for (t, ctl) in ctrl.iter_mut().enumerate() {
            let Ctrl {
                row_start, row_end, tid_local, nthreads_local, rows_local, cols_local, iter_local, idx_scratch, gr_scratch,
                t_scratch, top_scratch, left_scratch, delta_scratch,
            } = ctl;
            let (t, f, class) = (t as u16, "hotspot_kernel", VarClass::ControlVariable);
            v.scalar(VarInfo::local("row_start", class, f, t, file!(), 10), row_start)?;
            v.scalar(VarInfo::local("row_end", class, f, t, file!(), 11), row_end)?;
            v.scalar(VarInfo::local("tid_local", class, f, t, file!(), 11), tid_local)?;
            v.scalar(VarInfo::local("nthreads_local", class, f, t, file!(), 11), nthreads_local)?;
            v.scalar(VarInfo::local("rows_local", class, f, t, file!(), 12), rows_local)?;
            v.scalar(VarInfo::local("cols_local", class, f, t, file!(), 13), cols_local)?;
            v.scalar(VarInfo::local("iter_local", class, f, t, file!(), 14), iter_local)?;
            v.scalar(VarInfo::local("idx", class, f, t, file!(), 15), idx_scratch)?;
            v.scalar(VarInfo::local("gr", class, f, t, file!(), 16), gr_scratch)?;
            v.scalar(VarInfo::local("t_val", VarClass::Buffer, f, t, file!(), 17), t_scratch)?;
            v.scalar(VarInfo::local("top_val", VarClass::Buffer, f, t, file!(), 18), top_scratch)?;
            v.scalar(VarInfo::local("left_val", VarClass::Buffer, f, t, file!(), 19), left_scratch)?;
            v.scalar(VarInfo::local("delta", VarClass::Buffer, f, t, file!(), 20), delta_scratch)?;
        }
        ControlFlow::Continue(())
    }

    fn output(&self) -> Output {
        // Rodinia's HotSpot writes its result with `%g` (6 significant
        // digits) and the experimental harness compares output files, so
        // sub-1e-6 relative differences are invisible. Quantising here
        // reproduces that comparison granularity.
        let data = self.t_src.iter().map(|&t| crate::quantize::sig6_f32(t)).collect();
        Output::F32Grid { dims: [self.p.rows, self.p.cols, 1], data }
    }

    fn snapshot(&mut self) -> Option<Snapshot> {
        Some(Snapshot::capture(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_to_done(mut h: Hotspot) -> Output {
        while h.step() == StepOutcome::Continue {}
        h.output()
    }

    use crate::state_digest;

    /// How a run to the end came out: its final state, or the class of the
    /// panic that ended it.
    #[derive(Debug, PartialEq)]
    enum End {
        State(Vec<u8>),
        Timeout,
        Crash,
    }

    /// Runs `h` to the end with `run_until`, which takes the fast pass
    /// whenever the control state allows, or with a `step()` loop.
    fn finish(mut h: Hotspot, run_until: bool) -> End {
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if run_until {
                h.run_until(usize::MAX, &mut Fuel::new(u64::MAX));
            } else {
                while h.step() == StepOutcome::Continue {}
            }
            state_digest(&mut h)
        }));
        match run {
            Ok(digest) => End::State(digest),
            Err(p) if carolfi::fuel::is_timeout(p.as_ref()) => End::Timeout,
            Err(_) => End::Crash,
        }
    }

    /// The first digest byte two ends differ in, for failure messages.
    fn first_difference(a: &End, b: &End) -> Option<usize> {
        match (a, b) {
            (End::State(x), End::State(y)) => x.iter().zip(y).position(|(p, q)| p != q),
            _ => None,
        }
    }

    #[test]
    fn run_until_fast_path_is_bit_identical_to_step() {
        for p in [HotspotParams::test(), HotspotParams::small()] {
            let mut slow = Hotspot::new(p);
            let mut fast = Hotspot::new(p);
            assert!(fast.control_is_pristine());
            let mut fuel = Fuel::new(u64::MAX);
            // A partial run to an interior step, then to the end: both the
            // Continue and the Done exit of the pass.
            let mid = p.iterations / 2;
            assert_eq!(fast.run_until(mid, &mut fuel), StepOutcome::Continue);
            for _ in 0..mid {
                slow.step();
            }
            assert_eq!(state_digest(&mut slow), state_digest(&mut fast), "mid-run divergence");
            assert_eq!(fast.run_until(usize::MAX, &mut fuel), StepOutcome::Done);
            while slow.step() == StepOutcome::Continue {}
            assert_eq!(state_digest(&mut slow), state_digest(&mut fast), "final state divergence");
            assert!(fast.control_is_pristine());
            assert_eq!(u64::MAX - fuel.remaining(), p.iterations as u64, "one fuel unit per step");
        }
    }

    #[test]
    fn corrupted_control_falls_back_to_the_exact_path() {
        let _quiet = carolfi::panic_guard::silence_panics();
        let p = HotspotParams::test();
        // Each gate field of one thread, and the pointer base (which makes
        // both paths crash reading past the grid).
        type Corruption = (&'static str, fn(&mut Hotspot));
        let corruptions: [Corruption; 5] = [
            ("tid_local", |h| h.ctrl[3].tid_local = 4),
            ("nthreads_local", |h| h.ctrl[3].nthreads_local = 17),
            ("rows_local", |h| h.ctrl[3].rows_local = 47),
            ("cols_local", |h| h.ctrl[3].cols_local = 47),
            ("ptr_temp", |h| h.ptr_temp = 1),
        ];
        for (name, corrupt) in corruptions {
            let mut h = Hotspot::new(p);
            h.run_until(5, &mut Fuel::new(u64::MAX));
            corrupt(&mut h);
            assert!(!h.control_is_pristine(), "{name}");
            let (fast, slow) = (finish(h.clone(), true), finish(h, false));
            assert!(fast == slow, "{name}: first difference at {:?}", first_difference(&fast, &slow));
        }
    }

    #[test]
    fn dead_control_fields_stay_on_the_fast_pass() {
        let p = HotspotParams::test();
        let mut h = Hotspot::new(p);
        h.run_until(5, &mut Fuel::new(u64::MAX));
        let c = &mut h.ctrl[3];
        (c.row_start, c.row_end, c.idx_scratch, c.gr_scratch) = (999, 0, u64::MAX, 7);
        (c.t_scratch, c.top_scratch, c.left_scratch, c.delta_scratch) = (f32::NAN, -0.0, f32::INFINITY, 1e30);
        // Only incremented, so it wraps alike on both paths.
        c.iter_local = u64::MAX;
        assert!(h.control_is_pristine());
        let (fast, slow) = (finish(h.clone(), true), finish(h, false));
        assert!(fast == slow, "first difference at {:?}", first_difference(&fast, &slow));
    }

    #[test]
    fn special_values_stay_on_the_fast_pass_and_match() {
        // Each case has one source of NaNs. Where two NaNs with different
        // payloads meet in one operation, which payload survives is left open
        // by the language, and the exact path's own debug and release builds
        // already keep different ones; one fault makes one source, and no
        // record field reads a payload.
        let p = HotspotParams::test();
        let nan = f32::from_bits(0x7fc0_1234);
        let mut base = Hotspot::new(p);
        base.run_until(3, &mut Fuel::new(u64::MAX));
        // At corners, edges and inside: a NaN with a payload, −0.0 and
        // subnormals; then both infinities side by side, whose sum is the
        // default NaN.
        let nan_cells = [(0, nan), (100, -0.0), (1000, f32::from_bits(1)), (2303, nan), (700, f32::from_bits(0x8000_0fff))];
        let inf_cells = [(50, f32::INFINITY), (51, f32::NEG_INFINITY), (100, -0.0), (1000, f32::from_bits(1))];
        let grids: [fn(&mut Hotspot, usize, f32); 3] =
            [|h, i, v| h.t_src[i] = v, |h, i, v| h.t_dst[i] = v, |h, i, v| h.power[i] = v];
        for (g, set) in grids.into_iter().enumerate() {
            for cells in [&nan_cells[..], &inf_cells[..]] {
                let mut h = base.clone();
                for &(i, v) in cells {
                    set(&mut h, i, v);
                }
                assert!(h.control_is_pristine());
                let (fast, slow) = (finish(h.clone(), true), finish(h, false));
                assert!(fast == slow, "grid {g}: first difference at {:?}", first_difference(&fast, &slow));
            }
        }
        let consts: [fn(&mut Consts); 6] = [
            |k| k.amb = -0.0,
            |k| k.rz_1 = f32::from_bits(3),
            |k| k.rx_1 = f32::INFINITY,
            |k| k.ry_1 = f32::NEG_INFINITY,
            |k| k.step_div_cap = f32::from_bits(0x7fc0_1234),
            |k| k.amb = f32::from_bits(0xffc0_0042),
        ];
        for (i, set) in consts.into_iter().enumerate() {
            let mut h = base.clone();
            set(&mut h.consts);
            assert!(h.control_is_pristine());
            let (fast, slow) = (finish(h.clone(), true), finish(h, false));
            assert!(fast == slow, "constant {i}: first difference at {:?}", first_difference(&fast, &slow));
        }
    }

    proptest::proptest! {
        /// One flipped bit of any variable, at any step boundary, under
        /// thread layouts that divide the rows, do not, or outnumber them
        /// (so some stripes are empty): `run_until` and a `step()` loop end
        /// in the same state, or panic alike.
        #[test]
        fn fast_pass_matches_step_after_any_single_bit_flip(
            threads in proptest::sample::select(vec![16usize, 7, 64]),
            boundary in 0usize..20,
            var: u64,
            elem: u64,
            bit: u64
        ) {
            let _quiet = carolfi::panic_guard::silence_panics();
            let mut h = Hotspot::new(HotspotParams { logical_threads: threads, ..HotspotParams::test() });
            for _ in 0..boundary {
                h.step();
            }
            let flipped = {
                let mut vars = h.variables();
                let n = vars.len() as u64;
                let v = &mut vars[(var % n) as usize];
                let e = (elem % v.elem_count() as u64) as usize;
                let b = (bit % (8 * v.elem_size) as u64) as usize;
                v.bytes[e * v.elem_size + b / 8] ^= 1 << (b % 8);
                format!("{}[{e}] bit {b}", v.info.name)
            };
            let (fast, slow) = (finish(h.clone(), true), finish(h, false));
            proptest::prop_assert!(
                fast == slow,
                "{threads} threads, {flipped} at step {boundary}: first difference at {:?}",
                first_difference(&fast, &slow)
            );
        }
    }

    #[test]
    fn matches_sequential_reference_bitexactly() {
        let p = HotspotParams::test();
        let reference: Vec<f32> = Hotspot::reference(p).iter().map(|&t| crate::quantize::sig6_f32(t)).collect();
        let Output::F32Grid { data, .. } = run_to_done(Hotspot::new(p)) else { panic!() };
        assert_eq!(data, reference, "parallel stencil must be bit-identical to the sequential one");
    }

    #[test]
    fn deterministic_across_workers() {
        let p = HotspotParams::test();
        let a = run_to_done(Hotspot::new(p));
        let b = run_to_done(Hotspot::new(HotspotParams { workers: 3, ..p }));
        assert!(a.matches(&b));
    }

    #[test]
    fn temperatures_stay_physical() {
        let Output::F32Grid { data, .. } = run_to_done(Hotspot::new(HotspotParams::test())) else { panic!() };
        for &t in &data {
            assert!(t.is_finite());
            assert!((70.0..400.0).contains(&t), "temperature {t} out of physical range");
        }
    }

    #[test]
    fn grid_perturbation_attenuates() {
        // The open-system term must shrink an injected temperature error —
        // the paper's explanation of HotSpot's tolerance behaviour.
        let p = HotspotParams::test();
        let golden = run_to_done(Hotspot::new(p));
        let mut h = Hotspot::new(p);
        for _ in 0..5 {
            h.step();
        }
        let victim = (p.rows / 2) * p.cols + p.cols / 2;
        let injected = 40.0f32;
        h.t_src[victim] += injected;
        while h.step() == StepOutcome::Continue {}
        let m = h.output().mismatches(&golden);
        assert!(!m.is_empty());
        let worst = m.iter().map(|mm| (mm.got - mm.expected).abs()).fold(0.0f64, f64::max);
        assert!(worst < injected as f64 * 0.9, "perturbation grew: {worst} vs {injected}");
        // ... and it spreads beyond the struck cell.
        assert!(m.len() > 1, "stencil coupling must spread the error");
    }

    #[test]
    fn constant_corruption_is_global_and_severe() {
        let p = HotspotParams::test();
        let golden = run_to_done(Hotspot::new(p));
        let mut h = Hotspot::new(p);
        h.step();
        h.consts.amb = 8000.0; // corrupted ambient temperature
        while h.step() == StepOutcome::Continue {}
        let m = h.output().mismatches(&golden);
        assert_eq!(m.len(), p.rows * p.cols, "every cell is driven by the ambient constant");
    }

    #[test]
    fn exposes_constants_and_controls() {
        let mut h = Hotspot::new(HotspotParams::test());
        let vars = h.variables();
        // 5 live derived constants + 6 dead raw setup parameters.
        assert_eq!(vars.iter().filter(|v| v.info.class == VarClass::Constant).count(), 11);
        assert_eq!(
            vars.iter().filter(|v| v.info.class == VarClass::ControlVariable).count(),
            9 * HotspotParams::test().logical_threads
        );
    }
}
