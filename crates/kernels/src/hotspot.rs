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
use carolfi::target::{FaultTarget, Snapshot, StepOutcome, VarClass, VarInfo, Variable};
use rand::Rng;

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
        assert!(p.rows > 2 && p.cols > 2 && p.iterations > 0);
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
            let delta = k.step_div_cap
                * (power[pp + idx] + (top + bottom - 2.0 * t) * k.ry_1 + (left + right - 2.0 * t) * k.rx_1 + (k.amb - t) * k.rz_1);
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
        // Monomorphic run-ahead loop (ZOFI-style full-speed phase): one
        // decrement-and-branch plus a direct, inlinable step call per
        // step — no virtual dispatch through `dyn FaultTarget`.
        while self.done < step_bound {
            fuel.burn(1);
            if let StepOutcome::Done = self.step() {
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
        std::mem::swap(&mut self.t_src, &mut self.t_dst);
        self.done += 1;
        if self.done >= self.p.iterations {
            StepOutcome::Done
        } else {
            StepOutcome::Continue
        }
    }

    fn variables(&mut self) -> Vec<Variable<'_>> {
        let mut vars = Vec::with_capacity(8 + 5 * self.ctrl.len());
        vars.push(Variable::from_slice(VarInfo::global("temp", VarClass::Matrix, file!(), 1), &mut self.t_src));
        vars.push(Variable::from_slice(VarInfo::global("temp_scratch", VarClass::Matrix, file!(), 2), &mut self.t_dst));
        vars.push(Variable::from_slice(VarInfo::global("power", VarClass::InputArray, file!(), 3), &mut self.power));
        vars.push(Variable::from_scalar(VarInfo::global("step_div_cap", VarClass::Constant, file!(), 4), &mut self.consts.step_div_cap));
        vars.push(Variable::from_scalar(VarInfo::global("rx_1", VarClass::Constant, file!(), 5), &mut self.consts.rx_1));
        vars.push(Variable::from_scalar(VarInfo::global("ry_1", VarClass::Constant, file!(), 6), &mut self.consts.ry_1));
        vars.push(Variable::from_scalar(VarInfo::global("rz_1", VarClass::Constant, file!(), 7), &mut self.consts.rz_1));
        vars.push(Variable::from_scalar(VarInfo::global("amb_temp", VarClass::Constant, file!(), 8), &mut self.consts.amb));
        vars.push(Variable::from_scalar(VarInfo::global("temp_ptr", VarClass::Pointer, file!(), 9), &mut self.ptr_temp));
        {
            let [rx, ry, rz, cap, step, slope] = &mut self.raw;
            vars.push(Variable::from_scalar(VarInfo::global("rx", VarClass::Constant, file!(), 9), rx));
            vars.push(Variable::from_scalar(VarInfo::global("ry", VarClass::Constant, file!(), 9), ry));
            vars.push(Variable::from_scalar(VarInfo::global("rz", VarClass::Constant, file!(), 9), rz));
            vars.push(Variable::from_scalar(VarInfo::global("cap", VarClass::Constant, file!(), 9), cap));
            vars.push(Variable::from_scalar(VarInfo::global("step", VarClass::Constant, file!(), 9), step));
            vars.push(Variable::from_scalar(VarInfo::global("max_slope", VarClass::Constant, file!(), 9), slope));
        }
        for (t, ctl) in self.ctrl.iter_mut().enumerate() {
            let t16 = t as u16;
            let f = "hotspot_kernel";
            vars.push(Variable::from_scalar(VarInfo::local("row_start", VarClass::ControlVariable, f, t16, file!(), 10), &mut ctl.row_start));
            vars.push(Variable::from_scalar(VarInfo::local("row_end", VarClass::ControlVariable, f, t16, file!(), 11), &mut ctl.row_end));
            vars.push(Variable::from_scalar(VarInfo::local("tid_local", VarClass::ControlVariable, f, t16, file!(), 11), &mut ctl.tid_local));
            vars.push(Variable::from_scalar(VarInfo::local("nthreads_local", VarClass::ControlVariable, f, t16, file!(), 11), &mut ctl.nthreads_local));
            vars.push(Variable::from_scalar(VarInfo::local("rows_local", VarClass::ControlVariable, f, t16, file!(), 12), &mut ctl.rows_local));
            vars.push(Variable::from_scalar(VarInfo::local("cols_local", VarClass::ControlVariable, f, t16, file!(), 13), &mut ctl.cols_local));
            vars.push(Variable::from_scalar(VarInfo::local("iter_local", VarClass::ControlVariable, f, t16, file!(), 14), &mut ctl.iter_local));
            vars.push(Variable::from_scalar(VarInfo::local("idx", VarClass::ControlVariable, f, t16, file!(), 15), &mut ctl.idx_scratch));
            vars.push(Variable::from_scalar(VarInfo::local("gr", VarClass::ControlVariable, f, t16, file!(), 16), &mut ctl.gr_scratch));
            vars.push(Variable::from_scalar(VarInfo::local("t_val", VarClass::Buffer, f, t16, file!(), 17), &mut ctl.t_scratch));
            vars.push(Variable::from_scalar(VarInfo::local("top_val", VarClass::Buffer, f, t16, file!(), 18), &mut ctl.top_scratch));
            vars.push(Variable::from_scalar(VarInfo::local("left_val", VarClass::Buffer, f, t16, file!(), 19), &mut ctl.left_scratch));
            vars.push(Variable::from_scalar(VarInfo::local("delta", VarClass::Buffer, f, t16, file!(), 20), &mut ctl.delta_scratch));
        }
        vars
    }

    fn output(&self) -> Output {
        // Rodinia's HotSpot writes its result with `%g` (6 significant
        // digits) and the experimental harness compares output files, so
        // sub-1e-6 relative differences are invisible. Quantising here
        // reproduces that comparison granularity.
        let data = self.t_src.iter().map(|&t| crate::quantize::sig6_f32(t)).collect();
        Output::F32Grid { dims: [self.p.rows, self.p.cols, 1], data }
    }

    fn snapshot(&self) -> Option<Snapshot> {
        Some(Snapshot::new(self.clone()))
    }

    fn restore(&mut self, snapshot: &Snapshot) -> bool {
        let Some(s) = snapshot.get::<Hotspot>() else { return false };
        self.t_src.copy_from_slice(&s.t_src);
        self.t_dst.copy_from_slice(&s.t_dst);
        self.power.copy_from_slice(&s.power);
        self.consts = s.consts;
        self.ctrl.copy_from_slice(&s.ctrl);
        self.ptr_temp = s.ptr_temp;
        self.raw = s.raw;
        self.done = s.done;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_to_done(mut h: Hotspot) -> Output {
        while h.step() == StepOutcome::Continue {}
        h.output()
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
