//! LavaMD — N-body particle potentials in a 3-D box decomposition
//! (paper §3.2).
//!
//! "LavaMD implements an N-Body algorithm. The algorithm analyzes particles
//! in a 3D space and calculates the mutual forces between the particles
//! within a predefined distance range."
//!
//! The port keeps Rodinia's structure: the domain is an `nb × nb × nb` grid
//! of boxes, each holding `par_per_box` particles with positions (`rv`, the
//! paper's *distance* array) and charges (`qv`). For every particle the
//! kernel accumulates an exponentially decaying pair potential over the
//! particles of the home box and its ≤26 face/edge/corner neighbours within
//! a cutoff. The `rv`/`qv` input arrays dominate the memory image — "up to
//! five orders of magnitude larger than the other data structures" — and the
//! `exp()` in the kernel "will exacerbate any error" (paper §6, LavaMD).
//!
//! Each logical thread owns one box; a cooperative step processes a slab of
//! boxes, so force output for a box is written exactly once, at the thread's
//! (injectable) fire step. LavaMD is the paper's only benchmark with a
//! genuinely 3-D output, hence the only one that can show the *cubic*
//! spatial error pattern.

use crate::par::par_for_each;
use carolfi::bytesview::bits_eq;
use carolfi::fuel::Fuel;
use carolfi::output::Output;
use carolfi::target::{FaultTarget, Snapshot, StepOutcome, VarClass, VarInfo, Variable};
use rand::Rng;

/// LavaMD sizing parameters.
#[derive(Debug, Clone, Copy)]
pub struct LavamdParams {
    /// Boxes per dimension (total boxes = nb³ = logical threads).
    pub nb: usize,
    /// Particles per box.
    pub par_per_box: usize,
    /// Cooperative steps a run is divided into.
    pub steps: usize,
    pub workers: usize,
    pub seed: u64,
}

impl LavamdParams {
    pub fn test() -> Self {
        LavamdParams { nb: 3, par_per_box: 6, steps: 9, workers: 1, seed: 0x1a7a }
    }

    pub fn small() -> Self {
        LavamdParams { nb: 4, par_per_box: 8, steps: 16, workers: 1, seed: 0x1a7a }
    }

    pub fn paper() -> Self {
        LavamdParams { nb: 5, par_per_box: 12, steps: 25, workers: 1, seed: 0x1a7a }
    }

    pub fn boxes(&self) -> usize {
        self.nb * self.nb * self.nb
    }
}

/// Interaction strength (Rodinia's `alpha`-derived constant).
const A2_DEFAULT: f32 = 2.0;
/// Pair cutoff distance squared, in box units.
const CUT2_DEFAULT: f32 = 1.8;

/// Per-logical-thread (= per-box) control block.
#[derive(Debug, Clone, Copy)]
struct Ctrl {
    /// Which box this thread computes (normally its own index).
    box_id: u64,
    /// Step at which this thread fires.
    fire_step: u64,
    /// Thread-local copies of the geometry.
    par_local: u64,
    nb_local: u64,
    /// Inner-loop scratch: rewritten before every use while the thread is
    /// firing and dead the rest of the run. Real interrupted frames are full
    /// of such locals, which is why most of the paper's LavaMD injections
    /// are masked.
    j_scratch: u64,
    nbox_scratch: u64,
    d2_scratch: f32,
    w_scratch: f32,
    dx_scratch: f32,
    dy_scratch: f32,
    dz_scratch: f32,
    qj_scratch: f32,
    v_copy: f32,
    fx_copy: f32,
    fy_copy: f32,
    fz_copy: f32,
}

impl Ctrl {
    /// Every field's bits, for [`FaultTarget::converged`].
    fn bits(&self) -> ([u64; 6], [u32; 10]) {
        let Ctrl {
            box_id, fire_step, par_local, nb_local, j_scratch, nbox_scratch, d2_scratch, w_scratch, dx_scratch, dy_scratch,
            dz_scratch, qj_scratch, v_copy, fx_copy, fy_copy, fz_copy,
        } = *self;
        let floats = [d2_scratch, w_scratch, dx_scratch, dy_scratch, dz_scratch, qj_scratch, v_copy, fx_copy, fy_copy, fz_copy];
        ([box_id, fire_step, par_local, nb_local, j_scratch, nbox_scratch], floats.map(f32::to_bits))
    }
}

/// The LavaMD fault target.
#[derive(Clone)]
pub struct Lavamd {
    p: LavamdParams,
    /// Particle positions: 4 floats per particle (x, y, z, pad).
    rv: Vec<f32>,
    /// Particle charges: 1 float per particle.
    qv: Vec<f32>,
    /// Output potentials/forces: 4 floats per particle (v, fx, fy, fz).
    fv: Vec<f32>,
    /// Interaction constant (injectable).
    a2: f32,
    /// Cutoff distance squared (injectable).
    cut2: f32,
    ctrl: Vec<Ctrl>,
    /// Pointer base for the particle arrays (injectable; segfault path).
    ptr_rv: u64,
    /// Raw setup parameters, dead after construction (masked targets).
    raw: [f32; 4],
    done: usize,
}

impl Lavamd {
    pub fn new(p: LavamdParams) -> Self {
        assert!(p.nb > 0 && p.par_per_box > 0 && p.steps > 0);
        let boxes = p.boxes();
        let n = boxes * p.par_per_box;
        let mut rng = carolfi::rng::fork(p.seed, 0);
        let mut rv = vec![0.0f32; n * 4];
        for b in 0..boxes {
            let bz = b % p.nb;
            let by = (b / p.nb) % p.nb;
            let bx = b / (p.nb * p.nb);
            for q in 0..p.par_per_box {
                let i = (b * p.par_per_box + q) * 4;
                rv[i] = bx as f32 + rng.gen::<f32>();
                rv[i + 1] = by as f32 + rng.gen::<f32>();
                rv[i + 2] = bz as f32 + rng.gen::<f32>();
                rv[i + 3] = 0.0;
            }
        }
        let qv: Vec<f32> = (0..n).map(|_| rng.gen_range(0.1..1.0)).collect();
        let ctrl = (0..boxes)
            .map(|b| Ctrl {
                box_id: b as u64,
                fire_step: (b * p.steps / boxes) as u64,
                par_local: p.par_per_box as u64,
                nb_local: p.nb as u64,
                j_scratch: 0,
                nbox_scratch: 0,
                d2_scratch: 0.0,
                w_scratch: 0.0,
                dx_scratch: 0.0,
                dy_scratch: 0.0,
                dz_scratch: 0.0,
                qj_scratch: 0.0,
                v_copy: 0.0,
                fx_copy: 0.0,
                fy_copy: 0.0,
                fz_copy: 0.0,
            })
            .collect();
        Lavamd { p, rv, qv, fv: vec![0.0; n * 4], a2: A2_DEFAULT, cut2: CUT2_DEFAULT, ctrl, ptr_rv: 0, raw: [A2_DEFAULT.sqrt(), CUT2_DEFAULT.sqrt(), p.nb as f32, p.par_per_box as f32], done: 0 }
    }

    /// Sequential reference: potentials for every particle, brute force over
    /// all particle pairs within the cutoff (no box decomposition at all).
    pub fn reference(p: LavamdParams) -> Vec<f32> {
        let l = Lavamd::new(p);
        let n = p.boxes() * p.par_per_box;
        let mut fv = vec![0.0f32; n * 4];
        for i in 0..n {
            let (xi, yi, zi) = (l.rv[i * 4], l.rv[i * 4 + 1], l.rv[i * 4 + 2]);
            for j in 0..n {
                let (xj, yj, zj) = (l.rv[j * 4], l.rv[j * 4 + 1], l.rv[j * 4 + 2]);
                let (dx, dy, dz) = (xi - xj, yi - yj, zi - zj);
                let d2 = dx * dx + dy * dy + dz * dz;
                if d2 > l.cut2 {
                    continue;
                }
                // Reference sums over *boxes within one step* of the home
                // box only, like the kernel; particles further than the
                // cutoff are excluded above, and the box grid guarantees
                // cutoff ≤ box diagonal, so the pair sets agree when the
                // pair is within a neighbouring box.
                let (bi, bj) = (box_of(&l, i), box_of(&l, j));
                if !boxes_adjacent(p.nb, bi, bj) {
                    continue;
                }
                let w = l.qv[j] * (-l.a2 * d2).exp();
                fv[i * 4] += w;
                fv[i * 4 + 1] += w * dx;
                fv[i * 4 + 2] += w * dy;
                fv[i * 4 + 3] += w * dz;
            }
        }
        fv
    }
}

fn box_of(l: &Lavamd, particle: usize) -> (usize, usize, usize) {
    let b = particle / l.p.par_per_box;
    (b / (l.p.nb * l.p.nb), (b / l.p.nb) % l.p.nb, b % l.p.nb)
}

fn boxes_adjacent(_nb: usize, a: (usize, usize, usize), b: (usize, usize, usize)) -> bool {
    a.0.abs_diff(b.0) <= 1 && a.1.abs_diff(b.1) <= 1 && a.2.abs_diff(b.2) <= 1
}

/// One thread's box computation. Reads are driven by the injectable control
/// block and the shared input arrays; writes land in the thread's physical
/// `fv` slot.
#[allow(clippy::too_many_arguments)]
fn compute_box(ctl: &mut Ctrl, fv_slot: &mut [f32], rv: &[f32], qv: &[f32], a2: f32, cut2: f32, step: u64, ptrs: (usize, usize)) {
    let (pr, pq) = ptrs;
    if ctl.fire_step != step {
        return;
    }
    let nb = ctl.nb_local as usize;
    let par = ctl.par_local as usize;
    let home = ctl.box_id as usize;
    let hz = home % nb.max(1);
    let hy = (home / nb.max(1)) % nb.max(1);
    let hx = home / (nb.max(1) * nb.max(1));
    let mut fuel = Fuel::with_factor(27 * (par as u64 + 1) * (par as u64 + 1), 8.0);
    for q in 0..par.min(fv_slot.len() / 4) {
        let out = &mut fv_slot[q * 4..q * 4 + 4];
        let i = home * par + q;
        let (xi, yi, zi) = (rv[pr + i * 4], rv[pr + i * 4 + 1], rv[pr + i * 4 + 2]);
        let (mut v, mut fx, mut fy, mut fz) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        for dx in -1i64..=1 {
            for dy in -1i64..=1 {
                for dz in -1i64..=1 {
                    let nx = hx as i64 + dx;
                    let ny = hy as i64 + dy;
                    let nz = hz as i64 + dz;
                    if nx < 0 || ny < 0 || nz < 0 || nx >= nb as i64 || ny >= nb as i64 || nz >= nb as i64 {
                        continue;
                    }
                    let nbox = (nx as usize * nb + ny as usize) * nb + nz as usize;
                    ctl.nbox_scratch = nbox as u64;
                    for pj in 0..par {
                        fuel.burn(1);
                        let j = nbox * par + pj;
                        ctl.j_scratch = j as u64;
                        let (xj, yj, zj) = (rv[pr + j * 4], rv[pr + j * 4 + 1], rv[pr + j * 4 + 2]);
                        let (ddx, ddy, ddz) = (xi - xj, yi - yj, zi - zj);
                        let d2 = ddx * ddx + ddy * ddy + ddz * ddz;
                        if d2 > cut2 {
                            continue;
                        }
                        let w = qv[pq + j] * (-a2 * d2).exp();
                        ctl.d2_scratch = d2;
                        ctl.w_scratch = w;
                        ctl.dx_scratch = ddx;
                        ctl.dy_scratch = ddy;
                        ctl.dz_scratch = ddz;
                        ctl.qj_scratch = qv[pq + j];
                        v += w;
                        fx += w * ddx;
                        fy += w * ddy;
                        fz += w * ddz;
                    }
                }
            }
        }
        ctl.v_copy = v;
        ctl.fx_copy = fx;
        ctl.fy_copy = fy;
        ctl.fz_copy = fz;
        out[0] = v;
        out[1] = fx;
        out[2] = fy;
        out[3] = fz;
    }
}

impl FaultTarget for Lavamd {
    fn name(&self) -> &'static str {
        "lavamd"
    }

    fn total_steps(&self) -> usize {
        self.p.steps
    }

    fn steps_executed(&self) -> usize {
        self.done
    }

    fn step(&mut self) -> StepOutcome {
        struct Item<'a> {
            ctl: &'a mut Ctrl,
            slot: &'a mut [f32],
        }
        let slot_len = self.p.par_per_box * 4;
        let mut items: Vec<Item<'_>> = Vec::with_capacity(self.ctrl.len());
        {
            let mut rest: &mut [f32] = &mut self.fv;
            for ctl in self.ctrl.iter_mut() {
                let (slot, tail) = rest.split_at_mut(slot_len);
                rest = tail;
                items.push(Item { ctl, slot });
            }
        }
        let (rv, qv, a2, cut2, step) = (&self.rv, &self.qv, self.a2, self.cut2, self.done as u64);
        let ptrs = (self.ptr_rv as usize, self.ptr_rv as usize);
        par_for_each(&mut items, self.p.workers, |_, item| {
            compute_box(item.ctl, item.slot, rv, qv, a2, cut2, step, ptrs);
        });
        self.done += 1;
        if self.done >= self.p.steps {
            StepOutcome::Done
        } else {
            StepOutcome::Continue
        }
    }

    fn variables(&mut self) -> Vec<Variable<'_>> {
        let mut vars = Vec::with_capacity(5 + 4 * self.ctrl.len());
        vars.push(Variable::from_slice(VarInfo::global("rv_distance", VarClass::InputArray, file!(), 1), &mut self.rv));
        vars.push(Variable::from_slice(VarInfo::global("qv_charge", VarClass::InputArray, file!(), 2), &mut self.qv));
        vars.push(Variable::from_slice(VarInfo::global("fv_forces", VarClass::Matrix, file!(), 3), &mut self.fv));
        vars.push(Variable::from_scalar(VarInfo::global("alpha2", VarClass::Constant, file!(), 4), &mut self.a2));
        vars.push(Variable::from_scalar(VarInfo::global("cutoff2", VarClass::Constant, file!(), 5), &mut self.cut2));
        vars.push(Variable::from_scalar(VarInfo::global("rv_ptr", VarClass::Pointer, file!(), 6), &mut self.ptr_rv));
        {
            let [alpha, cutoff, boxes1d, par_raw] = &mut self.raw;
            vars.push(Variable::from_scalar(VarInfo::global("alpha", VarClass::Constant, file!(), 7), alpha));
            vars.push(Variable::from_scalar(VarInfo::global("cutoff", VarClass::Constant, file!(), 7), cutoff));
            vars.push(Variable::from_scalar(VarInfo::global("boxes1d", VarClass::Constant, file!(), 7), boxes1d));
            vars.push(Variable::from_scalar(VarInfo::global("par_raw", VarClass::Constant, file!(), 7), par_raw));
        }
        for (t, ctl) in self.ctrl.iter_mut().enumerate() {
            let t16 = t as u16;
            let f = "lavamd_kernel";
            vars.push(Variable::from_scalar(VarInfo::local("box_id", VarClass::ControlVariable, f, t16, file!(), 10), &mut ctl.box_id));
            vars.push(Variable::from_scalar(VarInfo::local("fire_step", VarClass::ControlVariable, f, t16, file!(), 11), &mut ctl.fire_step));
            vars.push(Variable::from_scalar(VarInfo::local("par_local", VarClass::ControlVariable, f, t16, file!(), 12), &mut ctl.par_local));
            vars.push(Variable::from_scalar(VarInfo::local("nb_local", VarClass::ControlVariable, f, t16, file!(), 13), &mut ctl.nb_local));
            vars.push(Variable::from_scalar(VarInfo::local("j", VarClass::ControlVariable, f, t16, file!(), 14), &mut ctl.j_scratch));
            vars.push(Variable::from_scalar(VarInfo::local("nbox", VarClass::ControlVariable, f, t16, file!(), 15), &mut ctl.nbox_scratch));
            vars.push(Variable::from_scalar(VarInfo::local("d2", VarClass::Buffer, f, t16, file!(), 16), &mut ctl.d2_scratch));
            vars.push(Variable::from_scalar(VarInfo::local("w", VarClass::Buffer, f, t16, file!(), 17), &mut ctl.w_scratch));
            vars.push(Variable::from_scalar(VarInfo::local("dx", VarClass::Buffer, f, t16, file!(), 18), &mut ctl.dx_scratch));
            vars.push(Variable::from_scalar(VarInfo::local("dy", VarClass::Buffer, f, t16, file!(), 19), &mut ctl.dy_scratch));
            vars.push(Variable::from_scalar(VarInfo::local("dz", VarClass::Buffer, f, t16, file!(), 20), &mut ctl.dz_scratch));
            vars.push(Variable::from_scalar(VarInfo::local("qj", VarClass::Buffer, f, t16, file!(), 21), &mut ctl.qj_scratch));
            vars.push(Variable::from_scalar(VarInfo::local("v_acc", VarClass::Buffer, f, t16, file!(), 22), &mut ctl.v_copy));
            vars.push(Variable::from_scalar(VarInfo::local("fx_acc", VarClass::Buffer, f, t16, file!(), 23), &mut ctl.fx_copy));
            vars.push(Variable::from_scalar(VarInfo::local("fy_acc", VarClass::Buffer, f, t16, file!(), 24), &mut ctl.fy_copy));
            vars.push(Variable::from_scalar(VarInfo::local("fz_acc", VarClass::Buffer, f, t16, file!(), 25), &mut ctl.fz_copy));
        }
        vars
    }

    fn output(&self) -> Output {
        // 3-D layout: [box_x, box_y, box_z × particles × 4 components].
        // Forces are compared through the text result file (6 significant
        // digits), like HotSpot.
        let nb = self.p.nb;
        let data = self.fv.iter().map(|&v| crate::quantize::sig6_f32(v)).collect();
        Output::F32Grid { dims: [nb, nb, nb * self.p.par_per_box * 4], data }
    }

    fn snapshot(&self) -> Option<Snapshot> {
        Some(Snapshot::new(self.clone()))
    }

    fn restore(&mut self, snapshot: &Snapshot) -> bool {
        let Some(s) = snapshot.get::<Lavamd>() else { return false };
        self.rv.copy_from_slice(&s.rv);
        self.qv.copy_from_slice(&s.qv);
        self.fv.copy_from_slice(&s.fv);
        self.a2 = s.a2;
        self.cut2 = s.cut2;
        self.ctrl.copy_from_slice(&s.ctrl);
        self.ptr_rv = s.ptr_rv;
        self.raw = s.raw;
        self.done = s.done;
        true
    }

    fn converged(&self, snapshot: &Snapshot) -> bool {
        let Some(s) = snapshot.get::<Lavamd>() else { return false };
        // `p` is the fixed configuration, which `restore` does not copy.
        let Lavamd { p: _, rv, qv, fv, a2, cut2, ctrl, ptr_rv, raw, done } = s;
        self.done == *done
            && self.ptr_rv == *ptr_rv
            && bits_eq(&[self.a2, self.cut2], &[*a2, *cut2])
            && bits_eq(&self.raw, raw)
            && self.ctrl.iter().map(Ctrl::bits).eq(ctrl.iter().map(Ctrl::bits))
            && bits_eq(&self.fv, fv)
            && bits_eq(&self.rv, rv)
            && bits_eq(&self.qv, qv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_to_done(mut l: Lavamd) -> Output {
        while l.step() == StepOutcome::Continue {}
        l.output()
    }

    #[test]
    fn matches_brute_force_reference() {
        let p = LavamdParams::test();
        let reference = Lavamd::reference(p);
        let Output::F32Grid { data, .. } = run_to_done(Lavamd::new(p)) else { panic!() };
        for (i, (&got, &exp)) in data.iter().zip(&reference).enumerate() {
            assert!((got - exp).abs() <= 1e-4 * exp.abs().max(1.0), "component {i}: {got} vs {exp}");
        }
    }

    #[test]
    fn deterministic_across_workers() {
        let p = LavamdParams::test();
        let a = run_to_done(Lavamd::new(p));
        let b = run_to_done(Lavamd::new(LavamdParams { workers: 3, ..p }));
        assert!(a.matches(&b));
    }

    #[test]
    fn output_is_three_dimensional() {
        let out = run_to_done(Lavamd::new(LavamdParams::test()));
        assert_eq!(out.rank(), 3, "LavaMD must be able to exhibit cubic error patterns");
    }

    #[test]
    fn every_thread_fires_exactly_once() {
        let p = LavamdParams::test();
        let mut l = Lavamd::new(p);
        let mut fire_counts = vec![0usize; p.boxes()];
        for step in 0..p.steps as u64 {
            for (b, c) in l.ctrl.iter().enumerate() {
                if c.fire_step == step {
                    fire_counts[b] += 1;
                }
            }
            l.step();
        }
        assert!(fire_counts.iter().all(|&c| c == 1));
    }

    #[test]
    fn late_input_corruption_is_masked() {
        let p = LavamdParams::test();
        let golden = run_to_done(Lavamd::new(p));
        let mut l = Lavamd::new(p);
        while l.step() == StepOutcome::Continue {}
        // Everything computed; corrupt an input particle: no effect.
        l.rv[0] = 1.0e30;
        assert!(l.output().matches(&golden));
    }

    #[test]
    fn early_position_corruption_spreads_to_neighbor_boxes() {
        let p = LavamdParams::test();
        let golden = run_to_done(Lavamd::new(p));
        let mut l = Lavamd::new(p);
        // Move the first particle of the central box (1,1,1) before anything
        // runs: index (i*nb + j)*nb + k with i = j = k = 1.
        let center = (p.nb + 1) * p.nb + 1;
        l.rv[center * p.par_per_box * 4] += 0.4;
        while l.step() == StepOutcome::Continue {}
        let m = l.output().mismatches(&golden);
        let s = carolfi::record::DiffSummary::from_mismatches(&m, l.output().dims());
        assert!(s.distinct[0] >= 2 && s.distinct[1] >= 2 && s.distinct[2] >= 2, "expected a 3-D (cubic) spread, got {:?}", s.distinct);
    }

    #[test]
    fn corrupted_box_id_is_contained_or_crashes() {
        let _quiet = carolfi::panic_guard::silence_panics();
        let p = LavamdParams::test();
        let golden = run_to_done(Lavamd::new(p));
        let mut l = Lavamd::new(p);
        l.ctrl[0].box_id = 7; // thread 0 computes box 7's particles
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            while l.step() == StepOutcome::Continue {}
            l.output()
        }));
        match r {
            Err(_) => {}
            Ok(out) => {
                let m = out.mismatches(&golden);
                assert!(!m.is_empty());
                // Writes stay in thread 0's physical slot (box 0,0,0).
                for mm in &m {
                    assert_eq!((mm.coord[0], mm.coord[1]), (0, 0));
                    assert!(mm.coord[2] < p.par_per_box * 4);
                }
            }
        }
    }
}
