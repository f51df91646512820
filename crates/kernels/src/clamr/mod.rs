//! CLAMR — cell-based adaptive mesh refinement shallow-water simulation
//! (paper §3.2).
//!
//! "CLAMR is a DOE mini-application in the fluid dynamics domain and is
//! representative of a LANL supercomputer workload. CLAMR simulates wave
//! propagation using adaptive mesh refinement."
//!
//! The port implements the structure the paper's analysis depends on. The
//! mesh is a list of power-of-two aligned cells (level 0 = the base grid,
//! each refinement halves the edge). Every timestep takes **four cooperative
//! sub-steps**, matching the mesh portions the paper grades by criticality:
//!
//! 1. **Sort** ([`sort`]): Morton keys are recomputed and the cell
//!    permutation re-sorted — the paper's most SDC-critical portion;
//! 2. **Tree** ([`tree`]): the cell arrays are reordered by the sorted
//!    permutation and the spatial tree is rebuilt — 41 % of Tree faults
//!    caused DUEs in the paper;
//! 3. **Flux**: a damped linearised shallow-water update, neighbours located
//!    through tree queries, parallel over logical threads;
//! 4. **Remesh**: cells whose height gradient exceeds a threshold refine
//!    into four children; quads of calm siblings coarsen back.
//!
//! A central dam-break column launches a circular wave; the refinement front
//! follows it, so the active cell count rises to a maximum partway through
//! the run — the paper's explanation for CLAMR's time-window-3 sensitivity
//! peak ("CLAMR becomes more sensitive when the number of active cells
//! reaches its maximum value").
//!
//! The output is the height field resampled onto the uniform finest grid.

pub mod sort;
pub mod tree;

use crate::par::{par_for_each, static_partition};
use carolfi::bytesview::bits_eq;
use carolfi::output::Output;
use carolfi::target::{FaultTarget, Snapshot, StepOutcome, VarClass, VarInfo, Variable};

/// Gravitational constant of the shallow-water system.
const GRAVITY: f64 = 9.8;
/// Lax-Friedrichs damping factor (stabilises the explicit update).
const DAMPING: f64 = 0.15;
/// Dam-break column height above the ambient unit depth.
const BUMP_AMPLITUDE: f64 = 0.5;
/// Bottom-friction coefficient draining wake energy each timestep.
const FRICTION: f64 = 0.04;

/// CLAMR sizing parameters.
#[derive(Debug, Clone, Copy)]
pub struct ClamrParams {
    /// Base (level-0) grid edge; must be a power of two.
    pub base: usize,
    /// Maximum refinement level.
    pub max_level: u32,
    /// Simulated timesteps (each = 4 cooperative sub-steps).
    pub timesteps: usize,
    pub logical_threads: usize,
    pub workers: usize,
    pub seed: u64,
}

impl ClamrParams {
    pub fn test() -> Self {
        ClamrParams { base: 8, max_level: 1, timesteps: 8, logical_threads: 8, workers: 1, seed: 0xC1A }
    }

    pub fn small() -> Self {
        ClamrParams { base: 8, max_level: 2, timesteps: 20, logical_threads: 16, workers: 1, seed: 0xC1A }
    }

    pub fn paper() -> Self {
        ClamrParams { base: 8, max_level: 2, timesteps: 36, logical_threads: 16, workers: 1, seed: 0xC1A }
    }

    /// Finest-grid edge length.
    pub fn fine(&self) -> usize {
        self.base << self.max_level
    }
}

/// Per-logical-thread control block for the flux phase.
#[derive(Debug, Clone, Copy)]
struct Ctrl {
    ncells_local: u64,
    fine_local: u64,
    tstep_local: u64,
    /// Flux-loop scratch, rewritten before every use (dead at interrupts).
    hc_scratch: f64,
    div_scratch: f64,
    cell_scratch: u64,
}

impl Ctrl {
    /// Every field's bits, for [`FaultTarget::converged`].
    fn bits(&self) -> [u64; 6] {
        let Ctrl { ncells_local, fine_local, tstep_local, hc_scratch, div_scratch, cell_scratch } = *self;
        [ncells_local, fine_local, tstep_local, hc_scratch.to_bits(), div_scratch.to_bits(), cell_scratch]
    }
}

/// The CLAMR fault target.
#[derive(Clone)]
pub struct Clamr {
    p: ClamrParams,
    // --- mesh (the paper's "others" portion) ---
    ci: Vec<u32>,
    cj: Vec<u32>,
    clevel: Vec<u32>,
    h: Vec<f64>,
    uvel: Vec<f64>,
    vvel: Vec<f64>,
    grad: Vec<f64>,
    /// Injectable global cell count (authoritative loop bound).
    ncells: u64,
    // --- Sort state ---
    sort_keys: Vec<u64>,
    sorted_idx: Vec<u32>,
    sort_scratch: Vec<u32>,
    // --- Tree state ---
    tree_child: Vec<i32>,
    tree_cell: Vec<i32>,
    // --- constants ---
    dt: f64,
    gravity: f64,
    damping: f64,
    friction: f64,
    refine_thresh: f64,
    coarsen_thresh: f64,
    /// Pointer base for the state arrays (segfault path).
    ptr_state: u64,
    /// Raw setup parameters, dead after construction (masked targets).
    raw: [f64; 4],
    ctrl: Vec<Ctrl>,
    done: usize,
    total: usize,
    /// Active cell count after each timestep (for the window analysis).
    cell_history: Vec<usize>,
}

impl Clamr {
    pub fn new(p: ClamrParams) -> Self {
        assert!(p.base.is_power_of_two(), "base grid must be a power of two");
        let fine = p.fine();
        let n0 = p.base * p.base;
        let mut ci = Vec::with_capacity(n0);
        let mut cj = Vec::with_capacity(n0);
        let mut clevel = Vec::with_capacity(n0);
        let mut h = Vec::with_capacity(n0);
        // Dam-break column in the domain centre (fine coordinates).
        let cx = fine as f64 / 2.0;
        let cy = fine as f64 / 2.0;
        let sigma = fine as f64 / 8.0;
        let s0 = 1u32 << p.max_level; // level-0 cell extent in fine cells
        for j in 0..p.base as u32 {
            for i in 0..p.base as u32 {
                ci.push(i);
                cj.push(j);
                clevel.push(0);
                let px = (i as f64 + 0.5) * s0 as f64;
                let py = (j as f64 + 0.5) * s0 as f64;
                let r2 = (px - cx).powi(2) + (py - cy).powi(2);
                h.push(1.0 + BUMP_AMPLITUDE * (-r2 / (2.0 * sigma * sigma)).exp());
            }
        }
        let wave_speed = (GRAVITY * (1.0 + BUMP_AMPLITUDE)).sqrt();
        let dt = 0.25 / wave_speed; // CFL over a unit fine cell
        let ctrl = (0..p.logical_threads)
            .map(|_| Ctrl {
                ncells_local: n0 as u64,
                fine_local: fine as u64,
                tstep_local: 0,
                hc_scratch: 0.0,
                div_scratch: 0.0,
                cell_scratch: 0,
            })
            .collect();
        let mut c = Clamr {
            p,
            ctrl,
            uvel: vec![0.0; n0],
            vvel: vec![0.0; n0],
            grad: vec![0.0; n0],
            ncells: n0 as u64,
            sort_keys: vec![0; n0],
            sorted_idx: (0..n0 as u32).collect(),
            sort_scratch: vec![0; n0],
            tree_child: Vec::new(),
            tree_cell: Vec::new(),
            dt,
            gravity: GRAVITY,
            damping: DAMPING,
            friction: FRICTION,
            refine_thresh: 0.03,
            coarsen_thresh: 0.015,
            ptr_state: 0,
            raw: [sigma, BUMP_AMPLITUDE, wave_speed, 0.25],
            ci,
            cj,
            clevel,
            h,
            done: 0,
            total: p.timesteps * 4,
            cell_history: Vec::new(),
        };
        // Pre-refine around the initial bump so the run starts on a
        // realistic adapted mesh (CLAMR does the same during setup).
        for _ in 0..p.max_level {
            c.phase_sort();
            c.phase_tree();
            c.compute_gradients();
            c.phase_remesh();
        }
        c
    }

    /// Active cell counts recorded after each timestep.
    pub fn cell_history(&self) -> &[usize] {
        &self.cell_history
    }

    /// Current number of mesh cells.
    pub fn ncells_actual(&self) -> usize {
        self.h.len()
    }

    fn fine(&self) -> u32 {
        self.p.fine() as u32
    }

    /// Fine-grid extent of cell `c`.
    fn extent(&self, c: usize) -> u32 {
        // A corrupted level > max_level would shift out of range; clamp the
        // shift amount so the result is a huge-but-defined extent (caught by
        // alignment asserts downstream) instead of UB.
        1u32 << (self.p.max_level.saturating_sub(self.clevel[c])).min(31)
    }

    /// Fine-grid origin of cell `c`.
    fn origin(&self, c: usize) -> (u32, u32) {
        let s = self.extent(c);
        (self.ci[c].saturating_mul(s), self.cj[c].saturating_mul(s))
    }

    /// Sub-step 1: recompute Morton keys and sort the cell permutation.
    fn phase_sort(&mut self) {
        let n = self.h.len();
        self.sort_keys.resize(n, 0);
        self.sort_scratch.resize(n, 0);
        self.sorted_idx.clear();
        self.sorted_idx.extend(0..n as u32);
        // The injectable global cell count drives the key loop: too large
        // panics (OOB = DUE), too small leaves stale keys (SDC).
        let bound = (self.ncells as usize).min(self.sort_keys.len());
        for c in 0..bound {
            let (ox, oy) = self.origin(c);
            self.sort_keys[c] = sort::morton_key(ox, oy);
        }
        if self.ncells as usize > self.sort_keys.len() {
            // Mimic walking past the allocation.
            panic!("cell count {} exceeds allocated mesh {}", self.ncells, self.sort_keys.len());
        }
        sort::merge_sort_by_key(&mut self.sorted_idx, &self.sort_keys, &mut self.sort_scratch);
    }

    /// Sub-step 2: rebuild the spatial tree over the current cell order.
    ///
    /// The sorted permutation is NOT applied here: like CLAMR's `index`
    /// array, `sorted_idx` stays the canonical traversal order that the flux
    /// phase walks (and that re-materialises the arrays in Morton order), so
    /// corruption of the Sort state stays live across sub-steps — the basis
    /// of the paper's finding that Sort is CLAMR's most critical portion.
    fn phase_tree(&mut self) {
        let spec: Vec<(u32, u32, u32, u32)> = (0..self.h.len())
            .map(|c| {
                let (ox, oy) = self.origin(c);
                (ox, oy, self.extent(c), c as u32)
            })
            .collect();
        let fine = self.fine();
        tree::build(&mut self.tree_child, &mut self.tree_cell, fine, &spec);
    }

    /// Sub-step 3: damped linearised shallow-water update (parallel).
    ///
    /// Traversal slot `s` processes cell `sorted_idx[s]` and writes the
    /// updated state (and the gathered cell coordinates) to slot `s`, so the
    /// arrays come out of the flux phase in Morton order. A corrupted
    /// permutation entry walks out of the mesh (crash DUE) or duplicates /
    /// drops cells (an overlapping mesh the next tree build rejects).
    fn phase_flux(&mut self) {
        let n = self.h.len();
        let mut new_h = vec![0.0f64; n];
        let mut new_u = vec![0.0f64; n];
        let mut new_v = vec![0.0f64; n];
        let mut new_g = vec![0.0f64; n];
        let mut new_ci = vec![0u32; n];
        let mut new_cj = vec![0u32; n];
        let mut new_lv = vec![0u32; n];

        struct Item<'a> {
            ctl: &'a mut Ctrl,
            h: &'a mut [f64],
            u: &'a mut [f64],
            v: &'a mut [f64],
            g: &'a mut [f64],
            ci: &'a mut [u32],
            cj: &'a mut [u32],
            lv: &'a mut [u32],
            lo: usize,
        }
        // Detach the control blocks so `self` stays shareable during the
        // parallel region.
        let mut ctrl = std::mem::take(&mut self.ctrl);
        let mut items: Vec<Item<'_>> = Vec::with_capacity(ctrl.len());
        {
            let (mut rh, mut ru, mut rv, mut rg): (&mut [f64], &mut [f64], &mut [f64], &mut [f64]) =
                (&mut new_h, &mut new_u, &mut new_v, &mut new_g);
            let (mut rci, mut rcj, mut rlv): (&mut [u32], &mut [u32], &mut [u32]) = (&mut new_ci, &mut new_cj, &mut new_lv);
            for (t, ctl) in ctrl.iter_mut().enumerate() {
                let (s, e) = static_partition(n, self.p.logical_threads, t);
                let (h, th) = rh.split_at_mut(e - s);
                let (u, tu) = ru.split_at_mut(e - s);
                let (v, tv) = rv.split_at_mut(e - s);
                let (g, tg) = rg.split_at_mut(e - s);
                let (ci, tci) = rci.split_at_mut(e - s);
                let (cj, tcj) = rcj.split_at_mut(e - s);
                let (lv, tlv) = rlv.split_at_mut(e - s);
                rh = th;
                ru = tu;
                rv = tv;
                rg = tg;
                rci = tci;
                rcj = tcj;
                rlv = tlv;
                items.push(Item { ctl, h, u, v, g, ci, cj, lv, lo: s });
            }
        }
        let me = &*self;
        par_for_each(&mut items, self.p.workers, |_, item| {
            me.flux_range(item.ctl, item.lo, item.h, item.u, item.v, item.g, item.ci, item.cj, item.lv);
        });
        drop(items);
        self.ctrl = ctrl;
        self.h = new_h;
        self.uvel = new_u;
        self.vvel = new_v;
        self.grad = new_g;
        self.ci = new_ci;
        self.cj = new_cj;
        self.clevel = new_lv;
    }

    /// Flux update for traversal slots `lo..lo + out.len()`.
    #[allow(clippy::too_many_arguments)]
    fn flux_range(
        &self,
        ctl: &mut Ctrl,
        lo: usize,
        oh: &mut [f64],
        ou: &mut [f64],
        ov: &mut [f64],
        og: &mut [f64],
        oci: &mut [u32],
        ocj: &mut [u32],
        olv: &mut [u32],
    ) {
        let fine = ctl.fine_local as u32; // injectable domain extent
        let pm = self.ptr_state as usize;
        for k in 0..oh.len() {
            let slot = lo + k;
            if slot >= ctl.ncells_local as usize {
                break; // corrupted cell count: remaining slots keep zeros (SDC)
            }
            let c = self.sorted_idx[slot] as usize; // corrupted permutation ⇒ OOB (DUE)
            oci[k] = self.ci[c];
            ocj[k] = self.cj[c];
            olv[k] = self.clevel[c];
            let s = self.extent(c);
            let (ox, oy) = self.origin(c);
            let half = s / 2;
            let hc = self.h[pm + c];
            let uc = self.uvel[pm + c];
            let vc = self.vvel[pm + c];

            // Neighbour lookups through the tree; domain boundaries reflect.
            // Open (absorbing) boundary: outside the domain lies still,
            // ambient-depth water, so the wave exits instead of reflecting.
            let sample = |x: i64, y: i64, _mu: bool, _mv: bool| -> (f64, f64, f64) {
                if x < 0 || y < 0 || x >= fine as i64 || y >= fine as i64 {
                    return (1.0, 0.0, 0.0);
                }
                match tree::query(&self.tree_child, &self.tree_cell, self.fine(), x as u32, y as u32) {
                    Some(nc) => {
                        let nc = nc as usize;
                        (self.h[pm + nc], self.uvel[pm + nc], self.vvel[pm + nc])
                    }
                    None => (hc, uc, vc),
                }
            };
            let (hl, ul, _) = sample(ox as i64 - 1, (oy + half) as i64, true, false);
            let (hr, ur, _) = sample((ox + s) as i64, (oy + half) as i64, true, false);
            let (hd, _, vd) = sample((ox + half) as i64, oy as i64 - 1, false, true);
            let (hu_, _, vu) = sample((ox + half) as i64, (oy + s) as i64, false, true);

            let dx = s as f64;
            let div = (ur - ul) / (2.0 * dx) + (vu - vd) / (2.0 * dx);
            let dhdx = (hr - hl) / (2.0 * dx);
            let dhdy = (hu_ - hd) / (2.0 * dx);
            let havg = 0.25 * (hl + hr + hd + hu_);
            let uavg = 0.25 * (ul + ur + uc + uc);
            let vavg = 0.25 * (vd + vu + vc + vc);

            ctl.hc_scratch = hc;
            ctl.div_scratch = div;
            ctl.cell_scratch = c as u64;
            oh[k] = hc + self.damping * (havg - hc) - self.dt * hc * div;
            ou[k] = (1.0 - self.friction) * (uc + self.damping * (uavg - uc) - self.dt * self.gravity * dhdx);
            ov[k] = (1.0 - self.friction) * (vc + self.damping * (vavg - vc) - self.dt * self.gravity * dhdy);
            og[k] = (hl - hc).abs().max((hr - hc).abs()).max((hd - hc).abs()).max((hu_ - hc).abs());
        }
        ctl.tstep_local += 1;
    }

    /// Computes gradients only (used for the setup pre-refinement).
    fn compute_gradients(&mut self) {
        self.phase_flux_gradients_only();
    }

    fn phase_flux_gradients_only(&mut self) {
        let n = self.h.len();
        let mut g = vec![0.0; n];
        for (c, gc) in g.iter_mut().enumerate() {
            let s = self.extent(c);
            let (ox, oy) = self.origin(c);
            let half = s / 2;
            let hc = self.h[c];
            let sample_h = |x: i64, y: i64| -> f64 {
                if x < 0 || y < 0 || x >= self.fine() as i64 || y >= self.fine() as i64 {
                    return hc;
                }
                match tree::query(&self.tree_child, &self.tree_cell, self.fine(), x as u32, y as u32) {
                    Some(nc) => self.h[nc as usize],
                    None => hc,
                }
            };
            let hl = sample_h(ox as i64 - 1, (oy + half) as i64);
            let hr = sample_h((ox + s) as i64, (oy + half) as i64);
            let hd = sample_h((ox + half) as i64, oy as i64 - 1);
            let hu_ = sample_h((ox + half) as i64, (oy + s) as i64);
            *gc = (hl - hc).abs().max((hr - hc).abs()).max((hd - hc).abs()).max((hu_ - hc).abs());
        }
        self.grad = g;
    }

    /// Sub-step 4: refine steep cells, coarsen calm sibling quads.
    fn phase_remesh(&mut self) {
        let n = self.h.len();
        // Sibling groups eligible for coarsening: key = (level, i/2, j/2).
        let mut groups: std::collections::HashMap<(u32, u32, u32), Vec<usize>> = std::collections::HashMap::new();
        for c in 0..n {
            if self.clevel[c] > 0 && self.grad[c] < self.coarsen_thresh {
                groups.entry((self.clevel[c], self.ci[c] / 2, self.cj[c] / 2)).or_default().push(c);
            }
        }
        let mut coarsen_first: std::collections::HashMap<usize, Vec<usize>> = std::collections::HashMap::new();
        let mut coarsen_member: std::collections::HashSet<usize> = std::collections::HashSet::new();
        for (_, cells) in groups {
            if cells.len() == 4 {
                let first = *cells.iter().min().expect("nonempty");
                for &c in &cells {
                    coarsen_member.insert(c);
                }
                coarsen_first.insert(first, cells);
            }
        }

        let (mut ci2, mut cj2, mut lv2) = (Vec::new(), Vec::new(), Vec::new());
        let (mut h2, mut u2, mut v2, mut g2) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for c in 0..n {
            if let Some(cells) = coarsen_first.get(&c) {
                ci2.push(self.ci[c] / 2);
                cj2.push(self.cj[c] / 2);
                lv2.push(self.clevel[c] - 1);
                h2.push(cells.iter().map(|&x| self.h[x]).sum::<f64>() / 4.0);
                u2.push(cells.iter().map(|&x| self.uvel[x]).sum::<f64>() / 4.0);
                v2.push(cells.iter().map(|&x| self.vvel[x]).sum::<f64>() / 4.0);
                g2.push(cells.iter().map(|&x| self.grad[x]).sum::<f64>() / 4.0);
            } else if coarsen_member.contains(&c) {
                // Emitted with its group's first sibling.
            } else if self.clevel[c] < self.p.max_level && self.grad[c] > self.refine_thresh {
                for (di, dj) in [(0u32, 0u32), (1, 0), (0, 1), (1, 1)] {
                    ci2.push(self.ci[c] * 2 + di);
                    cj2.push(self.cj[c] * 2 + dj);
                    lv2.push(self.clevel[c] + 1);
                    h2.push(self.h[c]);
                    u2.push(self.uvel[c]);
                    v2.push(self.vvel[c]);
                    g2.push(self.grad[c]);
                }
            } else {
                ci2.push(self.ci[c]);
                cj2.push(self.cj[c]);
                lv2.push(self.clevel[c]);
                h2.push(self.h[c]);
                u2.push(self.uvel[c]);
                v2.push(self.vvel[c]);
                g2.push(self.grad[c]);
            }
        }
        self.ci = ci2;
        self.cj = cj2;
        self.clevel = lv2;
        self.h = h2;
        self.uvel = u2;
        self.vvel = v2;
        self.grad = g2;
        self.ncells = self.h.len() as u64;
        for ctl in &mut self.ctrl {
            ctl.ncells_local = self.ncells;
        }
    }
}

impl FaultTarget for Clamr {
    fn name(&self) -> &'static str {
        "clamr"
    }

    fn total_steps(&self) -> usize {
        self.total
    }

    fn steps_executed(&self) -> usize {
        self.done
    }

    fn step(&mut self) -> StepOutcome {
        match self.done % 4 {
            0 => self.phase_sort(),
            1 => self.phase_tree(),
            2 => self.phase_flux(),
            _ => {
                self.phase_remesh();
                self.cell_history.push(self.h.len());
            }
        }
        self.done += 1;
        if self.done >= self.total {
            StepOutcome::Done
        } else {
            StepOutcome::Continue
        }
    }

    fn variables(&mut self) -> Vec<Variable<'_>> {
        let mut vars = Vec::with_capacity(20 + 3 * self.ctrl.len());
        // Mesh "others".
        vars.push(Variable::from_slice(VarInfo::global("cell_i", VarClass::MeshOther, file!(), 1), &mut self.ci));
        vars.push(Variable::from_slice(VarInfo::global("cell_j", VarClass::MeshOther, file!(), 2), &mut self.cj));
        vars.push(Variable::from_slice(VarInfo::global("cell_level", VarClass::MeshOther, file!(), 3), &mut self.clevel));
        vars.push(Variable::from_slice(VarInfo::global("state_h", VarClass::MeshOther, file!(), 4), &mut self.h));
        vars.push(Variable::from_slice(VarInfo::global("state_u", VarClass::MeshOther, file!(), 5), &mut self.uvel));
        vars.push(Variable::from_slice(VarInfo::global("state_v", VarClass::MeshOther, file!(), 6), &mut self.vvel));
        vars.push(Variable::from_slice(VarInfo::global("gradient", VarClass::MeshOther, file!(), 7), &mut self.grad));
        vars.push(Variable::from_scalar(VarInfo::global("ncells", VarClass::ControlVariable, file!(), 8), &mut self.ncells));
        // Sort state.
        vars.push(Variable::from_slice(VarInfo::global("sort_keys", VarClass::SortState, file!(), 10), &mut self.sort_keys));
        vars.push(Variable::from_slice(VarInfo::global("sorted_idx", VarClass::SortState, file!(), 11), &mut self.sorted_idx));
        vars.push(Variable::from_slice(VarInfo::global("sort_scratch", VarClass::SortState, file!(), 12), &mut self.sort_scratch));
        // Tree state.
        vars.push(Variable::from_slice(VarInfo::global("tree_child", VarClass::TreeState, file!(), 14), &mut self.tree_child));
        vars.push(Variable::from_slice(VarInfo::global("tree_cell", VarClass::TreeState, file!(), 15), &mut self.tree_cell));
        // Constants and pointer.
        vars.push(Variable::from_scalar(VarInfo::global("dt", VarClass::Constant, file!(), 17), &mut self.dt));
        vars.push(Variable::from_scalar(VarInfo::global("gravity", VarClass::Constant, file!(), 18), &mut self.gravity));
        vars.push(Variable::from_scalar(VarInfo::global("refine_thresh", VarClass::Constant, file!(), 19), &mut self.refine_thresh));
        vars.push(Variable::from_scalar(VarInfo::global("coarsen_thresh", VarClass::Constant, file!(), 20), &mut self.coarsen_thresh));
        vars.push(Variable::from_scalar(VarInfo::global("state_ptr", VarClass::Pointer, file!(), 21), &mut self.ptr_state));
        {
            let [sigma, amp, wavespeed, cfl] = &mut self.raw;
            vars.push(Variable::from_scalar(VarInfo::global("sigma", VarClass::Constant, file!(), 22), sigma));
            vars.push(Variable::from_scalar(VarInfo::global("amplitude", VarClass::Constant, file!(), 23), amp));
            vars.push(Variable::from_scalar(VarInfo::global("wave_speed", VarClass::Constant, file!(), 24), wavespeed));
            vars.push(Variable::from_scalar(VarInfo::global("cfl", VarClass::Constant, file!(), 25), cfl));
        }
        for (t, ctl) in self.ctrl.iter_mut().enumerate() {
            let t16 = t as u16;
            let f = "clamr_flux";
            vars.push(Variable::from_scalar(VarInfo::local("ncells_local", VarClass::ControlVariable, f, t16, file!(), 30), &mut ctl.ncells_local));
            vars.push(Variable::from_scalar(VarInfo::local("fine_local", VarClass::ControlVariable, f, t16, file!(), 31), &mut ctl.fine_local));
            vars.push(Variable::from_scalar(VarInfo::local("tstep_local", VarClass::ControlVariable, f, t16, file!(), 32), &mut ctl.tstep_local));
            vars.push(Variable::from_scalar(VarInfo::local("hc_val", VarClass::Buffer, f, t16, file!(), 33), &mut ctl.hc_scratch));
            vars.push(Variable::from_scalar(VarInfo::local("div_val", VarClass::Buffer, f, t16, file!(), 34), &mut ctl.div_scratch));
            vars.push(Variable::from_scalar(VarInfo::local("cell_idx", VarClass::ControlVariable, f, t16, file!(), 35), &mut ctl.cell_scratch));
        }
        vars
    }

    fn output(&self) -> Output {
        let fine = self.p.fine();
        let mut grid = vec![0.0f64; fine * fine];
        for c in 0..self.h.len() {
            let s = self.extent(c) as usize;
            let (ox, oy) = self.origin(c);
            for y in oy as usize..oy as usize + s {
                for x in ox as usize..ox as usize + s {
                    grid[y * fine + x] = self.h[c]; // corrupted coords may panic here (DUE)
                }
            }
        }
        Output::F64Grid { dims: [fine, fine, 1], data: grid }
    }

    /// Snapshots are taken after `new()`'s pre-run refinement, so rung 0
    /// is the adapted starting mesh.
    fn snapshot(&self) -> Option<Snapshot> {
        Some(Snapshot::new(self.clone()))
    }

    fn restore(&mut self, snapshot: &Snapshot) -> bool {
        let Some(s) = snapshot.get::<Clamr>() else { return false };
        // Mesh arrays change length as cells refine/coarsen; `clone_from`
        // truncates/extends in place, reusing each vector's allocation.
        self.ci.clone_from(&s.ci);
        self.cj.clone_from(&s.cj);
        self.clevel.clone_from(&s.clevel);
        self.h.clone_from(&s.h);
        self.uvel.clone_from(&s.uvel);
        self.vvel.clone_from(&s.vvel);
        self.grad.clone_from(&s.grad);
        self.ncells = s.ncells;
        self.sort_keys.clone_from(&s.sort_keys);
        self.sorted_idx.clone_from(&s.sorted_idx);
        self.sort_scratch.clone_from(&s.sort_scratch);
        self.tree_child.clone_from(&s.tree_child);
        self.tree_cell.clone_from(&s.tree_cell);
        self.dt = s.dt;
        self.gravity = s.gravity;
        self.damping = s.damping;
        self.friction = s.friction;
        self.refine_thresh = s.refine_thresh;
        self.coarsen_thresh = s.coarsen_thresh;
        self.ptr_state = s.ptr_state;
        self.raw = s.raw;
        self.ctrl.copy_from_slice(&s.ctrl);
        self.done = s.done;
        self.cell_history.clone_from(&s.cell_history);
        true
    }

    fn converged(&self, snapshot: &Snapshot) -> bool {
        let Some(s) = snapshot.get::<Clamr>() else { return false };
        // `p` and `total` are the fixed configuration, which `restore` does
        // not copy.
        let Clamr {
            p: _, ci, cj, clevel, h, uvel, vvel, grad, ncells, sort_keys, sorted_idx, sort_scratch, tree_child, tree_cell, dt,
            gravity, damping, friction, refine_thresh, coarsen_thresh, ptr_state, raw, ctrl, done, total: _, cell_history,
        } = s;
        let consts = [self.dt, self.gravity, self.damping, self.friction, self.refine_thresh, self.coarsen_thresh];
        self.done == *done
            && self.ncells == *ncells
            && self.ptr_state == *ptr_state
            && bits_eq(&consts, &[*dt, *gravity, *damping, *friction, *refine_thresh, *coarsen_thresh])
            && bits_eq(&self.raw, raw)
            && self.ctrl.iter().map(Ctrl::bits).eq(ctrl.iter().map(Ctrl::bits))
            && bits_eq(&self.cell_history, cell_history)
            && bits_eq(&self.h, h)
            && bits_eq(&self.uvel, uvel)
            && bits_eq(&self.vvel, vvel)
            && bits_eq(&self.grad, grad)
            && bits_eq(&self.ci, ci)
            && bits_eq(&self.cj, cj)
            && bits_eq(&self.clevel, clevel)
            && bits_eq(&self.sort_keys, sort_keys)
            && bits_eq(&self.sorted_idx, sorted_idx)
            && bits_eq(&self.sort_scratch, sort_scratch)
            && bits_eq(&self.tree_child, tree_child)
            && bits_eq(&self.tree_cell, tree_cell)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_to_done(mut c: Clamr) -> (Output, Vec<usize>) {
        while c.step() == StepOutcome::Continue {}
        let hist = c.cell_history().to_vec();
        (c.output(), hist)
    }

    #[test]
    fn mesh_covers_domain_exactly() {
        let p = ClamrParams::test();
        let mut c = Clamr::new(p);
        for _ in 0..p.timesteps * 4 {
            let area: u64 = (0..c.h.len()).map(|k| (c.extent(k) as u64).pow(2)).sum();
            assert_eq!(area, (p.fine() * p.fine()) as u64, "mesh must tile the domain at step {}", c.done);
            c.step();
        }
    }

    #[test]
    fn refinement_follows_the_wave() {
        let p = ClamrParams::paper();
        let c = Clamr::new(p);
        let n0 = p.base * p.base;
        assert!(c.ncells_actual() > n0, "setup must pre-refine around the bump");
        let (_, hist) = run_to_done(c);
        let max = *hist.iter().max().expect("history");
        assert!(max > n0, "refinement must add cells");
    }

    #[test]
    fn cell_count_peaks_in_the_first_half() {
        // The paper's CLAMR sensitivity peaks at window 3 of 9, when the
        // active cell count reaches its maximum.
        let (_, hist) = run_to_done(Clamr::new(ClamrParams::paper()));
        let max = *hist.iter().max().expect("history");
        let argmax = hist.iter().position(|&x| x == max).expect("present");
        assert!(argmax * 9 / hist.len() <= 4, "cell count should peak in the first half, peaked at timestep {argmax} of {}: {hist:?}", hist.len());
    }

    #[test]
    fn deterministic_across_runs_and_workers() {
        let p = ClamrParams::test();
        let (a, _) = run_to_done(Clamr::new(p));
        let (b, _) = run_to_done(Clamr::new(p));
        let (c, _) = run_to_done(Clamr::new(ClamrParams { workers: 3, ..p }));
        assert!(a.matches(&b));
        assert!(a.matches(&c));
    }

    #[test]
    fn water_volume_stays_bounded() {
        // Open boundaries let the wave exit, so volume may only shrink
        // toward the ambient level — never grow or collapse.
        let p = ClamrParams::test();
        let c = Clamr::new(p);
        let fine = (p.fine() * p.fine()) as f64;
        let vol0: f64 = (0..c.h.len()).map(|k| c.h[k] * (c.extent(k) as f64).powi(2)).sum();
        let (out, _) = run_to_done(c);
        let Output::F64Grid { data, .. } = out else { panic!() };
        let vol1: f64 = data.iter().sum();
        assert!(vol1 <= vol0 * 1.01, "volume grew: {vol0} -> {vol1}");
        assert!(vol1 >= fine * 0.98, "volume fell below ambient: {vol1} vs {fine}");
    }

    #[test]
    fn heights_stay_physical() {
        let (out, _) = run_to_done(Clamr::new(ClamrParams::paper()));
        let Output::F64Grid { data, .. } = out else { panic!() };
        for &v in &data {
            assert!(v.is_finite() && v > 0.2 && v < 2.5, "height {v} out of range");
        }
    }

    #[test]
    fn corrupted_sorted_idx_corrupts_or_crashes() {
        let p = ClamrParams::test();
        let (golden, _) = run_to_done(Clamr::new(p));
        let mut c = Clamr::new(p);
        c.step(); // sort done, permutation live
        let n = c.sorted_idx.len();
        // Duplicate one entry: the gather now replicates one cell and drops
        // another — an overlapping, non-covering mesh.
        c.sorted_idx[0] = c.sorted_idx[n / 2];
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            while c.step() == StepOutcome::Continue {}
            c.output()
        }));
        match r {
            Err(_) => {} // tree build rejects the overlap, or indexing crashes
            Ok(out) => assert!(!out.matches(&golden), "corrupted mesh must change the output"),
        }
    }

    #[test]
    fn corrupted_tree_link_crashes_or_corrupts() {
        let _quiet = carolfi::panic_guard::silence_panics();
        let p = ClamrParams::test();
        let (golden, _) = run_to_done(Clamr::new(p));
        let mut c = Clamr::new(p);
        c.step();
        c.step(); // tree built
        for link in c.tree_child.iter_mut().take(4) {
            *link = 9_999_999;
        }
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            while c.step() == StepOutcome::Continue {}
            c.output()
        }));
        match r {
            Err(_) => {}
            Ok(out) => assert!(!out.matches(&golden)),
        }
    }

    #[test]
    fn corrupted_ncells_overrun_is_a_crash() {
        let _quiet = carolfi::panic_guard::silence_panics();
        let p = ClamrParams::test();
        let mut c = Clamr::new(p);
        c.ncells = 1 << 40;
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            while c.step() == StepOutcome::Continue {}
        }));
        assert!(r.is_err());
    }
}
