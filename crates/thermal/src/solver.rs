//! Compiled transient plans: allocation-free, stencil-specialized RC
//! stepping.
//!
//! [`ThermalModel::step`] is correct but built for readability: every
//! call heap-allocates its working buffer, re-derives the conductances
//! and the stability limit, and walks
//! [`Floorplan::neighbors`](crate::Floorplan::neighbors) — an iterator
//! that performs a division per cell to recover `(row, col)`. Inside the
//! thermal-DFA fixpoint those costs are paid once per instruction per
//! sweep and dominate whole-program analysis time.
//!
//! A [`CompiledModel`] is built **once** per model and amortizes all of
//! it:
//!
//! * the coefficients (`g_vert`, `g_lat` and the rest, as lane splats), the
//!   flat pass's neighbour masks and the sub-step limit are precomputed;
//! * on the rectangular grids every [`Floorplan`](crate::Floorplan)
//!   describes, the **grid-stencil kernel** needs no adjacency table:
//!   neighbours are `i ± 1` and `i ± cols`, and every cell runs in
//!   explicit 8-wide lanes. An 8-wide grid takes one row per chunk;
//!   every other width cuts the row-major grid into ⌈n/8⌉ flat chunks
//!   and reads the neighbours through masked loads;
//! * transient stepping is allocation-free: the caller owns a
//!   [`StepScratch`] whose buffer is recycled by pointer swap.
//!
//! Windows and steady states do not step at all: they go through the
//! exact [`ModalSolver`](crate::ModalSolver) of
//! [`ThermalModel::modal`].
//!
//! # The flat pass and its masked loads
//!
//! Chunk `k` of the flat pass holds cells `8k .. 8k + 8`, which may
//! start mid-row and span rows. Its up, down, left and right
//! neighbours are the loads at offsets `−cols`, `+cols`, `−1` and `+1`
//! from the chunk, each under a lane mask that [`CompiledModel::new`]
//! builds once per chunk: lane `i` is set only when cell `8k + i`
//! exists and has that neighbour (row above, row below, a cell to its
//! left or right in the same row). So a set lane always reads a cell of
//! the grid, index `< n`, while a load's base address may lie before
//! the buffer (up and left of the first chunk) or past it (down and
//! right of the last). `W8::load_or` (`crate::lanes`) forms those base
//! addresses with wrapping arithmetic and touches no masked-off lane on
//! any backend; a masked-off lane takes the cell's own temperature
//! instead, which makes its term exactly `+0.0`. The last chunk, when
//! `n` is not a multiple of 8, loads and stores only its cells below
//! `n` through the same masked operations, so no lane of any pass
//! reads or writes outside the four buffers, whose lengths the pass
//! asserts once.
//!
//! # Bit-identity contract
//!
//! The kernel preserves the *exact floating-point operation order* of
//! the naive [`ThermalModel::step`]: neighbour contributions accumulate
//! in the same N/S/W/E order `neighbors` yields, a missing neighbour
//! contributes `(T − T)·g = +0.0` (which subtracts away exactly), and
//! derived quantities (`1/R`, the stability limit) are computed by the
//! same expressions.
//! Consequently compiled results are **bit-identical** to the naive
//! solver's — asserted cell-by-cell (`f64::to_bits`) by
//! `crates/thermal/tests/kernel_identity.rs` and suite-wide via
//! `ThermalReport::fingerprint` in `tests/solver_identity.rs`.
//!
//! # Example
//!
//! ```
//! use tadfa_thermal::{CompiledModel, Floorplan, RcParams, StepScratch, ThermalModel};
//!
//! let model = ThermalModel::new(Floorplan::grid(8, 8), RcParams::default());
//! let solver = model.compile();
//! let mut power = vec![0.0; 64];
//! power[27] = 1e-3;
//!
//! // Allocation-free stepping: the scratch buffer is reused forever.
//! let mut scratch = StepScratch::default();
//! let mut fast = model.ambient_state();
//! let mut naive = model.ambient_state();
//! for _ in 0..10 {
//!     solver.step_into(&mut fast, &power, 1e-4, &mut scratch);
//!     model.step(&mut naive, &power, 1e-4);
//! }
//! assert_eq!(fast.temps(), naive.temps()); // bit-identical
//! ```

use crate::lanes::{LANES, M8, W8};
use crate::rc::ThermalModel;
use crate::state::ThermalState;

/// Caller-owned scratch for [`CompiledModel::step_into`] /
/// [`ThermalModel::step_into`].
///
/// Holds the transient solver's `next`-temperatures buffer (and, for
/// the multi-sub-step sparse path, a dense power staging buffer) so
/// repeated stepping never allocates. One scratch serves models of any
/// size (buffers are resized on first use per size); the thermal DFA
/// keeps one inside its `DfaScratch` per worker.
#[derive(Clone, Debug, Default)]
pub struct StepScratch {
    pub(crate) next: Vec<f64>,
    /// Dense `access + leakage` staging for the sub-stepped sparse path.
    dense_power: Vec<f64>,
    /// Maintained-all-zero scatter target for the single-sub-step sparse
    /// path: deposits are scattered in, the fused kernel runs over it,
    /// and the touched cells are re-zeroed — O(accesses) bookkeeping for
    /// a dense-power kernel pass.
    sparse_power: Vec<f64>,
}

impl StepScratch {
    /// A fresh scratch (empty buffers; sized lazily on first use).
    pub fn new() -> StepScratch {
        StepScratch::default()
    }

    pub(crate) fn ensure(&mut self, n: usize) {
        if self.next.len() != n {
            self.next.clear();
            self.next.resize(n, 0.0);
        }
    }
}

/// The linearised leakage model in kernel-ready form — the same
/// coefficients as `PowerModel`'s leakage, evaluated with the identical
/// expression (`(per_cell · (1 + coeff · (T − T_ref))).max(0)`), so the
/// fused leaky kernels stay bit-identical to "add leakage, then step".
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct LeakageParams {
    /// Leakage power per cell at the reference temperature, W.
    pub per_cell: f64,
    /// Fractional leakage increase per Kelvin above the reference.
    pub temp_coeff: f64,
    /// Reference temperature of the linearisation, K.
    pub reference_temp: f64,
}

/// `PowerModel::leakage_at`, verbatim.
#[inline(always)]
fn leak_at(lp: &LeakageParams, t: f64) -> f64 {
    (lp.per_cell * (1.0 + lp.temp_coeff * (t - lp.reference_temp))).max(0.0)
}

/// The zero leakage model the non-leaky kernel instantiations take
/// (and, being `!LEAKY`, never read).
const NO_LEAK: LeakageParams = LeakageParams {
    per_cell: 0.0,
    temp_coeff: 0.0,
    reference_temp: 0.0,
};

/// A precomputed sub-step schedule: how many explicit-Euler sub-steps a
/// given `dt` needs under a model's stability limit, and their size.
/// Callers that step with the same `dt` many times (the thermal DFA
/// steps each instruction's `dt` once per sweep) build this once via
/// [`CompiledModel::schedule`] instead of re-deriving it per call.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct StepSchedule {
    /// Sub-steps to run (0 for `dt == 0`).
    n_sub: u32,
    /// Sub-step size, seconds.
    h: f64,
}

impl StepSchedule {
    /// Number of explicit-Euler sub-steps the schedule runs.
    pub fn n_sub(&self) -> u32 {
        self.n_sub
    }

    /// The sub-step size, seconds (0.0 when `n_sub` is 0).
    pub fn sub_step(&self) -> f64 {
        self.h
    }

    /// Reassembles a schedule from its raw parts — the persistence
    /// round-trip constructor. The parts must come from
    /// [`StepSchedule::n_sub`] / [`StepSchedule::sub_step`] of a
    /// schedule built for the *same* compiled model, or stepping with
    /// it can violate the model's stability limit.
    pub fn from_raw(n_sub: u32, sub_step: f64) -> StepSchedule {
        StepSchedule { n_sub, h: sub_step }
    }
}

/// A transient plan compiled from a [`ThermalModel`]: its coefficients,
/// their lane splats, the neighbour masks of the flat pass, and the
/// stencil-specialized kernel. Build once (cheap: one mask set per
/// eight cells), share behind an `Arc`, reuse for every step — see the
/// [module docs](self).
#[derive(Clone, Debug)]
pub struct CompiledModel {
    rows: usize,
    cols: usize,
    n: usize,
    ambient: f64,
    max_stable_dt: f64,
    /// Model-constant lane splats, broadcast once at compile time so
    /// per-step [`LaneCtx`] construction only splats the step- and
    /// leakage-dependent values.
    lanes: ModelLanes,
    /// Neighbour masks of each chunk of the flat pass (empty on 8-wide
    /// grids, which take [`CompiledModel::stencil_pass_w8`]).
    chunks: Vec<ChunkMasks>,
    /// The lanes of the last chunk that hold cells.
    last: M8,
}

impl CompiledModel {
    /// Compiles `model`.
    pub fn new(model: &ThermalModel) -> CompiledModel {
        let fp = model.floorplan();
        let params = model.params();
        // Same expressions as the naive solver, so the derived values
        // share their exact bit patterns.
        let g_vert = 1.0 / params.vertical_resistance;
        let g_lat = 1.0 / params.lateral_resistance;
        let (rows, cols, n) = (fp.rows(), fp.cols(), fp.num_cells());
        let chunks = if cols == LANES {
            Vec::new()
        } else {
            ChunkMasks::grid(rows, cols)
        };
        // 1 to 8 cells in the last chunk (an empty grid has no chunk).
        let last_cells = n - LANES * n.div_ceil(LANES).saturating_sub(1);
        CompiledModel {
            rows,
            cols,
            n,
            ambient: params.ambient,
            max_stable_dt: model.max_stable_dt(),
            lanes: ModelLanes::new(g_vert, g_lat, params.ambient, params.cell_capacitance),
            chunks,
            last: M8::from_bits((0..last_cells).fold(0, |bits, i| bits | 1 << i)),
        }
    }

    /// Number of cells.
    pub fn num_cells(&self) -> usize {
        self.n
    }

    /// Ambient temperature, K.
    pub fn ambient(&self) -> f64 {
        self.ambient
    }

    /// The precomputed explicit-Euler stability limit, seconds.
    pub fn max_stable_dt(&self) -> f64 {
        self.max_stable_dt
    }

    /// A state with every cell at ambient.
    pub fn ambient_state(&self) -> ThermalState {
        ThermalState::uniform(self.n, self.ambient)
    }

    /// Precomputes the sub-step schedule for `dt` — the exact `n_sub`
    /// and `h` [`step_into`](CompiledModel::step_into) would derive.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is negative.
    pub fn schedule(&self, dt: f64) -> StepSchedule {
        assert!(dt >= 0.0, "negative time step");
        if dt == 0.0 {
            return StepSchedule { n_sub: 0, h: 0.0 };
        }
        let n_sub = (dt / self.max_stable_dt).ceil().max(1.0) as usize;
        StepSchedule {
            n_sub: n_sub.try_into().expect("sub-step count fits in u32"),
            h: dt / n_sub as f64,
        }
    }

    /// Advances `state` by `dt` seconds under `power`, sub-stepping as
    /// needed for stability — [`ThermalModel::step`] without the per-call
    /// allocation and neighbour-iterator overhead, bit-identical to it.
    ///
    /// # Panics
    ///
    /// Panics if `power`/`state` sizes mismatch the model or `dt` is
    /// negative.
    #[inline]
    pub fn step_into(
        &self,
        state: &mut ThermalState,
        power: &[f64],
        dt: f64,
        scratch: &mut StepScratch,
    ) {
        assert_eq!(power.len(), self.n, "power vector size mismatch");
        assert_eq!(state.len(), self.n, "state size mismatch");
        debug_assert!(power.iter().all(|&p| p >= 0.0), "negative power");
        let sched = self.schedule(dt);
        if sched.n_sub == 0 {
            return;
        }
        scratch.ensure(self.n);
        self.run_substeps(
            state,
            power,
            sched.n_sub as usize,
            sched.h,
            &mut scratch.next,
            None,
        );
    }

    /// Advances `state` under **sparse** access power: `deposits` lists
    /// the `(cell, watts)` pairs (each cell at most once, watts
    /// pre-summed); every unlisted cell has zero access power. With
    /// `leak`, temperature-dependent leakage is fused into the kernel.
    ///
    /// This is the thermal DFA's innermost call: on the single-sub-step
    /// path the deposits are scattered into a maintained-all-zero dense
    /// buffer, one fused kernel pass runs over it, and the touched
    /// cells are re-zeroed — O(accesses) bookkeeping around a single
    /// grid pass. Bit-identical to scattering the deposits into a dense
    /// zero vector (adding leakage) and calling the dense entry points,
    /// because `0.0 + x` is exact.
    ///
    /// # Panics
    ///
    /// Panics if `state` has the wrong size or a deposit cell is out of
    /// range.
    #[inline]
    pub fn step_sparse_into(
        &self,
        state: &mut ThermalState,
        deposits: &[(u32, f64)],
        sched: &StepSchedule,
        leak: Option<&LeakageParams>,
        scratch: &mut StepScratch,
    ) {
        match leak {
            Some(lp) => {
                self.sparse_impl::<true, false>(state, deposits, sched, lp, scratch, &mut [])
            }
            None => {
                self.sparse_impl::<false, false>(state, deposits, sched, &NO_LEAK, scratch, &mut [])
            }
        };
    }

    /// [`step_sparse_into`](CompiledModel::step_sparse_into) with the
    /// fixpoint's compare-and-copy **fused into the kernel**:
    /// advances `state`, then returns the L∞ distance between the new
    /// temperatures and `prev` while overwriting `prev` with them — all
    /// in the same pass over the grid.
    ///
    /// Exactly equivalent (bit for bit, including the returned change)
    /// to calling the untracked entry and then
    /// [`ThermalState::linf_update_slices`]`(prev, state.temps())`: the
    /// per-lane `max` folds it splits off are exactly associative. With
    /// sub-stepping, only the final sub-step is tracked — the
    /// intermediate temperatures never existed for the untracked +
    /// `linf` composition either.
    ///
    /// # Examples
    ///
    /// ```
    /// use tadfa_thermal::{Floorplan, RcParams, StepScratch, ThermalModel, ThermalState};
    ///
    /// let model = ThermalModel::new(Floorplan::grid(4, 4), RcParams::default());
    /// let solver = model.compile();
    /// let sched = solver.schedule(1e-4);
    /// let mut scratch = StepScratch::new();
    ///
    /// let mut tracked = model.ambient_state();
    /// let mut prev = vec![solver.ambient(); 16];
    /// let change = solver.step_sparse_tracked_into(
    ///     &mut tracked, &[(5, 1e-3)], &sched, None, &mut scratch, &mut prev);
    ///
    /// // Bit-identical to stepping untracked and folding separately.
    /// let mut plain = model.ambient_state();
    /// let mut prev2 = vec![solver.ambient(); 16];
    /// solver.step_sparse_into(&mut plain, &[(5, 1e-3)], &sched, None, &mut scratch);
    /// let expect = ThermalState::linf_update_slices(&mut prev2, plain.temps());
    /// assert_eq!(tracked.temps(), plain.temps());
    /// assert_eq!(change.to_bits(), expect.to_bits());
    /// assert_eq!(prev, prev2);
    /// ```
    ///
    /// # Panics
    ///
    /// As [`step_sparse_into`](CompiledModel::step_sparse_into), plus if
    /// `prev.len()` differs from the cell count.
    #[inline]
    pub fn step_sparse_tracked_into(
        &self,
        state: &mut ThermalState,
        deposits: &[(u32, f64)],
        sched: &StepSchedule,
        leak: Option<&LeakageParams>,
        scratch: &mut StepScratch,
        prev: &mut [f64],
    ) -> f64 {
        assert_eq!(prev.len(), self.n, "prev size mismatch");
        match leak {
            Some(lp) => self.sparse_impl::<true, true>(state, deposits, sched, lp, scratch, prev),
            None => {
                self.sparse_impl::<false, true>(state, deposits, sched, &NO_LEAK, scratch, prev)
            }
        }
    }

    /// The one sparse-stepping implementation behind the public
    /// entries, monomorphized over leakage and change tracking.
    fn sparse_impl<const LEAKY: bool, const TRACK: bool>(
        &self,
        state: &mut ThermalState,
        deposits: &[(u32, f64)],
        sched: &StepSchedule,
        leak: &LeakageParams,
        scratch: &mut StepScratch,
        prev: &mut [f64],
    ) -> f64 {
        assert_eq!(state.len(), self.n, "state size mismatch");
        // Out-of-range deposit cells panic at the indexing site (the
        // scatter loops); no up-front scan needed.
        debug_assert!(deposits.iter().all(|&(_, w)| w >= 0.0), "negative power");
        if sched.n_sub == 0 {
            // A zero-dt step leaves the state untouched; tracking still
            // owes the caller the compare-and-copy against `prev`.
            return if TRACK {
                ThermalState::linf_update_slices(prev, state.temps())
            } else {
                0.0
            };
        }
        scratch.ensure(self.n);
        if sched.n_sub == 1 {
            // Scatter into the maintained-all-zero buffer, run ONE fused
            // kernel pass (step + leakage + power + change tracking),
            // then restore the zeros. `0.0 + w` is exact, so this is
            // bit-identical to a dense pass over the scattered vector.
            let StepScratch {
                next, sparse_power, ..
            } = scratch;
            if sparse_power.len() != self.n {
                sparse_power.clear();
                sparse_power.resize(self.n, 0.0);
            }
            for &(p, w) in deposits {
                sparse_power[p as usize] += w;
            }
            let change = self.substep_stencil::<LEAKY, TRACK>(
                state.temps(),
                sparse_power,
                leak,
                next,
                prev,
                sched.h,
            );
            for &(p, _) in deposits {
                sparse_power[p as usize] = 0.0;
            }
            state.swap_buffer(next);
            return change;
        }
        // Sub-stepped: stage the dense power once (leakage frozen at the
        // pre-step temperatures, matching the reference semantics), then
        // run the dense kernel.
        let StepScratch {
            next, dense_power, ..
        } = scratch;
        dense_power.clear();
        dense_power.resize(self.n, 0.0);
        for &(p, w) in deposits {
            dense_power[p as usize] += w;
        }
        if LEAKY {
            for (pd, &t) in dense_power.iter_mut().zip(state.temps()) {
                *pd += leak_at(leak, t);
            }
        }
        self.run_substeps(
            state,
            dense_power,
            sched.n_sub as usize,
            sched.h,
            next,
            if TRACK { Some(prev) } else { None },
        )
    }

    /// Executes `n_sub` plain Euler sub-steps. With `track`, the
    /// **final** sub-step fuses the compare-and-copy against the given
    /// previous temperatures and the L∞ change is returned.
    #[inline]
    fn run_substeps(
        &self,
        state: &mut ThermalState,
        power: &[f64],
        n_sub: usize,
        h: f64,
        next: &mut Vec<f64>,
        mut track: Option<&mut [f64]>,
    ) -> f64 {
        let mut change = 0.0;
        for k in 0..n_sub {
            let t = state.temps();
            match track.as_deref_mut() {
                Some(prev) if k + 1 == n_sub => {
                    change = self.substep_stencil::<false, true>(t, power, &NO_LEAK, next, prev, h);
                }
                _ => {
                    self.substep_stencil::<false, false>(t, power, &NO_LEAK, next, &mut [], h);
                }
            }
            // The freshly computed temperatures become the state by
            // pointer swap; the old state vector becomes next round's
            // scratch. No copy, no allocation, identical values.
            state.swap_buffer(next);
        }
        change
    }

    /// One explicit-Euler sub-step via the grid stencil, fully fused:
    /// power deposit + temperature-dependent leakage + Euler update +
    /// (optionally) the fixpoint's compare-and-copy, one pass over the
    /// grid in explicit 8-wide lanes ([`crate::lanes::W8`]): 8-wide
    /// grids through [`CompiledModel::stencil_pass_w8`], every other
    /// width through [`CompiledModel::stencil_pass_flat`]. Returns the
    /// tracked L∞ change (0.0 when `!TRACK`).
    fn substep_stencil<const LEAKY: bool, const TRACK: bool>(
        &self,
        t: &[f64],
        power: &[f64],
        leak: &LeakageParams,
        next: &mut [f64],
        prev: &mut [f64],
        h: f64,
    ) -> f64 {
        let ctx = LaneCtx::new(self, leak, h);
        if self.cols == LANES {
            self.stencil_pass_w8::<LEAKY, TRACK>(t, power, next, prev, &ctx)
        } else {
            self.stencil_pass_flat::<LEAKY, TRACK>(t, power, next, prev, &ctx)
        }
    }

    /// The whole-grid fused pass for grids exactly one chunk wide
    /// (`cols == LANES`) — the shipped 8-wide register files, hence the
    /// hottest loop in the repository.
    ///
    /// Compared with the flat pass it needs no neighbour masks and
    /// loads each row once: the current row becomes the next row's
    /// `up` register, the prefetched row below becomes the next `ti`,
    /// and the left and right neighbours are in-register shifts. The
    /// vertical edges use the same masked-conductance trick as the
    /// lateral ones: the first/last row reads *itself* as its missing
    /// neighbour against a conductance of `0.0`, so the masked term is
    /// exactly `(ti − ti)·0.0 = +0.0` and subtracting it reproduces the
    /// unmasked flow bit for bit.
    ///
    /// Returns the tracked L∞ change (0.0 when `!TRACK`); `prev`'s
    /// compare-and-overwrite semantics match
    /// [`stencil_pass_flat`](Self::stencil_pass_flat).
    #[inline(always)]
    fn stencil_pass_w8<const LEAKY: bool, const TRACK: bool>(
        &self,
        t: &[f64],
        power: &[f64],
        next: &mut [f64],
        prev: &mut [f64],
        ctx: &LaneCtx,
    ) -> f64 {
        let rows = self.rows;
        let n = rows * LANES;
        assert!(t.len() >= n && power.len() >= n && next.len() >= n);
        if TRACK {
            assert!(prev.len() >= n);
        }
        let tp = t.as_ptr();
        let pp = power.as_ptr();
        let np = next.as_mut_ptr();
        let prevp = prev.as_mut_ptr();
        let mut acc = ctx.zero;
        // SAFETY: every `load`/`store` below reads or writes lanes
        // `[base, base + LANES)` with `base = r·LANES` and `r < rows`
        // (or the explicitly guarded `base + 2·LANES` prefetch with
        // `r + 2 < rows`), all `< n` — in range by the length asserts
        // above. `t`, `power`, `next`, and `prev` are distinct slices
        // (solver state, scratch power, scratch out-buffer, caller's
        // tracking row), so no load observes a store of this pass.
        unsafe {
            let mut ti = W8::load(tp);
            let mut down = if rows > 1 {
                W8::load(tp.add(LANES))
            } else {
                ti
            };
            let mut up = ti; // dummy: masked by gu = 0 on the first row
            for r in 0..rows {
                let base = r * LANES;
                let access = W8::load(pp.add(base));
                let pw = if LEAKY {
                    let lk = ctx
                        .pc
                        .mul(ctx.one.add(ctx.co.mul(ti.sub(ctx.tr))))
                        .max(ctx.zero);
                    access.add(lk)
                } else {
                    access
                };
                let gu = if r == 0 { ctx.zero } else { ctx.g };
                let gd = if r + 1 == rows { ctx.zero } else { ctx.g };
                let mut flow = pw.sub(ti.sub(ctx.amb).mul(ctx.gv));
                flow = flow.sub(ti.sub(up).mul(gu));
                flow = flow.sub(ti.sub(down).mul(gd));
                flow = flow.sub(ti.sub(ti.shift_head_dup()).mul(ctx.gl_first));
                flow = flow.sub(ti.sub(ti.shift_tail_dup()).mul(ctx.gr_last));
                let out_v = ti.add(ctx.h.mul(flow).div(ctx.cap));
                out_v.store(np.add(base));
                if TRACK {
                    let pv = W8::load(prevp.add(base));
                    acc = acc.max(out_v.sub(pv).abs());
                    out_v.store(prevp.add(base));
                }
                up = ti;
                ti = down;
                down = if r + 2 < rows {
                    W8::load(tp.add(base + 2 * LANES))
                } else {
                    ti // dummy: masked by gd = 0 on the last row
                };
            }
        }
        if TRACK {
            acc.reduce_max()
        } else {
            0.0
        }
    }

    /// The fused pass for every grid width except 8: the row-major grid
    /// cut into ⌈n/8⌉ flat chunks, which may start mid-row and span
    /// several rows.
    ///
    /// Each chunk reads its up, down, left and right neighbours at
    /// offsets −cols, +cols, −1 and +1 under the chunk's
    /// [`ChunkMasks`]. A lane without that neighbour reads the cell
    /// itself, so its term is exactly `(ti − ti)·g = +0.0` and
    /// subtracting it reproduces the naive step's skipped term bit for
    /// bit (as in [`stencil_pass_w8`](Self::stencil_pass_w8)). The last
    /// chunk, when `n % 8 ≠ 0`, loads and stores only its real cells:
    /// its padding lanes compute from ambient and zero power, and read
    /// their own new value as `prev`, so they add `+0.0` to the tracked
    /// change.
    ///
    /// Returns the tracked L∞ change (0.0 when `!TRACK`). When `TRACK`,
    /// `prev` is overwritten with the new temperatures; folding the
    /// change lane-wise and reducing once is exact, because `max` is
    /// exactly associative.
    #[inline(always)]
    fn stencil_pass_flat<const LEAKY: bool, const TRACK: bool>(
        &self,
        t: &[f64],
        power: &[f64],
        next: &mut [f64],
        prev: &mut [f64],
        ctx: &LaneCtx,
    ) -> f64 {
        let n = self.n;
        assert!(t.len() >= n && power.len() >= n && next.len() >= n);
        if TRACK {
            assert!(prev.len() >= n);
        }
        let bufs = PassBufs {
            t: t.as_ptr(),
            power: power.as_ptr(),
            next: next.as_mut_ptr(),
            prev: prev.as_mut_ptr(),
        };
        let whole = n / LANES;
        let mut acc = ctx.zero;
        // SAFETY: chunk `k` covers cells `[8k, 8k + 8)`; the whole
        // chunks (`k < n / 8`) lie inside `[0, n)`, and the last chunk's
        // cell loads and stores are masked to its cells below `n` — in
        // range of all four buffers by the length asserts above. Every
        // neighbour load sets only the lanes whose neighbour exists, and
        // that neighbour is a cell of the grid, so below `n` too
        // (`CompiledModel::new` builds the masks that way). The buffers
        // are distinct slices, so no load observes a store of this pass.
        unsafe {
            for (k, m) in self.chunks[..whole].iter().enumerate() {
                acc = self.flat_chunk::<LEAKY, TRACK, false>(&bufs, k * LANES, m, ctx, acc);
            }
            if let Some(m) = self.chunks.get(whole) {
                acc = self.flat_chunk::<LEAKY, TRACK, true>(&bufs, whole * LANES, m, ctx, acc);
            }
        }
        if TRACK {
            acc.reduce_max()
        } else {
            0.0
        }
    }

    /// One chunk of [`stencil_pass_flat`](Self::stencil_pass_flat), at
    /// cell `base`; `PARTIAL` marks the padded last chunk. Per lane the
    /// fold order is the naive step's: leakage
    /// `(pc·(1+co·(T−Tr))).max(0)`, then `flow = pw − (T−amb)·g_vert`,
    /// then the up, down, left and right terms in
    /// `Floorplan::neighbors` order, then `T + h·flow/cap`. Returns
    /// `acc` with this chunk's tracked change folded in.
    ///
    /// # Safety
    ///
    /// As the `SAFETY` note of the pass: `base` is a chunk start, `m`
    /// its masks, and `bufs` points at buffers of at least `n` cells.
    #[inline(always)]
    unsafe fn flat_chunk<const LEAKY: bool, const TRACK: bool, const PARTIAL: bool>(
        &self,
        bufs: &PassBufs,
        base: usize,
        m: &ChunkMasks,
        ctx: &LaneCtx,
        mut acc: W8,
    ) -> W8 {
        let cols = self.cols;
        let cell = bufs.t.wrapping_add(base);
        // SAFETY: see the function's contract.
        unsafe {
            let (ti, access) = if PARTIAL {
                (
                    W8::load_or(cell, self.last, ctx.amb),
                    W8::load_or(bufs.power.add(base), self.last, ctx.zero),
                )
            } else {
                (W8::load(cell), W8::load(bufs.power.add(base)))
            };
            let pw = if LEAKY {
                let lk = ctx
                    .pc
                    .mul(ctx.one.add(ctx.co.mul(ti.sub(ctx.tr))))
                    .max(ctx.zero);
                access.add(lk)
            } else {
                access
            };
            let mut flow = pw.sub(ti.sub(ctx.amb).mul(ctx.gv));
            let up = W8::load_or(cell.wrapping_sub(cols), m.up, ti);
            flow = flow.sub(ti.sub(up).mul(ctx.g));
            let down = W8::load_or(cell.wrapping_add(cols), m.down, ti);
            flow = flow.sub(ti.sub(down).mul(ctx.g));
            let left = W8::load_or(cell.wrapping_sub(1), m.left, ti);
            flow = flow.sub(ti.sub(left).mul(ctx.g));
            let right = W8::load_or(cell.wrapping_add(1), m.right, ti);
            flow = flow.sub(ti.sub(right).mul(ctx.g));
            let out_v = ti.add(ctx.h.mul(flow).div(ctx.cap));
            let (np, prevp) = (bufs.next.add(base), bufs.prev.wrapping_add(base));
            if PARTIAL {
                out_v.store_masked(np, self.last);
            } else {
                out_v.store(np);
            }
            if TRACK {
                let pv = if PARTIAL {
                    W8::load_or(prevp, self.last, out_v)
                } else {
                    W8::load(prevp)
                };
                acc = acc.max(out_v.sub(pv).abs());
                if PARTIAL {
                    out_v.store_masked(prevp, self.last);
                } else {
                    out_v.store(prevp);
                }
            }
        }
        acc
    }
}

/// The buffers one flat stencil pass reads and writes.
struct PassBufs {
    t: *const f64,
    power: *const f64,
    next: *mut f64,
    /// Unused (and possibly dangling) unless the pass tracks.
    prev: *mut f64,
}

/// Which lanes of one flat chunk have each neighbour — built once by
/// [`CompiledModel::new`] for grids that are not 8 wide. A lane past
/// the last cell has none.
#[derive(Copy, Clone, Debug)]
struct ChunkMasks {
    up: M8,
    down: M8,
    left: M8,
    right: M8,
}

impl ChunkMasks {
    /// The masks of every chunk of a `rows × cols` grid.
    fn grid(rows: usize, cols: usize) -> Vec<ChunkMasks> {
        let n = rows * cols;
        // Lane `i` of chunk `k` is set when cell `8k + i` exists and has
        // the neighbour.
        let lanes = |k: usize, has: &dyn Fn(usize) -> bool| {
            M8::from_bits((0..LANES).fold(0, |bits, i| {
                let c = k * LANES + i;
                bits | u8::from(c < n && has(c)) << i
            }))
        };
        (0..n.div_ceil(LANES))
            .map(|k| ChunkMasks {
                up: lanes(k, &|c| c >= cols),
                down: lanes(k, &|c| c + cols < n),
                left: lanes(k, &|c| c % cols != 0),
                right: lanes(k, &|c| c % cols + 1 != cols),
            })
            .collect()
    }
}

/// Per-sub-step splatted coefficients for the lane stencil kernel —
/// built once per [`CompiledModel::substep_stencil`] call.
#[derive(Copy, Clone)]
struct LaneCtx {
    /// `g_vert` splat.
    gv: W8,
    /// `g_lat` splat.
    g: W8,
    /// `g_lat` with lane 0 zeroed — the left-conductance mask of a
    /// row's first chunk (lane 0 has no west neighbour).
    gl_first: W8,
    /// `g_lat` with lane 7 zeroed — the right-conductance mask of a
    /// chunk ending exactly at the row edge.
    gr_last: W8,
    /// Ambient splat.
    amb: W8,
    /// Sub-step size splat (the update is `h·flow/cap`).
    h: W8,
    /// `cap` splat.
    cap: W8,
    /// Leakage `per_cell` splat.
    pc: W8,
    /// Leakage `temp_coeff` splat.
    co: W8,
    /// Leakage `reference_temp` splat.
    tr: W8,
    /// `1.0` splat.
    one: W8,
    /// `+0.0` splat (leak clamp + change accumulator seed).
    zero: W8,
}

impl LaneCtx {
    #[inline]
    fn new(m: &CompiledModel, leak: &LeakageParams, h: f64) -> LaneCtx {
        let l = &m.lanes;
        LaneCtx {
            gv: l.gv,
            g: l.g,
            gl_first: l.gl_first,
            gr_last: l.gr_last,
            amb: l.amb,
            h: W8::splat(h),
            cap: l.cap,
            pc: W8::splat(leak.per_cell),
            co: W8::splat(leak.temp_coeff),
            tr: W8::splat(leak.reference_temp),
            one: l.one,
            zero: l.zero,
        }
    }
}

/// The model-constant subset of [`LaneCtx`], broadcast once per
/// [`CompiledModel`] so the per-step context only splats the values
/// that actually vary between calls (step size and leakage
/// coefficients).
#[derive(Copy, Clone, Debug)]
struct ModelLanes {
    gv: W8,
    g: W8,
    gl_first: W8,
    gr_last: W8,
    amb: W8,
    cap: W8,
    one: W8,
    zero: W8,
}

impl ModelLanes {
    fn new(g_vert: f64, g_lat: f64, ambient: f64, cap: f64) -> ModelLanes {
        let mut gl = [g_lat; LANES];
        gl[0] = 0.0;
        let mut gr = [g_lat; LANES];
        gr[LANES - 1] = 0.0;
        ModelLanes {
            gv: W8::splat(g_vert),
            g: W8::splat(g_lat),
            gl_first: W8::from_array(gl),
            gr_last: W8::from_array(gr),
            amb: W8::splat(ambient),
            cap: W8::splat(cap),
            one: W8::splat(1.0),
            zero: W8::splat(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::Floorplan;
    use crate::rc::RcParams;

    fn model(rows: usize, cols: usize) -> ThermalModel {
        ThermalModel::new(Floorplan::grid(rows, cols), RcParams::default())
    }

    fn hot_power(n: usize) -> Vec<f64> {
        let mut p = vec![0.0; n];
        p[0] = 1e-3;
        if n > 1 {
            p[n / 2] = 0.7e-3;
        }
        p
    }

    #[test]
    fn compiled_constants_match_model() {
        let m = model(4, 4);
        let c = m.compile();
        assert_eq!(c.num_cells(), 16);
        assert_eq!(c.ambient().to_bits(), m.ambient().to_bits());
        assert_eq!(c.max_stable_dt().to_bits(), m.max_stable_dt().to_bits());
    }

    #[test]
    fn step_bit_identical_to_naive_across_kernels() {
        for (rows, cols) in [(1, 1), (1, 6), (6, 1), (2, 2), (3, 4), (8, 8)] {
            let m = model(rows, cols);
            let power = hot_power(rows * cols);
            let c = m.compile();
            let mut fast = m.ambient_state();
            let mut naive = m.ambient_state();
            let mut scratch = StepScratch::new();
            // Mixed dt: single sub-step and heavily sub-stepped.
            for dt in [2e-6, 1e-4, 3e-3] {
                c.step_into(&mut fast, &power, dt, &mut scratch);
                m.step(&mut naive, &power, dt);
                let fast_bits: Vec<u64> = fast.temps().iter().map(|t| t.to_bits()).collect();
                let naive_bits: Vec<u64> = naive.temps().iter().map(|t| t.to_bits()).collect();
                assert_eq!(fast_bits, naive_bits, "{rows}x{cols} dt={dt}");
            }
        }
    }

    #[test]
    fn sparse_step_bit_identical_to_dense_scatter() {
        use crate::power::PowerModel;
        let pm = PowerModel::default();
        let lp = pm.leakage_params();
        for (rows, cols) in [(1, 1), (1, 6), (4, 4), (8, 8)] {
            let m = model(rows, cols);
            let n = rows * cols;
            let deposits: Vec<(u32, f64)> = [(0u32, 1e-3), ((n as u32) / 2, 0.7e-3)]
                .into_iter()
                .take(if n > 1 { 2 } else { 1 })
                .collect();
            let mut dense = vec![0.0; n];
            for &(p, w) in &deposits {
                dense[p as usize] += w;
            }
            let c = m.compile();
            // Single-sub-step (fixup path) and sub-stepped (dense
            // staging path), with and without fused leakage.
            for dt in [2e-6, 5e-3] {
                let sched = c.schedule(dt);
                for leaky in [false, true] {
                    let mut sparse_s = m.ambient_state();
                    let mut dense_s = m.ambient_state();
                    let mut scratch = StepScratch::new();
                    for _ in 0..4 {
                        c.step_sparse_into(
                            &mut sparse_s,
                            &deposits,
                            &sched,
                            leaky.then_some(&lp),
                            &mut scratch,
                        );
                        if leaky {
                            let mut with_leak = dense.clone();
                            pm.add_leakage(&mut with_leak, &dense_s);
                            m.step(&mut dense_s, &with_leak, dt);
                        } else {
                            m.step(&mut dense_s, &dense, dt);
                        }
                    }
                    let a: Vec<u64> = sparse_s.temps().iter().map(|t| t.to_bits()).collect();
                    let b: Vec<u64> = dense_s.temps().iter().map(|t| t.to_bits()).collect();
                    assert_eq!(a, b, "{rows}x{cols} dt={dt} leaky={leaky}");
                }
            }
        }
    }

    #[test]
    fn schedule_matches_step_derivation() {
        let m = model(4, 4);
        let c = m.compile();
        let zero = c.schedule(0.0);
        let mut s = c.ambient_state();
        let before = s.clone();
        c.step_sparse_into(&mut s, &[(0, 1e-3)], &zero, None, &mut StepScratch::new());
        assert_eq!(s.temps(), before.temps(), "zero dt is a no-op");

        // A precomputed schedule steps exactly as `step_into` derives
        // it per call, bit for bit.
        let power = hot_power(16);
        let deposits = [(0, power[0]), (8, power[8])];
        for dt in [1e-6, 4e-4, 2e-3] {
            let sched = c.schedule(dt);
            let mut a = c.ambient_state();
            let mut b = c.ambient_state();
            let mut scratch = StepScratch::new();
            c.step_sparse_into(&mut a, &deposits, &sched, None, &mut scratch);
            c.step_into(&mut b, &power, dt, &mut scratch);
            assert_eq!(a.temps(), b.temps(), "dt={dt}");
        }
    }

    #[test]
    fn scratch_is_reused_across_model_sizes() {
        let small = model(2, 2);
        let big = model(6, 6);
        let mut scratch = StepScratch::new();
        let mut s_small = small.ambient_state();
        let mut s_big = big.ambient_state();
        small
            .compile()
            .step_into(&mut s_small, &hot_power(4), 1e-4, &mut scratch);
        big.compile()
            .step_into(&mut s_big, &hot_power(36), 1e-4, &mut scratch);
        let mut naive = big.ambient_state();
        big.step(&mut naive, &hot_power(36), 1e-4);
        assert_eq!(s_big.temps(), naive.temps());
    }

    #[test]
    fn zero_dt_is_a_no_op() {
        let m = model(3, 3);
        let c = m.compile();
        let mut s = c.ambient_state();
        let before = s.clone();
        c.step_into(&mut s, &hot_power(9), 0.0, &mut StepScratch::new());
        assert_eq!(s.temps(), before.temps());
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn power_size_mismatch_panics() {
        let m = model(3, 3);
        let c = m.compile();
        let mut s = c.ambient_state();
        c.step_into(&mut s, &[0.0; 4], 1e-4, &mut StepScratch::new());
    }
}
