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
//! * the coefficients (`g_vert`, `g_lat`, their lane splats) and the
//!   sub-step limit are precomputed;
//! * on the rectangular grids every [`Floorplan`](crate::Floorplan)
//!   describes, the **grid-stencil kernel** needs no adjacency table:
//!   neighbours are `i ± 1` and `i ± cols`, and the interior/boundary
//!   loops are split so the interior loop is branch-free and runs in
//!   explicit 8-wide lanes (one whole-grid pass for 8-wide grids);
//! * transient stepping is allocation-free: the caller owns a
//!   [`StepScratch`] whose buffer is recycled by pointer swap.
//!
//! Windows and steady states do not step at all: they go through the
//! exact [`ModalSolver`](crate::ModalSolver) of
//! [`ThermalModel::modal`].
//!
//! # Bit-identity contract
//!
//! The kernel preserves the *exact floating-point operation order* of
//! the naive [`ThermalModel::step`]: neighbour contributions accumulate
//! in the same N/S/W/E order `neighbors` yields, and derived quantities
//! (`1/R`, the stability limit) are computed by the same expressions.
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

use crate::lanes::{LANES, W8};
use crate::rc::ThermalModel;
use crate::state::ThermalState;

/// Numeric contract a solve runs under.
///
/// The default, [`SolverMode::Exact`], preserves the naive solvers'
/// floating-point operation order bit for bit — the contract every
/// fingerprint, golden report, and cache key in the workspace is built
/// on (see `docs/DETERMINISM.md`).
///
/// [`SolverMode::Fast`] is the opt-in reassociation-permitting variant:
/// it precomputes `h / cap`, turning the per-cell `h·flow/cap` divide
/// into a multiply. Results stay deterministic for a fixed build/machine
/// but are **not** bit-identical to `Exact`; the divergence is bounded
/// (asserted at ≤ 1e-9 K per transient step sequence in this crate's
/// tests) and golden gates refuse it unless explicitly requested.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum SolverMode {
    /// Bit-exact kernels — the fingerprint-stable default.
    #[default]
    Exact,
    /// Reassociation-permitting kernels with a bounded-divergence
    /// contract. Never used unless explicitly configured.
    Fast,
}

impl SolverMode {
    /// The spec/JSON spelling (`"exact"` / `"fast"`).
    pub fn as_str(self) -> &'static str {
        match self {
            SolverMode::Exact => "exact",
            SolverMode::Fast => "fast",
        }
    }

    /// Parses the spec/JSON spelling accepted by scenario files.
    pub fn parse(s: &str) -> Option<SolverMode> {
        match s {
            "exact" => Some(SolverMode::Exact),
            "fast" => Some(SolverMode::Fast),
            _ => None,
        }
    }
}

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
/// their lane splats, and the stencil-specialized kernel. Build once
/// (cheap, O(1) memory), share behind an `Arc`, reuse for every step —
/// see the [module docs](self).
#[derive(Clone, Debug)]
pub struct CompiledModel {
    rows: usize,
    cols: usize,
    n: usize,
    g_vert: f64,
    g_lat: f64,
    cap: f64,
    ambient: f64,
    max_stable_dt: f64,
    /// Model-constant lane splats, broadcast once at compile time so
    /// per-step [`LaneCtx`] construction only splats the step- and
    /// leakage-dependent values.
    lanes: ModelLanes,
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
        CompiledModel {
            rows: fp.rows(),
            cols: fp.cols(),
            n: fp.num_cells(),
            g_vert,
            g_lat,
            cap: params.cell_capacitance,
            ambient: params.ambient,
            max_stable_dt: model.max_stable_dt(),
            lanes: ModelLanes::new(g_vert, g_lat, params.ambient, params.cell_capacitance),
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
        self.step_scheduled_into(state, power, &self.schedule(dt), scratch);
    }

    /// [`step_into`](CompiledModel::step_into) under a precomputed
    /// [`StepSchedule`] — skips the per-call sub-step derivation.
    #[inline]
    pub fn step_scheduled_into(
        &self,
        state: &mut ThermalState,
        power: &[f64],
        sched: &StepSchedule,
        scratch: &mut StepScratch,
    ) {
        assert_eq!(power.len(), self.n, "power vector size mismatch");
        assert_eq!(state.len(), self.n, "state size mismatch");
        debug_assert!(power.iter().all(|&p| p >= 0.0), "negative power");
        if sched.n_sub == 0 {
            return;
        }
        scratch.ensure(self.n);
        self.run_substeps::<false>(
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
        self.step_sparse_mode_into(state, deposits, sched, leak, SolverMode::Exact, scratch);
    }

    /// [`step_sparse_into`](CompiledModel::step_sparse_into) under an
    /// explicit [`SolverMode`]. `Exact` is bit-identical to the naive
    /// solvers; `Fast` obeys the bounded-divergence contract on
    /// [`SolverMode`].
    ///
    /// # Examples
    ///
    /// ```
    /// use tadfa_thermal::{Floorplan, RcParams, SolverMode, StepScratch, ThermalModel};
    ///
    /// let model = ThermalModel::new(Floorplan::grid(4, 4), RcParams::default());
    /// let solver = model.compile();
    /// let sched = solver.schedule(1e-4);
    /// let mut scratch = StepScratch::new();
    ///
    /// let mut exact = model.ambient_state();
    /// let mut fast = model.ambient_state();
    /// for _ in 0..100 {
    ///     solver.step_sparse_mode_into(
    ///         &mut exact, &[(5, 1e-3)], &sched, None, SolverMode::Exact, &mut scratch);
    ///     solver.step_sparse_mode_into(
    ///         &mut fast, &[(5, 1e-3)], &sched, None, SolverMode::Fast, &mut scratch);
    /// }
    /// // Fast reassociates (h·flow/cap → flow·(h/cap)) but stays within
    /// // the documented divergence bound of the exact trajectory.
    /// let diff = exact.linf_distance(&fast);
    /// assert!(diff <= 1e-9, "divergence {diff}");
    /// ```
    ///
    /// # Panics
    ///
    /// As [`step_sparse_into`](CompiledModel::step_sparse_into).
    #[inline]
    pub fn step_sparse_mode_into(
        &self,
        state: &mut ThermalState,
        deposits: &[(u32, f64)],
        sched: &StepSchedule,
        leak: Option<&LeakageParams>,
        mode: SolverMode,
        scratch: &mut StepScratch,
    ) {
        match (leak, mode) {
            (Some(lp), SolverMode::Exact) => {
                self.sparse_impl::<true, false, false>(state, deposits, sched, lp, scratch, &mut [])
            }
            (Some(lp), SolverMode::Fast) => {
                self.sparse_impl::<true, false, true>(state, deposits, sched, lp, scratch, &mut [])
            }
            (None, SolverMode::Exact) => self.sparse_impl::<false, false, false>(
                state,
                deposits,
                sched,
                &NO_LEAK,
                scratch,
                &mut [],
            ),
            (None, SolverMode::Fast) => self.sparse_impl::<false, false, true>(
                state,
                deposits,
                sched,
                &NO_LEAK,
                scratch,
                &mut [],
            ),
        };
    }

    /// [`step_sparse_mode_into`](CompiledModel::step_sparse_mode_into)
    /// with the fixpoint's compare-and-copy **fused into the kernel**:
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
    /// use tadfa_thermal::{Floorplan, RcParams, SolverMode, StepScratch, ThermalModel,
    ///                     ThermalState};
    ///
    /// let model = ThermalModel::new(Floorplan::grid(4, 4), RcParams::default());
    /// let solver = model.compile();
    /// let sched = solver.schedule(1e-4);
    /// let mut scratch = StepScratch::new();
    ///
    /// let mut tracked = model.ambient_state();
    /// let mut prev = vec![solver.ambient(); 16];
    /// let change = solver.step_sparse_tracked_into(
    ///     &mut tracked, &[(5, 1e-3)], &sched, None, SolverMode::Exact,
    ///     &mut scratch, &mut prev);
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
    #[allow(clippy::too_many_arguments)] // the DFA's innermost call: every arg is hot-path state
    #[inline]
    pub fn step_sparse_tracked_into(
        &self,
        state: &mut ThermalState,
        deposits: &[(u32, f64)],
        sched: &StepSchedule,
        leak: Option<&LeakageParams>,
        mode: SolverMode,
        scratch: &mut StepScratch,
        prev: &mut [f64],
    ) -> f64 {
        assert_eq!(prev.len(), self.n, "prev size mismatch");
        match (leak, mode) {
            (Some(lp), SolverMode::Exact) => {
                self.sparse_impl::<true, true, false>(state, deposits, sched, lp, scratch, prev)
            }
            (Some(lp), SolverMode::Fast) => {
                self.sparse_impl::<true, true, true>(state, deposits, sched, lp, scratch, prev)
            }
            (None, SolverMode::Exact) => self
                .sparse_impl::<false, true, false>(state, deposits, sched, &NO_LEAK, scratch, prev),
            (None, SolverMode::Fast) => self
                .sparse_impl::<false, true, true>(state, deposits, sched, &NO_LEAK, scratch, prev),
        }
    }

    /// The one sparse-stepping implementation behind the public
    /// entries, monomorphized over leakage, change tracking, and mode.
    fn sparse_impl<const LEAKY: bool, const TRACK: bool, const FAST: bool>(
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
            let change = self.substep_stencil::<LEAKY, TRACK, FAST>(
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
        self.run_substeps::<FAST>(
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
    fn run_substeps<const FAST: bool>(
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
                    change = self
                        .substep_stencil::<false, true, FAST>(t, power, &NO_LEAK, next, prev, h);
                }
                _ => {
                    self.substep_stencil::<false, false, FAST>(
                        t,
                        power,
                        &NO_LEAK,
                        next,
                        &mut [],
                        h,
                    );
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
    /// grid in explicit 8-wide lanes ([`crate::lanes::W8`]). Rows come
    /// in three bands (first, interior, last), each monomorphized over
    /// its vertical-neighbour pattern by [`CompiledModel::stencil_row`].
    /// Returns the tracked L∞ change (0.0 when `!TRACK`).
    fn substep_stencil<const LEAKY: bool, const TRACK: bool, const FAST: bool>(
        &self,
        t: &[f64],
        power: &[f64],
        leak: &LeakageParams,
        next: &mut [f64],
        prev: &mut [f64],
        h: f64,
    ) -> f64 {
        let ctx = LaneCtx::new(self, leak, h, FAST);
        let rows = self.rows;
        // Exactly-one-chunk rows (the 8-wide register files every
        // shipped floorplan uses) take the specialized whole-grid pass:
        // rolling row registers, no per-row slicing, masked vertical
        // edges — bit-identical by the same masked-conductance argument
        // as the lateral edges.
        if self.cols == LANES {
            return self.stencil_pass_w8::<LEAKY, TRACK, FAST>(t, power, next, prev, &ctx);
        }
        // Lane-wise change accumulators are folded across all rows and
        // reduced to a scalar exactly once — `max` is exactly
        // associative, so deferring the horizontal reduction cannot
        // change the result, and per-row `reduce_max` calls are the
        // single most expensive instruction sequence in the pass.
        let (mut vacc, mut sacc) = (ctx.zero, 0.0f64);
        if rows == 1 {
            let (v, s) = self.stencil_row::<LEAKY, false, false, TRACK, FAST>(
                t, power, leak, next, prev, 0, h, &ctx,
            );
            vacc = v;
            sacc = s;
        } else {
            let (v, s) = self.stencil_row::<LEAKY, false, true, TRACK, FAST>(
                t, power, leak, next, prev, 0, h, &ctx,
            );
            vacc = vacc.max(v);
            sacc = sacc.max(s);
            for r in 1..rows - 1 {
                let (v, s) = self.stencil_row::<LEAKY, true, true, TRACK, FAST>(
                    t, power, leak, next, prev, r, h, &ctx,
                );
                vacc = vacc.max(v);
                sacc = sacc.max(s);
            }
            let (v, s) = self.stencil_row::<LEAKY, true, false, TRACK, FAST>(
                t,
                power,
                leak,
                next,
                prev,
                rows - 1,
                h,
                &ctx,
            );
            vacc = vacc.max(v);
            sacc = sacc.max(s);
        }
        if TRACK {
            vacc.reduce_max().max(sacc)
        } else {
            0.0
        }
    }

    /// The whole-grid fused pass for grids exactly one chunk wide
    /// (`cols == LANES`) — the shipped 8-wide register files, hence the
    /// hottest loop in the repository.
    ///
    /// Compared with the generic per-row path it removes every per-row
    /// cost: function-call and slicing overhead, bounds-checked lane
    /// loads, and re-loading the three neighbour rows (the current row
    /// becomes the next row's `up` register, the prefetched row below
    /// becomes the next `ti`). The vertical edges use the same
    /// masked-conductance trick as the lateral ones: the first/last row
    /// reads *itself* as its missing neighbour against a conductance of
    /// `0.0`, so the masked term is exactly `(ti − ti)·0.0 = +0.0` and
    /// subtracting it reproduces the unmasked flow bit for bit.
    ///
    /// Returns the tracked L∞ change (0.0 when `!TRACK`); `prev`'s
    /// compare-and-overwrite semantics match
    /// [`stencil_row`](Self::stencil_row).
    #[inline(always)]
    fn stencil_pass_w8<const LEAKY: bool, const TRACK: bool, const FAST: bool>(
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
                let out_v = if FAST {
                    ti.add(flow.mul(ctx.step)) // step = h/cap
                } else {
                    ti.add(ctx.step.mul(flow).div(ctx.cap)) // step = h
                };
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

    /// One row of the fused stencil sub-step, monomorphized over whether
    /// the row above (`UP`) / below (`DOWN`) exists.
    ///
    /// Full 8-lane chunks run through [`W8`]; the missing left/right
    /// neighbour at a row edge is handled by the *masked-conductance*
    /// trick — the edge lane reads the cell itself as its neighbour and
    /// multiplies by a conductance lane of `0.0`, so the masked term is
    /// exactly `(ti − ti)·0.0 = +0.0` and `flow − (+0.0)` reproduces
    /// `flow` bit for bit (only a `−0.0 − (−0.0)` difference could
    /// perturb bits, and self-as-neighbour rules it out). The `cols %
    /// 8` tail — and every row of grids narrower than 8 — runs the
    /// scalar cell loop with the same fold order. Per-lane operation
    /// order matches the naive solver exactly: leakage
    /// `(pc·(1+co·(T−Tr))).max(0)`, then `flow = pw − (T−amb)·g_vert`,
    /// then the up/down/left/right conductance terms in
    /// `Floorplan::neighbors` order, then `T + h·flow/cap`
    /// (`T + flow·(h/cap)` under `FAST`).
    ///
    /// Returns this row's tracked change as a `(lane, scalar-tail)`
    /// accumulator pair — the caller folds rows lane-wise and performs
    /// the horizontal reduction once per sub-step (both zero when
    /// `!TRACK`). When `TRACK`, the row of `prev` is overwritten with
    /// the new temperatures (lane `max` folds are exactly associative,
    /// so the split accumulators cannot change the result).
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn stencil_row<
        const LEAKY: bool,
        const UP: bool,
        const DOWN: bool,
        const TRACK: bool,
        const FAST: bool,
    >(
        &self,
        t: &[f64],
        power: &[f64],
        leak: &LeakageParams,
        next: &mut [f64],
        prev: &mut [f64],
        r: usize,
        h: f64,
        ctx: &LaneCtx,
    ) -> (W8, f64) {
        let cols = self.cols;
        let (g_vert, g_lat, amb, cap) = (self.g_vert, self.g_lat, self.ambient, self.cap);
        let base = r * cols;
        let row = &t[base..base + cols];
        // Never read when the corresponding neighbour row is absent
        // (`UP` / `DOWN` are compile-time constants).
        let up_row = if UP { &t[base - cols..base] } else { row };
        let down_row = if DOWN {
            &t[base + cols..base + 2 * cols]
        } else {
            row
        };
        let p = &power[base..base + cols];
        let out = &mut next[base..base + cols];
        let prow: &mut [f64] = if TRACK {
            &mut prev[base..base + cols]
        } else {
            &mut []
        };

        let mut acc = ctx.zero;
        let mut scalar_acc = 0.0f64;
        let mut c0 = 0;
        while c0 + LANES <= cols {
            let ti = W8::read(&row[c0..]);
            let access = W8::read(&p[c0..]);
            let pw = if LEAKY {
                // (pc · (1 + co·(ti − tr))).max(0), scalar op for op.
                let lk = ctx
                    .pc
                    .mul(ctx.one.add(ctx.co.mul(ti.sub(ctx.tr))))
                    .max(ctx.zero);
                access.add(lk)
            } else {
                access
            };
            let mut flow = pw.sub(ti.sub(ctx.amb).mul(ctx.gv));
            if UP {
                flow = flow.sub(ti.sub(W8::read(&up_row[c0..])).mul(ctx.g));
            }
            if DOWN {
                flow = flow.sub(ti.sub(W8::read(&down_row[c0..])).mul(ctx.g));
            }
            let first = c0 == 0;
            let last = c0 + LANES == cols;
            let left = if first {
                ti.shift_head_dup()
            } else {
                W8::read(&row[c0 - 1..])
            };
            let gl = if first { ctx.gl_first } else { ctx.g };
            flow = flow.sub(ti.sub(left).mul(gl));
            let right = if last {
                ti.shift_tail_dup()
            } else {
                W8::read(&row[c0 + 1..])
            };
            let gr = if last { ctx.gr_last } else { ctx.g };
            flow = flow.sub(ti.sub(right).mul(gr));
            let out_v = if FAST {
                ti.add(flow.mul(ctx.step)) // step = h/cap
            } else {
                ti.add(ctx.step.mul(flow).div(ctx.cap)) // step = h
            };
            out_v.write(&mut out[c0..]);
            if TRACK {
                let pv = W8::read(&prow[c0..]);
                acc = acc.max(out_v.sub(pv).abs());
                out_v.write(&mut prow[c0..]);
            }
            c0 += LANES;
        }
        // Scalar tail (and whole rows of grids narrower than 8 lanes):
        // identical fold order, edge neighbours simply skipped.
        for c in c0..cols {
            let ti = row[c];
            let access = p[c];
            let pw = if LEAKY {
                access + leak_at(leak, ti)
            } else {
                access
            };
            let mut flow = pw - (ti - amb) * g_vert;
            if UP {
                flow -= (ti - up_row[c]) * g_lat;
            }
            if DOWN {
                flow -= (ti - down_row[c]) * g_lat;
            }
            if c > 0 {
                flow -= (ti - row[c - 1]) * g_lat;
            }
            if c + 1 < cols {
                flow -= (ti - row[c + 1]) * g_lat;
            }
            let nv = if FAST {
                ti + flow * ctx.hcap
            } else {
                ti + h * flow / cap
            };
            out[c] = nv;
            if TRACK {
                scalar_acc = scalar_acc.max((nv - prow[c]).abs());
                prow[c] = nv;
            }
        }
        (acc, scalar_acc)
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
    /// `h` under Exact (the update is `h·flow/cap`), `h/cap` under
    /// Fast (the update is `flow·(h/cap)`).
    step: W8,
    /// `cap` splat (read only by the Exact update).
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
    /// Scalar `h/cap` for the fast-mode tail cells.
    hcap: f64,
}

impl LaneCtx {
    #[inline]
    fn new(m: &CompiledModel, leak: &LeakageParams, h: f64, fast: bool) -> LaneCtx {
        let l = &m.lanes;
        // The scalar divide (and its lane broadcast) is paid only by
        // the reassociation-permitting fast mode; the exact update
        // divides by `cap` inside the kernel instead.
        let hcap = if fast { h / m.cap } else { h };
        LaneCtx {
            gv: l.gv,
            g: l.g,
            gl_first: l.gl_first,
            gr_last: l.gr_last,
            amb: l.amb,
            step: W8::splat(if fast { hcap } else { h }),
            cap: l.cap,
            pc: W8::splat(leak.per_cell),
            co: W8::splat(leak.temp_coeff),
            tr: W8::splat(leak.reference_temp),
            one: l.one,
            zero: l.zero,
            hcap,
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

        // Scheduled and unscheduled stepping agree bit for bit.
        let power = hot_power(16);
        for dt in [1e-6, 4e-4, 2e-3] {
            let sched = c.schedule(dt);
            let mut a = c.ambient_state();
            let mut b = c.ambient_state();
            let mut scratch = StepScratch::new();
            c.step_scheduled_into(&mut a, &power, &sched, &mut scratch);
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
