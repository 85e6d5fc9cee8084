//! The thermal data flow analysis — a faithful implementation of the
//! paper's Fig. 2 pseudocode:
//!
//! ```text
//! Do
//!   Boolean: stop ← True
//!   For each basic block B
//!     For each instruction I ∈ B, taken in forward order
//!       Estimate thermal state after I
//!       If the change in I's thermal state exceeds δ
//!         stop ← False
//!       EndIf
//!     EndFor
//!   EndFor
//! While( stop = False )
//! Output the thermal state of each instruction
//! ```
//!
//! The per-instruction estimate advances the RC model by the
//! instruction's (scaled) duration under the power its register accesses
//! deposit; block entries merge predecessor exit states under the
//! configured [`MergeRule`](crate::MergeRule).
//!
//! One sweep walks the blocks in reverse postorder, generic over how a
//! step is taken: the compiled [`StepPlan`] in production, a naive
//! oracle in [`ThermalDfa::run_reference`]. The production sweep skips a
//! block whose merged entry is bit-identical to the entry of its last
//! walk; that walk would rewrite the same states and add exactly 0.0 to
//! the residual, so the skip moves no bit.
//!
//! The production sweep also defers the *acyclic tail*, the blocks that
//! cannot reach the target of a retreating edge ([`TailPlan`]). No loop
//! reads a tail state, so the sweep walks the other blocks first and
//! measures their largest change, `rest`. While `rest` exceeds δ the
//! sweep cannot stop; if a guard also shows that the tail cannot change
//! by more than `rest`, and the sweep is neither the first nor the last
//! allowed one, it records `rest`, keeps a copy of the exits the tail
//! merges, and ends. The next sweep that walks the tail first replays
//! it from that copy, then from its own exits, so every state, the
//! residual history and the stopping sweep are those of a full walk
//! (`docs/DETERMINISM.md`, "Deferring the tail"). The oracle never
//! defers.

use crate::cache::SolveCache;
use crate::codec::{ByteReader, ByteWriter, CodecError};
use crate::config::{Convergence, MergeRule, ThermalDfaConfig};
use crate::error::TadfaError;
use crate::grid::AnalysisGrid;
use crate::summary::{deposit_watts, SummaryStep, ThermalSummary};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use tadfa_ir::{BlockId, Cfg, Function, Inst, InstId, Opcode, Terminator, VReg};
use tadfa_regalloc::Assignment;
use tadfa_thermal::{LeakageParams, PowerModel, RcParams, StepSchedule, StepScratch, ThermalState};

/// Reusable buffers for one worker's fixpoint runs.
///
/// The inner loop of the DFA steps the RC solver once per instruction;
/// a fresh allocation per step is measurable on large batches. Holding
/// a [`DfaScratch`] per worker (the engine does) or per session reuses
/// the compiled solver's [`StepScratch`] across every instruction of
/// every function. It also counts the sweeps' [`BlockVisits`].
#[derive(Debug, Default)]
pub struct DfaScratch {
    /// Transient-solver scratch for the compiled kernels.
    step: StepScratch,
    /// Block visits of every sweep run through this scratch.
    visits: BlockVisits,
}

impl DfaScratch {
    /// The block visits of every fixpoint run through this scratch so
    /// far (a cache hit runs none).
    pub fn visits(&self) -> BlockVisits {
        self.visits
    }
}

/// A deterministic work counter of the fixpoint sweeps: block visits,
/// each weighted by the block's instruction count plus 1 if it has a
/// terminator. It is kept out of every fingerprint, codec and report.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct BlockVisits {
    /// Weight of the visits that walked their block, the catch-up walks
    /// of a deferred tail included.
    pub walked: u64,
    /// Weight of the visits skipped because the block's merged entry
    /// was bit-identical to the entry of its last walk.
    pub skipped: u64,
    /// Weight of the tail blocks left unwalked by sweeps that deferred
    /// the tail.
    pub deferred: u64,
}

/// The iteration-invariant half of the fixpoint's inner loop, resolved
/// once per analysis instead of once per instruction per sweep: every
/// instruction's (analysis point, watts) deposits — energies already
/// divided by the natural duration — its step duration, and the
/// leakage coefficients in kernel form. It is the production
/// [`Stepper`].
#[derive(Debug)]
struct StepPlan {
    /// Per-instruction (arena-slot-indexed) deposit span + schedule.
    inst: Vec<PlanSpan>,
    /// Per-block-terminator deposit span + schedule.
    term: Vec<PlanSpan>,
    /// Flattened `(point, watts)` deposits, in program order; each
    /// instruction's span lists a point at most once (repeats
    /// pre-summed), as the sparse solver path requires.
    deposits: Vec<(u32, f64)>,
    leak: LeakageParams,
    /// The acyclic tail and its deferral guard.
    tail: TailPlan,
}

/// One instruction's slice of the [`StepPlan`].
#[derive(Copy, Clone, Debug)]
struct PlanSpan {
    start: u32,
    end: u32,
    sched: StepSchedule,
}

impl StepPlan {
    fn span(&self, site: Site) -> (&[(u32, f64)], &StepSchedule) {
        let span = match site {
            Site::Inst(id) => &self.inst[id.index()],
            Site::Term(bb) => &self.term[bb.index()],
        };
        (
            &self.deposits[span.start as usize..span.end as usize],
            &span.sched,
        )
    }
}

/// The acyclic tail of a function, and what a sweep needs to defer it.
///
/// A block is in the tail when it cannot reach the target of a
/// retreating edge, an edge `u → v` with `rpo(v) ≤ rpo(u)`. Every cycle
/// contains a retreating edge, so the rule is sound on any CFG,
/// irreducible ones included. Every predecessor of a tail block comes
/// before it in reverse postorder, and no other block reads a tail exit,
/// so on each sweep the tail's states are a function of the frontier
/// exits of that sweep.
#[derive(Debug, Default)]
struct TailPlan {
    /// The reachable blocks outside the tail, in reverse postorder.
    body: Vec<BlockId>,
    /// The tail, in reverse postorder.
    blocks: Vec<BlockId>,
    /// The body blocks with a tail successor: the exits the tail merges.
    frontier: Vec<BlockId>,
    /// Summed visit weight of the tail's blocks.
    weight: u64,
    /// The guard's ε_min and rounding bound (see [`defer_guard`]).
    shrink: f64,
    rounding: f64,
}

impl TailPlan {
    /// Whether a sweep whose body changed by `rest` may leave the tail
    /// unwalked: then no tail state can change by more than `rest`, and
    /// the sweep records what a full walk would.
    #[inline]
    fn may_defer(&self, rest: f64) -> bool {
        rest * self.shrink > self.rounding
    }
}

/// Marks, per block, whether it is in the acyclic tail (see
/// [`TailPlan`]): one backward pass from the targets of the retreating
/// edges finds every reachable block that can reach one; the other
/// reachable blocks are the tail.
fn tail_blocks(cfg: &Cfg, num_blocks: usize) -> Vec<bool> {
    let mut reaches_loop = vec![false; num_blocks];
    let mut stack = Vec::new();
    for (ru, &u) in cfg.rpo().iter().enumerate() {
        for &v in cfg.succs(u) {
            let retreating = cfg.rpo_index(v).is_some_and(|rv| rv <= ru);
            if retreating && !reaches_loop[v.index()] {
                reaches_loop[v.index()] = true;
                stack.push(v);
            }
        }
    }
    while let Some(b) = stack.pop() {
        for &p in cfg.preds(b) {
            if cfg.is_reachable(p) && !reaches_loop[p.index()] {
                reaches_loop[p.index()] = true;
                stack.push(p);
            }
        }
    }
    (0..num_blocks)
        .map(|i| cfg.is_reachable(BlockId::new(i as u32)) && !reaches_loop[i])
        .collect()
}

/// How far rounding may carry a state outside the exact box
/// `[ambient, ambient + θ*]`, K; a guard whose floor exceeds it is off.
const BOX_MARGIN: f64 = 1.0;

/// The unit roundoff of `f64`, 2⁻⁵³.
const UNIT_ROUNDOFF: f64 = f64::EPSILON / 2.0;

/// The `(ε_min, E)` of a guard that never defers.
const GUARD_OFF: (f64, f64) = (0.0, f64::INFINITY);

/// The deferral guard `(ε_min, E)` of a run with the given RC
/// parameters, active leakage models, steps (each schedule with the
/// step's deposit watts) and largest merge fan-in of a tail block under
/// the Average merge (0 under Max, which rounds nothing). A sweep may
/// defer while `rest · ε_min > E`; [`GUARD_OFF`] never defers.
///
/// ε_min is the smallest shrink of L∞ state differences over the steps,
/// bounded below by `na/(1 + na) − n·h·leak′/C` for `n` sub-steps of
/// `h` and `a = h·g_v/C`, less 4u for the merge weights and the
/// recorded changes. E bounds what rounding adds to a difference across
/// one merge and one step, with every temperature inside
/// `ambient + [−1, θ* + 1]` K, `θ*` being the exact steady bound
/// `(P_max + leak(ambient)) / (g_v − leak′)`. `docs/DETERMINISM.md`
/// ("Deferring the tail") derives both.
fn defer_guard(
    params: &RcParams,
    leaks: &[LeakageParams],
    steps: impl Iterator<Item = (StepSchedule, f64)>,
    fan_in: usize,
) -> (f64, f64) {
    // Every evaluated term is widened by far more than the few ulps
    // its evaluation can be off.
    let up = |x: f64| x * (1.0 + 1.0 / (1u64 << 40) as f64);
    let down = |x: f64| x * (1.0 - 1.0 / (1u64 << 40) as f64);
    let u = UNIT_ROUNDOFF;
    let g_v = 1.0 / params.vertical_resistance;
    let g_lat4 = 4.0 / params.lateral_resistance;
    let (cap, amb) = (params.cell_capacitance, params.ambient);
    let slope = up(leaks
        .iter()
        .map(|l| (l.per_cell * l.temp_coeff).abs())
        .fold(0.0, f64::max));
    let leak_at_amb = up(leaks
        .iter()
        .map(|l| (l.per_cell * (1.0 + l.temp_coeff * (amb - l.reference_temp))).max(0.0))
        .fold(0.0, f64::max));
    let (mut n_max, mut nh_max, mut h_max, mut watts_max) = (0u32, 0.0f64, 0.0f64, 0.0f64);
    let mut shrink = f64::INFINITY;
    for (sched, watts) in steps {
        let (n, h) = (f64::from(sched.n_sub()), sched.sub_step());
        // 1 − (1 − a)^n ≥ 1 − e^(−na) ≥ na / (1 + na), in basic
        // operations only, so every platform takes the same decisions.
        let na = n * h * g_v / cap;
        let step_shrink = down(na / (1.0 + na)) - up(n * h * slope / cap);
        // A step that does not shrink differences (leak′ ≥ g_v, or a
        // zero-length step) turns deferral off.
        if !(step_shrink > 0.0 && watts >= 0.0) {
            return GUARD_OFF;
        }
        shrink = shrink.min(step_shrink);
        n_max = n_max.max(sched.n_sub());
        nh_max = nh_max.max(n * h);
        h_max = h_max.max(h);
        watts_max = watts_max.max(watts);
    }
    // Explicit Euler keeps every weight of a sub-step non-negative only
    // while `h·(g_v + 4·g_lat) ≤ C`; the schedules keep it at half that.
    if !(g_v > slope && up(h_max * (g_v + g_lat4) / cap) <= 1.0) {
        return GUARD_OFF;
    }
    let theta = up((watts_max + leak_at_amb) / (g_v - slope));
    let spread = theta + 2.0 * BOX_MARGIN;
    let t_abs = amb.abs() + spread;
    let leak_max = leaks
        .iter()
        .map(|l| {
            l.per_cell.abs()
                * (1.0 + l.temp_coeff.abs() * (spread + (amb - l.reference_temp).abs()))
        })
        .fold(0.0, f64::max);
    let flow = watts_max + leak_max + (g_v + g_lat4) * spread;
    let step = 2.0 * (f64::from(n_max) * u * t_abs + 16.0 * u * (nh_max / cap) * flow);
    let merge = if fan_in > 1 {
        6.0 * fan_in as f64 * u * t_abs
    } else {
        0.0
    };
    let shrink = shrink - 4.0 * u;
    let rounding = up(step + merge);
    if !(shrink > 0.0 && rounding / shrink <= BOX_MARGIN) {
        return GUARD_OFF;
    }
    (shrink, rounding)
}

/// A block's visit weight: its instruction count, plus 1 for a
/// terminator.
fn visit_weight(func: &Function, bb: BlockId) -> u64 {
    func.block(bb).insts().len() as u64 + u64::from(func.terminator(bb).is_some())
}

/// What one step of a sweep crosses: an instruction or the terminator
/// of a block.
#[derive(Copy, Clone)]
enum Site {
    Inst(InstId),
    Term(BlockId),
}

/// How the one fixpoint [`sweep`](ThermalDfa::sweep) advances a state
/// across a [`Site`].
trait Stepper {
    /// Whether the sweep skips a block whose merged entry is
    /// bit-identical to the entry of its last walk.
    const SKIPS_CLEAN_BLOCKS: bool;

    /// Advances `state` across `site`. With `prev`, returns the L∞
    /// change of `state` against it and overwrites it with the new
    /// state; without, returns 0.0.
    fn advance(
        &mut self,
        dfa: &ThermalDfa<'_>,
        site: Site,
        state: &mut ThermalState,
        step: &mut StepScratch,
        prev: Option<&mut [f64]>,
    ) -> f64;
}

/// The production stepper: sparse deposits through the compiled
/// stencil kernel, allocation-free and O(accesses) outside the solver,
/// with the change tracking fused into the kernel's store loop.
impl Stepper for &StepPlan {
    const SKIPS_CLEAN_BLOCKS: bool = true;

    #[inline]
    fn advance(
        &mut self,
        dfa: &ThermalDfa<'_>,
        site: Site,
        state: &mut ThermalState,
        step: &mut StepScratch,
        prev: Option<&mut [f64]>,
    ) -> f64 {
        let (deposits, sched) = self.span(site);
        let leak = dfa.config.leakage_feedback.then_some(&self.leak);
        let solver = dfa.grid.compiled();
        match prev {
            Some(prev) => solver.step_sparse_tracked_into(state, deposits, sched, leak, step, prev),
            None => {
                solver.step_sparse_into(state, deposits, sched, leak, step);
                0.0
            }
        }
    }
}

/// The readable oracle: every step re-derives its dense power from the
/// IR through [`ThermalDfa::fill_access_energies`] and
/// [`PowerModel::add_leakage`], then takes the naive, allocating
/// [`ThermalModel::step`](tadfa_thermal::ThermalModel::step), reading
/// nothing from the [`StepPlan`]. It never skips a block, so the
/// identity tests compare a skipping sweep against a full one.
#[derive(Default)]
struct Naive {
    accesses: Vec<(usize, f64)>,
    power: Vec<f64>,
}

impl Stepper for Naive {
    const SKIPS_CLEAN_BLOCKS: bool = false;

    fn advance(
        &mut self,
        dfa: &ThermalDfa<'_>,
        site: Site,
        state: &mut ThermalState,
        _step: &mut StepScratch,
        prev: Option<&mut [f64]>,
    ) -> f64 {
        let latency = match site {
            Site::Inst(id) => {
                let inst = dfa.func.inst(id);
                dfa.fill_access_energies(inst, &mut self.accesses);
                inst.op.latency()
            }
            Site::Term(bb) => {
                let t = dfa.func.terminator(bb).expect("a terminator site");
                dfa.fill_term_energies(t, &mut self.accesses);
                t.latency()
            }
        };
        let natural = latency as f64 * dfa.config.seconds_per_cycle;
        self.power.clear();
        self.power.resize(dfa.grid.num_points(), 0.0);
        for &(p, e) in &self.accesses {
            self.power[p] += e / natural;
        }
        if dfa.config.leakage_feedback {
            dfa.power_model.add_leakage(&mut self.power, state);
        }
        let dt = dfa.config.step_duration(latency);
        dfa.grid.model().step(state, &self.power, dt);
        prev.map_or(0.0, |prev| {
            ThermalState::linf_update_slices(prev, state.temps())
        })
    }
}

/// What one sweep hands the next: the walker (merges write into it, so
/// no sweep after the first allocates), the result slots, and the
/// frontier exits of the last sweep that deferred the tail.
struct SweepState {
    initial: ThermalState,
    walker: ThermalState,
    after: AfterMatrix,
    entry: Vec<Option<ThermalState>>,
    exit: Vec<Option<ThermalState>>,
    frontier: Vec<ThermalState>,
}

impl SweepState {
    /// Copies the exits of `blocks` into the frontier slots.
    fn save_frontier(&mut self, blocks: &[BlockId]) {
        let exit = |bb: &BlockId| {
            self.exit[bb.index()]
                .as_ref()
                .expect("a walked frontier block")
        };
        if self.frontier.len() == blocks.len() {
            for (copy, bb) in self.frontier.iter_mut().zip(blocks) {
                copy.clone_from(exit(bb));
            }
        } else {
            self.frontier = blocks.iter().map(|bb| exit(bb).clone()).collect();
        }
    }

    /// Swaps the exits of `blocks` with the frontier slots, so that a
    /// walk of the tail merges the saved exits.
    fn swap_frontier(&mut self, blocks: &[BlockId]) {
        for (copy, bb) in self.frontier.iter_mut().zip(blocks) {
            let exit = self.exit[bb.index()]
                .as_mut()
                .expect("a walked frontier block");
            std::mem::swap(copy, exit);
        }
    }
}

/// The per-instruction state store: one flat `arena_len × n` matrix
/// instead of one heap allocation per instruction, so consecutive
/// visits walk contiguous memory.
struct AfterMatrix {
    data: Vec<f64>,
    init: Vec<bool>,
    n: usize,
}

impl AfterMatrix {
    /// One instruction's row plus whether it held a previous state,
    /// marking it visited. On `false` the row contents are garbage and
    /// the caller must overwrite them (first sweep); on `true` the row
    /// is the previous walk's state and can feed the solver's fused
    /// change tracking directly.
    #[inline]
    fn visit_row(&mut self, idx: usize) -> (&mut [f64], bool) {
        let was_init = self.init[idx];
        self.init[idx] = true;
        (&mut self.data[idx * self.n..(idx + 1) * self.n], was_init)
    }
}

/// Copies `new` into `stored` and says whether any bit changed: the
/// store of a block's entry and the sweep's skip test in one pass.
#[inline]
fn store_changed(stored: &mut [f64], new: &[f64]) -> bool {
    debug_assert_eq!(stored.len(), new.len(), "state size mismatch");
    let mut changed = false;
    for (s, &t) in stored.iter_mut().zip(new) {
        changed |= s.to_bits() != t.to_bits();
        *s = t;
    }
    changed
}

/// The thermal DFA over one function.
///
/// Requires a completed register [`Assignment`] ("the proposed thermal
/// analysis makes the most sense if applied after register assignment, as
/// the precise registers accessed by each instruction are known", §4).
/// The pre-assignment predictive variant lives in
/// [`crate::PredictiveDfa`].
///
/// # Examples
///
/// ```
/// use tadfa_ir::FunctionBuilder;
/// use tadfa_regalloc::{allocate_linear_scan, FirstFree, RegAllocConfig};
/// use tadfa_thermal::{Floorplan, PowerModel, RcParams, RegisterFile};
/// use tadfa_core::{AnalysisGrid, ThermalDfa, ThermalDfaConfig};
///
/// let mut b = FunctionBuilder::new("f");
/// let x = b.param();
/// let y = b.add(x, x);
/// let z = b.mul(y, y);
/// b.ret(Some(z));
/// let mut f = b.finish();
///
/// let rf = RegisterFile::new(Floorplan::grid(4, 4));
/// let alloc = allocate_linear_scan(
///     &mut f, &rf, &mut FirstFree, &RegAllocConfig::default()).unwrap();
/// let grid = AnalysisGrid::full(&rf, RcParams::default());
///
/// let dfa = ThermalDfa::new(&f, &alloc.assignment, &grid,
///                           PowerModel::default(), ThermalDfaConfig::default())?;
/// let result = dfa.run();
/// assert!(result.convergence.is_converged());
/// assert!(result.peak_temperature() > grid.model().ambient());
/// # Ok::<(), tadfa_core::TadfaError>(())
/// ```
#[derive(Debug)]
pub struct ThermalDfa<'a> {
    /// The allocated function and its assignment, borrowed or owned.
    func: Cow<'a, Function>,
    assignment: Cow<'a, Assignment>,
    grid: &'a AnalysisGrid,
    power_model: PowerModel,
    config: ThermalDfaConfig,
    /// Per-call-site callee summary, indexed by arena slot; empty for
    /// call-free functions (the intraprocedural common case).
    call_summaries: Vec<Option<Arc<ThermalSummary>>>,
    cfg: Cfg,
    /// Built on first need, then shared by the summary and every run.
    signature: OnceLock<u128>,
    plan: OnceLock<StepPlan>,
}

impl<'a> ThermalDfa<'a> {
    /// Creates the analysis.
    ///
    /// # Errors
    ///
    /// Returns [`TadfaError::InvalidConfig`] if `config` fails
    /// validation, and [`TadfaError::CallsRequireModule`] if `func`
    /// contains `call` instructions — those need callee summaries,
    /// which only [`ThermalDfa::with_summaries`] (via the module-level
    /// entry points) supplies.
    pub fn new(
        func: &'a Function,
        assignment: &'a Assignment,
        grid: &'a AnalysisGrid,
        power_model: PowerModel,
        config: ThermalDfaConfig,
    ) -> Result<ThermalDfa<'a>, TadfaError> {
        let (func, assignment) = (Cow::Borrowed(func), Cow::Borrowed(assignment));
        ThermalDfa::build(func, assignment, grid, power_model, config, None)
    }

    /// Creates the call-aware analysis: every `call` in `func` is
    /// resolved to its callee's [`ThermalSummary`], which the fixpoint
    /// replays at the call site instead of stepping through the callee
    /// body.
    ///
    /// # Errors
    ///
    /// Returns [`TadfaError::InvalidConfig`] if `config` fails
    /// validation, [`TadfaError::MissingSummary`] if a callee has no
    /// summary in `summaries` (the module entry points summarise in
    /// bottom-up call-graph order, so this indicates misuse), and
    /// [`TadfaError::StateSizeMismatch`] if a summary was computed on a
    /// grid of a different size.
    pub fn with_summaries(
        func: &'a Function,
        assignment: &'a Assignment,
        grid: &'a AnalysisGrid,
        power_model: PowerModel,
        config: ThermalDfaConfig,
        summaries: &HashMap<String, Arc<ThermalSummary>>,
    ) -> Result<ThermalDfa<'a>, TadfaError> {
        let (func, assignment) = (Cow::Borrowed(func), Cow::Borrowed(assignment));
        ThermalDfa::build(func, assignment, grid, power_model, config, Some(summaries))
    }

    /// [`with_summaries`](Self::with_summaries), or [`new`](Self::new)
    /// without `summaries`, over a function and assignment it may own.
    pub(crate) fn build(
        func: Cow<'a, Function>,
        assignment: Cow<'a, Assignment>,
        grid: &'a AnalysisGrid,
        power_model: PowerModel,
        config: ThermalDfaConfig,
        summaries: Option<&HashMap<String, Arc<ThermalSummary>>>,
    ) -> Result<ThermalDfa<'a>, TadfaError> {
        config.validate()?;
        let mut call_summaries: Vec<Option<Arc<ThermalSummary>>> = Vec::new();
        for (_bb, id) in func.inst_ids_in_layout_order() {
            let inst = func.inst(id);
            if inst.op != Opcode::Call {
                continue;
            }
            let callee = inst.callee_name().unwrap_or("?");
            let Some(summaries) = summaries else {
                return Err(TadfaError::CallsRequireModule {
                    function: func.name().to_string(),
                    callee: callee.to_string(),
                });
            };
            let sum = summaries
                .get(callee)
                .ok_or_else(|| TadfaError::MissingSummary {
                    function: func.name().to_string(),
                    callee: callee.to_string(),
                })?;
            if sum.num_points() != grid.num_points() {
                return Err(TadfaError::StateSizeMismatch {
                    expected: grid.num_points(),
                    got: sum.num_points(),
                });
            }
            if call_summaries.is_empty() {
                call_summaries.resize(func.arena_len(), None);
            }
            call_summaries[id.index()] = Some(Arc::clone(sum));
        }
        Ok(ThermalDfa {
            cfg: Cfg::compute(&func),
            func,
            assignment,
            grid,
            power_model,
            config,
            call_summaries,
            signature: OnceLock::new(),
            plan: OnceLock::new(),
        })
    }

    /// The analysed function and its assignment.
    pub(crate) fn into_parts(self) -> (Function, Assignment) {
        (self.func.into_owned(), self.assignment.into_owned())
    }

    /// The callee summary attached to a call site, if any.
    #[inline]
    fn call_summary(&self, id: InstId) -> Option<&Arc<ThermalSummary>> {
        self.call_summaries.get(id.index()).and_then(Option::as_ref)
    }

    /// The analysis-point/energy pairs an instruction's register accesses
    /// deposit per execution. Registers without an assignment (possible
    /// only mid-allocation) contribute nothing — their value lives in
    /// memory.
    pub fn access_energies(&self, inst: &Inst) -> Vec<(usize, f64)> {
        let mut out = Vec::with_capacity(inst.srcs.len() + 1);
        self.fill_access_energies(inst, &mut out);
        out
    }

    /// [`access_energies`](ThermalDfa::access_energies) into a reused
    /// buffer — the fixpoint's allocation-free path.
    fn fill_access_energies(&self, inst: &Inst, out: &mut Vec<(usize, f64)>) {
        out.clear();
        for &u in inst.uses() {
            if let Some(p) = self.assignment.preg_of(u) {
                out.push((self.grid.point_of(p), self.power_model.read_energy));
            }
        }
        if let Some(d) = inst.def() {
            if let Some(p) = self.assignment.preg_of(d) {
                out.push((self.grid.point_of(p), self.power_model.write_energy));
            }
        }
    }

    fn fill_term_energies(&self, term: &Terminator, out: &mut Vec<(usize, f64)>) {
        out.clear();
        out.extend(
            term.uses()
                .iter()
                .filter_map(|&u: &VReg| self.assignment.preg_of(u))
                .map(|p| (self.grid.point_of(p), self.power_model.read_energy)),
        );
    }

    /// Resolves the iteration-invariant [`StepPlan`] for this analysis:
    /// one pass over the program in control-flow order, after which the
    /// fixpoint's sweeps never re-derive accesses, energies, or
    /// durations; then the [`TailPlan`] and its guard.
    fn build_plan(&self) -> StepPlan {
        let func = &*self.func;
        let empty = PlanSpan {
            start: 0,
            end: 0,
            sched: self.grid.compiled().schedule(0.0),
        };
        let mut plan = StepPlan {
            inst: vec![empty; func.arena_len()],
            term: vec![empty; func.num_blocks()],
            deposits: Vec::new(),
            leak: self.power_model.leakage_params(),
            tail: TailPlan::default(),
        };
        let mut accesses = Vec::new();
        for &bb in self.cfg.rpo() {
            for &id in func.block(bb).insts() {
                let inst = func.inst(id);
                self.fill_access_energies(inst, &mut accesses);
                plan.inst[id.index()] =
                    self.push_deposits(&mut plan.deposits, &accesses, inst.op.latency());
            }
            if let Some(t) = func.terminator(bb) {
                self.fill_term_energies(t, &mut accesses);
                plan.term[bb.index()] =
                    self.push_deposits(&mut plan.deposits, &accesses, t.latency());
            }
        }
        plan.tail = self.build_tail(&plan);
        plan
    }

    /// Splits the blocks into body and tail and derives the deferral
    /// guard over every step a run takes: each reachable instruction and
    /// terminator, and each step of every replayed callee summary.
    fn build_tail(&self, plan: &StepPlan) -> TailPlan {
        let (func, cfg) = (&*self.func, &self.cfg);
        let in_tail = tail_blocks(cfg, func.num_blocks());
        let (blocks, body): (Vec<BlockId>, Vec<BlockId>) =
            cfg.rpo().iter().partition(|bb| in_tail[bb.index()]);
        let frontier = body
            .iter()
            .copied()
            .filter(|&bb| cfg.succs(bb).iter().any(|s| in_tail[s.index()]))
            .collect();
        let weight = blocks.iter().map(|&bb| visit_weight(func, bb)).sum();
        // Only a tail behind a body can be deferred, and the guard needs
        // every counted tail state at least one step past a merge.
        let deferrable = !body.is_empty()
            && !blocks.is_empty()
            && blocks.iter().all(|&bb| visit_weight(func, bb) > 0);
        let (shrink, rounding) = if !deferrable {
            GUARD_OFF
        } else {
            let mut leaks = Vec::new();
            if self.config.leakage_feedback {
                leaks.push(plan.leak);
            }
            let summaries: Vec<&ThermalSummary> =
                self.call_summaries.iter().flatten().map(|s| &**s).collect();
            leaks.extend(summaries.iter().filter_map(|s| s.leakage()));
            let fan_in = match self.config.merge {
                MergeRule::Max => 0,
                MergeRule::Average => blocks
                    .iter()
                    .map(|&bb| cfg.preds(bb).len())
                    .max()
                    .unwrap_or(0),
            };
            let sites = cfg.rpo().iter().flat_map(|&bb| {
                let insts = func.block(bb).insts().iter().map(|&id| Site::Inst(id));
                insts.chain(func.terminator(bb).map(|_| Site::Term(bb)))
            });
            let own = sites.map(|site| {
                let (deposits, sched) = plan.span(site);
                (*sched, deposit_watts(deposits))
            });
            let replayed = summaries.iter().flat_map(|s| s.steps());
            defer_guard(
                self.grid.model().params(),
                &leaks,
                own.chain(replayed),
                fan_in,
            )
        };
        TailPlan {
            body,
            blocks,
            frontier,
            weight,
            shrink,
            rounding,
        }
    }

    fn push_deposits(
        &self,
        deposits: &mut Vec<(u32, f64)>,
        accesses: &[(usize, f64)],
        latency: u32,
    ) -> PlanSpan {
        // Same expressions per access as the reference transfer
        // function, evaluated once instead of once per sweep. Repeated
        // points (a register read and written by one instruction)
        // pre-sum left to right — the same fold order the reference's
        // dense scatter performs — so the sparse solver path sees each
        // cell at most once.
        let natural = latency as f64 * self.config.seconds_per_cycle;
        let start = deposits.len();
        for &(p, e) in accesses {
            let w = e / natural;
            match deposits[start..].iter_mut().find(|(q, _)| *q == p as u32) {
                Some((_, acc)) => *acc += w,
                None => deposits.push((p as u32, w)),
            }
        }
        PlanSpan {
            start: start as u32,
            end: deposits.len() as u32,
            sched: self
                .grid
                .compiled()
                .schedule(self.config.step_duration(latency)),
        }
    }

    /// The power-profile hash of this analysis — the [`SolveCache`]
    /// key. Two analyses share a signature exactly when every input the
    /// fixpoint reads agrees: the grid's RC parameters and point count,
    /// the DFA configuration, the leakage model, and, instruction by
    /// instruction in control-flow order, which analysis points are
    /// touched with what energy for how long. The float inputs are
    /// keyed by exact bit pattern, so equal signatures imply
    /// bit-identical fixpoint results.
    pub fn signature(&self) -> u128 {
        *self.signature.get_or_init(|| self.hash_profile())
    }

    fn hash_profile(&self) -> u128 {
        let mut h = tadfa_thermal::hashing::Fnv128::new();
        // Grid + RC model. The grid's shape (not just its point count)
        // is part of the key: two equal-area coarsenings (e.g. 2×8 and
        // 4×4 over an 8×8 file) share scaled RC parameters and point
        // count but differ in neighbour topology, hence in every
        // lateral heat flow.
        let fp = self.grid.model().floorplan();
        h.write_u64(fp.rows() as u64);
        h.write_u64(fp.cols() as u64);
        let params = self.grid.model().params();
        h.write_u64(self.grid.num_points() as u64);
        h.write_f64(params.cell_capacitance);
        h.write_f64(params.lateral_resistance);
        h.write_f64(params.vertical_resistance);
        h.write_f64(params.ambient);
        // DFA config.
        h.write_f64(self.config.delta);
        h.write_u64(self.config.max_iterations as u64);
        h.write_u64(match self.config.merge {
            MergeRule::Max => 0,
            MergeRule::Average => 1,
        });
        h.write_f64(self.config.seconds_per_cycle);
        h.write_f64(self.config.time_scale);
        h.write_u64(self.config.leakage_feedback as u64);
        // The retired solver-mode word (exact = 0) keeps keys and spilled segments valid.
        h.write_u64(0);
        // Leakage model (read/write energies are folded in per access).
        h.write_f64(self.power_model.leakage_per_cell);
        h.write_f64(self.power_model.leakage_temp_coeff);
        h.write_f64(self.power_model.reference_temp);
        // The power profile: result vectors are indexed by arena slot
        // and block id, so fold the ids in alongside the accesses.
        let func = &*self.func;
        let mut accesses: Vec<(usize, f64)> = Vec::new();
        h.write_u64(func.arena_len() as u64);
        h.write_u64(func.num_blocks() as u64);
        h.write_u64(func.entry().index() as u64);
        for &bb in self.cfg.rpo() {
            h.write_u64(bb.index() as u64);
            let preds = self.cfg.preds(bb);
            h.write_u64(preds.len() as u64);
            for p in preds {
                h.write_u64(p.index() as u64);
            }
            for &id in func.block(bb).insts() {
                let inst = func.inst(id);
                h.write_u64(id.index() as u64);
                h.write_u64(inst.op.latency() as u64);
                self.fill_access_energies(inst, &mut accesses);
                for &(point, energy) in &accesses {
                    h.write_u64(point as u64);
                    h.write_f64(energy);
                }
                // A call site's transfer function includes the callee's
                // replayed trace, so the callee summary's own signature
                // is part of this function's key: change the callee's
                // body and every (transitive) caller re-keys.
                if let Some(sum) = self.call_summary(id) {
                    let sig = sum.signature();
                    h.write_u64((sig >> 64) as u64);
                    h.write_u64(sig as u64);
                }
            }
            if let Some(t) = func.terminator(bb) {
                h.write_u64(t.latency() as u64);
                self.fill_term_energies(t, &mut accesses);
                for &(point, energy) in &accesses {
                    h.write_u64(point as u64);
                    h.write_f64(energy);
                }
            }
        }
        h.finish()
    }

    /// Flattens this function into a [`ThermalSummary`]: its blocks'
    /// instruction and terminator steps in reverse post-order (each
    /// block once — loop bodies contribute one iteration, matching the
    /// fixpoint's per-sweep walk), with every call site's callee
    /// summary spliced in transitively. Replaying the summary on a
    /// thermal state is exact for any entry state, including under
    /// leakage feedback, because it runs the same solver steps the
    /// sweeps run.
    pub fn summarize(&self) -> ThermalSummary {
        let plan = self.plan.get_or_init(|| self.build_plan());
        let mut steps: Vec<SummaryStep> = Vec::new();
        let mut deposits: Vec<(u32, f64)> = Vec::new();
        let push_span = |site: Site, steps: &mut Vec<SummaryStep>, deposits: &mut Vec<_>| {
            let (span, sched) = plan.span(site);
            let start = deposits.len() as u32;
            deposits.extend_from_slice(span);
            steps.push(SummaryStep {
                start,
                end: deposits.len() as u32,
                sched: *sched,
            });
        };
        let func = &*self.func;
        for &bb in self.cfg.rpo() {
            for &id in func.block(bb).insts() {
                push_span(Site::Inst(id), &mut steps, &mut deposits);
                if let Some(sum) = self.call_summary(id) {
                    sum.splice_into(&mut steps, &mut deposits);
                }
            }
            if func.terminator(bb).is_some() {
                push_span(Site::Term(bb), &mut steps, &mut deposits);
            }
        }
        ThermalSummary::from_parts(
            steps,
            deposits,
            plan.leak,
            self.config.leakage_feedback,
            self.grid.num_points(),
            self.signature(),
        )
    }

    /// Runs the fixpoint iteration of Fig. 2 and returns the thermal
    /// state following each instruction.
    pub fn run(&self) -> ThermalDfaResult {
        self.solve(&mut DfaScratch::default())
    }

    /// [`run`](ThermalDfa::run) through the naive oracle stepper: every
    /// step re-derives its dense power from the IR and takes the
    /// allocating [`tadfa_thermal::ThermalModel::step`], and no block
    /// is ever skipped. Kept so bit-identity of the compiled kernels
    /// and of the skip can be asserted end to end
    /// (`tests/solver_identity.rs`) and so the solver quickbench has an
    /// honest baseline; production callers want
    /// [`run`](ThermalDfa::run) / [`run_with`](ThermalDfa::run_with).
    pub fn run_reference(&self) -> ThermalDfaResult {
        self.fixpoint(&mut Naive::default(), None, &mut DfaScratch::default())
    }

    /// [`run`](ThermalDfa::run) with caller-owned scratch buffers and an
    /// optional solve cache — the engine's entry point. With a cache,
    /// the whole fixpoint is answered from memo when an identical
    /// power profile (see [`ThermalDfa::signature`]) was solved before;
    /// a hit clones an [`Arc`], never the state vectors. Results are
    /// identical to [`run`](ThermalDfa::run), because only
    /// bit-identical profiles share a cache key.
    pub fn run_with(
        &self,
        scratch: &mut DfaScratch,
        cache: Option<&SolveCache>,
    ) -> Arc<ThermalDfaResult> {
        match cache {
            Some(cache) => {
                let key = self.signature();
                if let Some(hit) = cache.fetch(key) {
                    return hit;
                }
                let result = Arc::new(self.solve(scratch));
                cache.store(key, &result);
                result
            }
            None => Arc::new(self.solve(scratch)),
        }
    }

    /// The production fixpoint: the compiled [`StepPlan`] as stepper,
    /// deferring its tail.
    fn solve(&self, scratch: &mut DfaScratch) -> ThermalDfaResult {
        let plan = self.plan.get_or_init(|| self.build_plan());
        self.fixpoint(&mut &*plan, Some(&plan.tail), scratch)
    }

    /// The Fig. 2 iteration itself. With a `tail`, a sweep that cannot
    /// stop may leave the tail unwalked (see the module docs).
    fn fixpoint<S: Stepper>(
        &self,
        stepper: &mut S,
        tail: Option<&TailPlan>,
        scratch: &mut DfaScratch,
    ) -> ThermalDfaResult {
        let func = &*self.func;
        let n = self.grid.num_points();
        let initial = self.grid.model().ambient_state();
        let mut state = SweepState {
            walker: initial.clone(),
            initial,
            after: AfterMatrix {
                data: vec![0.0; func.arena_len() * n],
                init: vec![false; func.arena_len()],
                n,
            },
            entry: vec![None; func.num_blocks()],
            exit: vec![None; func.num_blocks()],
            frontier: Vec::new(),
        };
        let mut history: Vec<f64> = Vec::new();

        let mut convergence = Convergence::DidNotConverge {
            iterations: self.config.max_iterations,
            residual: f64::INFINITY,
        };

        // Whether the last sweep left the tail unwalked.
        let mut behind = false;
        for iteration in 1..=self.config.max_iterations {
            let max_change = match tail {
                None => self.walk(stepper, &mut state, scratch, self.cfg.rpo()),
                Some(tail) => {
                    let rest = self.walk(stepper, &mut state, scratch, &tail.body);
                    let can_stop = rest <= self.config.delta;
                    let edge = iteration == 1 || iteration == self.config.max_iterations;
                    if !can_stop && !edge && tail.may_defer(rest) {
                        state.save_frontier(&tail.frontier);
                        scratch.visits.deferred += tail.weight;
                        behind = true;
                        rest
                    } else {
                        if std::mem::take(&mut behind) {
                            // Catch up: the tail of the last deferring
                            // sweep, from its frontier exits.
                            state.swap_frontier(&tail.frontier);
                            self.walk(stepper, &mut state, scratch, &tail.blocks);
                            state.swap_frontier(&tail.frontier);
                        }
                        rest.max(self.walk(stepper, &mut state, scratch, &tail.blocks))
                    }
                }
            };

            // The first sweep necessarily "changes" everything from
            // nothing; record it as infinite residual but never converge
            // on it.
            history.push(max_change);
            if iteration > 1 && max_change <= self.config.delta {
                convergence = Convergence::Converged {
                    iterations: iteration,
                };
                break;
            }
            if iteration == self.config.max_iterations {
                convergence = Convergence::DidNotConverge {
                    iterations: iteration,
                    residual: max_change,
                };
            }
        }

        let after = &state.after;
        ThermalDfaResult {
            after: after
                .init
                .iter()
                .enumerate()
                .map(|(i, &init)| {
                    init.then(|| ThermalState::from_vec(after.data[i * n..(i + 1) * n].to_vec()))
                })
                .collect(),
            block_entry: state.entry,
            block_exit: state.exit,
            convergence,
            residual_history: history,
            ambient: self.grid.model().ambient(),
            num_points: n,
        }
    }

    /// Walks `blocks`, a reverse-postorder sequence in which every
    /// block comes after the predecessors whose exits of this sweep it
    /// merges; returns the largest change of any instruction's state or
    /// block exit. Allocation-free from the second sweep on: block
    /// entries merge into the reusable walker and every result slot is
    /// overwritten in place.
    ///
    /// When `S` skips clean blocks, a block whose merged entry is
    /// bit-identical to the entry of its last walk is not walked again:
    /// its `after` rows and exit already hold what the walk would
    /// write, and each would add exactly 0.0 to the residual (or NaN,
    /// which `f64::max` drops).
    fn walk<S: Stepper>(
        &self,
        stepper: &mut S,
        state: &mut SweepState,
        scratch: &mut DfaScratch,
        blocks: &[BlockId],
    ) -> f64 {
        let (func, cfg) = (&*self.func, &self.cfg);
        let SweepState {
            initial,
            walker,
            after,
            entry,
            exit,
            ..
        } = state;
        let DfaScratch { step, visits, .. } = scratch;
        let mut max_change: f64 = 0.0;
        for &bb in blocks {
            if bb == func.entry() {
                walker.clone_from(initial);
            } else {
                self.merge_into(walker, cfg.preds(bb), exit, initial);
            }
            let clean = match &mut entry[bb.index()] {
                Some(prev) => !store_changed(prev.temps_mut(), walker.temps()),
                slot => {
                    *slot = Some(walker.clone());
                    false
                }
            };
            let insts = func.block(bb).insts();
            let has_term = func.terminator(bb).is_some();
            let weight = visit_weight(func, bb);
            if S::SKIPS_CLEAN_BLOCKS && clean {
                visits.skipped += weight;
                continue;
            }
            visits.walked += weight;

            for &id in insts {
                let site = Site::Inst(id);
                let (row, was_init) = after.visit_row(id.index());
                let change = match self.call_summary(id) {
                    // The change tracking fuses into the kernel's store
                    // loop: the row is compared and overwritten in the
                    // pass that writes the new temperatures.
                    None if was_init => stepper.advance(self, site, walker, step, Some(row)),
                    // A call site steps its own accesses, then replays
                    // the callee's summarised trace (the state after
                    // the call is the state after the callee returns)
                    // outside the tracked kernel.
                    sum => {
                        stepper.advance(self, site, walker, step, None);
                        if let Some(sum) = sum {
                            sum.apply(walker, self.grid.compiled(), step);
                        }
                        if was_init {
                            ThermalState::linf_update_slices(row, walker.temps())
                        } else {
                            row.copy_from_slice(walker.temps());
                            f64::INFINITY
                        }
                    }
                };
                max_change = max_change.max(change);
            }
            let site = Site::Term(bb);
            let exit_change = match (&mut exit[bb.index()], has_term) {
                (Some(prev), true) => {
                    stepper.advance(self, site, walker, step, Some(prev.temps_mut()))
                }
                (Some(prev), false) => prev.linf_update_from(walker),
                (slot, _) => {
                    if has_term {
                        stepper.advance(self, site, walker, step, None);
                    }
                    *slot = Some(walker.clone());
                    f64::INFINITY
                }
            };
            max_change = max_change.max(exit_change);
        }
        max_change
    }

    /// Merges the available predecessor exit states into `dst` without
    /// allocating, in predecessor order, falling back to the initial
    /// state when no predecessor has an exit yet.
    fn merge_into(
        &self,
        dst: &mut ThermalState,
        preds: &[BlockId],
        exit: &[Option<ThermalState>],
        initial: &ThermalState,
    ) {
        match self.config.merge {
            MergeRule::Max => {
                let mut first = true;
                for p in preds {
                    if let Some(s) = &exit[p.index()] {
                        if first {
                            dst.clone_from(s);
                            first = false;
                        } else {
                            dst.max_with(s);
                        }
                    }
                }
                if first {
                    dst.clone_from(initial);
                }
            }
            MergeRule::Average => {
                let available = preds.iter().filter(|p| exit[p.index()].is_some()).count();
                if available == 0 {
                    dst.clone_from(initial);
                    return;
                }
                let w = 1.0 / available as f64;
                dst.reset_uniform(initial.len(), 0.0);
                for p in preds {
                    if let Some(s) = &exit[p.index()] {
                        dst.add_scaled(s, w);
                    }
                }
            }
        }
    }
}

/// Output of the thermal DFA: "the thermal state following each
/// instruction" (Fig. 2) plus convergence diagnostics.
#[derive(Clone, Debug)]
pub struct ThermalDfaResult {
    after: Vec<Option<ThermalState>>,
    block_entry: Vec<Option<ThermalState>>,
    block_exit: Vec<Option<ThermalState>>,
    /// How the fixpoint iteration ended.
    pub convergence: Convergence,
    /// Largest per-instruction change in each iteration (first entry is
    /// ∞: everything changes from "unknown").
    pub residual_history: Vec<f64>,
    ambient: f64,
    num_points: usize,
}

impl ThermalDfaResult {
    /// The thermal state immediately after `inst`, if the instruction is
    /// reachable.
    pub fn state_after(&self, inst: InstId) -> Option<&ThermalState> {
        self.after.get(inst.index()).and_then(Option::as_ref)
    }

    /// The merged thermal state on entry to `bb`.
    pub fn block_entry(&self, bb: BlockId) -> Option<&ThermalState> {
        self.block_entry.get(bb.index()).and_then(Option::as_ref)
    }

    /// The thermal state on exit from `bb` (after its terminator).
    pub fn block_exit(&self, bb: BlockId) -> Option<&ThermalState> {
        self.block_exit.get(bb.index()).and_then(Option::as_ref)
    }

    /// Element-wise maximum over every per-instruction state: the "worst
    /// case anywhere in the program" map used for hot-spot reporting.
    pub fn peak_map(&self) -> ThermalState {
        let mut acc = ThermalState::uniform(self.num_points, self.ambient);
        for s in self.after.iter().flatten() {
            acc.max_with(s);
        }
        acc
    }

    /// The single hottest temperature predicted anywhere in the program.
    pub fn peak_temperature(&self) -> f64 {
        self.peak_map().peak()
    }

    /// The analysis point reaching the peak temperature.
    pub fn hottest_point(&self) -> usize {
        self.peak_map().argmax()
    }

    /// The ambient temperature of the underlying model.
    pub fn ambient(&self) -> f64 {
        self.ambient
    }

    /// Number of instructions with a computed state.
    pub fn num_states(&self) -> usize {
        self.after.iter().filter(|s| s.is_some()).count()
    }

    /// Serialises the result into the spill codec (exact `f64` bit
    /// patterns — see [`crate::codec`]). [`decode`](Self::decode)
    /// reconstructs a result that behaves identically, fingerprints and
    /// all.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u8(crate::codec::CODEC_VERSION);
        w.put_u64(self.num_points as u64);
        w.put_f64(self.ambient);
        for states in [&self.after, &self.block_entry, &self.block_exit] {
            w.put_u64(states.len() as u64);
            for s in states {
                match s {
                    None => w.put_u8(0),
                    Some(s) => {
                        w.put_u8(1);
                        w.put_u64(s.temps().len() as u64);
                        for &t in s.temps() {
                            w.put_f64(t);
                        }
                    }
                }
            }
        }
        match self.convergence {
            Convergence::Converged { iterations } => {
                w.put_u8(0);
                w.put_u64(iterations as u64);
                w.put_f64(0.0);
            }
            Convergence::DidNotConverge {
                iterations,
                residual,
            } => {
                w.put_u8(1);
                w.put_u64(iterations as u64);
                w.put_f64(residual);
            }
        }
        w.put_u64(self.residual_history.len() as u64);
        for &r in &self.residual_history {
            w.put_f64(r);
        }
        w.into_bytes()
    }

    /// Reconstructs a result from [`encode`](Self::encode)d bytes.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] on truncated, corrupted, or
    /// version-mismatched input — never panics, whatever the bytes.
    pub fn decode(bytes: &[u8]) -> Result<ThermalDfaResult, CodecError> {
        let mut r = ByteReader::new(bytes);
        let version = r.get_u8()?;
        if version != crate::codec::CODEC_VERSION {
            return Err(CodecError::Version(version));
        }
        let num_points = r.get_u64()? as usize;
        let ambient = r.get_f64()?;
        let mut vecs: Vec<Vec<Option<ThermalState>>> = Vec::with_capacity(3);
        for _ in 0..3 {
            let n = r.get_u64()?;
            let n = r.checked_len(n, 1)?;
            let mut states = Vec::with_capacity(n);
            for _ in 0..n {
                match r.get_u8()? {
                    0 => states.push(None),
                    1 => {
                        let len = r.get_u64()?;
                        // Every state spans the whole grid; the result's
                        // accessors merge them element-wise.
                        if len != num_points as u64 {
                            return Err(CodecError::OutOfRange(len));
                        }
                        let len = r.checked_len(len, 8)?;
                        let mut temps = Vec::with_capacity(len);
                        for _ in 0..len {
                            temps.push(r.get_f64()?);
                        }
                        states.push(Some(ThermalState::from_vec(temps)));
                    }
                    t => return Err(CodecError::BadTag(t)),
                }
            }
            vecs.push(states);
        }
        let block_exit = vecs.pop().expect("three state vectors");
        let block_entry = vecs.pop().expect("three state vectors");
        let after = vecs.pop().expect("three state vectors");
        let convergence = match r.get_u8()? {
            0 => {
                let iterations = r.get_u64()? as usize;
                match r.get_u64()? {
                    0 => Convergence::Converged { iterations },
                    bits => return Err(CodecError::NonCanonical(bits)),
                }
            }
            1 => Convergence::DidNotConverge {
                iterations: r.get_u64()? as usize,
                residual: r.get_f64()?,
            },
            t => return Err(CodecError::BadTag(t)),
        };
        let n = r.get_u64()?;
        let n = r.checked_len(n, 8)?;
        let mut residual_history = Vec::with_capacity(n);
        for _ in 0..n {
            residual_history.push(r.get_f64()?);
        }
        r.finish()?;
        Ok(ThermalDfaResult {
            after,
            block_entry,
            block_exit,
            convergence,
            residual_history,
            ambient,
            num_points,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MergeRule;
    use tadfa_ir::FunctionBuilder;
    use tadfa_regalloc::{allocate_linear_scan, FirstFree, RegAllocConfig, RoundRobin};
    use tadfa_thermal::{Floorplan, RcParams, RegisterFile};

    fn rf_4x4() -> RegisterFile {
        RegisterFile::new(Floorplan::grid(4, 4))
    }

    fn analyse(
        f: &mut Function,
        config: ThermalDfaConfig,
    ) -> (ThermalDfaResult, Assignment, AnalysisGrid, BlockVisits) {
        let rf = rf_4x4();
        let alloc =
            allocate_linear_scan(f, &rf, &mut FirstFree, &RegAllocConfig::default()).unwrap();
        let grid = AnalysisGrid::full(&rf, RcParams::default());
        let dfa =
            ThermalDfa::new(f, &alloc.assignment, &grid, PowerModel::default(), config).unwrap();
        let mut scratch = DfaScratch::default();
        let r = Arc::unwrap_or_clone(dfa.run_with(&mut scratch, None));
        (r, alloc.assignment, grid, scratch.visits())
    }

    fn straightline() -> Function {
        let mut b = FunctionBuilder::new("s");
        let x = b.param();
        let mut v = x;
        for _ in 0..6 {
            v = b.add(v, v);
        }
        b.ret(Some(v));
        b.finish()
    }

    use tadfa_ir::Function;

    fn loopy(iterish: i64) -> Function {
        let mut b = FunctionBuilder::new("l");
        let h = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let n = b.iconst(iterish);
        let i = b.iconst(0);
        let acc = b.iconst(0);
        b.jump(h);
        b.switch_to(h);
        let d = b.cmpge(i, n);
        b.branch(d, exit, body);
        b.switch_to(body);
        let acc2 = b.mul(acc, i);
        let one = b.iconst(1);
        let i2 = b.add(i, one);
        b.mov_into(acc, acc2);
        b.mov_into(i, i2);
        b.jump(h);
        b.switch_to(exit);
        b.ret(Some(acc));
        b.finish()
    }

    #[test]
    fn straightline_converges_quickly() {
        let mut f = straightline();
        let (r, _, _, visits) = analyse(&mut f, ThermalDfaConfig::default());
        assert!(r.convergence.is_converged());
        // One sweep computes, the second confirms (no loops) without
        // walking: the one block's entry is ambient again.
        assert_eq!(r.convergence.iterations(), 2);
        assert_eq!(r.num_states(), f.num_insts());
        let total = visit_weight(&f, f.entry());
        assert_eq!(
            visits,
            BlockVisits {
                walked: total,
                skipped: total,
                deferred: 0,
            }
        );
    }

    /// The tail blocks of `f`, by index.
    fn tail_of(f: &Function) -> Vec<usize> {
        let in_tail = tail_blocks(&Cfg::compute(f), f.num_blocks());
        (0..f.num_blocks()).filter(|&i| in_tail[i]).collect()
    }

    #[test]
    fn suite_kernels_name_their_tails() {
        // Every looping kernel's tail is its return block after the
        // last loop exit; hist's block 3 sits between its two loops, so
        // it can reach a loop header. butterfly has no loop: all tail.
        let tails: Vec<(&str, Vec<usize>)> = tadfa_workloads::standard_suite()
            .into_iter()
            .map(|w| (w.name, tail_of(&w.func)))
            .collect();
        let expected: Vec<(&str, Vec<usize>)> = vec![
            ("matmul", vec![3]),
            ("fir", vec![3]),
            ("dot", vec![3]),
            ("fib", vec![3]),
            ("checksum", vec![3]),
            ("bsort", vec![3]),
            ("stencil", vec![3]),
            ("saxpy", vec![3]),
            ("hist", vec![6]),
            ("butterfly", vec![0]),
            ("popcount", vec![3]),
        ];
        assert_eq!(tails, expected);
    }

    /// entry → h ⇄ body; h → split → {left, right} → join → ret.
    fn loop_then_diamond() -> Function {
        let mut b = FunctionBuilder::new("ld");
        let (h, body, split) = (b.new_block(), b.new_block(), b.new_block());
        let (left, right, join) = (b.new_block(), b.new_block(), b.new_block());
        let n = b.iconst(8);
        let i = b.iconst(0);
        let acc = b.iconst(0);
        b.jump(h);
        b.switch_to(h);
        let d = b.cmpge(i, n);
        b.branch(d, split, body);
        b.switch_to(body);
        let one = b.iconst(1);
        let i2 = b.add(i, one);
        b.mov_into(i, i2);
        b.jump(h);
        b.switch_to(split);
        b.branch(d, left, right);
        b.switch_to(left);
        let l = b.mul(i, i);
        b.mov_into(acc, l);
        b.jump(join);
        b.switch_to(right);
        let r = b.add(i, n);
        b.mov_into(acc, r);
        b.jump(join);
        b.switch_to(join);
        let z = b.add(acc, n);
        b.ret(Some(z));
        b.finish()
    }

    #[test]
    fn a_diamond_after_the_last_loop_is_tail() {
        let mut f = loop_then_diamond();
        assert_eq!(tail_of(&f), vec![3, 4, 5, 6]);
        // Deferring the diamond, a merge included, moves no bit.
        let rf = rf_4x4();
        let alloc =
            allocate_linear_scan(&mut f, &rf, &mut FirstFree, &RegAllocConfig::default()).unwrap();
        let grid = AnalysisGrid::full(&rf, RcParams::default());
        for merge in [MergeRule::Max, MergeRule::Average] {
            let cfg = ThermalDfaConfig::default().with_merge(merge);
            let dfa =
                ThermalDfa::new(&f, &alloc.assignment, &grid, PowerModel::default(), cfg).unwrap();
            let mut scratch = DfaScratch::default();
            let r = dfa.run_with(&mut scratch, None);
            assert!(scratch.visits().deferred > 0, "{merge:?}");
            assert_eq!(r.encode(), dfa.run_reference().encode(), "{merge:?}");
        }
    }

    #[test]
    fn a_return_from_inside_a_loop_is_tail() {
        // entry → h; h → body | done; body → early | latch; latch → h.
        let mut b = FunctionBuilder::new("early");
        let (h, body, early, latch, done) = (
            b.new_block(),
            b.new_block(),
            b.new_block(),
            b.new_block(),
            b.new_block(),
        );
        let n = b.iconst(8);
        let i = b.iconst(0);
        b.jump(h);
        b.switch_to(h);
        let d = b.cmpge(i, n);
        b.branch(d, done, body);
        b.switch_to(body);
        let e = b.cmpge(i, i);
        b.branch(e, early, latch);
        b.switch_to(early);
        b.ret(Some(i));
        b.switch_to(latch);
        let one = b.iconst(1);
        let i2 = b.add(i, one);
        b.mov_into(i, i2);
        b.jump(h);
        b.switch_to(done);
        b.ret(None);
        let f = b.finish();
        // h, body and latch lie on the cycle; both returns are tail.
        assert_eq!(tail_of(&f), vec![early.index(), done.index()]);
    }

    #[test]
    fn a_loop_free_function_is_all_tail_and_never_defers() {
        // A diamond: no retreating edge, so every block is tail, `rest`
        // covers no block and every sweep walks the tail.
        let mut b = FunctionBuilder::new("d");
        let c = b.param();
        let acc = b.iconst(0);
        let (t, e, join) = (b.new_block(), b.new_block(), b.new_block());
        b.branch(c, t, e);
        b.switch_to(t);
        let x = b.add(c, c);
        b.mov_into(acc, x);
        b.jump(join);
        b.switch_to(e);
        let y = b.mul(c, c);
        b.mov_into(acc, y);
        b.jump(join);
        b.switch_to(join);
        let z = b.add(acc, c);
        b.ret(Some(z));
        let mut f = b.finish();
        assert_eq!(tail_of(&f), vec![0, 1, 2, 3]);
        for merge in [MergeRule::Max, MergeRule::Average] {
            let (r, _, _, visits) = analyse(&mut f, ThermalDfaConfig::default().with_merge(merge));
            assert_eq!(r.convergence.iterations(), 2);
            assert_eq!(visits.deferred, 0, "{merge:?}");
        }
    }

    #[test]
    fn leakage_steeper_than_the_vertical_conductance_turns_deferral_off() {
        let params = RcParams::default();
        let g_v = 1.0 / params.vertical_resistance;
        let sched = AnalysisGrid::full(&rf_4x4(), params)
            .compiled()
            .schedule(1e-6);
        let leak = |slope: f64| LeakageParams {
            per_cell: 20e-6,
            temp_coeff: slope / 20e-6,
            reference_temp: params.ambient,
        };
        let guard =
            |leaks: &[LeakageParams]| defer_guard(&params, leaks, [(sched, 1e-3)].into_iter(), 0);
        let (shrink, rounding) = guard(&[]);
        assert!(
            shrink > 0.0 && rounding / shrink < 1e-6,
            "{shrink} {rounding}"
        );
        let (shrink, _) = guard(&[leak(0.5 * g_v)]);
        assert!(shrink > 0.0);
        assert_eq!(guard(&[leak(g_v)]), GUARD_OFF);
        assert_eq!(guard(&[leak(2.0 * g_v)]), GUARD_OFF);
        // A zero-length step does not shrink differences either.
        let still = [(StepSchedule::from_raw(0, 0.0), 0.0)].into_iter();
        assert_eq!(defer_guard(&params, &[], still, 0), GUARD_OFF);
    }

    #[test]
    fn temperature_rises_along_straightline_execution() {
        let mut f = straightline();
        let (r, _, _, _) = analyse(&mut f, ThermalDfaConfig::default());
        let order = f.inst_ids_in_layout_order();
        let first = r.state_after(order[0].1).unwrap();
        let last = r.state_after(order.last().unwrap().1).unwrap();
        assert!(
            last.peak() > first.peak(),
            "sustained accesses heat the file: {} -> {}",
            first.peak(),
            last.peak()
        );
        assert!(last.peak() > r.ambient());
    }

    #[test]
    fn accessed_registers_are_the_hot_ones() {
        let mut f = straightline();
        let (r, assignment, grid, _) = analyse(&mut f, ThermalDfaConfig::default());
        let peak = r.peak_map();
        // The hottest point hosts one of the assigned registers.
        let assigned_points: Vec<usize> =
            assignment.iter().map(|(_, p)| grid.point_of(p)).collect();
        assert!(assigned_points.contains(&peak.argmax()));
        // A point with no assigned register stays cooler than the peak.
        let cold = (0..grid.num_points())
            .find(|p| !assigned_points.contains(p))
            .expect("first-free on a chain leaves most registers untouched");
        assert!(peak.get(cold) < peak.peak());
    }

    #[test]
    fn loop_saturates_and_converges() {
        let mut f = loopy(100);
        let (r, _, _, visits) = analyse(&mut f, ThermalDfaConfig::default());
        assert!(r.convergence.is_converged());
        assert!(
            r.convergence.iterations() > 2,
            "loops need multiple sweeps: {}",
            r.convergence.iterations()
        );
        // Residuals decay monotonically after the first sweep (contracting
        // iteration).
        let h = &r.residual_history;
        assert!(h.len() >= 3);
        assert!(h[h.len() - 1] <= h[1], "residuals shrink: {h:?}");
        // Every sweep after the first skips the entry block (it enters
        // from ambient) and, while the residual is nonzero, no other.
        // A loop at the end leaves its exit block as the tail: sweeps 2
        // to n − 1 defer it, and the last sweep walks it twice, first
        // from sweep n − 1's frontier, then from its own.
        assert!(h.iter().all(|&c| c > 0.0), "{h:?}");
        assert_eq!(tail_of(&f), vec![3]);
        let sweeps = h.len() as u64;
        let entry = visit_weight(&f, f.entry());
        let exit = visit_weight(&f, BlockId::new(3));
        let total: u64 = f.block_ids().map(|bb| visit_weight(&f, bb)).sum();
        assert_eq!(
            visits,
            BlockVisits {
                walked: total * sweeps - entry * (sweeps - 1) - exit * (sweeps - 3),
                skipped: entry * (sweeps - 1),
                deferred: exit * (sweeps - 2),
            }
        );
    }

    #[test]
    fn smaller_delta_needs_more_iterations() {
        // A larger time scale speeds the contraction so the tight-delta
        // run converges well inside the default iteration budget.
        let base = ThermalDfaConfig {
            time_scale: 10_000.0,
            ..ThermalDfaConfig::default()
        };
        let mut f1 = loopy(100);
        let (r_loose, _, _, _) = analyse(&mut f1, base.with_delta(1.0));
        let mut f2 = loopy(100);
        let (r_tight, _, _, _) = analyse(&mut f2, base.with_delta(1e-4));
        assert!(r_loose.convergence.is_converged());
        assert!(r_tight.convergence.is_converged());
        assert!(
            r_tight.convergence.iterations() >= r_loose.convergence.iterations(),
            "tight {} vs loose {}",
            r_tight.convergence.iterations(),
            r_loose.convergence.iterations()
        );
    }

    #[test]
    fn iteration_cap_reports_non_convergence() {
        let mut f = loopy(100);
        let cfg = ThermalDfaConfig::default()
            .with_delta(1e-9)
            .with_max_iterations(3);
        let (r, _, _, _) = analyse(&mut f, cfg);
        assert!(!r.convergence.is_converged());
        match r.convergence {
            Convergence::DidNotConverge {
                iterations,
                residual,
            } => {
                assert_eq!(iterations, 3);
                assert!(residual > 1e-9);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn thermal_runaway_never_converges() {
        // Leakage feedback strong enough that heating outpaces
        // dissipation: the paper's "no way to guarantee convergence" in
        // its physically honest form.
        let mut f = loopy(100);
        let rf = rf_4x4();
        let alloc =
            allocate_linear_scan(&mut f, &rf, &mut FirstFree, &RegAllocConfig::default()).unwrap();
        let grid = AnalysisGrid::full(&rf, RcParams::default());
        // Loop gain = dP/dT · R_eff with R_eff = 1/(G_vert + 4·G_lat)
        // ≈ 5.2e3 K/W per cell; gain > 1 needs dP/dT > ~1.9e-4 W/K,
        // i.e. a coefficient above ~10/K at 20 µW of base leakage.
        let pm = PowerModel {
            leakage_temp_coeff: 60.0,
            ..PowerModel::default()
        };
        let cfg = ThermalDfaConfig {
            time_scale: 10_000.0,
            ..ThermalDfaConfig::default().with_max_iterations(30)
        };
        let dfa = ThermalDfa::new(&f, &alloc.assignment, &grid, pm, cfg).unwrap();
        let r = dfa.run();
        assert!(!r.convergence.is_converged(), "runaway must not converge");
        let h = &r.residual_history;
        assert!(
            h[h.len() - 1] > h[1],
            "residuals grow under runaway: {:?}",
            &h[1..]
        );
    }

    #[test]
    fn compiled_fixpoint_bit_identical_to_reference() {
        // The skipping compiled sweep must reproduce the non-skipping
        // naive oracle bit for bit: every after/entry/exit state, the
        // residuals and the convergence (the codec writes exact bits).
        for leakage in [true, false] {
            let mut f = loopy(80);
            let rf = rf_4x4();
            let alloc =
                allocate_linear_scan(&mut f, &rf, &mut FirstFree, &RegAllocConfig::default())
                    .unwrap();
            let grid = AnalysisGrid::full(&rf, RcParams::default());
            let cfg = ThermalDfaConfig {
                leakage_feedback: leakage,
                ..ThermalDfaConfig::default()
            };
            let dfa =
                ThermalDfa::new(&f, &alloc.assignment, &grid, PowerModel::default(), cfg).unwrap();
            assert_eq!(
                dfa.run().encode(),
                dfa.run_reference().encode(),
                "leakage={leakage}"
            );
        }
    }

    #[test]
    fn scratch_survives_grid_size_changes() {
        // One worker scratch is reused across sweep cells with different
        // granularities; the dirty-index reset must stay correct.
        let rf = RegisterFile::new(Floorplan::grid(8, 8));
        let mut f = straightline();
        let alloc =
            allocate_linear_scan(&mut f, &rf, &mut FirstFree, &RegAllocConfig::default()).unwrap();
        let fine = AnalysisGrid::full(&rf, RcParams::default());
        let coarse = AnalysisGrid::coarsened(&rf, RcParams::default(), 2, 2).unwrap();
        let mut scratch = DfaScratch::default();
        let mut peaks = Vec::new();
        for grid in [&fine, &coarse, &fine, &coarse] {
            let dfa = ThermalDfa::new(
                &f,
                &alloc.assignment,
                grid,
                PowerModel::default(),
                ThermalDfaConfig::default(),
            )
            .unwrap();
            let shared = dfa.run_with(&mut scratch, None);
            peaks.push(shared.peak_temperature());
            // Reusing scratch must equal a fresh run.
            assert_eq!(shared.peak_temperature(), dfa.run().peak_temperature());
        }
        assert_eq!(peaks[0], peaks[2]);
        assert_eq!(peaks[1], peaks[3]);
    }

    #[test]
    fn cached_run_is_bit_identical_to_uncached() {
        let mut f = loopy(60);
        let rf = rf_4x4();
        let alloc =
            allocate_linear_scan(&mut f, &rf, &mut FirstFree, &RegAllocConfig::default()).unwrap();
        let grid = AnalysisGrid::full(&rf, RcParams::default());
        let dfa = ThermalDfa::new(
            &f,
            &alloc.assignment,
            &grid,
            PowerModel::default(),
            ThermalDfaConfig::default(),
        )
        .unwrap();

        let plain = dfa.run();
        let cache = crate::cache::SolveCache::new();
        let mut scratch = DfaScratch::default();
        let cold = dfa.run_with(&mut scratch, Some(&cache));
        let warm = dfa.run_with(&mut scratch, Some(&cache));

        let bits = |r: &ThermalDfaResult| -> Vec<u64> {
            r.after
                .iter()
                .flatten()
                .flat_map(|s| s.temps().iter().map(|t| t.to_bits()))
                .collect()
        };
        assert_eq!(bits(&plain), bits(&cold), "cold cache changes nothing");
        assert_eq!(bits(&plain), bits(&warm), "warm cache changes nothing");
        assert_eq!(plain.residual_history, warm.residual_history);
        let s = cache.stats();
        assert!(s.hits > 0, "second run hits: {s:?}");
        assert!(s.entries > 0);
    }

    #[test]
    fn signature_distinguishes_equal_area_grid_shapes() {
        // 2×8 and 4×4 coarsenings of an 8×8 file share the scaled RC
        // parameters and point count but differ in neighbour topology;
        // their fixpoints differ, so their cache keys must too.
        let rf = RegisterFile::new(Floorplan::grid(8, 8));
        let mut f = straightline();
        let alloc =
            allocate_linear_scan(&mut f, &rf, &mut FirstFree, &RegAllocConfig::default()).unwrap();
        let wide = AnalysisGrid::coarsened(&rf, RcParams::default(), 2, 8).unwrap();
        let square = AnalysisGrid::coarsened(&rf, RcParams::default(), 4, 4).unwrap();
        assert_eq!(wide.num_points(), square.num_points());
        let sig = |grid: &AnalysisGrid| {
            ThermalDfa::new(
                &f,
                &alloc.assignment,
                grid,
                PowerModel::default(),
                ThermalDfaConfig::default(),
            )
            .unwrap()
            .signature()
        };
        assert_ne!(sig(&wide), sig(&square));
    }

    #[test]
    fn merge_rules_bound_each_other() {
        // Max merge is an upper bound on Average merge everywhere.
        let mut f1 = loopy(50);
        let (r_max, _, _, _) = analyse(
            &mut f1,
            ThermalDfaConfig::default().with_merge(MergeRule::Max),
        );
        let mut f2 = loopy(50);
        let (r_avg, _, _, _) = analyse(
            &mut f2,
            ThermalDfaConfig::default().with_merge(MergeRule::Average),
        );
        assert!(r_max.peak_temperature() >= r_avg.peak_temperature() - 1e-9);
    }

    #[test]
    fn block_entry_and_exit_states_exist_for_reachable_blocks() {
        let mut f = loopy(10);
        let (r, _, _, _) = analyse(&mut f, ThermalDfaConfig::default());
        for bb in f.block_ids() {
            assert!(r.block_entry(bb).is_some(), "{bb} entry");
            assert!(r.block_exit(bb).is_some(), "{bb} exit");
        }
    }

    #[test]
    fn policy_changes_the_predicted_map() {
        // Same program, two assignment policies: first-free should
        // concentrate heat more than round-robin.
        let rf = rf_4x4();
        let grid = AnalysisGrid::full(&rf, RcParams::default());

        let mut f1 = straightline();
        let a1 =
            allocate_linear_scan(&mut f1, &rf, &mut FirstFree, &RegAllocConfig::default()).unwrap();
        let r1 = ThermalDfa::new(
            &f1,
            &a1.assignment,
            &grid,
            PowerModel::default(),
            ThermalDfaConfig::default(),
        )
        .unwrap()
        .run();

        let mut f2 = straightline();
        let a2 = allocate_linear_scan(
            &mut f2,
            &rf,
            &mut RoundRobin::default(),
            &RegAllocConfig::default(),
        )
        .unwrap();
        let r2 = ThermalDfa::new(
            &f2,
            &a2.assignment,
            &grid,
            PowerModel::default(),
            ThermalDfaConfig::default(),
        )
        .unwrap()
        .run();

        let m1 = r1.peak_map();
        let m2 = r2.peak_map();
        assert!(
            m1.stddev() >= m2.stddev(),
            "first-free σ {} vs round-robin σ {}",
            m1.stddev(),
            m2.stddev()
        );
    }
}
