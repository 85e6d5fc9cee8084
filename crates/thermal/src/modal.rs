//! The exact modal solver of a rectangular RC grid.
//!
//! Every thermal network in the workspace (a register file, a
//! coarsened analysis grid, a multi-core die) is one `rows × w` grid of
//! cells with a single cell capacitance `C`, a single conductance `g_v`
//! to ambient, and `g_lat` between vertically adjacent cells. Only the
//! edges between horizontally adjacent grid columns may differ, so the
//! solver takes one conductance per strip column boundary, `0` for no
//! edge. Cells are numbered in blocks of `cols` columns: cell
//! `block·rows·cols + row·cols + col` sits at grid position
//! `(row, block·cols + col)`. A one-block grid is an ordinary row-major
//! floorplan ([`ThermalModel::modal`](crate::ThermalModel::modal)); a
//! `K`-block grid is a die of `K` cores tiled side by side.
//!
//! The conductance matrix therefore factors as
//!
//! ```text
//! G = g_v·I + L_rows ⊗ I + I ⊗ L_strip
//! ```
//!
//! where `L_rows` is the path Laplacian of one grid column (`g_lat` on
//! every edge) and `L_strip` that of one grid row, weighted by the strip
//! conductances. Both are small and tridiagonal, so an implicit-QL
//! routine factors them once, `L_rows = U·diag(μ)·Uᵀ` and
//! `L_strip = V·diag(ν)·Vᵀ`, and `G` has eigenvalues
//! `λ_km = g_v + μ_k + ν_m` with vectors `u_k ⊗ v_m`.
//!
//! In excess temperature `θ = T − T_amb` the grid obeys
//! `C·dθ/dt = −G·θ + P`. Under power held constant for a window of any
//! length `h` each mode evolves on its own, so one window is exactly
//!
//! ```text
//! q = Uᵀ·P·V,   y ← q/λ + e^{−λh/C}·(y − q/λ),   θ = U·y·Vᵀ
//! ```
//!
//! four small matrix products, `O(rows·w·(rows + w))`, however long
//! the window. The steady state is the same transform with `y = q/λ`.
//!
//! The products run on lanes. At factor time `V`, `Vᵀ` and every
//! `rows × w` matrix of a state get zero columns up to whole lane
//! chunks of 8; a padding mode has `λ = 1` and rate `0`, so it stays
//! exactly `0`. Within a run a state reuses what its earlier windows
//! computed: the projection `q/λ` of a power bit-identical to the last
//! one it projected, and the decay factors of its last four window
//! lengths, keyed on the bits of `h` and replaced round robin. Nothing
//! outlives the state, and a state steps only under the solver that
//! made it.
//!
//! # Determinism
//!
//! The factors use only `+ − × ÷` and `sqrt`, and the decay factor
//! comes from [`exp_neg`], so no libm transcendental reaches a
//! temperature. Every product folds its terms in a fixed order, so a
//! run's bits are a function of its inputs alone. A lane output sums
//! only its real terms, in order from `+0.0`, a lane multiply then add
//! per term, so it carries the bits of the scalar fold; a padding
//! column never enters a real sum. Reuse is keyed on exact bits and
//! only skips recomputing the same operations on the same operands.
//! Zero power leaves every cell exactly at ambient.
//!
//! With a zero weight at every block boundary, `L_strip` is
//! block-diagonal with one identical block per block of columns. QL
//! never rotates across a zero off-diagonal and judges convergence from
//! neighbouring entries only, so each block's eigenpairs are
//! bit-identical to a one-block grid's, and the products add only exact
//! zeros for other blocks' modes: each block's slice of a solve is
//! bit-identical to a one-block grid solved the same way.

use crate::error::ThermalError;
use crate::exp::exp_neg;
use crate::lanes::{LANES, W8};
use crate::rc::RcParams;
use crate::state::ThermalState;
use std::sync::atomic::{AtomicU64, Ordering};

/// Window lengths whose decay factors a [`ModalState`] keeps.
const DECAY_SLOTS: usize = 4;

/// Rows of a register block in [`mul_lanes`].
const BLOCK_ROWS: usize = 4;

/// Source of [`ModalSolver`] ids: each factoring takes the next one.
static NEXT_SOLVER_ID: AtomicU64 = AtomicU64::new(0);

/// The exact solver of one grid: the eigenpairs of its conductance
/// matrix, factored once at construction (a few KB per grid). Solve
/// windows with [`ModalSolver::step`] and steady states with
/// [`ModalSolver::steady_state`].
///
/// # Examples
///
/// ```
/// use tadfa_thermal::{Floorplan, RcParams, ThermalModel};
///
/// let model = ThermalModel::new(Floorplan::grid(4, 8), RcParams::default());
/// let solver = model.modal();
/// let mut power = vec![0.0; model.num_cells()];
/// power[5] = 1e-3;
///
/// let mut state = solver.ambient_state();
/// solver.step(&mut state, &power, 1e-3);
/// let steady = solver.steady_state(&power);
/// assert!(state.temps().get(5) > model.ambient());
/// assert!(state.temps().get(5) < steady.get(5)); // still heating
/// ```
#[derive(Clone, Debug)]
pub struct ModalSolver {
    /// Stamped on every state this solver makes (a clone keeps it: its
    /// factors are the same bits).
    id: u64,
    rows: usize,
    cols: usize,
    w: usize,
    /// `w` rounded up to whole lane chunks: the row stride of `v`,
    /// `vt`, `lambda`, `rate` and every `rows × w` matrix of a state.
    wp: usize,
    ambient: f64,
    /// `L_rows` eigenvectors as columns, `rows × rows` row-major.
    u: Vec<f64>,
    /// `Uᵀ`.
    ut: Vec<f64>,
    /// `L_strip` eigenvectors as columns, `w × wp` row-major, padding
    /// columns zero.
    v: Vec<f64>,
    /// `Vᵀ`, padded like `v`.
    vt: Vec<f64>,
    /// `λ_km` at `k·wp + m`; `1` for a padding mode.
    lambda: Vec<f64>,
    /// `λ_km / C`, the decay rate of mode `(k, m)`; `0` for a padding
    /// mode, which therefore stays exactly `0`.
    rate: Vec<f64>,
}

/// A grid's thermal state under a [`ModalSolver`]: its modal
/// coordinates, the cell temperatures they imply, the solver's working
/// buffers, and what it may reuse from its earlier windows.
///
/// Every `rows × w` matrix is padded to the solver's lane stride. A
/// state only steps under the solver that made it, so nothing it
/// reuses can come from other factors.
#[derive(Clone, Debug)]
pub struct ModalState {
    /// The id of the solver that made this state.
    solver: u64,
    /// `y`.
    modes: Vec<f64>,
    temps: ThermalState,
    /// A grid: power in, `θ` out.
    grid: Vec<f64>,
    /// Half-transformed intermediate.
    half: Vec<f64>,
    /// The power last projected, block cell order (empty before the
    /// first projection).
    power: Vec<f64>,
    /// `q/λ` of that power.
    settled: Vec<f64>,
    /// `e^{−rate·dt}` for [`DECAY_SLOTS`] window lengths, one padded
    /// matrix per slot (empty before the first window).
    decay: Vec<f64>,
    /// Each slot's `dt.to_bits()`, `None` while unused.
    decay_dt: [Option<u64>; DECAY_SLOTS],
    /// The slot the next new length replaces.
    next_slot: usize,
}

impl ModalState {
    /// The cell temperatures, K, in block cell order.
    pub fn temps(&self) -> &ThermalState {
        &self.temps
    }
}

impl ModalSolver {
    /// Factors the conductance matrix of `blocks` blocks of
    /// `rows × cols` cells under `params`, with `strip[j]` the
    /// conductance between grid columns `j` and `j + 1`
    /// (`blocks·cols − 1` entries; `0` for no edge).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::EmptyFloorplan`] for a zero `rows` or
    /// `cols`, and [`ThermalError::InvalidParam`] for zero `blocks`,
    /// invalid `params`, a `strip` of the wrong length, or a negative
    /// or non-finite strip conductance.
    pub fn new(
        blocks: usize,
        rows: usize,
        cols: usize,
        strip: &[f64],
        params: &RcParams,
    ) -> Result<ModalSolver, ThermalError> {
        if blocks == 0 {
            return Err(ThermalError::InvalidParam {
                param: "blocks",
                value: 0.0,
                reason: "grid needs at least one block",
            });
        }
        if rows == 0 || cols == 0 {
            return Err(ThermalError::EmptyFloorplan { rows, cols });
        }
        params.checked()?;
        if blocks.checked_mul(cols) != Some(strip.len() + 1) {
            return Err(ThermalError::InvalidParam {
                param: "strip",
                value: strip.len() as f64,
                reason: "need one conductance per strip column boundary (blocks·cols − 1)",
            });
        }
        if let Some(&g) = strip.iter().find(|g| !(g.is_finite() && **g >= 0.0)) {
            return Err(ThermalError::InvalidParam {
                param: "strip",
                value: g,
                reason: "strip conductances must be non-negative and finite",
            });
        }
        Ok(ModalSolver::factor(rows, cols, strip, params))
    }

    /// Factors an already validated grid (`strip.len() + 1` columns).
    pub(crate) fn factor(
        rows: usize,
        cols: usize,
        strip: &[f64],
        params: &RcParams,
    ) -> ModalSolver {
        let g_v = 1.0 / params.vertical_resistance;
        let g_lat = 1.0 / params.lateral_resistance;
        let w = strip.len() + 1;
        let wp = padded(w);
        let (mu, u) = path_eigen(&vec![g_lat; rows - 1]);
        let (nu, v) = path_eigen(strip);
        let nu = &nu;
        let lambda: Vec<f64> = mu
            .iter()
            .flat_map(|&m| (0..wp).map(move |j| nu.get(j).map_or(1.0, |&n| g_v + m + n)))
            .collect();
        let rate = lambda
            .iter()
            .enumerate()
            .map(|(i, &l)| {
                if i % wp < w {
                    l / params.cell_capacitance
                } else {
                    0.0
                }
            })
            .collect();
        ModalSolver {
            id: NEXT_SOLVER_ID.fetch_add(1, Ordering::Relaxed),
            rows,
            cols,
            w,
            wp,
            ambient: params.ambient,
            ut: transpose(&u, rows),
            u,
            vt: pad_columns(&transpose(&v, w), w),
            v: pad_columns(&v, w),
            lambda,
            rate,
        }
    }

    /// Total cells in the grid.
    pub fn num_cells(&self) -> usize {
        self.rows * self.w
    }

    /// A state with every cell at ambient.
    pub fn ambient_state(&self) -> ModalState {
        let padded = self.rows * self.wp;
        ModalState {
            solver: self.id,
            modes: vec![0.0; padded],
            temps: ThermalState::uniform(self.num_cells(), self.ambient),
            grid: vec![0.0; padded],
            half: vec![0.0; padded],
            power: Vec::new(),
            settled: vec![0.0; padded],
            decay: Vec::new(),
            decay_dt: [None; DECAY_SLOTS],
            next_slot: 0,
        }
    }

    /// Advances `state` exactly by `dt` seconds under constant `power`
    /// (W per cell, block cell order).
    ///
    /// # Panics
    ///
    /// Panics if `state` was made by another solver, if `power` does
    /// not match the grid, or if `dt` is negative.
    pub fn step(&self, state: &mut ModalState, power: &[f64], dt: f64) {
        assert_eq!(state.solver, self.id, "state belongs to another solver");
        assert!(dt >= 0.0, "negative time step");
        if dt == 0.0 {
            return;
        }
        self.project(power, state);
        let slot = self.decay_slot(state, dt);
        let factors = &state.decay[slot * self.rate.len()..][..self.rate.len()];
        for ((y, settled), decay) in state
            .modes
            .chunks_exact_mut(LANES)
            .zip(state.settled.chunks_exact(LANES))
            .zip(factors.chunks_exact(LANES))
        {
            let settled = W8::read(settled);
            let next = settled.add(W8::read(decay).mul(W8::read(y).sub(settled)));
            next.write(y);
        }
        self.reconstruct(state);
    }

    /// The steady-state temperatures under constant `power`.
    ///
    /// # Panics
    ///
    /// Panics if `power` does not match the grid.
    pub fn steady_state(&self, power: &[f64]) -> ThermalState {
        let mut state = self.ambient_state();
        self.project(power, &mut state);
        state.modes.copy_from_slice(&state.settled);
        self.reconstruct(&mut state);
        state.temps
    }

    /// `q = Uᵀ·P·V` and `q/λ`, with `P` gathered from block cell order
    /// into the grid, unless `power` is bit for bit the power `s` last
    /// projected.
    fn project(&self, power: &[f64], s: &mut ModalState) {
        assert_eq!(power.len(), self.num_cells(), "power vector size mismatch");
        if s.power.len() == power.len()
            && s.power
                .iter()
                .zip(power)
                .all(|(a, b)| a.to_bits() == b.to_bits())
        {
            return;
        }
        let per = self.rows * self.cols;
        for (r, row) in s.grid.chunks_exact_mut(self.wp).enumerate() {
            for (block, cells) in row[..self.w].chunks_exact_mut(self.cols).enumerate() {
                cells.copy_from_slice(&power[block * per + r * self.cols..][..self.cols]);
            }
        }
        mul_lanes(&self.ut, self.rows, self.rows, &s.grid, &mut s.half, self.w);
        mul_lanes(&s.half, self.wp, self.w, &self.v, &mut s.settled, self.w);
        for (q, lambda) in s
            .settled
            .chunks_exact_mut(LANES)
            .zip(self.lambda.chunks_exact(LANES))
        {
            W8::read(q).div(W8::read(lambda)).write(q);
        }
        s.power.clear();
        s.power.extend_from_slice(power);
    }

    /// The slot of `s` holding the decay factors of a window of `dt`
    /// seconds, computed into the next slot round robin unless `s`
    /// already holds them.
    fn decay_slot(&self, s: &mut ModalState, dt: f64) -> usize {
        let key = Some(dt.to_bits());
        if let Some(slot) = s.decay_dt.iter().position(|&d| d == key) {
            return slot;
        }
        let slot = s.next_slot;
        s.next_slot = (slot + 1) % DECAY_SLOTS;
        s.decay_dt[slot] = key;
        let n = self.rate.len();
        s.decay.resize(DECAY_SLOTS * n, 0.0);
        for (f, &rate) in s.decay[slot * n..][..n].iter_mut().zip(&self.rate) {
            *f = exp_neg(rate * dt);
        }
        slot
    }

    /// `θ = U·y·Vᵀ`, scattered back to block cell order as `T_amb + θ`.
    fn reconstruct(&self, s: &mut ModalState) {
        mul_lanes(&self.u, self.rows, self.rows, &s.modes, &mut s.half, self.w);
        mul_lanes(&s.half, self.wp, self.w, &self.vt, &mut s.grid, self.w);
        let per = self.rows * self.cols;
        let temps = s.temps.temps_mut();
        for (r, row) in s.grid.chunks_exact(self.wp).enumerate() {
            for (block, theta) in row[..self.w].chunks_exact(self.cols).enumerate() {
                let cells = &mut temps[block * per + r * self.cols..][..self.cols];
                for (t, &th) in cells.iter_mut().zip(theta) {
                    *t = self.ambient + th;
                }
            }
        }
    }
}

/// `n` rounded up to whole lane chunks.
fn padded(n: usize) -> usize {
    n.div_ceil(LANES) * LANES
}

/// The rows of the row-major `a` (`width` columns) with zero columns
/// appended up to [`padded`]`(width)`.
fn pad_columns(a: &[f64], width: usize) -> Vec<f64> {
    let wp = padded(width);
    let mut out = Vec::with_capacity(a.len() / width * wp);
    for row in a.chunks_exact(width) {
        out.extend_from_slice(row);
        out.resize(out.len() + wp - width, 0.0);
    }
    out
}

/// `out = a·b` on lanes, for `a` with one row per output row, each
/// holding `inner` terms at row stride `a_stride`, and `b` with `inner`
/// rows; `b` and `out` have `width` real columns at row stride
/// [`padded`]`(width)`.
///
/// Register blocks of up to [`BLOCK_ROWS`] rows by two lane chunks
/// accumulate each output from `+0.0` over its `inner` terms in order,
/// one lane `mul` then `add` per term: every lane keeps the bits of the
/// scalar fold `o += a_ip·b_pj`. A padding column of `b` reaches only
/// padding outputs, never a real sum.
///
/// # Panics
///
/// Panics if the slices are too short for these shapes.
fn mul_lanes(a: &[f64], a_stride: usize, inner: usize, b: &[f64], out: &mut [f64], width: usize) {
    let stride = padded(width);
    let rows = out.len() / stride;
    assert_eq!(out.len(), rows * stride, "lane product output shape");
    assert!(inner <= a_stride, "lane product row stride");
    assert!(
        rows == 0 || a.len() >= (rows - 1) * a_stride + inner,
        "lane product left operand too short"
    );
    assert!(
        b.len() >= inner * stride,
        "lane product right operand too short"
    );
    let chunks = width.div_ceil(LANES);
    let (a, b, out) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
    for r0 in (0..rows).step_by(BLOCK_ROWS) {
        let mut c = 0;
        while c < chunks {
            let pair = chunks - c >= 2;
            // SAFETY: the asserts above give `a` `inner` terms in each
            // of `rows` rows at stride `a_stride`, and `b` `inner` rows
            // and `out` `rows` rows of `chunks·LANES ≤ stride` columns.
            // The block starts at row `r0 < rows` and lane chunk
            // `c < chunks`, and covers at most `rows − r0` rows and
            // `chunks − c` chunks.
            unsafe {
                let a = a.add(r0 * a_stride);
                let b = b.add(c * LANES);
                let out = out.add(r0 * stride + c * LANES);
                let k = (a_stride, inner, stride);
                match (rows - r0, pair) {
                    (1, false) => block::<1, 1>(a, b, out, k),
                    (1, true) => block::<1, 2>(a, b, out, k),
                    (2, false) => block::<2, 1>(a, b, out, k),
                    (2, true) => block::<2, 2>(a, b, out, k),
                    (3, false) => block::<3, 1>(a, b, out, k),
                    (3, true) => block::<3, 2>(a, b, out, k),
                    (_, false) => block::<BLOCK_ROWS, 1>(a, b, out, k),
                    (_, true) => block::<BLOCK_ROWS, 2>(a, b, out, k),
                }
            }
            c += if pair { 2 } else { 1 };
        }
    }
}

/// One register block of [`mul_lanes`]: `R` output rows by `C` lane
/// chunks, with `(a_stride, inner, stride)` as there.
///
/// # Safety
///
/// For every `r < R` and `p < inner`, `a.add(r·a_stride + p)` must be
/// readable; for every `p < inner`, `C·LANES` values from
/// `b.add(p·stride)` must be readable; and for every `r < R`, `C·LANES`
/// values from `out.add(r·stride)` must be writable.
#[inline(always)]
unsafe fn block<const R: usize, const C: usize>(
    a: *const f64,
    b: *const f64,
    out: *mut f64,
    (a_stride, inner, stride): (usize, usize, usize),
) {
    let mut acc = [[W8::splat(0.0); C]; R];
    for p in 0..inner {
        let mut terms = [W8::splat(0.0); C];
        for (c, t) in terms.iter_mut().enumerate() {
            // SAFETY: row `p < inner` of `b`, chunk `c < C`.
            *t = unsafe { W8::load(b.add(p * stride + c * LANES)) };
        }
        for (r, row) in acc.iter_mut().enumerate() {
            // SAFETY: row `r < R` of `a`, term `p < inner`.
            let x = W8::splat(unsafe { *a.add(r * a_stride + p) });
            for (sum, &t) in row.iter_mut().zip(&terms) {
                *sum = sum.add(x.mul(t));
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        for (c, sum) in row.iter().enumerate() {
            // SAFETY: row `r < R` of `out`, chunk `c < C`.
            unsafe { sum.store(out.add(r * stride + c * LANES)) };
        }
    }
}

fn transpose(a: &[f64], n: usize) -> Vec<f64> {
    (0..n * n).map(|i| a[(i % n) * n + i / n]).collect()
}

/// Eigenpairs of the Laplacian of a path whose edge `i` (between nodes
/// `i` and `i + 1`) has conductance `edges[i]`; a zero edge is absent.
/// Returns the eigenvalues and the `n × n` row-major matrix whose
/// columns are the matching orthonormal eigenvectors, in QL's order.
///
/// Implicit QL with Wilkinson shifts (*Numerical Recipes* `tqli`, after
/// EISPACK `tql2`). The split test compares an off-diagonal against its
/// two neighbouring diagonal entries only, so disconnected sub-paths
/// factor exactly as they would alone.
fn path_eigen(edges: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let n = edges.len() + 1;
    let mut d: Vec<f64> = (0..n)
        .map(|i| {
            let mut deg = 0.0;
            if i > 0 {
                deg += edges[i - 1];
            }
            if i + 1 < n {
                deg += edges[i];
            }
            deg
        })
        .collect();
    // e[i] couples nodes i and i + 1; e[n - 1] is QL's workspace.
    let mut e: Vec<f64> = edges.iter().map(|&g| -g).chain([0.0]).collect();
    let mut z: Vec<f64> = (0..n * n)
        .map(|i| if i / n == i % n { 1.0 } else { 0.0 })
        .collect();
    for l in 0..n {
        let mut iterations = 0;
        loop {
            let mut m = l;
            while m + 1 < n && e[m].abs() > f64::EPSILON * (d[m].abs() + d[m + 1].abs()) {
                m += 1;
            }
            if m == l {
                break;
            }
            iterations += 1;
            assert!(
                iterations <= 30,
                "QL failed to converge on a path Laplacian"
            );
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = pythag(g, 1.0);
            g = d[m] - d[l] + e[l] / (g + if g >= 0.0 { r } else { -r });
            let (mut s, mut c, mut p) = (1.0, 1.0, 0.0);
            let mut deflated = false;
            for i in (l..m).rev() {
                let f = s * e[i];
                let b = c * e[i];
                r = pythag(f, g);
                e[i + 1] = r;
                if r == 0.0 {
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    deflated = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                for row in z.chunks_exact_mut(n) {
                    let f = row[i + 1];
                    row[i + 1] = s * row[i] + c * f;
                    row[i] = c * row[i] - s * f;
                }
            }
            if deflated {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    (d, z)
}

/// `√(a² + b²)` without destructive overflow or underflow.
fn pythag(a: f64, b: f64) -> f64 {
    let (a, b) = (a.abs(), b.abs());
    if a > b {
        a * (1.0 + (b / a) * (b / a)).sqrt()
    } else if b == 0.0 {
        0.0
    } else {
        b * (1.0 + (a / b) * (a / b)).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `out = a·b` for row-major `a` (`· × inner`) and `b` (`inner ×
    /// ·`), each output summing its terms in `inner` order from `0.0`:
    /// the readable oracle of [`mul_lanes`].
    fn mul(a: &[f64], b: &[f64], out: &mut [f64], inner: usize) {
        let cols = b.len() / inner;
        for (a_row, out_row) in a.chunks_exact(inner).zip(out.chunks_exact_mut(cols)) {
            out_row.fill(0.0);
            for (&a_ip, b_row) in a_row.iter().zip(b.chunks_exact(cols)) {
                for (o, &b_pj) in out_row.iter_mut().zip(b_row) {
                    *o += a_ip * b_pj;
                }
            }
        }
    }

    fn assert_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{what}: entry {i}: {g:e} vs {w:e}"
            );
        }
    }

    /// Seeded operands: ordinary values, signed zeros and subnormals.
    fn operand(rng: &mut StdRng, n: usize) -> Vec<f64> {
        (0..n)
            .map(|_| match rng.gen_range(0..8u32) {
                0 => 0.0,
                1 => -0.0,
                2 => f64::from_bits(rng.gen_range(1..1u64 << 52)),
                3 => -f64::from_bits(rng.gen_range(1..1u64 << 52)),
                _ => rng.gen_range(-1.0..1.0),
            })
            .collect()
    }

    /// The row-major `rows × width` part of a matrix at row stride
    /// [`padded`]`(width)`.
    fn unpad(a: &[f64], width: usize) -> Vec<f64> {
        a.chunks_exact(padded(width))
            .flat_map(|row| row[..width].iter().copied())
            .collect()
    }

    /// Both product shapes of a window, `(rows × rows)·(rows × w)` and
    /// `(rows × w)·(w × w)`, against the scalar fold. One row of each
    /// left operand is all `−0.0` and one column of each right operand
    /// is positive, so an output whose every term is `−0.0` must still
    /// come out `+0.0`.
    #[test]
    fn lane_product_matches_the_scalar_fold_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(31);
        let shapes = [
            (1, 1),
            (1, 9),
            (4, 8),
            (5, 13),
            (6, 12),
            (6, 24),
            (8, 32),
            (8, 64),
            (3, 70),
        ];
        for (rows, w) in shapes {
            let wp = padded(w);
            for inner in [rows, w] {
                let mut a = operand(&mut rng, rows * inner);
                a[..inner].fill(-0.0);
                let mut b = operand(&mut rng, inner * w);
                for row in b.chunks_exact_mut(w) {
                    row[0] = row[0].abs() + 0.5;
                }
                let mut want = vec![0.0; rows * w];
                mul(&a, &b, &mut want, inner);

                // The left operand at a wider stride when it is a
                // padded `rows × w` matrix, as in a window.
                let a_stride = if inner == w { wp } else { inner };
                let mut a_lanes = vec![f64::NAN; rows * a_stride];
                for (dst, src) in a_lanes
                    .chunks_exact_mut(a_stride)
                    .zip(a.chunks_exact(inner))
                {
                    dst[..inner].copy_from_slice(src);
                }
                let b_lanes = pad_columns(&b, w);
                let mut out = vec![f64::NAN; rows * wp];
                mul_lanes(&a_lanes, a_stride, inner, &b_lanes, &mut out, w);
                assert_bits(
                    &unpad(&out, w),
                    &want,
                    &format!("{rows}x{w}, inner {inner}"),
                );
            }
        }
    }

    /// The die geometries of the committed `scenarios/` specs (blocks,
    /// rows, cols, coupling resistance), all under the default RC
    /// parameters; `tadfa-sched`'s tests check this list against the
    /// specs.
    const COMMITTED_DIES: [(usize, usize, usize, Option<f64>); 7] = [
        (1, 8, 8, None),
        (2, 4, 4, Some(2.0)),
        (2, 4, 4, Some(30.0)),
        (2, 6, 6, Some(25.0)),
        (4, 6, 6, Some(25.0)),
        (4, 8, 8, Some(40.0)),
        (8, 4, 4, Some(60.0)),
    ];

    /// A die's solver, built the way `MultiCoreFloorplan::modal` builds
    /// it: lateral conductance inside a block, the coupling conductance
    /// between facing columns, no edge between uncoupled blocks.
    fn die(blocks: usize, rows: usize, cols: usize, coupling: Option<f64>) -> ModalSolver {
        let rc = RcParams::default();
        let g_lat = 1.0 / rc.lateral_resistance;
        let g_couple = coupling.map_or(0.0, |r| 1.0 / r);
        let strip: Vec<f64> = (1..blocks * cols)
            .map(|j| if j % cols == 0 { g_couple } else { g_lat })
            .collect();
        ModalSolver::new(blocks, rows, cols, &strip, &rc).unwrap()
    }

    /// One window as it was before lanes and reuse: scalar products
    /// over the unpadded factors, the projection and every decay factor
    /// recomputed. `modes` is `rows × w`.
    fn oracle_window(
        solver: &ModalSolver,
        modes: &mut [f64],
        temps: &mut [f64],
        power: &[f64],
        dt: f64,
    ) {
        if dt == 0.0 {
            return;
        }
        let (rows, cols, w) = (solver.rows, solver.cols, solver.w);
        let per = rows * cols;
        let (v, vt) = (unpad(&solver.v, w), unpad(&solver.vt, w));
        let (lambda, rate) = (unpad(&solver.lambda, w), unpad(&solver.rate, w));
        let mut grid = vec![0.0; rows * w];
        for (r, row) in grid.chunks_exact_mut(w).enumerate() {
            for (block, cells) in row.chunks_exact_mut(cols).enumerate() {
                cells.copy_from_slice(&power[block * per + r * cols..][..cols]);
            }
        }
        let mut half = vec![0.0; rows * w];
        let mut q = vec![0.0; rows * w];
        mul(&solver.ut, &grid, &mut half, rows);
        mul(&half, &v, &mut q, w);
        for (((y, &q), &lambda), &rate) in modes.iter_mut().zip(&q).zip(&lambda).zip(&rate) {
            let settled = q / lambda;
            *y = settled + exp_neg(rate * dt) * (*y - settled);
        }
        mul(&solver.u, modes, &mut half, rows);
        mul(&half, &vt, &mut grid, w);
        for (r, row) in grid.chunks_exact(w).enumerate() {
            for (block, theta) in row.chunks_exact(cols).enumerate() {
                for (t, &th) in temps[block * per + r * cols..][..cols]
                    .iter_mut()
                    .zip(theta)
                {
                    *t = solver.ambient + th;
                }
            }
        }
    }

    /// A window sequence that reuses and misses both caches: repeated
    /// powers, one-cell changes at either end of the power vector,
    /// repeated lengths, six distinct lengths through four slots (so
    /// evicted lengths come back), and a zero-length window. Every
    /// window's temperatures and modes must carry the oracle's bits.
    #[test]
    fn window_sequence_matches_the_no_reuse_oracle_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(32);
        let odd_widths = [
            (1, 1, 1, None),
            (1, 3, 5, None),
            (1, 4, 13, None),
            (3, 2, 3, Some(5.0)),
            (5, 3, 3, None),
            (2, 3, 35, Some(10.0)),
        ];
        for (blocks, rows, cols, coupling) in COMMITTED_DIES.into_iter().chain(odd_widths) {
            let solver = die(blocks, rows, cols, coupling);
            let n = solver.num_cells();
            let p0: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..2e-3)).collect();
            let p1: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..2e-3)).collect();
            let mut p2 = p1.clone();
            p2[n - 1] += 1e-4;
            let mut p3 = p2.clone();
            p3[0] += 1e-4;
            let lengths = [1e-4, 2.5e-4, 7e-5, 1e-3, 3e-3, 5e-4];
            let windows = [
                (&p0, 0),
                (&p0, 0),
                (&p0, 1),
                (&p1, 1),
                (&p1, 6),
                (&p1, 2),
                (&p2, 2),
                (&p3, 3),
                (&p3, 4),
                (&p0, 0),
                (&p0, 4),
                (&p1, 1),
                (&p2, 5),
                (&p2, 0),
                (&p1, 6),
                (&p0, 2),
                (&p0, 3),
                (&p3, 5),
            ];
            let mut state = solver.ambient_state();
            let mut modes = vec![0.0; n];
            let mut temps = vec![solver.ambient; n];
            for (i, &(power, len)) in windows.iter().enumerate() {
                let dt = lengths.get(len).copied().unwrap_or(0.0);
                solver.step(&mut state, power, dt);
                oracle_window(&solver, &mut modes, &mut temps, power, dt);
                let what = format!("{blocks}x{rows}x{cols} window {i}");
                assert_bits(state.temps().temps(), &temps, &what);
                assert_bits(&unpad(&state.modes, solver.w), &modes, &what);
            }
        }
    }

    #[test]
    #[should_panic(expected = "state belongs to another solver")]
    fn a_state_steps_only_under_the_solver_that_made_it() {
        let (a, b) = (die(2, 4, 4, Some(2.0)), die(2, 4, 4, Some(2.0)));
        let power = vec![1e-3; a.num_cells()];
        let mut state = a.ambient_state();
        a.clone().step(&mut state, &power, 1e-3);
        b.step(&mut state, &power, 1e-3);
    }

    #[test]
    fn construction_is_error_first() {
        let rc = RcParams::default();
        let invalid = |r: Result<ModalSolver, ThermalError>, name: &str| {
            assert!(
                matches!(r, Err(ThermalError::InvalidParam { param, .. }) if param == name),
                "expected an invalid {name}"
            );
        };
        invalid(ModalSolver::new(0, 2, 2, &[], &rc), "blocks");
        assert!(matches!(
            ModalSolver::new(1, 0, 2, &[1.0], &rc),
            Err(ThermalError::EmptyFloorplan { rows: 0, cols: 2 })
        ));
        let bad = RcParams {
            ambient: f64::NAN,
            ..rc
        };
        invalid(ModalSolver::new(1, 2, 2, &[1.0], &bad), "ambient");
        // Two blocks of two columns have three column boundaries.
        invalid(ModalSolver::new(2, 2, 2, &[1.0, 1.0], &rc), "strip");
        invalid(ModalSolver::new(usize::MAX, 2, 2, &[1.0], &rc), "strip");
        invalid(ModalSolver::new(2, 2, 2, &[1.0, -0.5, 1.0], &rc), "strip");
        invalid(
            ModalSolver::new(2, 2, 2, &[1.0, f64::INFINITY, 1.0], &rc),
            "strip",
        );
        invalid(
            ModalSolver::new(2, 2, 2, &[1.0, f64::NAN, 1.0], &rc),
            "strip",
        );
        // A zero weight is an absent edge, not an error.
        assert!(ModalSolver::new(2, 2, 2, &[1.0, 0.0, 1.0], &rc).is_ok());
    }

    #[test]
    fn zero_power_leaves_every_cell_at_ambient() {
        let rc = RcParams::default();
        let solver = ModalSolver::new(3, 2, 3, &[0.5; 8], &rc).unwrap();
        let power = vec![0.0; solver.num_cells()];
        let mut state = solver.ambient_state();
        solver.step(&mut state, &power, 1e-3);
        for temps in [state.temps(), &solver.steady_state(&power)] {
            assert!(temps.temps().iter().all(|&t| t == rc.ambient));
        }
    }
}
