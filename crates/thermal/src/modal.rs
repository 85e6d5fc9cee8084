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
//! # Determinism
//!
//! The factors use only `+ − × ÷` and `sqrt`, and the decay factor
//! comes from [`exp_neg`], so no libm transcendental reaches a
//! temperature. Every product folds its terms in a fixed order, so a
//! run's bits are a function of its inputs alone. Zero power leaves
//! every cell exactly at ambient.
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
use crate::rc::RcParams;
use crate::state::ThermalState;

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
    rows: usize,
    cols: usize,
    w: usize,
    ambient: f64,
    /// `L_rows` eigenvectors as columns, `rows × rows` row-major.
    u: Vec<f64>,
    /// `Uᵀ`.
    ut: Vec<f64>,
    /// `L_strip` eigenvectors as columns, `w × w` row-major.
    v: Vec<f64>,
    /// `Vᵀ`.
    vt: Vec<f64>,
    /// `λ_km` at `k·w + m`.
    lambda: Vec<f64>,
    /// `λ_km / C`, the decay rate of mode `(k, m)`.
    rate: Vec<f64>,
}

/// A grid's thermal state under a [`ModalSolver`]: its modal
/// coordinates, the cell temperatures they imply, and the solver's
/// working buffers.
#[derive(Clone, Debug)]
pub struct ModalState {
    /// `y`, `rows × w` row-major.
    modes: Vec<f64>,
    temps: ThermalState,
    /// A `rows × w` grid: power in, `θ` out.
    grid: Vec<f64>,
    /// Half-transformed `rows × w` intermediate.
    half: Vec<f64>,
    /// `q`, the modal power.
    q: Vec<f64>,
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
        let (mu, u) = path_eigen(&vec![g_lat; rows - 1]);
        let (nu, v) = path_eigen(strip);
        let lambda: Vec<f64> = mu
            .iter()
            .flat_map(|&m| nu.iter().map(move |&n| g_v + m + n))
            .collect();
        let rate = lambda
            .iter()
            .map(|&l| l / params.cell_capacitance)
            .collect();
        ModalSolver {
            rows,
            cols,
            w,
            ambient: params.ambient,
            ut: transpose(&u, rows),
            u,
            vt: transpose(&v, w),
            v,
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
        let n = self.num_cells();
        ModalState {
            modes: vec![0.0; n],
            temps: ThermalState::uniform(n, self.ambient),
            grid: vec![0.0; n],
            half: vec![0.0; n],
            q: vec![0.0; n],
        }
    }

    /// Advances `state` exactly by `dt` seconds under constant `power`
    /// (W per cell, block cell order).
    ///
    /// # Panics
    ///
    /// Panics if `power` or `state` does not match the grid, or `dt` is
    /// negative.
    pub fn step(&self, state: &mut ModalState, power: &[f64], dt: f64) {
        assert!(dt >= 0.0, "negative time step");
        if dt == 0.0 {
            return;
        }
        self.project(power, state);
        for (((y, &q), &lambda), &rate) in state
            .modes
            .iter_mut()
            .zip(&state.q)
            .zip(&self.lambda)
            .zip(&self.rate)
        {
            let settled = q / lambda;
            *y = settled + exp_neg(rate * dt) * (*y - settled);
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
        for ((y, &q), &lambda) in state.modes.iter_mut().zip(&state.q).zip(&self.lambda) {
            *y = q / lambda;
        }
        self.reconstruct(&mut state);
        state.temps
    }

    /// `q = Uᵀ·P·V`, with `P` gathered from block cell order into the
    /// grid.
    fn project(&self, power: &[f64], s: &mut ModalState) {
        assert_eq!(power.len(), self.num_cells(), "power vector size mismatch");
        assert_eq!(s.q.len(), self.num_cells(), "state size mismatch");
        let per = self.rows * self.cols;
        for (r, row) in s.grid.chunks_exact_mut(self.w).enumerate() {
            for (block, cells) in row.chunks_exact_mut(self.cols).enumerate() {
                cells.copy_from_slice(&power[block * per + r * self.cols..][..self.cols]);
            }
        }
        mul(&self.ut, &s.grid, &mut s.half, self.rows);
        mul(&s.half, &self.v, &mut s.q, self.w);
    }

    /// `θ = U·y·Vᵀ`, scattered back to block cell order as `T_amb + θ`.
    fn reconstruct(&self, s: &mut ModalState) {
        mul(&self.u, &s.modes, &mut s.half, self.rows);
        mul(&s.half, &self.vt, &mut s.grid, self.w);
        let per = self.rows * self.cols;
        let temps = s.temps.temps_mut();
        for (r, row) in s.grid.chunks_exact(self.w).enumerate() {
            for (block, theta) in row.chunks_exact(self.cols).enumerate() {
                let cells = &mut temps[block * per + r * self.cols..][..self.cols];
                for (t, &th) in cells.iter_mut().zip(theta) {
                    *t = self.ambient + th;
                }
            }
        }
    }
}

/// `out = a·b` for row-major `a` (`· × inner`) and `b` (`inner × ·`).
/// Each output sums its terms in `inner` order from `0.0`.
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
