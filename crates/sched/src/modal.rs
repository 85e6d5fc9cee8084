//! The die's exact modal integrator.
//!
//! A [`MultiCoreFloorplan`] is one `rows × w` grid of cells,
//! `w = cores · cols`, with a single cell capacitance `C`: die cell
//! `core·rows·cols + row·cols + col` sits at grid position
//! `(row, core·cols + col)`. Its conductance matrix therefore factors
//! as
//!
//! ```text
//! G = g_v·I + L_rows ⊗ I + I ⊗ L_strip
//! ```
//!
//! where `L_rows` is the path Laplacian of one grid column (`g_lat` on
//! every edge) and `L_strip` that of one grid row across the die
//! (`g_lat` inside a core, `1/coupling_resistance` between facing
//! columns, no edge at all between uncoupled cores). Both are small and
//! tridiagonal, so an implicit-QL routine factors them once,
//! `L_rows = U·diag(μ)·Uᵀ` and `L_strip = V·diag(ν)·Vᵀ`, and `G` has
//! eigenvalues `λ_km = g_v + μ_k + ν_m` with vectors `u_k ⊗ v_m`.
//!
//! In excess temperature `θ = T − T_amb` the die obeys
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
//! comes from [`tadfa_thermal::exp_neg`], so no libm transcendental
//! reaches a temperature. Every product folds its terms in a fixed
//! order, so a run's bits are a function of its inputs alone. Zero
//! power leaves every cell exactly at ambient.
//!
//! With no coupling, `L_strip` is block-diagonal with one identical
//! block per core. QL never rotates across a zero off-diagonal and
//! judges convergence from neighbouring entries only, so each block's
//! eigenpairs are bit-identical to a one-core die's, and the products
//! add only exact zeros for other cores' modes: each core's slice of a
//! solve is bit-identical to a one-core die solved the same way.

use crate::multicore::MultiCoreFloorplan;
use tadfa_thermal::{exp_neg, ThermalState};

/// The exact solver of one [`MultiCoreFloorplan`]: the eigenpairs of
/// its conductance matrix, factored once at construction (a few KB per
/// die). Solve windows with [`ModalDie::step`] and steady states with
/// [`ModalDie::steady_state`].
///
/// # Examples
///
/// ```
/// use tadfa_sched::{ModalDie, MultiCoreFloorplan};
/// use tadfa_thermal::RcParams;
///
/// let die = MultiCoreFloorplan::new(2, 4, 4, RcParams::default(), Some(40.0))?;
/// let solver = ModalDie::new(&die);
/// let mut power = vec![0.0; die.num_cells()];
/// power[5] = 1e-3;
///
/// let mut state = solver.ambient_state();
/// solver.step(&mut state, &power, 1e-3);
/// let steady = solver.steady_state(&power);
/// assert!(state.temps().get(5) > RcParams::default().ambient);
/// assert!(state.temps().get(5) < steady.get(5)); // still heating
/// # Ok::<(), tadfa_thermal::ThermalError>(())
/// ```
#[derive(Clone, Debug)]
pub struct ModalDie {
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

/// A die's thermal state under a [`ModalDie`]: its modal coordinates,
/// the cell temperatures they imply, and the solver's working buffers.
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
    /// The cell temperatures, K, in die cell order.
    pub fn temps(&self) -> &ThermalState {
        &self.temps
    }
}

impl ModalDie {
    /// Factors `die`'s conductance matrix.
    pub fn new(die: &MultiCoreFloorplan) -> ModalDie {
        let rc = die.rc_params();
        let g_v = 1.0 / rc.vertical_resistance;
        let g_lat = 1.0 / rc.lateral_resistance;
        let (rows, cols) = (die.rows(), die.cols());
        let w = die.cores() * cols;
        let g_couple = die.coupling_resistance().map_or(0.0, |r| 1.0 / r);
        let (mu, u) = path_eigen(&vec![g_lat; rows - 1]);
        let strip: Vec<f64> = (1..w)
            .map(|j| if j % cols == 0 { g_couple } else { g_lat })
            .collect();
        let (nu, v) = path_eigen(&strip);
        let lambda: Vec<f64> = mu
            .iter()
            .flat_map(|&m| nu.iter().map(move |&n| g_v + m + n))
            .collect();
        let rate = lambda.iter().map(|&l| l / rc.cell_capacitance).collect();
        ModalDie {
            rows,
            cols,
            w,
            ambient: rc.ambient,
            ut: transpose(&u, rows),
            u,
            vt: transpose(&v, w),
            v,
            lambda,
            rate,
        }
    }

    /// Total cells on the die.
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
    /// (W per cell, die cell order).
    ///
    /// # Panics
    ///
    /// Panics if `power` or `state` does not match the die, or `dt` is
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
    /// Panics if `power` does not match the die.
    pub fn steady_state(&self, power: &[f64]) -> ThermalState {
        let mut state = self.ambient_state();
        self.project(power, &mut state);
        for ((y, &q), &lambda) in state.modes.iter_mut().zip(&state.q).zip(&self.lambda) {
            *y = q / lambda;
        }
        self.reconstruct(&mut state);
        state.temps
    }

    /// `q = Uᵀ·P·V`, with `P` gathered from die cell order into the grid.
    fn project(&self, power: &[f64], s: &mut ModalState) {
        assert_eq!(power.len(), self.num_cells(), "power vector size mismatch");
        assert_eq!(s.q.len(), self.num_cells(), "state size mismatch");
        let per = self.rows * self.cols;
        for (r, row) in s.grid.chunks_exact_mut(self.w).enumerate() {
            for (core, cells) in row.chunks_exact_mut(self.cols).enumerate() {
                cells.copy_from_slice(&power[core * per + r * self.cols..][..self.cols]);
            }
        }
        mul(&self.ut, &s.grid, &mut s.half, self.rows);
        mul(&s.half, &self.v, &mut s.q, self.w);
    }

    /// `θ = U·y·Vᵀ`, scattered back to die cell order as `T_amb + θ`.
    fn reconstruct(&self, s: &mut ModalState) {
        mul(&self.u, &s.modes, &mut s.half, self.rows);
        mul(&s.half, &self.vt, &mut s.grid, self.w);
        let per = self.rows * self.cols;
        let temps = s.temps.temps_mut();
        for (r, row) in s.grid.chunks_exact(self.w).enumerate() {
            for (core, theta) in row.chunks_exact(self.cols).enumerate() {
                let cells = &mut temps[core * per + r * self.cols..][..self.cols];
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
    use crate::multicore::naive_coupled_step;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::path::Path;
    use tadfa_thermal::RcParams;

    fn die(cores: usize, rows: usize, cols: usize, coupling: Option<f64>) -> MultiCoreFloorplan {
        MultiCoreFloorplan::new(cores, rows, cols, RcParams::default(), coupling).unwrap()
    }

    /// The oracle shapes: the covert channels' stiff 2 K/W die, an
    /// uncoupled die, and single-column cores whose middle core couples
    /// on both sides.
    fn shapes() -> [MultiCoreFloorplan; 3] {
        [
            die(2, 4, 4, Some(2.0)),
            die(3, 4, 4, None),
            die(3, 4, 1, Some(5.0)),
        ]
    }

    /// About a third of the cells at up to 2 mW, and at least one cell
    /// at 1 mW or more.
    fn random_power(rng: &mut StdRng, n: usize) -> Vec<f64> {
        let mut p: Vec<f64> = (0..n)
            .map(|_| {
                if rng.gen_bool(0.35) {
                    rng.gen_range(0.0..2e-3)
                } else {
                    0.0
                }
            })
            .collect();
        p[rng.gen_range(0..n)] += 1e-3;
        p
    }

    /// Every distinct die geometry a committed `scenarios/` spec
    /// describes.
    fn committed_dies() -> Vec<MultiCoreFloorplan> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
        let geometry = |d: &MultiCoreFloorplan| {
            (
                d.cores(),
                d.rows(),
                d.cols(),
                d.rc_params(),
                d.coupling_resistance(),
            )
        };
        let mut dies: Vec<MultiCoreFloorplan> = Vec::new();
        for (_, cfg) in crate::spec::load_spec_dir(&dir).unwrap() {
            if !dies.iter().any(|d| geometry(d) == geometry(&cfg.die)) {
                dies.push(cfg.die);
            }
        }
        assert!(dies.len() >= 4, "committed dies: {}", dies.len());
        dies
    }

    /// Explicit Euler with its sub-step divided by k = 1, 4, 16, 64
    /// approaches the exact window at first order: each 4× refinement
    /// cuts the error about 4×. Two windows, so the second starts from
    /// a carried (non-ambient) modal state.
    #[test]
    fn refined_euler_converges_to_the_modal_window_at_first_order() {
        let mut rng = StdRng::seed_from_u64(1);
        for d in shapes() {
            let solver = ModalDie::new(&d);
            let window = 1e-4;
            let n_sub = (window / d.max_stable_dt()).ceil() as usize;
            let powers = [
                random_power(&mut rng, d.num_cells()),
                random_power(&mut rng, d.num_cells()),
            ];
            let mut exact = solver.ambient_state();
            let mut eulers: Vec<ThermalState> = (0..4).map(|_| d.ambient_state()).collect();
            for power in &powers {
                solver.step(&mut exact, power, window);
                let errors: Vec<f64> = eulers
                    .iter_mut()
                    .zip([1, 4, 16, 64])
                    .map(|(euler, k)| {
                        let pieces = n_sub * k;
                        for _ in 0..pieces {
                            naive_coupled_step(&d, euler, power, window / pieces as f64);
                        }
                        euler.linf_distance(exact.temps())
                    })
                    .collect();
                for pair in errors.windows(2) {
                    let ratio = pair[0] / pair[1];
                    assert!(
                        (3.0..=5.0).contains(&ratio),
                        "{}x{}x{} coupling {:?}: errors {errors:?}",
                        d.cores(),
                        d.rows(),
                        d.cols(),
                        d.coupling_resistance()
                    );
                }
            }
        }
    }

    /// Gauss–Seidel over the die adjacency, in excess temperature, until
    /// no cell moves by `tol`.
    fn gauss_seidel(d: &MultiCoreFloorplan, power: &[f64], tol: f64) -> Vec<f64> {
        let adj = d.adjacency();
        let g_v = 1.0 / d.rc_params().vertical_resistance;
        let mut theta = vec![0.0; power.len()];
        loop {
            let mut moved = 0.0f64;
            for (i, edges) in adj.iter().enumerate() {
                let (mut num, mut den) = (power[i], g_v);
                for &(j, g) in edges {
                    num += g * theta[j as usize];
                    den += g;
                }
                moved = moved.max((num / den - theta[i]).abs());
                theta[i] = num / den;
            }
            if moved < tol {
                return theta;
            }
        }
    }

    #[test]
    fn steady_state_matches_gauss_seidel_run_to_convergence() {
        let mut rng = StdRng::seed_from_u64(2);
        for d in shapes().into_iter().chain([die(4, 8, 8, Some(40.0))]) {
            let power = random_power(&mut rng, d.num_cells());
            let reference = gauss_seidel(&d, &power, 1e-13);
            let steady = ModalDie::new(&d).steady_state(&power);
            let amb = d.rc_params().ambient;
            for (i, (&t, &theta)) in steady.temps().iter().zip(&reference).enumerate() {
                assert!(
                    (t - amb - theta).abs() <= 1e-9,
                    "cell {i}: modal {} vs Gauss–Seidel {theta}",
                    t - amb
                );
            }
        }
    }

    /// Under seeded piecewise-constant power, on every committed die: no
    /// cell drops below ambient, no cell passes its steady temperature
    /// under the cell-wise maximum power, and doubling the power doubles
    /// the rise.
    #[test]
    fn committed_dies_obey_the_physical_invariants() {
        let mut rng = StdRng::seed_from_u64(3);
        for d in committed_dies() {
            let solver = ModalDie::new(&d);
            let amb = d.rc_params().ambient;
            let n = d.num_cells();
            let windows: Vec<(Vec<f64>, f64)> = (0..24)
                .map(|w| {
                    // Every third window cools with the power off.
                    let p = if w % 3 == 2 {
                        vec![0.0; n]
                    } else {
                        random_power(&mut rng, n)
                    };
                    (p, rng.gen_range(5e-5..5.05e-3))
                })
                .collect();
            let mut p_max = vec![0.0f64; n];
            for (p, _) in &windows {
                for (m, &x) in p_max.iter_mut().zip(p) {
                    *m = m.max(x);
                }
            }
            let ceiling = solver.steady_state(&p_max);
            let (mut once, mut twice) = (solver.ambient_state(), solver.ambient_state());
            for (p, h) in &windows {
                solver.step(&mut once, p, *h);
                let doubled: Vec<f64> = p.iter().map(|x| 2.0 * x).collect();
                solver.step(&mut twice, &doubled, *h);
                let (t1, t2) = (once.temps(), twice.temps());
                assert!(t1.min() >= amb - 1e-9, "below ambient: {}", t1.min());
                let rise = t1.peak() - amb;
                for ((&a, &b), &c) in t1.temps().iter().zip(t2.temps()).zip(ceiling.temps()) {
                    assert!(a <= c + 1e-9, "{a} above its ceiling {c}");
                    assert!(
                        ((b - amb) - 2.0 * (a - amb)).abs() <= 1e-12 * 2.0 * rise,
                        "not linear: {} vs 2 × {}",
                        b - amb,
                        a - amb
                    );
                }
            }
        }
    }
}
