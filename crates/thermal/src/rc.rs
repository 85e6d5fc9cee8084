//! The compact RC thermal network and its transient / steady-state
//! solvers.
//!
//! Each floorplan cell `i` obeys
//!
//! ```text
//! C · dT_i/dt = P_i  −  (T_i − T_amb)/R_vert  −  Σ_j (T_i − T_j)/R_lat
//! ```
//!
//! with the sum over 4-connected neighbours. [`ThermalModel`]'s own
//! solvers are the readable oracles: explicit Euler with automatic
//! sub-stepping below the stability limit, and Gauss–Seidel on the
//! (diagonally dominant) conductance system for the steady state.
//! Production code steps through [`ThermalModel::compile`]
//! (bit-identical to [`ThermalModel::step`]) and solves windows and
//! steady states exactly through [`ThermalModel::modal`] (within
//! 1e-9 K of Gauss–Seidel run to 1e-13 K, asserted by
//! `crates/thermal/tests/kernel_identity.rs`).

use crate::constants;
use crate::error::ThermalError;
use crate::floorplan::Floorplan;
use crate::modal::ModalSolver;
use crate::solver::{CompiledModel, StepScratch};
use crate::state::ThermalState;
use serde::{Deserialize, Serialize};

/// Lumped RC parameters of the network (per cell / per edge).
#[derive(Copy, Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct RcParams {
    /// Thermal capacitance per cell, J/K.
    pub cell_capacitance: f64,
    /// Resistance between two adjacent cells, K/W.
    pub lateral_resistance: f64,
    /// Resistance from a cell to ambient, K/W.
    pub vertical_resistance: f64,
    /// Ambient temperature, K.
    pub ambient: f64,
}

impl Default for RcParams {
    /// The calibrated defaults of [`crate::constants`].
    fn default() -> RcParams {
        RcParams {
            cell_capacitance: constants::DEFAULT_CELL_CAPACITANCE,
            lateral_resistance: constants::DEFAULT_LATERAL_RESISTANCE,
            vertical_resistance: constants::DEFAULT_VERTICAL_RESISTANCE,
            ambient: constants::DEFAULT_AMBIENT,
        }
    }
}

impl RcParams {
    /// Validates the parameters, error-first.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParam`] naming the first
    /// parameter that is non-positive or non-finite.
    pub fn checked(&self) -> Result<(), ThermalError> {
        for (param, value) in [
            ("cell_capacitance", self.cell_capacitance),
            ("lateral_resistance", self.lateral_resistance),
            ("vertical_resistance", self.vertical_resistance),
            ("ambient", self.ambient),
        ] {
            if value <= 0.0 || !value.is_finite() {
                return Err(ThermalError::InvalidParam {
                    param,
                    value,
                    reason: "must be positive and finite",
                });
            }
        }
        Ok(())
    }

    /// Lateral decay length λ = √(R_vert / R_lat), in cell units: how far
    /// a hot spot's influence reaches before the vertical path wins.
    pub fn decay_length(&self) -> f64 {
        (self.vertical_resistance / self.lateral_resistance).sqrt()
    }
}

/// Tolerance and sweep budget of the Gauss–Seidel steady-state solver.
///
/// The defaults reproduce the historical hard-coded values (1 µK L∞
/// update, 100 000 sweeps).
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct SteadyStateOptions {
    /// Stop once no cell's update exceeds this, Kelvin.
    pub tolerance: f64,
    /// Give up (reporting non-convergence) after this many sweeps.
    pub max_sweeps: usize,
}

impl Default for SteadyStateOptions {
    fn default() -> SteadyStateOptions {
        SteadyStateOptions {
            tolerance: 1e-6,
            max_sweeps: 100_000,
        }
    }
}

/// How a Gauss–Seidel steady-state solve ended.
///
/// Replaces the historical silent behaviour (a `debug_assert!` that
/// vanished in release builds): iteration count and convergence status
/// are always recorded and returned.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct SteadyStateStats {
    /// Sweeps executed.
    pub sweeps: usize,
    /// Whether the final sweep's L∞ update beat the tolerance.
    pub converged: bool,
    /// The final sweep's L∞ update, Kelvin (∞ if no sweep ran).
    pub residual: f64,
}

/// The RC network over a specific floorplan.
///
/// # Examples
///
/// ```
/// use tadfa_thermal::{Floorplan, RcParams, ThermalModel};
///
/// let model = ThermalModel::new(Floorplan::grid(4, 4), RcParams::default());
/// let mut power = vec![0.0; 16];
/// power[5] = 1e-3; // 1 mW in one register
/// let steady = model.steady_state(&power);
/// assert!(steady.get(5) > model.ambient());           // heats up
/// assert!(steady.get(5) > steady.get(15));            // hotter than far cell
/// ```
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct ThermalModel {
    floorplan: Floorplan,
    params: RcParams,
}

impl ThermalModel {
    /// Builds the network, error-first.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParam`] if `params` fail
    /// validation.
    pub fn try_new(floorplan: Floorplan, params: RcParams) -> Result<ThermalModel, ThermalError> {
        params.checked()?;
        Ok(ThermalModel { floorplan, params })
    }

    /// Legacy panicking wrapper over [`ThermalModel::try_new`]; prefer
    /// the error-first form in new code.
    ///
    /// # Panics
    ///
    /// Panics if `params` fail validation.
    pub fn new(floorplan: Floorplan, params: RcParams) -> ThermalModel {
        match ThermalModel::try_new(floorplan, params) {
            Ok(m) => m,
            Err(e) => panic!("{e}"),
        }
    }

    /// Compiles this model into a reusable transient plan (coefficient
    /// tables + stencil kernels). See
    /// [`CompiledModel`](crate::solver::CompiledModel).
    pub fn compile(&self) -> CompiledModel {
        CompiledModel::new(self)
    }

    /// Factors this network into its exact [`ModalSolver`]: the
    /// one-block grid, with `g_lat` at every column boundary.
    pub fn modal(&self) -> ModalSolver {
        let (rows, cols) = (self.floorplan.rows(), self.floorplan.cols());
        let strip = vec![1.0 / self.params.lateral_resistance; cols - 1];
        ModalSolver::factor(rows, cols, &strip, &self.params)
    }

    /// The floorplan.
    pub fn floorplan(&self) -> &Floorplan {
        &self.floorplan
    }

    /// The parameters.
    pub fn params(&self) -> &RcParams {
        &self.params
    }

    /// Ambient temperature, K.
    pub fn ambient(&self) -> f64 {
        self.params.ambient
    }

    /// Number of cells.
    pub fn num_cells(&self) -> usize {
        self.floorplan.num_cells()
    }

    /// A state with every cell at ambient.
    pub fn ambient_state(&self) -> ThermalState {
        ThermalState::uniform(self.num_cells(), self.params.ambient)
    }

    /// Largest explicit-Euler step that is stable for this network:
    /// `dt_max = C / G_max` where `G_max` is the biggest total nodal
    /// conductance (4 lateral neighbours + vertical). We halve it for
    /// margin.
    pub fn max_stable_dt(&self) -> f64 {
        let g_max = 1.0 / self.params.vertical_resistance + 4.0 / self.params.lateral_resistance;
        0.5 * self.params.cell_capacitance / g_max
    }

    /// Advances `state` by `dt` seconds under the given per-cell power,
    /// sub-stepping as needed for stability.
    ///
    /// This is the **naive reference solver**: a fresh buffer per call
    /// and the neighbour iterator per cell. It stays in this readable
    /// form deliberately — the compiled kernels of
    /// [`CompiledModel`](crate::solver::CompiledModel) are verified
    /// bit-identical against it. Hot paths should compile the model
    /// once and use [`CompiledModel::step_into`].
    ///
    /// # Panics
    ///
    /// Panics if `power.len()` differs from the cell count, `dt` is
    /// negative, or any power is negative.
    pub fn step(&self, state: &mut ThermalState, power: &[f64], dt: f64) {
        let mut scratch = StepScratch::new();
        self.step_into(state, power, dt, &mut scratch);
    }

    /// [`step`](ThermalModel::step) into a caller-owned scratch buffer —
    /// the allocation-free form of the naive reference solver. Results
    /// are bit-identical to [`step`](ThermalModel::step) (buffer reuse
    /// changes no floating-point operation).
    ///
    /// # Panics
    ///
    /// As [`step`](ThermalModel::step).
    pub fn step_into(
        &self,
        state: &mut ThermalState,
        power: &[f64],
        dt: f64,
        scratch: &mut StepScratch,
    ) {
        assert_eq!(power.len(), self.num_cells(), "power vector size mismatch");
        assert!(dt >= 0.0, "negative time step");
        debug_assert!(power.iter().all(|&p| p >= 0.0), "negative power");
        if dt == 0.0 {
            return;
        }

        let dt_sub_max = self.max_stable_dt();
        let n_sub = (dt / dt_sub_max).ceil().max(1.0) as usize;
        let h = dt / n_sub as f64;

        let g_vert = 1.0 / self.params.vertical_resistance;
        let g_lat = 1.0 / self.params.lateral_resistance;
        let c = self.params.cell_capacitance;
        let amb = self.params.ambient;
        let n = self.num_cells();

        scratch.ensure(n);
        let next = &mut scratch.next;
        for _ in 0..n_sub {
            let t = state.temps();
            for i in 0..n {
                let mut flow = power[i] - (t[i] - amb) * g_vert;
                for j in self.floorplan.neighbors(i) {
                    flow -= (t[i] - t[j]) * g_lat;
                }
                next[i] = t[i] + h * flow / c;
            }
            state.temps_mut().copy_from_slice(next);
        }
    }

    /// Solves the steady state `G·T = P + G_vert·T_amb` by Gauss–Seidel
    /// with the default tolerance and sweep budget (1 µK L∞, 100 000
    /// sweeps). The readable oracle of
    /// [`ModalSolver::steady_state`], which production code uses.
    ///
    /// The conductance matrix is strictly diagonally dominant (every node
    /// has a path to ambient), so the iteration converges for physical
    /// parameters; use [`steady_state_with`](ThermalModel::steady_state_with)
    /// to observe the iteration count and convergence status instead of
    /// discarding them.
    ///
    /// # Panics
    ///
    /// Panics if `power.len()` differs from the cell count.
    pub fn steady_state(&self, power: &[f64]) -> ThermalState {
        self.steady_state_with(power, &SteadyStateOptions::default())
            .0
    }

    /// [`steady_state`](ThermalModel::steady_state) with configurable
    /// tolerance/budget, returning the solve diagnostics alongside the
    /// state: sweeps executed, convergence status, final residual.
    ///
    /// # Panics
    ///
    /// Panics if `power.len()` differs from the cell count.
    pub fn steady_state_with(
        &self,
        power: &[f64],
        opts: &SteadyStateOptions,
    ) -> (ThermalState, SteadyStateStats) {
        assert_eq!(power.len(), self.num_cells(), "power vector size mismatch");
        let g_vert = 1.0 / self.params.vertical_resistance;
        let g_lat = 1.0 / self.params.lateral_resistance;
        let amb = self.params.ambient;
        let n = self.num_cells();

        let mut t = vec![amb; n];
        let mut stats = SteadyStateStats {
            sweeps: 0,
            converged: false,
            residual: f64::INFINITY,
        };
        for _ in 0..opts.max_sweeps {
            let mut max_delta: f64 = 0.0;
            for i in 0..n {
                let mut num = power[i] + amb * g_vert;
                let mut den = g_vert;
                for j in self.floorplan.neighbors(i) {
                    num += t[j] * g_lat;
                    den += g_lat;
                }
                let new = num / den;
                max_delta = max_delta.max((new - t[i]).abs());
                t[i] = new;
            }
            stats.sweeps += 1;
            stats.residual = max_delta;
            if max_delta < opts.tolerance {
                stats.converged = true;
                break;
            }
        }
        (ThermalState::from_vec(t), stats)
    }

    /// Convenience: the steady-state temperature a single cell would
    /// reach in isolation (no lateral flow) — `T_amb + P·R_vert`. Useful
    /// as an upper bound in tests.
    pub fn isolated_rise(&self, power: f64) -> f64 {
        self.params.ambient + power * self.params.vertical_resistance
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_4x4() -> ThermalModel {
        ThermalModel::new(Floorplan::grid(4, 4), RcParams::default())
    }

    #[test]
    fn zero_power_stays_at_ambient() {
        let m = model_4x4();
        let mut s = m.ambient_state();
        m.step(&mut s, &[0.0; 16], 1e-3);
        for &t in s.temps() {
            assert!((t - m.ambient()).abs() < 1e-9);
        }
        let ss = m.steady_state(&[0.0; 16]);
        for &t in ss.temps() {
            assert!((t - m.ambient()).abs() < 1e-6);
        }
    }

    #[test]
    fn transient_approaches_steady_state() {
        let m = model_4x4();
        let mut power = vec![0.0; 16];
        power[5] = 1e-3;
        let ss = m.steady_state(&power);
        let mut s = m.ambient_state();
        // 20 time constants.
        let tau = m.params().cell_capacitance * m.params().vertical_resistance;
        m.step(&mut s, &power, 20.0 * tau);
        assert!(
            s.linf_distance(&ss) < 0.05 * (ss.peak() - m.ambient()),
            "transient {} vs steady {}",
            s.get(5),
            ss.get(5)
        );
    }

    #[test]
    fn steady_peak_below_isolated_bound() {
        let m = model_4x4();
        let mut power = vec![0.0; 16];
        power[5] = 1e-3;
        let ss = m.steady_state(&power);
        // Lateral spreading can only lower the peak below the isolated
        // single-cell rise.
        assert!(ss.get(5) < m.isolated_rise(1e-3));
        assert!(ss.get(5) > m.ambient() + 1.0, "but it must heat noticeably");
    }

    #[test]
    fn heat_decays_with_distance() {
        let m = ThermalModel::new(Floorplan::grid(1, 8), RcParams::default());
        let mut power = vec![0.0; 8];
        power[0] = 1e-3;
        let ss = m.steady_state(&power);
        for i in 1..8 {
            assert!(ss.get(i) < ss.get(i - 1), "monotone decay at {i}");
        }
        assert!(ss.get(0) > ss.get(7) + 1.0, "far end much cooler");
    }

    #[test]
    fn symmetry_of_symmetric_load() {
        let m = ThermalModel::new(Floorplan::grid(3, 3), RcParams::default());
        let mut power = vec![0.0; 9];
        power[4] = 2e-3; // centre cell
        let ss = m.steady_state(&power);
        // All four edge-centres equal, all four corners equal.
        let e = [ss.get(1), ss.get(3), ss.get(5), ss.get(7)];
        let c = [ss.get(0), ss.get(2), ss.get(6), ss.get(8)];
        for w in e.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-5);
        }
        for w in c.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-5);
        }
        assert!(e[0] > c[0], "edges nearer the source than corners");
    }

    #[test]
    fn monotone_in_power() {
        let m = model_4x4();
        let mut p1 = vec![0.0; 16];
        p1[3] = 0.5e-3;
        let mut p2 = vec![0.0; 16];
        p2[3] = 1.0e-3;
        let s1 = m.steady_state(&p1);
        let s2 = m.steady_state(&p2);
        for i in 0..16 {
            assert!(s2.get(i) >= s1.get(i) - 1e-9, "monotonicity at cell {i}");
        }
    }

    #[test]
    fn superposition_holds_for_linear_network() {
        let m = model_4x4();
        let mut pa = vec![0.0; 16];
        pa[0] = 1e-3;
        let mut pb = vec![0.0; 16];
        pb[15] = 0.7e-3;
        let pc: Vec<f64> = pa.iter().zip(&pb).map(|(a, b)| a + b).collect();
        let sa = m.steady_state(&pa);
        let sb = m.steady_state(&pb);
        let sc = m.steady_state(&pc);
        for i in 0..16 {
            let lin = sa.get(i) + sb.get(i) - m.ambient();
            assert!((sc.get(i) - lin).abs() < 1e-4, "superposition at {i}");
        }
    }

    #[test]
    fn large_step_is_substepped_and_stable() {
        let m = model_4x4();
        let mut s = m.ambient_state();
        let mut power = vec![0.0; 16];
        power[0] = 5e-3;
        // A step vastly larger than the stability limit must not blow up.
        m.step(&mut s, &power, 1.0);
        assert!(s.peak().is_finite());
        assert!(s.peak() < m.isolated_rise(5e-3) + 1.0);
        assert!(s.min() >= m.ambient() - 1e-6);
    }

    #[test]
    fn decay_length_matches_params() {
        let p = RcParams::default();
        assert!((p.decay_length() - 1.1).abs() < 0.2, "{}", p.decay_length());
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn power_size_mismatch_panics() {
        let m = model_4x4();
        let _ = m.steady_state(&[0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn invalid_params_rejected() {
        let p = RcParams {
            vertical_resistance: -1.0,
            ..RcParams::default()
        };
        let _ = ThermalModel::new(Floorplan::grid(2, 2), p);
    }

    #[test]
    fn try_new_is_error_first() {
        use crate::error::ThermalError;
        let bad = RcParams {
            ambient: f64::NAN,
            ..RcParams::default()
        };
        let e = ThermalModel::try_new(Floorplan::grid(2, 2), bad).unwrap_err();
        assert!(matches!(
            e,
            ThermalError::InvalidParam {
                param: "ambient",
                ..
            }
        ));
        assert!(bad.checked().is_err());
        assert!(RcParams::default().checked().is_ok());
        assert!(ThermalModel::try_new(Floorplan::grid(2, 2), RcParams::default()).is_ok());
    }

    #[test]
    fn steady_state_with_reports_diagnostics() {
        let m = model_4x4();
        let mut power = vec![0.0; 16];
        power[5] = 1e-3;
        let (s, stats) = m.steady_state_with(&power, &SteadyStateOptions::default());
        assert!(stats.converged);
        assert!(stats.sweeps > 0);
        assert!(stats.residual < 1e-6);
        // The legacy entry point returns the identical state.
        assert_eq!(s.temps(), m.steady_state(&power).temps());

        // Starving the budget reports non-convergence instead of a
        // silent (debug-only) assert.
        let tight = SteadyStateOptions {
            tolerance: 1e-15,
            max_sweeps: 3,
        };
        let (_, stats) = m.steady_state_with(&power, &tight);
        assert!(!stats.converged);
        assert_eq!(stats.sweeps, 3);
    }

    #[test]
    fn step_into_reuses_scratch_and_matches_step() {
        let m = model_4x4();
        let mut power = vec![0.0; 16];
        power[3] = 1e-3;
        let mut scratch = StepScratch::new();
        let mut a = m.ambient_state();
        let mut b = m.ambient_state();
        for _ in 0..5 {
            m.step_into(&mut a, &power, 1e-4, &mut scratch);
            m.step(&mut b, &power, 1e-4);
        }
        assert_eq!(a.temps(), b.temps());
    }
}
