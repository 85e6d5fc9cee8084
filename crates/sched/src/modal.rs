//! The die's strip weights for the exact modal solver.
//!
//! A [`MultiCoreFloorplan`] is one `rows × w` grid of cells,
//! `w = cores · cols`, numbered in blocks of `cols` columns: die cell
//! `core·rows·cols + row·cols + col` sits at grid position
//! `(row, core·cols + col)`. That is exactly the grid a
//! [`ModalSolver`] factors, so all the die adds is its strip across
//! the grid: `g_lat` between columns inside a core,
//! `1/coupling_resistance` between facing columns, and no edge at all
//! between uncoupled cores. With no coupling, each core's slice of a
//! solve is therefore bit-identical to a one-core die's (see the
//! solver's determinism notes).

use crate::multicore::MultiCoreFloorplan;
use tadfa_thermal::{ModalSolver, ThermalError};

impl MultiCoreFloorplan {
    /// Factors this die's conductance matrix into its exact
    /// [`ModalSolver`]: solve windows with [`ModalSolver::step`] and
    /// steady states with [`ModalSolver::steady_state`].
    ///
    /// # Examples
    ///
    /// ```
    /// use tadfa_sched::MultiCoreFloorplan;
    /// use tadfa_thermal::RcParams;
    ///
    /// let die = MultiCoreFloorplan::new(2, 4, 4, RcParams::default(), Some(40.0))?;
    /// let solver = die.modal()?;
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
    ///
    /// # Errors
    ///
    /// Returns [`ModalSolver::new`]'s [`ThermalError::InvalidParam`] if
    /// a strip conductance `1/R` overflows.
    pub fn modal(&self) -> Result<ModalSolver, ThermalError> {
        let rc = self.rc_params();
        let cols = self.cols();
        let g_lat = 1.0 / rc.lateral_resistance;
        let g_couple = self.coupling_resistance().map_or(0.0, |r| 1.0 / r);
        let strip: Vec<f64> = (1..self.cores() * cols)
            .map(|j| if j % cols == 0 { g_couple } else { g_lat })
            .collect();
        ModalSolver::new(self.cores(), self.rows(), cols, &strip, &rc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multicore::naive_coupled_step;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::path::Path;
    use tadfa_thermal::{RcParams, ThermalState};

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

    /// `tadfa-thermal`'s window-sequence oracle test (in its `modal`
    /// module) runs on exactly these geometries, under the default RC
    /// parameters; a newly committed die belongs in both lists.
    #[test]
    fn the_window_oracle_covers_every_committed_die() {
        let covered = [
            (1, 8, 8, None),
            (2, 4, 4, Some(2.0)),
            (2, 4, 4, Some(30.0)),
            (2, 6, 6, Some(25.0)),
            (4, 6, 6, Some(25.0)),
            (4, 8, 8, Some(40.0)),
            (8, 4, 4, Some(60.0)),
        ];
        for d in committed_dies() {
            let geometry = (d.cores(), d.rows(), d.cols(), d.coupling_resistance());
            assert!(covered.contains(&geometry), "{geometry:?} is not covered");
            assert_eq!(d.rc_params(), RcParams::default(), "{geometry:?}");
        }
    }

    /// A committed die has one coupling resistance, so its strip
    /// conductances read the same from either end, and reversing the
    /// rows and the columns of the whole die (in cell order, reversing
    /// the cell vector) maps its network onto itself. Mirrored power
    /// must then give mirrored temperatures, window by window and in
    /// the steady state.
    #[test]
    fn committed_dies_are_mirror_symmetric() {
        let mut rng = StdRng::seed_from_u64(4);
        for d in committed_dies() {
            let solver = d.modal().unwrap();
            let n = d.num_cells();
            let (mut state, mut mirror) = (solver.ambient_state(), solver.ambient_state());
            let check = |a: &ThermalState, b: &ThermalState, what: &str| {
                for (i, &t) in a.temps().iter().enumerate() {
                    let m = b.get(n - 1 - i);
                    assert!(
                        (t - m).abs() <= 1e-9,
                        "{}x{}x{} coupling {:?}, {what}, cell {i}: {t} vs mirrored {m}",
                        d.cores(),
                        d.rows(),
                        d.cols(),
                        d.coupling_resistance()
                    );
                }
            };
            for window in 0..10 {
                let power = random_power(&mut rng, n);
                let mirrored: Vec<f64> = power.iter().rev().copied().collect();
                let h = rng.gen_range(5e-5..5.05e-3);
                solver.step(&mut state, &power, h);
                solver.step(&mut mirror, &mirrored, h);
                check(state.temps(), mirror.temps(), &format!("window {window}"));
            }
            let power = random_power(&mut rng, n);
            let mirrored: Vec<f64> = power.iter().rev().copied().collect();
            check(
                &solver.steady_state(&power),
                &solver.steady_state(&mirrored),
                "steady state",
            );
        }
    }

    /// Explicit Euler with its sub-step divided by k = 1, 4, 16, 64
    /// approaches the exact window at first order: each 4× refinement
    /// cuts the error about 4×. Two windows, so the second starts from
    /// a carried (non-ambient) modal state.
    #[test]
    fn refined_euler_converges_to_the_modal_window_at_first_order() {
        let mut rng = StdRng::seed_from_u64(1);
        for d in shapes() {
            let solver = d.modal().unwrap();
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
            let steady = d.modal().unwrap().steady_state(&power);
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
            let solver = d.modal().unwrap();
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
