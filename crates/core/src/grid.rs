//! The analysis grid: the paper's §3 granularity knob.
//!
//! "The thermal state is a continuous function that can only be
//! approximated, typically as a discrete set of points. The fidelity of
//! the analysis will depend on the granularity of the approximation —
//! increasing the number of points would increase accuracy, but at the
//! cost of increased computation time."
//!
//! An [`AnalysisGrid`] maps the physical register-file floorplan onto a
//! (possibly coarser) grid of analysis points and carries the RC model
//! over that grid. At full granularity it is the physical model itself.

use crate::error::TadfaError;
use std::sync::Arc;
use tadfa_ir::PReg;
use tadfa_thermal::{CompiledModel, Floorplan, RcParams, RegisterFile, ThermalModel};

/// A (possibly coarsened) grid of thermal analysis points over a register
/// file.
///
/// # Parameter scaling
///
/// When `g` physical cells collapse into one analysis cell, the analysis
/// cell's capacitance multiplies by `g` and its vertical resistance
/// divides by `g` (parallel paths). Lateral resistance is kept — the
/// wider cross-section and the longer path between coarser cell centres
/// cancel to first order on a uniform grid.
///
/// # Examples
///
/// ```
/// use tadfa_core::AnalysisGrid;
/// use tadfa_thermal::{Floorplan, RcParams, RegisterFile};
/// use tadfa_ir::PReg;
///
/// let rf = RegisterFile::new(Floorplan::grid(8, 8));
/// // Full resolution: one point per register.
/// let full = AnalysisGrid::full(&rf, RcParams::default());
/// assert_eq!(full.num_points(), 64);
/// // Quarter resolution: 4×4 points, 4 registers per point.
/// let coarse = AnalysisGrid::coarsened(&rf, RcParams::default(), 4, 4)?;
/// assert_eq!(coarse.num_points(), 16);
/// assert_eq!(coarse.point_of(PReg::new(0)), coarse.point_of(PReg::new(1)));
/// # Ok::<(), tadfa_core::TadfaError>(())
/// ```
#[derive(Clone, Debug)]
pub struct AnalysisGrid {
    model: ThermalModel,
    /// The solver plan compiled once from `model` and shared (`Arc`) by
    /// every clone of this grid — engine workers all step through the
    /// same plan.
    compiled: Arc<CompiledModel>,
    /// Physical floorplan cell → analysis point.
    cell_map: Vec<usize>,
    /// Register → analysis point (composition through the placement).
    reg_map: Vec<usize>,
    phys_rows: usize,
    phys_cols: usize,
}

impl AnalysisGrid {
    /// One analysis point per physical cell (maximum fidelity).
    pub fn full(rf: &RegisterFile, params: RcParams) -> AnalysisGrid {
        let fp = rf.floorplan();
        // A floorplan always has ≥ 1 row and column, so the full grid is
        // never empty or finer than itself.
        AnalysisGrid::coarsened(rf, params, fp.rows(), fp.cols())
            .expect("full grid over a valid floorplan cannot fail")
    }

    /// A `rows × cols` analysis grid over the register file.
    ///
    /// # Errors
    ///
    /// Returns [`TadfaError::EmptyGrid`] for a zero-sized grid and
    /// [`TadfaError::GridTooFine`] if the analysis grid is finer than
    /// the physical grid in either dimension.
    pub fn coarsened(
        rf: &RegisterFile,
        params: RcParams,
        rows: usize,
        cols: usize,
    ) -> Result<AnalysisGrid, TadfaError> {
        let fp = rf.floorplan();
        if rows == 0 || cols == 0 {
            return Err(TadfaError::EmptyGrid { rows, cols });
        }
        if rows > fp.rows() || cols > fp.cols() {
            return Err(TadfaError::GridTooFine {
                rows,
                cols,
                phys_rows: fp.rows(),
                phys_cols: fp.cols(),
            });
        }

        let analysis_fp = Floorplan::try_with_cell_size(
            rows,
            cols,
            fp.cell_width() * fp.cols() as f64 / cols as f64,
            fp.cell_height() * fp.rows() as f64 / rows as f64,
        )?;

        // Group ratio: physical cells per analysis point.
        let g = (fp.num_cells() as f64) / (rows * cols) as f64;
        let scaled = RcParams {
            cell_capacitance: params.cell_capacitance * g,
            vertical_resistance: params.vertical_resistance / g,
            lateral_resistance: params.lateral_resistance,
            ambient: params.ambient,
        };
        let model = ThermalModel::try_new(analysis_fp, scaled)?;
        let compiled = Arc::new(model.compile());

        let mut cell_map = Vec::with_capacity(fp.num_cells());
        for i in 0..fp.num_cells() {
            let (r, c) = fp.position(i);
            let ar = r * rows / fp.rows();
            let ac = c * cols / fp.cols();
            cell_map.push(ar * cols + ac);
        }
        let reg_map = (0..rf.num_regs())
            .map(|r| cell_map[rf.cell_of(PReg::new(r as u16))])
            .collect();

        Ok(AnalysisGrid {
            model,
            compiled,
            cell_map,
            reg_map,
            phys_rows: fp.rows(),
            phys_cols: fp.cols(),
        })
    }

    /// The RC model over the analysis grid.
    pub fn model(&self) -> &ThermalModel {
        &self.model
    }

    /// The compiled solver plan over the analysis grid's model — built
    /// once at grid construction; the thermal DFA's fixpoint steps
    /// through it instead of the naive model.
    pub fn compiled(&self) -> &CompiledModel {
        &self.compiled
    }

    /// Number of analysis points.
    pub fn num_points(&self) -> usize {
        self.model.num_cells()
    }

    /// Analysis point of a physical floorplan cell.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn point_of_cell(&self, cell: usize) -> usize {
        self.cell_map[cell]
    }

    /// Analysis point of a physical register.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn point_of(&self, reg: PReg) -> usize {
        self.reg_map[reg.index()]
    }

    /// Physical grid dimensions this grid was built over.
    pub fn physical_dims(&self) -> (usize, usize) {
        (self.phys_rows, self.phys_cols)
    }

    /// Expands an analysis-grid state back onto the physical floorplan
    /// (each physical cell takes its analysis point's temperature) for
    /// rendering and comparison against full-resolution simulation.
    ///
    /// # Errors
    ///
    /// Returns [`TadfaError::StateSizeMismatch`] if `state` is not
    /// defined over this grid's points.
    pub fn upsample(
        &self,
        state: &tadfa_thermal::ThermalState,
    ) -> Result<tadfa_thermal::ThermalState, TadfaError> {
        if state.len() != self.num_points() {
            return Err(TadfaError::StateSizeMismatch {
                expected: self.num_points(),
                got: state.len(),
            });
        }
        let temps: Vec<f64> = self.cell_map.iter().map(|&p| state.get(p)).collect();
        Ok(tadfa_thermal::ThermalState::from_vec(temps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rf_8x8() -> RegisterFile {
        RegisterFile::new(Floorplan::grid(8, 8))
    }

    #[test]
    fn full_grid_is_identity() {
        let rf = rf_8x8();
        let g = AnalysisGrid::full(&rf, RcParams::default());
        assert_eq!(g.num_points(), 64);
        for i in 0..64 {
            assert_eq!(g.point_of_cell(i), i);
            assert_eq!(g.point_of(PReg::new(i as u16)), i);
        }
    }

    #[test]
    fn coarse_grid_groups_quadrants() {
        let rf = rf_8x8();
        let g = AnalysisGrid::coarsened(&rf, RcParams::default(), 2, 2).unwrap();
        assert_eq!(g.num_points(), 4);
        // Top-left 4x4 physical block maps to point 0.
        assert_eq!(g.point_of_cell(0), 0);
        assert_eq!(g.point_of_cell(3 * 8 + 3), 0);
        // Bottom-right block maps to point 3.
        assert_eq!(g.point_of_cell(7 * 8 + 7), 3);
        // Registers follow their cells.
        assert_eq!(g.point_of(PReg::new(0)), 0);
        assert_eq!(g.point_of(PReg::new(63)), 3);
    }

    #[test]
    fn scaled_params_preserve_total_capacity_and_conductance() {
        let rf = rf_8x8();
        let p = RcParams::default();
        let g = AnalysisGrid::coarsened(&rf, p, 4, 4).unwrap();
        let sp = g.model().params();
        // 4 physical cells per point: capacity ×4, vertical resistance /4.
        assert!((sp.cell_capacitance - 4.0 * p.cell_capacitance).abs() < 1e-18);
        assert!((sp.vertical_resistance - p.vertical_resistance / 4.0).abs() < 1e-9);
        // Total: n_points × cap' == n_cells × cap.
        let tot_a = g.num_points() as f64 * sp.cell_capacitance;
        let tot_p = 64.0 * p.cell_capacitance;
        assert!((tot_a - tot_p).abs() / tot_p < 1e-12);
    }

    #[test]
    fn coarse_steady_state_approximates_fine_mean() {
        // Put the same total power in; coarse and fine mean temperatures
        // should agree well (energy balance), even if peaks differ.
        let rf = rf_8x8();
        let p = RcParams::default();
        let fine = AnalysisGrid::full(&rf, p);
        let coarse = AnalysisGrid::coarsened(&rf, p, 2, 2).unwrap();
        let mut pw_fine = vec![0.0; 64];
        pw_fine[9] = 2e-3;
        let mut pw_coarse = vec![0.0; 4];
        pw_coarse[coarse.point_of_cell(9)] = 2e-3;
        let sf = fine.model().steady_state(&pw_fine);
        let sc = coarse.model().steady_state(&pw_coarse);
        assert!(
            (sf.mean() - sc.mean()).abs() < 0.5,
            "fine mean {} vs coarse mean {}",
            sf.mean(),
            sc.mean()
        );
        // Coarse peak underestimates fine peak (spatial averaging).
        assert!(sc.peak() <= sf.peak() + 1e-9);
    }

    #[test]
    fn upsample_replicates_point_values() {
        let rf = rf_8x8();
        let g = AnalysisGrid::coarsened(&rf, RcParams::default(), 2, 2).unwrap();
        let s = tadfa_thermal::ThermalState::from_vec(vec![300.0, 310.0, 320.0, 330.0]);
        let up = g.upsample(&s).unwrap();
        assert_eq!(up.len(), 64);
        assert_eq!(up.get(0), 300.0);
        assert_eq!(up.get(7), 310.0);
        assert_eq!(up.get(63), 330.0);
    }

    #[test]
    fn upsample_rejects_foreign_states() {
        let rf = rf_8x8();
        let g = AnalysisGrid::coarsened(&rf, RcParams::default(), 2, 2).unwrap();
        let s = tadfa_thermal::ThermalState::uniform(9, 300.0);
        let e = g.upsample(&s).unwrap_err();
        assert!(matches!(
            e,
            TadfaError::StateSizeMismatch {
                expected: 4,
                got: 9
            }
        ));
    }

    #[test]
    fn degenerate_grids_rejected_as_errors() {
        let rf = rf_8x8();
        let e = AnalysisGrid::coarsened(&rf, RcParams::default(), 16, 16).unwrap_err();
        assert!(matches!(e, TadfaError::GridTooFine { .. }));
        let e = AnalysisGrid::coarsened(&rf, RcParams::default(), 0, 4).unwrap_err();
        assert!(matches!(e, TadfaError::EmptyGrid { rows: 0, cols: 4 }));
    }

    #[test]
    fn bad_rc_params_are_an_error_not_a_panic() {
        let rf = rf_8x8();
        let bad = RcParams {
            cell_capacitance: -1.0,
            ..RcParams::default()
        };
        let e = AnalysisGrid::coarsened(&rf, bad, 4, 4).unwrap_err();
        assert!(matches!(e, TadfaError::Thermal(_)));
    }

    #[test]
    fn clones_share_one_compiled_plan() {
        let rf = rf_8x8();
        let g = AnalysisGrid::coarsened(&rf, RcParams::default(), 4, 4).unwrap();
        assert_eq!(g.compiled().num_cells(), g.num_points());
        let clone = g.clone();
        assert!(std::ptr::eq(g.compiled(), clone.compiled()));
    }
}
