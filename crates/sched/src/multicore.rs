//! Multi-core die geometry: N per-core register-file floorplans tiled
//! side by side, with optional lateral coupling between facing core
//! edges.
//!
//! Hung et al. (PAPERS.md) make the case that *where* work runs on a
//! die dominates peak temperature; modelling that requires a thermal
//! network spanning every core, not one register file at a time. A
//! [`MultiCoreFloorplan`] describes such a die: intra-core edges carry
//! the usual lateral conductance, inter-core edges carry the (typically
//! weaker) coupling conductance.
//!
//! The scenario runner solves the die exactly with the
//! [`ModalSolver`](tadfa_thermal::ModalSolver) of
//! [`MultiCoreFloorplan::modal`], whose conductance matrix factors
//! along the die's grid. With **no coupling** (`coupling_resistance:
//! None`) that factorisation is block-diagonal, so per-core slices of a
//! die solve are bit-identical to one-core solves
//! (`tests/multicore_scenarios.rs` asserts this K-core-vs-K-solo
//! property). The readable explicit-Euler [`naive_coupled_step`] in
//! this module is the independent oracle the modal solver converges
//! to as the Euler sub-step shrinks.

use tadfa_thermal::{Floorplan, RcParams, ThermalError, ThermalState};

/// A heterogeneous core class, big.LITTLE style: a named power/speed
/// bin a die tile belongs to.
///
/// Classes scale *what a core does with work*, not the die's thermal
/// network: a "big" core deposits `power_scale ×` the task's analyzed
/// power and retires work `speed_scale ×` faster, while the RC grid
/// (and hence the modal factors and the zero-coupling identity) is
/// shared by every tile. A scale of exactly `1.0` is
/// guaranteed to leave the corresponding quantity bit-identical to a
/// class-less die (see [`tadfa_thermal::accumulate_scaled`]).
#[derive(Clone, Debug, PartialEq)]
pub struct CoreClass {
    /// Display name of the class (e.g. `"big"`, `"little"`).
    pub name: String,
    /// Factor applied to the power a task deposits on this core.
    pub power_scale: f64,
    /// Factor applied to this core's execution speed (task length on
    /// the core is `length / speed_scale`).
    pub speed_scale: f64,
}

impl CoreClass {
    /// A unit class: scales nothing, byte-compatible with no class.
    pub fn unit(name: &str) -> CoreClass {
        CoreClass {
            name: name.to_string(),
            power_scale: 1.0,
            speed_scale: 1.0,
        }
    }

    fn checked(&self) -> Result<(), ThermalError> {
        for (param, v) in [
            ("power_scale", self.power_scale),
            ("speed_scale", self.speed_scale),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(ThermalError::InvalidParam {
                    param,
                    value: v,
                    reason: "core class scales must be positive and finite",
                });
            }
        }
        Ok(())
    }
}

/// A die of `cores` identical `rows × cols` register-file floorplans
/// tiled in a horizontal strip, cell-indexed core-major: global cell
/// `core · rows·cols + local`, with `local` row-major within the core.
///
/// Adjacent cores couple along their facing columns: the rightmost
/// column of core `k` exchanges heat with the leftmost column of core
/// `k + 1`, row by row, through `coupling_resistance` (when present).
///
/// # Examples
///
/// ```
/// use tadfa_sched::MultiCoreFloorplan;
/// use tadfa_thermal::RcParams;
///
/// let die = MultiCoreFloorplan::new(4, 8, 8, RcParams::default(), Some(40.0))?;
/// assert_eq!(die.num_cells(), 256);
/// assert_eq!(die.core_of(70), 1);
/// # Ok::<(), tadfa_thermal::ThermalError>(())
/// ```
#[derive(Clone, Debug)]
pub struct MultiCoreFloorplan {
    cores: usize,
    rows: usize,
    cols: usize,
    rc: RcParams,
    coupling_resistance: Option<f64>,
    classes: Option<Vec<CoreClass>>,
}

impl MultiCoreFloorplan {
    /// Builds the die description, error-first.
    ///
    /// `coupling_resistance` is the inter-core edge resistance in K/W;
    /// `None` means the cores are thermally independent (no cross-core
    /// edges at all — see the module's bit-identity contract).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::EmptyFloorplan`] for a zero per-core
    /// dimension and [`ThermalError::InvalidParam`] for zero cores,
    /// invalid RC parameters, or a non-positive/non-finite coupling
    /// resistance.
    pub fn new(
        cores: usize,
        rows: usize,
        cols: usize,
        rc: RcParams,
        coupling_resistance: Option<f64>,
    ) -> Result<MultiCoreFloorplan, ThermalError> {
        if cores == 0 {
            return Err(ThermalError::InvalidParam {
                param: "cores",
                value: 0.0,
                reason: "die needs at least one core",
            });
        }
        if rows == 0 || cols == 0 {
            return Err(ThermalError::EmptyFloorplan { rows, cols });
        }
        rc.checked()?;
        if let Some(r) = coupling_resistance {
            if r <= 0.0 || !r.is_finite() {
                return Err(ThermalError::InvalidParam {
                    param: "coupling_resistance",
                    value: r,
                    reason: "must be positive and finite (omit for uncoupled cores)",
                });
            }
        }
        Ok(MultiCoreFloorplan {
            cores,
            rows,
            cols,
            rc,
            coupling_resistance,
            classes: None,
        })
    }

    /// Assigns one [`CoreClass`] per core (big.LITTLE-style binning).
    ///
    /// Classes only rescale power deposits and execution speed; the
    /// thermal network is untouched.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParam`] if the class count does
    /// not equal the core count or any scale is non-positive or
    /// non-finite.
    pub fn with_core_classes(
        mut self,
        classes: Vec<CoreClass>,
    ) -> Result<MultiCoreFloorplan, ThermalError> {
        if classes.len() != self.cores {
            return Err(ThermalError::InvalidParam {
                param: "core_classes",
                value: classes.len() as f64,
                reason: "need exactly one class per core",
            });
        }
        for c in &classes {
            c.checked()?;
        }
        self.classes = Some(classes);
        Ok(self)
    }

    /// The per-core classes, if this die is heterogeneous.
    pub fn core_classes(&self) -> Option<&[CoreClass]> {
        self.classes.as_deref()
    }

    /// Power-deposit factor of `core` (`1.0` on a homogeneous die).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range on a heterogeneous die.
    pub fn power_scale(&self, core: usize) -> f64 {
        self.classes.as_ref().map_or(1.0, |c| c[core].power_scale)
    }

    /// Execution-speed factor of `core` (`1.0` on a homogeneous die).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range on a heterogeneous die.
    pub fn speed_scale(&self, core: usize) -> f64 {
        self.classes.as_ref().map_or(1.0, |c| c[core].speed_scale)
    }

    /// Number of cores on the die.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Rows of one core's register file.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of one core's register file.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Cells per core.
    pub fn cells_per_core(&self) -> usize {
        self.rows * self.cols
    }

    /// Total cells on the die.
    pub fn num_cells(&self) -> usize {
        self.cores * self.cells_per_core()
    }

    /// The RC parameters shared by every core.
    pub fn rc_params(&self) -> RcParams {
        self.rc
    }

    /// The inter-core coupling resistance, K/W (`None` = uncoupled).
    pub fn coupling_resistance(&self) -> Option<f64> {
        self.coupling_resistance
    }

    /// One core's floorplan (all cores are identical).
    pub fn core_floorplan(&self) -> Floorplan {
        Floorplan::grid(self.rows, self.cols)
    }

    /// Global cell index of `local` on `core`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn global_index(&self, core: usize, local: usize) -> usize {
        assert!(core < self.cores, "core {core} out of range");
        assert!(
            local < self.cells_per_core(),
            "local cell {local} out of range"
        );
        core * self.cells_per_core() + local
    }

    /// The core hosting a global cell index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn core_of(&self, global: usize) -> usize {
        assert!(global < self.num_cells(), "cell {global} out of range");
        global / self.cells_per_core()
    }

    /// The die's weighted adjacency in [`naive_coupled_step`]'s fold
    /// order: per cell, the intra-core neighbours in
    /// [`Floorplan::neighbors`] order (up, down, left, right) at the
    /// uniform lateral conductance, then the coupling edge(s) — toward
    /// the lower-indexed core first. Uncoupled dies list no cross-core
    /// edges.
    pub fn adjacency(&self) -> Vec<Vec<(u32, f64)>> {
        let per = self.cells_per_core();
        let fp = self.core_floorplan();
        let g_lat = 1.0 / self.rc.lateral_resistance;
        let g_c = self.coupling_resistance.map(|r| 1.0 / r);
        let mut adj = Vec::with_capacity(self.num_cells());
        for core in 0..self.cores {
            let base = core * per;
            for local in 0..per {
                let mut edges: Vec<(u32, f64)> = fp
                    .neighbors(local)
                    .map(|j| ((base + j) as u32, g_lat))
                    .collect();
                if let Some(g_c) = g_c {
                    let (r, c) = fp.position(local);
                    if c == 0 && core > 0 {
                        // Facing cell: same row, rightmost column of the
                        // core to the left.
                        let j = (core - 1) * per + fp.index(r, self.cols - 1);
                        edges.push((j as u32, g_c));
                    }
                    if c == self.cols - 1 && core + 1 < self.cores {
                        let j = (core + 1) * per + fp.index(r, 0);
                        edges.push((j as u32, g_c));
                    }
                }
                adj.push(edges);
            }
        }
        adj
    }

    /// The explicit-Euler stability limit of the coupled die, seconds.
    ///
    /// For an uncoupled die this is computed by the **same expressions**
    /// as [`tadfa_thermal::ThermalModel::max_stable_dt`], so per-core
    /// sub-step schedules match independent single-core models. With coupling,
    /// the bound conservatively adds one coupling conductance per
    /// coupling edge a cell can carry: one for multi-column cores
    /// (only a boundary column faces a neighbour), two for
    /// single-column cores (every cell is both boundary columns, so a
    /// middle core's cells couple left *and* right).
    pub fn max_stable_dt(&self) -> f64 {
        let g_max = 1.0 / self.rc.vertical_resistance + 4.0 / self.rc.lateral_resistance;
        let coupling_edges = if self.cols == 1 { 2.0 } else { 1.0 };
        let g_max = match self.coupling_resistance {
            Some(r) => g_max + coupling_edges / r,
            None => g_max,
        };
        0.5 * self.rc.cell_capacitance / g_max
    }

    /// A state with every die cell at ambient.
    pub fn ambient_state(&self) -> ThermalState {
        ThermalState::uniform(self.num_cells(), self.rc.ambient)
    }
}

/// The readable reference stepper for a coupled die: explicit Euler at
/// the stability limit, with per-call allocation and on-the-fly
/// adjacency, folding each cell's neighbour contributions in
/// [`MultiCoreFloorplan::adjacency`] order. The exact
/// [`MultiCoreFloorplan::modal`] solver is checked against it: as the Euler
/// sub-step shrinks, this stepper converges to the modal result at
/// first order.
///
/// # Panics
///
/// Panics if `power`/`state` sizes mismatch the die or `dt` is
/// negative.
pub fn naive_coupled_step(
    die: &MultiCoreFloorplan,
    state: &mut ThermalState,
    power: &[f64],
    dt: f64,
) {
    let n = die.num_cells();
    assert_eq!(power.len(), n, "power vector size mismatch");
    assert_eq!(state.len(), n, "state size mismatch");
    assert!(dt >= 0.0, "negative time step");
    if dt == 0.0 {
        return;
    }
    let adj = die.adjacency();
    let rc = die.rc_params();
    let g_vert = 1.0 / rc.vertical_resistance;
    let (amb, cap) = (rc.ambient, rc.cell_capacitance);
    let n_sub = (dt / die.max_stable_dt()).ceil().max(1.0) as usize;
    let h = dt / n_sub as f64;
    let mut next = vec![0.0; n];
    for _ in 0..n_sub {
        let t = state.temps();
        for (i, edges) in adj.iter().enumerate() {
            let ti = t[i];
            let mut flow = power[i] - (ti - amb) * g_vert;
            for &(j, g) in edges {
                flow -= (ti - t[j as usize]) * g;
            }
            next[i] = ti + h * flow / cap;
        }
        state.temps_mut().copy_from_slice(&next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn die(cores: usize, coupling: Option<f64>) -> MultiCoreFloorplan {
        MultiCoreFloorplan::new(cores, 3, 4, RcParams::default(), coupling).unwrap()
    }

    #[test]
    fn geometry_and_indexing() {
        let d = die(3, Some(30.0));
        assert_eq!(d.cores(), 3);
        assert_eq!(d.cells_per_core(), 12);
        assert_eq!(d.num_cells(), 36);
        assert_eq!(d.global_index(2, 5), 29);
        assert_eq!(d.core_of(29), 2);
        assert_eq!(d.core_floorplan().num_cells(), 12);
    }

    #[test]
    fn construction_is_error_first() {
        let rc = RcParams::default();
        assert!(matches!(
            MultiCoreFloorplan::new(0, 2, 2, rc, None),
            Err(ThermalError::InvalidParam { param: "cores", .. })
        ));
        assert!(matches!(
            MultiCoreFloorplan::new(2, 0, 2, rc, None),
            Err(ThermalError::EmptyFloorplan { .. })
        ));
        assert!(matches!(
            MultiCoreFloorplan::new(2, 2, 2, rc, Some(0.0)),
            Err(ThermalError::InvalidParam {
                param: "coupling_resistance",
                ..
            })
        ));
        let bad = RcParams {
            ambient: f64::NAN,
            ..rc
        };
        assert!(MultiCoreFloorplan::new(2, 2, 2, bad, None).is_err());
    }

    #[test]
    fn uncoupled_adjacency_is_block_diagonal() {
        let d = die(3, None);
        let per = d.cells_per_core();
        for (i, edges) in d.adjacency().iter().enumerate() {
            let core = i / per;
            for &(j, _) in edges {
                assert_eq!(j as usize / per, core, "cell {i} leaks to {j}");
            }
        }
        // Same stability limit as a single-core model, bit for bit.
        let single = tadfa_thermal::ThermalModel::new(d.core_floorplan(), RcParams::default());
        assert_eq!(
            d.max_stable_dt().to_bits(),
            single.max_stable_dt().to_bits()
        );
    }

    #[test]
    fn coupled_adjacency_links_facing_columns_only() {
        let d = die(2, Some(30.0));
        let per = d.cells_per_core();
        let g_c: f64 = 1.0 / 30.0;
        let adj = d.adjacency();
        let mut cross = 0;
        for (i, edges) in adj.iter().enumerate() {
            for &(j, g) in edges {
                if i / per != j as usize / per {
                    cross += 1;
                    assert_eq!(g.to_bits(), g_c.to_bits());
                    // Facing columns: right edge of core 0, left edge of
                    // core 1, same row.
                    let fp = d.core_floorplan();
                    let (ri, ci) = fp.position(i % per);
                    let (rj, cj) = fp.position(j as usize % per);
                    assert_eq!(ri, rj);
                    assert!(
                        (ci == d.cols() - 1 && cj == 0) || (ci == 0 && cj == d.cols() - 1),
                        "cells {i}<->{j}"
                    );
                }
            }
        }
        // 3 rows, one edge pair per row, both directions listed.
        assert_eq!(cross, 6);
        // Symmetry: every cross edge has its mirror.
        for (i, edges) in adj.iter().enumerate() {
            for &(j, g) in edges {
                assert!(
                    adj[j as usize]
                        .iter()
                        .any(|&(k, g2)| k as usize == i && g2.to_bits() == g.to_bits()),
                    "asymmetric edge {i}->{j}"
                );
            }
        }
    }

    #[test]
    fn coupling_spreads_heat_across_cores() {
        // Heat core 0 only; with coupling, core 1 warms above ambient at
        // steady state, and core 0's peak drops below the uncoupled peak.
        let uncoupled = die(2, None);
        let coupled = die(2, Some(20.0));
        let per = uncoupled.cells_per_core();
        let mut power = vec![0.0; uncoupled.num_cells()];
        power[5] = 2e-3;
        let ss_un = uncoupled.modal().unwrap().steady_state(&power);
        let ss_co = coupled.modal().unwrap().steady_state(&power);
        let amb = RcParams::default().ambient;
        let core1_peak_un = ss_un.temps()[per..]
            .iter()
            .cloned()
            .fold(f64::MIN, f64::max);
        let core1_peak_co = ss_co.temps()[per..]
            .iter()
            .cloned()
            .fold(f64::MIN, f64::max);
        assert!(
            core1_peak_un - amb < 1e-9,
            "uncoupled neighbour stays ambient"
        );
        assert!(core1_peak_co > amb + 1e-6, "coupled neighbour warms");
        assert!(
            ss_co.peak() < ss_un.peak(),
            "coupling lowers the hot core's peak"
        );
    }

    #[test]
    fn single_column_cores_stay_stable_under_strong_coupling() {
        // cols == 1: a middle core's cells carry coupling edges on both
        // sides, so the stability bound must budget two coupling
        // conductances. With a strong coupling (g_c >> g_lat) the old
        // one-edge bound would under-sub-step and oscillate.
        let d = MultiCoreFloorplan::new(3, 4, 1, RcParams::default(), Some(5.0)).unwrap();
        let rc = RcParams::default();
        let g_true = 1.0 / rc.vertical_resistance + 4.0 / rc.lateral_resistance + 2.0 / 5.0;
        assert!(
            d.max_stable_dt() <= 0.5 * rc.cell_capacitance / g_true + 1e-18,
            "bound must respect the true max nodal conductance"
        );
        let mut power = vec![0.0; d.num_cells()];
        power[5] = 5e-3;
        let mut s = d.ambient_state();
        // A long, heavily sub-stepped transient must neither blow up nor
        // undershoot ambient (both are the signatures of instability).
        naive_coupled_step(&d, &mut s, &power, 1.0);
        assert!(s.peak().is_finite());
        assert!(s.peak() < 1000.0, "no runaway: {}", s.peak());
        assert!(s.min() >= rc.ambient - 1e-6, "no undershoot: {}", s.min());
        // After one second the stable transient has settled on the
        // exact steady state.
        let steady = d.modal().unwrap().steady_state(&power);
        assert!(
            s.linf_distance(&steady) < 1e-9,
            "{}",
            s.linf_distance(&steady)
        );
    }

    #[test]
    fn core_classes_validate_and_default_to_unit() {
        let d = die(2, None);
        assert!(d.core_classes().is_none());
        assert_eq!(d.power_scale(0), 1.0);
        assert_eq!(d.speed_scale(1), 1.0);

        let classes = vec![
            CoreClass {
                name: "big".into(),
                power_scale: 1.5,
                speed_scale: 2.0,
            },
            CoreClass::unit("little"),
        ];
        let h = die(2, None).with_core_classes(classes).unwrap();
        assert_eq!(h.power_scale(0), 1.5);
        assert_eq!(h.speed_scale(0), 2.0);
        assert_eq!(h.power_scale(1), 1.0);
        assert_eq!(h.core_classes().unwrap()[1].name, "little");

        // Wrong arity and bad scales are refused.
        assert!(die(2, None)
            .with_core_classes(vec![CoreClass::unit("x")])
            .is_err());
        assert!(die(2, None)
            .with_core_classes(vec![
                CoreClass::unit("a"),
                CoreClass {
                    name: "b".into(),
                    power_scale: 0.0,
                    speed_scale: 1.0,
                },
            ])
            .is_err());
    }

    #[test]
    fn zero_dt_is_a_no_op() {
        let d = die(2, Some(30.0));
        let mut s = d.ambient_state();
        let before = s.clone();
        naive_coupled_step(&d, &mut s, &vec![0.0; d.num_cells()], 0.0);
        assert_eq!(s.temps(), before.temps());
    }
}
