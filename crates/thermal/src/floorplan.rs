//! Register-file floorplan: the geometric layout the thermal state is
//! defined over.

use crate::constants;
use crate::error::ThermalError;
use serde::{Deserialize, Serialize};

/// A rectangular grid of register cells.
///
/// Cell indices are row-major: cell `(r, c)` has index `r * cols + c`.
///
/// # Examples
///
/// ```
/// use tadfa_thermal::Floorplan;
/// let fp = Floorplan::grid(8, 8);
/// assert_eq!(fp.num_cells(), 64);
/// assert_eq!(fp.index(1, 2), 10);
/// assert_eq!(fp.position(10), (1, 2));
/// assert_eq!(fp.neighbors(0).count(), 2); // corner cell
/// ```
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Floorplan {
    rows: usize,
    cols: usize,
    cell_width: f64,
    cell_height: f64,
}

impl Floorplan {
    /// A `rows × cols` grid with the default 50 µm cells, error-first.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::EmptyFloorplan`] if either dimension is
    /// zero.
    pub fn try_grid(rows: usize, cols: usize) -> Result<Floorplan, ThermalError> {
        Floorplan::try_with_cell_size(
            rows,
            cols,
            constants::DEFAULT_CELL_WIDTH,
            constants::DEFAULT_CELL_HEIGHT,
        )
    }

    /// A grid with explicit cell dimensions in metres, error-first.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::EmptyFloorplan`] for a zero dimension and
    /// [`ThermalError::InvalidParam`] for a non-positive or non-finite
    /// cell size.
    pub fn try_with_cell_size(
        rows: usize,
        cols: usize,
        cell_width: f64,
        cell_height: f64,
    ) -> Result<Floorplan, ThermalError> {
        if rows == 0 || cols == 0 {
            return Err(ThermalError::EmptyFloorplan { rows, cols });
        }
        for (param, value) in [("cell_width", cell_width), ("cell_height", cell_height)] {
            if value <= 0.0 || !value.is_finite() {
                return Err(ThermalError::InvalidParam {
                    param,
                    value,
                    reason: "cell dimensions must be positive",
                });
            }
        }
        Ok(Floorplan {
            rows,
            cols,
            cell_width,
            cell_height,
        })
    }

    /// Legacy panicking wrapper over [`Floorplan::try_grid`]; prefer the
    /// error-first form in new code.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn grid(rows: usize, cols: usize) -> Floorplan {
        match Floorplan::try_grid(rows, cols) {
            Ok(fp) => fp,
            Err(e) => panic!("{e}"),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of cells.
    pub fn num_cells(&self) -> usize {
        self.rows * self.cols
    }

    /// Cell width in metres.
    pub fn cell_width(&self) -> f64 {
        self.cell_width
    }

    /// Cell height in metres.
    pub fn cell_height(&self) -> f64 {
        self.cell_height
    }

    /// Total silicon area in m².
    pub fn area(&self) -> f64 {
        self.cell_width * self.cell_height * self.num_cells() as f64
    }

    /// Row-major index of cell `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn index(&self, row: usize, col: usize) -> usize {
        assert!(
            row < self.rows && col < self.cols,
            "cell ({row},{col}) out of range"
        );
        row * self.cols + col
    }

    /// `(row, col)` of a cell index.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn position(&self, index: usize) -> (usize, usize) {
        assert!(index < self.num_cells(), "cell {index} out of range");
        (index / self.cols, index % self.cols)
    }

    /// The 4-connected (N/S/E/W) neighbours of a cell.
    pub fn neighbors(&self, index: usize) -> impl Iterator<Item = usize> + '_ {
        let (r, c) = self.position(index);
        let rows = self.rows;
        let cols = self.cols;
        [
            (r > 0).then(|| (r - 1) * cols + c),
            (r + 1 < rows).then(|| (r + 1) * cols + c),
            (c > 0).then(|| r * cols + c - 1),
            (c + 1 < cols).then(|| r * cols + c + 1),
        ]
        .into_iter()
        .flatten()
    }

    /// Manhattan distance between two cells, in cell units.
    pub fn manhattan(&self, a: usize, b: usize) -> usize {
        let (ra, ca) = self.position(a);
        let (rb, cb) = self.position(b);
        ra.abs_diff(rb) + ca.abs_diff(cb)
    }

    /// Chessboard colour of a cell: `true` for "black" cells
    /// (`(row + col)` even). The chessboard assignment policy of the
    /// paper's Fig. 1(c) allocates black cells first so that no two
    /// simultaneously used registers are adjacent.
    pub fn is_black(&self, index: usize) -> bool {
        let (r, c) = self.position(index);
        (r + c) % 2 == 0
    }

    /// Centre coordinates of a cell in metres (for plotting/export).
    pub fn center(&self, index: usize) -> (f64, f64) {
        let (r, c) = self.position(index);
        (
            (c as f64 + 0.5) * self.cell_width,
            (r as f64 + 0.5) * self.cell_height,
        )
    }
}

/// Mapping from physical registers onto floorplan cells.
///
/// The default layout is the identity: register `r` occupies cell `r` in
/// row-major order, matching how register files are physically arranged
/// as row/column arrays. A custom permutation supports layout studies.
///
/// # Examples
///
/// ```
/// use tadfa_thermal::{Floorplan, RegisterFile};
/// use tadfa_ir::PReg;
/// let rf = RegisterFile::new(Floorplan::grid(4, 8));
/// assert_eq!(rf.num_regs(), 32);
/// assert_eq!(rf.cell_of(PReg::new(9)), 9);
/// ```
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct RegisterFile {
    floorplan: Floorplan,
    /// `cell_of[r]` = cell index of physical register `r`.
    placement: Vec<usize>,
}

impl RegisterFile {
    /// One register per cell, identity placement.
    pub fn new(floorplan: Floorplan) -> RegisterFile {
        let placement = (0..floorplan.num_cells()).collect();
        RegisterFile {
            floorplan,
            placement,
        }
    }

    /// Custom register→cell placement.
    ///
    /// # Panics
    ///
    /// Panics if any cell index is out of range or duplicated.
    pub fn with_placement(floorplan: Floorplan, placement: Vec<usize>) -> RegisterFile {
        let n = floorplan.num_cells();
        let mut seen = vec![false; n];
        for &c in &placement {
            assert!(c < n, "placement cell {c} out of range");
            assert!(!seen[c], "placement cell {c} duplicated");
            seen[c] = true;
        }
        RegisterFile {
            floorplan,
            placement,
        }
    }

    /// The floorplan of this register file.
    pub fn floorplan(&self) -> &Floorplan {
        &self.floorplan
    }

    /// Number of architectural registers.
    pub fn num_regs(&self) -> usize {
        self.placement.len()
    }

    /// Cell occupied by physical register `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn cell_of(&self, r: tadfa_ir::PReg) -> usize {
        self.placement[r.index()]
    }

    /// Physical distance between two registers in cell units.
    pub fn distance(&self, a: tadfa_ir::PReg, b: tadfa_ir::PReg) -> usize {
        self.floorplan.manhattan(self.cell_of(a), self.cell_of(b))
    }

    /// Registers whose cells are "black" in the chessboard colouring.
    pub fn black_registers(&self) -> Vec<tadfa_ir::PReg> {
        (0..self.num_regs())
            .filter(|&r| self.floorplan.is_black(self.placement[r]))
            .map(|r| tadfa_ir::PReg::new(r as u16))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tadfa_ir::PReg;

    #[test]
    fn indexing_roundtrip() {
        let fp = Floorplan::grid(3, 5);
        for i in 0..fp.num_cells() {
            let (r, c) = fp.position(i);
            assert_eq!(fp.index(r, c), i);
        }
    }

    #[test]
    fn neighbor_counts() {
        let fp = Floorplan::grid(3, 3);
        assert_eq!(fp.neighbors(fp.index(0, 0)).count(), 2); // corner
        assert_eq!(fp.neighbors(fp.index(0, 1)).count(), 3); // edge
        assert_eq!(fp.neighbors(fp.index(1, 1)).count(), 4); // interior
    }

    #[test]
    fn neighbors_are_symmetric() {
        let fp = Floorplan::grid(4, 4);
        for i in 0..fp.num_cells() {
            for j in fp.neighbors(i) {
                assert!(fp.neighbors(j).any(|k| k == i), "asymmetric {i}<->{j}");
            }
        }
    }

    #[test]
    fn manhattan_distance() {
        let fp = Floorplan::grid(4, 4);
        assert_eq!(fp.manhattan(fp.index(0, 0), fp.index(3, 3)), 6);
        assert_eq!(fp.manhattan(5, 5), 0);
    }

    #[test]
    fn chessboard_coloring_alternates() {
        let fp = Floorplan::grid(2, 2);
        assert!(fp.is_black(fp.index(0, 0)));
        assert!(!fp.is_black(fp.index(0, 1)));
        assert!(!fp.is_black(fp.index(1, 0)));
        assert!(fp.is_black(fp.index(1, 1)));
    }

    #[test]
    fn black_cells_are_never_adjacent() {
        let fp = Floorplan::grid(8, 8);
        for i in 0..fp.num_cells() {
            if fp.is_black(i) {
                for j in fp.neighbors(i) {
                    assert!(!fp.is_black(j), "black cells {i} and {j} adjacent");
                }
            }
        }
    }

    #[test]
    fn register_file_identity_and_distance() {
        let rf = RegisterFile::new(Floorplan::grid(4, 8));
        assert_eq!(rf.num_regs(), 32);
        assert_eq!(rf.cell_of(PReg::new(0)), 0);
        assert_eq!(rf.distance(PReg::new(0), PReg::new(31)), 3 + 7);
        assert_eq!(rf.black_registers().len(), 16);
    }

    #[test]
    fn custom_placement_validated() {
        let fp = Floorplan::grid(2, 2);
        let rf = RegisterFile::with_placement(fp, vec![3, 2, 1, 0]);
        assert_eq!(rf.cell_of(PReg::new(0)), 3);
    }

    #[test]
    #[should_panic(expected = "duplicated")]
    fn duplicate_placement_rejected() {
        let fp = Floorplan::grid(2, 2);
        let _ = RegisterFile::with_placement(fp, vec![0, 0]);
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn empty_floorplan_rejected() {
        let _ = Floorplan::grid(0, 4);
    }

    #[test]
    fn try_constructors_are_error_first() {
        assert!(matches!(
            Floorplan::try_grid(0, 4),
            Err(ThermalError::EmptyFloorplan { rows: 0, cols: 4 })
        ));
        assert!(matches!(
            Floorplan::try_with_cell_size(2, 2, -1.0, 1e-5),
            Err(ThermalError::InvalidParam {
                param: "cell_width",
                ..
            })
        ));
        let fp = Floorplan::try_grid(3, 5).unwrap();
        assert_eq!(fp.num_cells(), 15);
    }

    #[test]
    fn geometry_accessors() {
        let fp = Floorplan::try_with_cell_size(2, 3, 1e-5, 2e-5).unwrap();
        assert_eq!(fp.rows(), 2);
        assert_eq!(fp.cols(), 3);
        assert!((fp.area() - 6.0 * 1e-5 * 2e-5).abs() < 1e-18);
        let (x, y) = fp.center(0);
        assert!((x - 0.5e-5).abs() < 1e-12 && (y - 1e-5).abs() < 1e-12);
    }
}
