//! # tadfa-regalloc — register allocation with thermal assignment policies
//!
//! The allocation substrate of the *Thermal-Aware Data Flow Analysis*
//! reproduction (DAC 2009). The paper's motivating example (§2, Fig. 1)
//! is entirely about *which* physical register an allocator hands out:
//!
//! * [`FirstFree`] — the ordered-list default that "chooses the same
//!   small set of registers again and again" → Fig. 1(a) hot spots;
//! * [`RandomPolicy`] — Fig. 1(b);
//! * [`Chessboard`] — Fig. 1(c), homogenised while pressure ≤ half the
//!   file;
//! * [`RoundRobin`], [`FarthestSpread`], [`ColdestFirst`] — the
//!   spreading policies §4 motivates, the last one driven by an external
//!   heat map (e.g. the thermal DFA's prediction).
//!
//! One allocator hosts every policy: [`allocate_linear_scan`], which
//! spills through [`rewrite_spills`] and re-runs until allocatable.
//! [`validate_assignment`] checks its result against the interference
//! of per-instruction liveness.
//!
//! ## Example
//!
//! ```
//! use tadfa_ir::FunctionBuilder;
//! use tadfa_regalloc::{allocate_linear_scan, Chessboard, RegAllocConfig};
//! use tadfa_thermal::{Floorplan, RegisterFile};
//!
//! let mut b = FunctionBuilder::new("f");
//! let x = b.param();
//! let y = b.add(x, x);
//! let z = b.add(y, x);
//! b.ret(Some(z));
//! let mut f = b.finish();
//!
//! let rf = RegisterFile::new(Floorplan::grid(4, 4));
//! let result = allocate_linear_scan(
//!     &mut f, &rf, &mut Chessboard::default(), &RegAllocConfig::default())?;
//! // Low pressure: every assigned register sits on a black cell.
//! for (_, preg) in result.assignment.iter() {
//!     assert!(rf.floorplan().is_black(rf.cell_of(preg)));
//! }
//! # Ok::<(), tadfa_regalloc::RegAllocError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod assignment;
mod interference;
mod linear_scan;
mod policy;
mod spill;

pub use assignment::{AllocStats, AllocationResult, Assignment, RegAllocError};
pub use linear_scan::{allocate_linear_scan, validate_assignment, RegAllocConfig};
pub use policy::{
    policy_by_name, AssignmentPolicy, Chessboard, ChoiceContext, ColdestFirst, FarthestSpread,
    FirstFree, RandomPolicy, RoundRobin, POLICY_NAMES,
};
pub use spill::rewrite_spills;
