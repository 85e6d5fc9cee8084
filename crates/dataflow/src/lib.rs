//! # tadfa-dataflow — classic dataflow analyses
//!
//! The dataflow substrate of the *Thermal-Aware Data Flow Analysis*
//! reproduction (DAC 2009): a generic worklist solver plus the classic
//! analyses the allocators and the predictive thermal mode consume:
//!
//! * [`Liveness`] — one bit per variable; feeds interference-based
//!   register allocation and the register-pressure measurements of §2;
//! * [`DefUse`] — def-use chains with loop-weighted access frequencies,
//!   the static activity estimate used by the predictive thermal mode;
//! * [`LiveIntervals`] — the linear-scan view of liveness used by
//!   `tadfa-regalloc`.
//!
//! The thermal analysis itself lives in `tadfa-core`; it follows the same
//! [`solver`] structure but propagates a thermal-state vector instead of a
//! bit set.
//!
//! ## Example
//!
//! ```
//! use tadfa_ir::{FunctionBuilder, Cfg};
//! use tadfa_dataflow::{Liveness, DefUse};
//!
//! let mut b = FunctionBuilder::new("f");
//! let x = b.param();
//! let y = b.add(x, x);
//! b.ret(Some(y));
//! let f = b.finish();
//!
//! let cfg = Cfg::compute(&f);
//! let live = Liveness::compute(&f, &cfg);
//! assert!(live.live_in(f.entry()).contains(x.index()));
//!
//! let du = DefUse::compute(&f);
//! assert_eq!(du.num_uses(x), 2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bitset;
mod defuse;
mod intervals;
mod liveness;
pub mod solver;

pub use bitset::{DenseBitSet, Iter};
pub use defuse::{DefUse, UseSite};
pub use intervals::{LiveInterval, LiveIntervals};
pub use liveness::Liveness;
pub use solver::{solve, Analysis, BlockFacts, Direction};
