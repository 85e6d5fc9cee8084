//! # tadfa-core — thermal-aware data flow analysis (DAC 2009)
//!
//! The primary contribution of *Thermal-Aware Data Flow Analysis* (Ayala,
//! Atienza, Brisk — DAC 2009), reproduced in full:
//!
//! * [`Session`] — **the façade**: owns the register file, analysis
//!   grid, power model, configs and assignment policy once, validates
//!   everything up front ([`TadfaError`]), and runs the whole pipeline
//!   (allocate → thermal DFA → critical set) for any number of
//!   functions;
//! * [`ThermalDfa`] — the Fig. 2 fixpoint: a forward dataflow analysis
//!   whose fact is the register file's thermal state, re-estimated after
//!   every instruction until no change exceeds the user parameter δ;
//! * [`Convergence`] — the paper's explicit non-convergence signal ("if
//!   the analysis does not converge after a reasonable number of
//!   iterations … the thermal state of the program may be too difficult
//!   to predict at compile time", §4) — reported as data, never a panic;
//! * [`AnalysisGrid`] — the §3 granularity knob: the thermal state is "a
//!   discrete set of points" whose density trades accuracy for analysis
//!   time;
//! * [`CriticalSet`] — "which variables are most likely to be involved"
//!   in hot spots (§4), feeding the optimizations in `tadfa-opt`;
//! * [`PredictiveDfa`] — the pre-register-allocation predictive analysis
//!   the paper proposes as its "more ambitious possibility";
//! * [`engine`] — the parallel batch engine: an [`Engine`] shares a
//!   session's validated core ([`SessionCore`]) across a worker pool
//!   and memoises RC solves in a [`SolveCache`], with results
//!   byte-identical to the sequential session's.
//!
//! ## Quickstart
//!
//! ```
//! use tadfa_core::Session;
//!
//! // Geometry, grid, power model, policy and configs chosen once...
//! let mut session = Session::builder()
//!     .floorplan(4, 4)
//!     .policy_name("first-free", 0)
//!     .build()?;
//!
//! // ...then reused across every function analyzed.
//! let w = tadfa_workloads::fibonacci();
//! let report = session.analyze(&w.func)?;
//! assert!(report.convergence().is_converged());
//! assert!(report.peak_temperature() > report.ambient());
//! assert!(!report.critical.ranked().is_empty());
//! # Ok::<(), tadfa_core::TadfaError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
pub mod codec;
mod config;
mod critical;
mod dfa;
pub mod engine;
mod error;
mod grid;
mod predictive;
mod session;
mod summary;

pub use cache::{CacheStats, SolveCache, SpillEntry, SpillValue};
pub use config::{Convergence, MergeRule, ThermalDfaConfig};
pub use critical::{CriticalConfig, CriticalSet};
pub use dfa::{BlockVisits, DfaScratch, ThermalDfa, ThermalDfaResult};
pub use engine::{BatchOptions, Engine, PolicyFactory};
pub use error::TadfaError;
pub use grid::AnalysisGrid;
pub use predictive::{PlacementPrior, PredictiveConfig, PredictiveDfa, PredictiveResult};
pub use session::{ModuleReport, Session, SessionBuilder, SessionCore, ThermalReport};
pub use summary::ThermalSummary;
