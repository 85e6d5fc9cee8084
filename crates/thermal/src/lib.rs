//! # tadfa-thermal — compact RC thermal model of a register file
//!
//! The thermal substrate of the *Thermal-Aware Data Flow Analysis*
//! reproduction (DAC 2009). The paper's analysis propagates "a
//! floorplan-aware estimate of the thermal state of the processor" (§3);
//! this crate supplies everything that sentence needs:
//!
//! * [`Floorplan`] / [`RegisterFile`] — the register array geometry and
//!   the register→cell placement (including the chessboard colouring of
//!   Fig. 1(c));
//! * [`ThermalModel`] — a HotSpot-style RC network with readable
//!   reference solvers: explicit Euler (auto sub-stepped for stability)
//!   and Gauss–Seidel for the steady state;
//! * [`solver`] / [`CompiledModel`] — the compiled transient plan the
//!   thermal DFA steps through: coefficient tables built once per
//!   model, executed by allocation-free, stencil-specialized kernels
//!   that are bit-identical to [`ThermalModel::step`];
//! * [`ModalSolver`] — the exact solver of every grid in the workspace
//!   (a register file, a coarsened analysis grid, a multi-core die):
//!   windows of any length and steady states through the factored
//!   eigenpairs of its conductance matrix, checked against
//!   [`ThermalModel::steady_state_with`];
//! * [`PowerModel`] — per-access energies plus temperature-dependent
//!   leakage (the "technology coefficients" of §4);
//! * [`ThermalState`] / [`MapStats`] — the dataflow fact and the summary
//!   metrics (peak, gradient, σ) every experiment reports;
//! * [`hashing`] — bit-exact 128-bit hashing of thermal maps and power
//!   vectors, the key function of the batch engine's solve cache;
//! * [`exp_neg`] — the platform-independent `e^{−x}` behind the modal
//!   solver's RC decay factors (no libm call reaches a fingerprint);
//! * [`render_ascii`] & friends — Fig. 1-style heat-map rendering.
//!
//! Constants and their provenance/calibration live in [`constants`].
//!
//! ## Example: a hot register and its neighbourhood
//!
//! ```
//! use tadfa_thermal::{Floorplan, RcParams, ThermalModel, PowerModel};
//!
//! let model = ThermalModel::new(Floorplan::grid(8, 8), RcParams::default());
//! let pm = PowerModel::default();
//!
//! // Register 27 read+written every cycle for 1 ms at 1 GHz:
//! let mut power = vec![0.0; 64];
//! power[27] = pm.access_power(1, 1, 1e-9);
//! let mut state = model.ambient_state();
//! model.step(&mut state, &power, 1e-3);
//!
//! assert!(state.get(27) > model.ambient() + 1.0);
//! assert!(state.get(27) > state.get(0)); // far corner cooler
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod constants;
mod error;
mod exp;
mod floorplan;
pub mod hashing;
mod lanes;
mod map;
mod modal;
mod power;
mod rc;
pub mod solver;
mod state;

pub use error::ThermalError;
pub use exp::exp_neg;
pub use floorplan::{Floorplan, RegisterFile};
pub use map::{render_ascii, render_ascii_auto, render_numeric, to_csv};
pub use modal::{ModalSolver, ModalState};
pub use power::{accumulate_scaled, PowerModel};
pub use rc::{RcParams, SteadyStateOptions, SteadyStateStats, ThermalModel};
pub use solver::{CompiledModel, LeakageParams, StepSchedule, StepScratch};
pub use state::{MapStats, ThermalState};
