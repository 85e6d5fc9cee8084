//! # tadfa — Thermal-Aware Data Flow Analysis
//!
//! A complete, from-scratch reproduction of *Thermal-Aware Data Flow
//! Analysis* (José L. Ayala, David Atienza, Philip Brisk — DAC 2009) as a
//! Rust workspace. This facade crate re-exports every sub-crate:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`ir`] | three-address IR (with direct calls + modules), CFG, dominators, loops, call graph, parser, verifier |
//! | [`dataflow`] | liveness, def-use chains, live intervals |
//! | [`thermal`] | register-file floorplan, RC compact model, power model, heat maps |
//! | [`regalloc`] | linear-scan allocator, Fig. 1 assignment policies |
//! | [`core`] | **the paper**: the [`Session`](crate::prelude::Session) façade, the thermal DFA (Fig. 2), δ-convergence, critical variables, predictive mode, the parallel [`engine`] |
//! | [`opt`] | §4 optimizations: spill-critical, splitting, scheduling, promotion, NOPs |
//! | [`sim`] | IR interpreter, access traces, thermal co-simulation (ground truth) |
//! | [`workloads`] | benchmark kernels + seeded program and module generators |
//!
//! ## Quickstart
//!
//! Everything goes through one façade: a [`Session`](crate::prelude::Session)
//! owns the register file, analysis grid, power model, configs and
//! assignment policy, validates them once at build time, and is reused
//! across every function analyzed. Errors are
//! [`TadfaError`](crate::prelude::TadfaError) values — never panics —
//! and non-convergence of the fixpoint is reported as data.
//!
//! ```
//! use tadfa::prelude::*;
//!
//! // 1. Configure the whole pipeline once: an 8×8 register file, the
//! //    compiler-default (hot-spot-producing) first-free policy, and
//! //    the paper's default δ and merge rule.
//! let mut session = Session::builder()
//!     .floorplan(8, 8)
//!     .policy_name("first-free", 0)
//!     .build()?;
//!
//! // 2. Analyze any number of functions against that shared state.
//! let w = tadfa::workloads::fibonacci();
//! let report = session.analyze(&w.func)?;
//! assert!(report.convergence().is_converged());
//! assert!(report.peak_temperature() > report.ambient());
//!
//! // 3. The §4 optimizations ride the same session.
//! let mut func = w.func.clone();
//! let outcome = session.optimize(&mut func, &PipelineConfig::default())?;
//! assert!(outcome.after.map.peak > 0.0);
//! # Ok::<(), tadfa::prelude::TadfaError>(())
//! ```

#![warn(missing_docs)]

pub use tadfa_core as core;
pub use tadfa_core::engine;
pub use tadfa_dataflow as dataflow;
pub use tadfa_ir as ir;
pub use tadfa_opt as opt;
pub use tadfa_regalloc as regalloc;
pub use tadfa_sched as sched;
pub use tadfa_serve as serve;
pub use tadfa_sim as sim;
pub use tadfa_thermal as thermal;
pub use tadfa_workloads as workloads;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use tadfa_core::{
        AnalysisGrid, BatchOptions, CacheStats, Convergence, CriticalConfig, CriticalSet, Engine,
        MergeRule, ModuleReport, PlacementPrior, PolicyFactory, PredictiveConfig, PredictiveDfa,
        Session, SessionBuilder, SessionCore, SolveCache, TadfaError, ThermalDfa, ThermalDfaConfig,
        ThermalReport, ThermalSummary,
    };
    pub use tadfa_dataflow::{DefUse, Liveness};
    pub use tadfa_ir::{Cfg, Function, FunctionBuilder, Opcode, PReg, VReg, Verifier};
    pub use tadfa_opt::{run_thermal_pipeline, OptKind, PipelineConfig, SessionOptimize};
    pub use tadfa_regalloc::{
        allocate_linear_scan, AssignmentPolicy, Chessboard, ColdestFirst, FarthestSpread,
        FirstFree, RandomPolicy, RegAllocConfig, RoundRobin,
    };
    pub use tadfa_sched::{
        mapping_policy_by_name, run_scenario, MappingPolicy, MultiCoreFloorplan, ScenarioConfig,
        ScenarioResult, Task,
    };
    pub use tadfa_sim::{compare_maps, simulate_trace, CosimConfig, Interpreter};
    pub use tadfa_thermal::{
        render_ascii_auto, CompiledModel, Floorplan, MapStats, PowerModel, RcParams, RegisterFile,
        SteadyStateOptions, SteadyStateStats, StepScratch, ThermalError, ThermalModel,
        ThermalState,
    };
    pub use tadfa_workloads::standard_suite;
}
