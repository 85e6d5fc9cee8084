//! # tadfa-bench — experiment harness
//!
//! Shared plumbing for the experiment binaries that regenerate every
//! figure of the paper (and the quantified extensions E2–E7 documented in
//! `DESIGN.md` / `EXPERIMENTS.md`). Each binary composes
//! [`evaluate_policy`] (workload → allocation under a policy → predicted
//! map via the thermal DFA → measured map via traced execution and
//! co-simulation) over a shared [`Session`] and prints aligned tables
//! plus Fig. 1-style ASCII heat maps.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod quickbench;

use tadfa_core::{Session, TadfaError, ThermalDfaResult};
use tadfa_ir::Function;
use tadfa_regalloc::Assignment;
use tadfa_sim::{simulate_trace, CosimConfig, Interpreter, SimError};
use tadfa_thermal::{MapStats, ThermalState};
use tadfa_workloads::{generate, standard_suite, GeneratorConfig, Workload};

/// A session over the canonical 8×8 (64-register) file used by the
/// experiments, matching the paper's Fig. 1 panels.
///
/// # Panics
///
/// Never — the default configuration is valid by construction; the
/// `expect` is unreachable.
pub fn default_session() -> Session {
    Session::builder()
        .floorplan(8, 8)
        .build()
        .expect("default experiment session is valid")
}

/// The workloads of experiment E4 (prediction accuracy): the standard
/// suite's kernels plus two irregular generated programs, `rand-a`
/// (seed 5) and `rand-b` (seed 17) — the hard case the paper expects
/// to predict poorly. The `accuracy` binary prints their scores and
/// the tier-1 E4 gate asserts them.
pub fn accuracy_workloads() -> Vec<Workload> {
    let mut workloads = standard_suite();
    for (name, seed) in [("rand-a", 5u64), ("rand-b", 17)] {
        workloads.push(Workload {
            name,
            description: "irregular generated program",
            func: generate(&GeneratorConfig {
                seed,
                segments: 8,
                loops: 3,
                pressure: 10,
                ..GeneratorConfig::default()
            }),
            args: vec![3, 7],
            expected: None,
            preload: vec![],
        });
    }
    workloads
}

/// Everything measured for one (workload, policy) pair.
#[derive(Clone, Debug)]
pub struct PolicyEval {
    /// Policy name.
    pub policy: String,
    /// Map predicted by the thermal DFA (on the physical floorplan).
    pub predicted: ThermalState,
    /// Map measured by traced execution + co-simulation.
    pub measured: ThermalState,
    /// Summary of the measured map.
    pub measured_stats: MapStats,
    /// Summary of the predicted map.
    pub predicted_stats: MapStats,
    /// The DFA result (convergence diagnostics), shared with the
    /// report it came from.
    pub dfa: std::sync::Arc<ThermalDfaResult>,
    /// Dynamic cycles of the traced run.
    pub cycles: u64,
    /// Virtual registers spilled during allocation.
    pub spilled: usize,
    /// The final register assignment.
    pub assignment: Assignment,
    /// The allocated function (spill code included).
    pub func: Function,
}

/// Errors the harness can surface.
#[derive(Debug)]
pub enum HarnessError {
    /// Analysis-side failure (config, policy, allocation).
    Tadfa(TadfaError),
    /// Execution failed.
    Sim(SimError),
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::Tadfa(e) => write!(f, "analysis failed: {e}"),
            HarnessError::Sim(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl std::error::Error for HarnessError {}

impl From<TadfaError> for HarnessError {
    fn from(e: TadfaError) -> Self {
        HarnessError::Tadfa(e)
    }
}

impl From<SimError> for HarnessError {
    fn from(e: SimError) -> Self {
        HarnessError::Sim(e)
    }
}

/// Runs one workload under one assignment policy through `session`:
/// allocate, predict (thermal DFA), execute+trace, co-simulate
/// (measured), and summarise. The session's register file, grid, power
/// model, and DFA config are reused; only the policy is switched.
///
/// # Errors
///
/// Returns [`HarnessError`] on unknown policy, allocation failure, or
/// execution failure.
pub fn evaluate_policy(
    session: &mut Session,
    workload: &Workload,
    policy_name: &str,
    seed: u64,
) -> Result<PolicyEval, HarnessError> {
    session.set_policy_name(policy_name, seed)?;
    let report = session.analyze(&workload.func)?;

    // Measured map: traced execution + co-simulation.
    let rf = session.register_file();
    let mut interp = Interpreter::new(&report.func)
        .with_assignment(&report.assignment)
        .with_fuel(50_000_000);
    for (slot, data) in &workload.preload {
        interp = interp.with_slot_data(*slot, data.clone());
    }
    let exec = interp.run(&workload.args)?;
    let model = tadfa_thermal::ThermalModel::new(rf.floorplan().clone(), session.rc_params());
    let dfa_config = session.dfa_config();
    let cosim = CosimConfig {
        seconds_per_cycle: dfa_config.seconds_per_cycle,
        time_scale: dfa_config.time_scale,
        ..CosimConfig::default()
    };
    let timeline = simulate_trace(&exec.trace, rf, &model, &session.power_model(), &cosim);

    let fp = rf.floorplan();
    Ok(PolicyEval {
        policy: policy_name.to_string(),
        measured_stats: MapStats::of(&timeline.peak_map, fp),
        predicted_stats: MapStats::of(&report.predicted, fp),
        predicted: report.predicted,
        measured: timeline.peak_map,
        dfa: report.dfa,
        cycles: exec.cycles,
        spilled: report.alloc_stats.spilled,
        assignment: report.assignment,
        func: report.func,
    })
}

/// Prints an aligned table: header row then each data row, columns padded
/// to the widest cell.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::new();
        for (i, c) in cells.iter().enumerate().take(ncols) {
            out.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        println!("{}", out.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Formats Kelvin with two decimals.
pub fn k2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats Kelvin with three decimals.
pub fn k3(v: f64) -> String {
    format!("{v:.3}")
}

/// The standard-suite determinism digest: the fold of every suite
/// function's report fingerprint under the canonical experiment session
/// (8×8 file, first-free policy, default configs).
///
/// Both the `solver_kernels` quickbench (which records the digest into
/// `BENCH_solver.json`) and the `tadfa-bench` perf-trend gate (which
/// recomputes it and hard-fails CI on drift) call this one function, so
/// the committed value and the check can never diverge by construction.
///
/// # Panics
///
/// Panics if the standard suite fails to analyze — that is a broken
/// build, not an expected outcome.
pub fn suite_digest() -> u128 {
    let mut session = Session::builder()
        .floorplan(8, 8)
        .policy_name("first-free", 0)
        .build()
        .expect("canonical session is valid");
    let funcs: Vec<Function> = tadfa_workloads::standard_suite()
        .into_iter()
        .map(|w| w.func)
        .collect();
    let mut h = tadfa_thermal::hashing::Fnv128::new();
    h.write_u64(funcs.len() as u64);
    for report in session.analyze_batch(&funcs) {
        let fp = report.expect("standard suite analyzes").fingerprint();
        h.write_u64((fp >> 64) as u64);
        h.write_u64(fp as u64);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tadfa_workloads::fibonacci;

    #[test]
    fn evaluate_policy_produces_consistent_maps() {
        let mut session = default_session();
        let w = fibonacci();
        let eval = evaluate_policy(&mut session, &w, "first-free", 1).unwrap();
        assert_eq!(eval.predicted.len(), 64);
        assert_eq!(eval.measured.len(), 64);
        assert!(eval.measured_stats.peak > 318.0);
        assert!(eval.predicted_stats.peak > 318.0);
        assert!(eval.cycles > 0);
        assert!(eval.dfa.convergence.is_converged());
    }

    #[test]
    fn unknown_policy_is_reported() {
        let mut session = default_session();
        let w = fibonacci();
        let e = evaluate_policy(&mut session, &w, "nonsense", 1);
        assert!(matches!(
            e,
            Err(HarnessError::Tadfa(TadfaError::UnknownPolicy(_)))
        ));
    }

    #[test]
    fn suite_digest_is_reproducible() {
        assert_eq!(suite_digest(), suite_digest());
        assert_ne!(suite_digest(), 0);
    }

    #[test]
    fn policies_differ_in_measured_spread() {
        let mut session = default_session();
        let w = fibonacci();
        let ff = evaluate_policy(&mut session, &w, "first-free", 1).unwrap();
        let cb = evaluate_policy(&mut session, &w, "chessboard", 1).unwrap();
        // Both valid; the exact ordering is asserted in the E1 shape
        // integration test — here we only require both produced heat.
        assert!(ff.measured_stats.peak > 318.0);
        assert!(cb.measured_stats.peak > 318.0);
    }
}
