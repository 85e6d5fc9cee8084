//! The scenario runner: task set × mapping policy × multi-core die,
//! executed end to end.
//!
//! A scenario runs in three deterministic phases:
//!
//! 1. **Analyze** — every task's function goes through the existing
//!    single-core `Session` pipeline on a parallel
//!    [`Engine`](tadfa_core::engine::Engine) (batch-parallel, results
//!    in input order, byte-identical at any worker count). This yields
//!    one [`ThermalReport`] per task and the derived
//!    [`TaskMetrics`] the policies consume.
//! 2. **Map** — the [`MappingPolicy`] places tasks on cores in arrival
//!    order, then (policy permitting) rebalances; rebalance moves are
//!    the scenario's migration count. This phase is purely sequential
//!    and reads only phase-1 metrics, so it cannot observe engine
//!    scheduling.
//! 3. **Simulate** — the die-wide coupled RC model (factored once from
//!    the [`MultiCoreFloorplan`] into a [`ModalSolver`]) integrates the
//!    piecewise-constant power timeline the mapping implies exactly,
//!    one update per window, recording the transient peak, and solves
//!    the steady state of the time-averaged power from the same
//!    factors.
//!
//! Because every phase is a pure function of the scenario
//! configuration, [`ScenarioResult::fingerprint`] is byte-identical
//! across runs and worker counts — the property the CI golden-report
//! gate enforces.

use crate::covert::{decode, CovertConfig, CovertSummary};
use crate::dtm::{self, DtmConfig, DtmSummary, SimOutput};
use crate::multicore::MultiCoreFloorplan;
use crate::policy::{mapping_policy_by_name, MappingContext};
use crate::task::{task_metrics, Task, TaskMetrics};
use std::sync::Arc;
use tadfa_core::engine::Engine;
use tadfa_core::{
    CacheStats, Session, SessionCore, SolverMode, TadfaError, ThermalDfaConfig, ThermalReport,
};
use tadfa_ir::{Function, Module};
use tadfa_thermal::hashing::Fnv128;
use tadfa_thermal::ModalSolver;

/// A validated, runnable scenario: die, tasks, policies, analysis
/// configuration.
#[derive(Clone, Debug)]
pub struct ScenarioConfig {
    /// Display name, echoed into the report.
    pub name: String,
    /// The multi-core die.
    pub die: MultiCoreFloorplan,
    /// The task set (any order; the runner schedules by arrival).
    pub tasks: Vec<Task>,
    /// Mapping-policy name (see
    /// [`MAPPING_POLICY_NAMES`](crate::MAPPING_POLICY_NAMES)).
    pub mapping: String,
    /// Register-assignment policy name for the per-task analysis.
    pub assignment_policy: String,
    /// Seed for seeded assignment policies.
    pub assignment_seed: u64,
    /// Thermal-DFA configuration for the per-task analysis.
    pub dfa: ThermalDfaConfig,
    /// Engine worker threads for the analysis phase. Has no effect on
    /// any reported value — only on wall-clock time.
    pub workers: usize,
    /// When set, the tasks are the functions of this module (one task
    /// per function, in module order) and the analysis phase runs
    /// interprocedurally through
    /// [`Engine::analyze_module_opts`](tadfa_core::engine::Engine::analyze_module_opts),
    /// so tasks may `call` each other and callee bodies are summarised
    /// once, bottom-up. `None` keeps the per-function batch path.
    pub module: Option<Module>,
    /// Dynamic thermal management for the simulation phase. `None` (and
    /// the explicit `"none"` policy) keep the open-loop timeline
    /// bit-identical to historical runs — see `docs/DETERMINISM.md`.
    pub dtm: Option<DtmConfig>,
    /// Covert-channel instrumentation: when set, the simulator samples
    /// the receiver core's tile peak on the bit grid and the result
    /// carries a decoded [`CovertSummary`].
    pub covert: Option<CovertConfig>,
}

impl ScenarioConfig {
    /// A scenario with the workspace-default analysis knobs.
    pub fn new(
        name: &str,
        die: MultiCoreFloorplan,
        tasks: Vec<Task>,
        mapping: &str,
    ) -> ScenarioConfig {
        ScenarioConfig {
            name: name.to_string(),
            die,
            tasks,
            mapping: mapping.to_string(),
            assignment_policy: "first-free".to_string(),
            assignment_seed: 0,
            dfa: ThermalDfaConfig::default(),
            workers: 4,
            module: None,
            dtm: None,
            covert: None,
        }
    }
}

/// The golden-gate guard: committed golden fingerprints are **exact**
/// solver contracts, so the `tadfa check` subcommand (and the in-tree
/// scenario gate) refuse a spec that requests the
/// reassociation-permitting [`SolverMode::Fast`] unless the caller
/// explicitly opted in (`--allow-fast`). Fast-mode runs are
/// deterministic on one build, but their fingerprints are not
/// comparable to exact-mode goldens — see `docs/DETERMINISM.md`.
pub fn golden_gate_guard(cfg: &ScenarioConfig, allow_fast: bool) -> Result<(), String> {
    if cfg.dfa.solver_mode == SolverMode::Fast && !allow_fast {
        return Err(format!(
            "scenario '{}' requests solver = \"fast\": golden fingerprints are exact-mode \
             contracts; pass --allow-fast to gate a fast-mode golden deliberately",
            cfg.name
        ));
    }
    Ok(())
}

/// One task's scheduling outcome.
#[derive(Clone, Debug)]
pub struct TaskOutcome {
    /// The task's name.
    pub name: String,
    /// The core it ran on (after any migration).
    pub core: usize,
    /// Arrival time, seconds.
    pub arrival: f64,
    /// Start time after queueing, seconds.
    pub start: f64,
    /// Core occupancy, seconds.
    pub length: f64,
    /// Single-core analysis peak, K.
    pub peak_temperature: f64,
    /// Joules deposited per execution.
    pub energy: f64,
    /// The task's [`ThermalReport::fingerprint`].
    pub fingerprint: u128,
}

/// Aggregates for one core.
#[derive(Clone, Debug)]
pub struct CoreSummary {
    /// Core index.
    pub core: usize,
    /// Tasks mapped onto this core (input-order indices).
    pub tasks: Vec<usize>,
    /// Total joules mapped onto the core.
    pub energy: f64,
    /// Total seconds the core is occupied.
    pub busy: f64,
    /// Hottest single-task analysis peak on the core, K (ambient when
    /// idle).
    pub peak_temperature: f64,
}

/// Die-wide thermal outcome.
#[derive(Clone, Debug)]
pub struct DieSummary {
    /// Hottest cell temperature at any timeline breakpoint, K.
    pub transient_peak: f64,
    /// When the transient peak was observed, seconds.
    pub transient_peak_time: f64,
    /// Steady-state peak under the time-averaged power, K.
    pub steady_peak: f64,
    /// Whether the steady-state solve converged: always `true`, since
    /// the modal solve is exact (kept for the report schema).
    pub steady_converged: bool,
    /// Iterations the steady solve used: always `0`, since the modal
    /// solve is direct (kept for the report schema).
    pub steady_sweeps: usize,
    /// When the last task finishes, seconds.
    pub makespan: f64,
}

/// Everything one scenario run produces.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    /// Scenario name.
    pub name: String,
    /// Mapping policy used.
    pub mapping: String,
    /// Cores on the die.
    pub cores: usize,
    /// Task index → core (final, post-migration).
    pub assignments: Vec<usize>,
    /// Rebalance moves the mapping policy performed.
    pub migrations: usize,
    /// Per-task outcomes, in input order.
    pub tasks: Vec<TaskOutcome>,
    /// Per-core aggregates.
    pub per_core: Vec<CoreSummary>,
    /// Die-wide thermal summary.
    pub die: DieSummary,
    /// What the DTM controller did, when one was configured.
    pub dtm: Option<DtmSummary>,
    /// What the covert-channel receiver decoded, when instrumented.
    pub covert: Option<CovertSummary>,
    /// The full per-task analysis reports, in input order (heavier than
    /// [`ScenarioResult::tasks`]; kept for downstream consumers like
    /// heat-map rendering).
    pub reports: Vec<ThermalReport>,
}

impl ScenarioResult {
    /// A 128-bit digest of every scheduling and thermal output: task
    /// report fingerprints, final core assignments, start times,
    /// migrations, and the die's transient/steady numbers (exact bits).
    ///
    /// Two runs fingerprint equal iff the whole scenario reproduced
    /// bit-identically — the equality the CI golden-report job diffs.
    pub fn fingerprint(&self) -> u128 {
        let mut h = Fnv128::new();
        h.write_u64(self.cores as u64);
        h.write_u64(self.migrations as u64);
        h.write_u64(self.tasks.len() as u64);
        for t in &self.tasks {
            h.write_u64(t.core as u64);
            h.write_u64((t.fingerprint >> 64) as u64);
            h.write_u64(t.fingerprint as u64);
            h.write_f64(t.start, 0.0);
            h.write_f64(t.energy, 0.0);
        }
        h.write_f64(self.die.transient_peak, 0.0);
        h.write_f64(self.die.transient_peak_time, 0.0);
        h.write_f64(self.die.steady_peak, 0.0);
        h.write_u64(self.die.steady_converged as u64);
        h.write_u64(self.die.steady_sweeps as u64);
        h.write_f64(self.die.makespan, 0.0);
        // Closed-loop blocks fold in only when configured, so the
        // fingerprints of historical (DTM-free) scenarios are unchanged.
        if let Some(d) = &self.dtm {
            for b in d.policy.bytes() {
                h.write_u64(b as u64);
            }
            h.write_u64(d.epochs as u64);
            h.write_u64(d.level_changes as u64);
            h.write_u64(d.throttle_events as u64);
            h.write_u64(d.migrations as u64);
        }
        if let Some(c) = &self.covert {
            h.write_u64(c.bits as u64);
            h.write_u64(c.errors as u64);
            h.write_f64(c.bandwidth_bps, 0.0);
            h.write_f64(c.threshold_k, 0.0);
            h.write_f64(c.swing_k, 0.0);
            for b in c.decoded.bytes() {
                h.write_u64(b as u64);
            }
        }
        h.finish()
    }
}

/// Request-scoped overrides for one [`PreparedScenario::run_with`]
/// call — the per-request knobs a long-lived service forwards without
/// rebuilding the scenario's engine: a worker count for this run only
/// and a deadline past which the run aborts cleanly with
/// [`TadfaError::DeadlineExceeded`]. Neither can change a computed
/// result; this is the engine's
/// [`BatchOptions`](tadfa_core::engine::BatchOptions) under the
/// runner's vocabulary (same type, no translation layer).
pub use tadfa_core::engine::BatchOptions as RunOverrides;

/// A scenario resolved once and runnable many times: the validated
/// [`ScenarioConfig`] plus the shared session core, parallel engine
/// (with its [`SolveCache`](tadfa_core::SolveCache)), factored die
/// solver, and cloned task functions — everything `run_scenario` used
/// to rebuild per call.
///
/// This is the unit a persistent service holds per scenario: repeated
/// [`run_with`](PreparedScenario::run_with) calls share the solve
/// cache, so repetitions of the same task profiles are answered from
/// memory — and because the cache keys on exact bits (quantum 0), a
/// cache-warm run is **byte-identical** to a cold one, which is the
/// service's golden-equality contract. Every field is immutable shared
/// state (`Send + Sync`), so one `&PreparedScenario` can serve
/// concurrent requests from many service threads.
#[derive(Debug)]
pub struct PreparedScenario {
    cfg: ScenarioConfig,
    core: Arc<SessionCore>,
    engine: Engine,
    solver: ModalSolver,
    funcs: Vec<Function>,
}

/// Phases 1–3 of a run, before the steady solve and the assembly.
struct Simulated {
    reports: Vec<ThermalReport>,
    metrics: Vec<TaskMetrics>,
    migrations: usize,
    sim: SimOutput,
}

impl PreparedScenario {
    /// Validates the configuration and builds the reusable state: the
    /// session, the engine, and the factored die-wide solver.
    ///
    /// # Errors
    ///
    /// * [`TadfaError::UnknownPolicy`] for an unknown mapping or
    ///   assignment policy name;
    /// * [`TadfaError::InvalidConfig`] for a non-finite/negative task
    ///   arrival, a non-positive task length, or zero workers;
    /// * any session/engine construction error.
    pub fn prepare(cfg: ScenarioConfig) -> Result<PreparedScenario, TadfaError> {
        // Fail fast on names and task timing so a service rejects a bad
        // spec at load time, not on the first request.
        mapping_policy_by_name(&cfg.mapping)
            .ok_or_else(|| TadfaError::UnknownPolicy(cfg.mapping.clone()))?;
        if let Some(module) = &cfg.module {
            // Unknown callees, arity mismatches and recursion are spec
            // bugs; surface them at load time, not on the first request.
            tadfa_ir::verify_module(module)?;
            if module.len() != cfg.tasks.len() {
                return Err(TadfaError::InvalidConfig {
                    param: "module",
                    value: module.len() as f64,
                    reason: "a module scenario needs one task per module function, in order",
                });
            }
        }
        if let Some(dtm) = &cfg.dtm {
            dtm.validate()?;
        }
        if let Some(covert) = &cfg.covert {
            covert.validate(cfg.die.cores())?;
        }
        for t in &cfg.tasks {
            if !t.arrival.is_finite() || t.arrival < 0.0 {
                return Err(TadfaError::InvalidConfig {
                    param: "arrival",
                    value: t.arrival,
                    reason: "task arrivals must be finite and non-negative",
                });
            }
            if !t.length.is_finite() || t.length <= 0.0 {
                return Err(TadfaError::InvalidConfig {
                    param: "length",
                    value: t.length,
                    reason: "task lengths must be finite and positive",
                });
            }
        }
        let session = Session::builder()
            .floorplan(cfg.die.rows(), cfg.die.cols())
            .rc(cfg.die.rc_params())
            .dfa_config(cfg.dfa)
            .policy_name(&cfg.assignment_policy, cfg.assignment_seed)
            .build()?;
        let engine = Engine::from_session(&session, cfg.workers)?;
        let core = session.shared_core();
        let solver = cfg.die.modal()?;
        let funcs: Vec<Function> = cfg.tasks.iter().map(|t| t.func.clone()).collect();
        Ok(PreparedScenario {
            cfg,
            core,
            engine,
            solver,
            funcs,
        })
    }

    /// The validated configuration this scenario was prepared from.
    pub fn config(&self) -> &ScenarioConfig {
        &self.cfg
    }

    /// The shared analysis engine (and through it, the solve cache a
    /// service surfaces in its `stats` responses).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Counters of the engine's solve cache, accumulated across every
    /// run of this prepared scenario.
    pub fn cache_stats(&self) -> CacheStats {
        self.engine.cache_stats()
    }

    /// The scenario's solve cache itself — the handle a persistence
    /// tier uses to enable the spill log, drain new entries to disk,
    /// and preload recovered entries on restart.
    pub fn solve_cache(&self) -> &tadfa_core::SolveCache {
        self.engine.cache()
    }

    /// Runs the scenario with its configured knobs.
    ///
    /// # Errors
    ///
    /// See [`PreparedScenario::run_with`].
    pub fn run(&self) -> Result<ScenarioResult, TadfaError> {
        self.run_with(&RunOverrides::default())
    }

    /// Phases 1–3: analyze, map, and simulate the die's transient.
    fn simulate(&self, over: &RunOverrides) -> Result<Simulated, TadfaError> {
        let cfg = &self.cfg;

        // Phase 1: analyze every task on the single-core pipeline. A
        // module scenario goes through the interprocedural entry point
        // (summaries bottom-up, then per-function fixpoints); reports
        // come back in module order, which is also task order.
        let reports: Vec<ThermalReport> = match &cfg.module {
            Some(module) => self
                .engine
                .analyze_module_opts(module, over)?
                .into_reports(),
            None => {
                let mut reports = Vec::with_capacity(self.funcs.len());
                for r in self.engine.analyze_batch_parallel_opts(&self.funcs, over) {
                    reports.push(r?);
                }
                reports
            }
        };
        let rf = self.core.register_file();
        let pm = self.core.power_model();
        let metrics: Vec<TaskMetrics> = reports
            .iter()
            .map(|r| task_metrics(r, rf, pm, cfg.dfa.seconds_per_cycle))
            .collect();

        // Phase 2: map tasks to cores in arrival order.
        let mut mapping = mapping_policy_by_name(&cfg.mapping)
            .ok_or_else(|| TadfaError::UnknownPolicy(cfg.mapping.clone()))?;
        let cores = cfg.die.cores();
        let ambient = cfg.die.rc_params().ambient;
        let mut order: Vec<usize> = (0..cfg.tasks.len()).collect();
        order.sort_by(|&a, &b| {
            cfg.tasks[a]
                .arrival
                .partial_cmp(&cfg.tasks[b].arrival)
                .expect("finite arrivals")
                .then(a.cmp(&b))
        });
        mapping.reset(cores, cfg.tasks.len());
        let mut assignments = vec![0usize; cfg.tasks.len()];
        let mut core_energy = vec![0.0f64; cores];
        let mut core_busy = vec![0.0f64; cores];
        let mut core_peak = vec![ambient; cores];
        for (pos, &task) in order.iter().enumerate() {
            let core = mapping
                .choose(&MappingContext {
                    cores,
                    task_index: pos,
                    metrics: &metrics[task],
                    core_energy: &core_energy,
                    core_busy_until: &core_busy,
                    core_peak_estimate: &core_peak,
                })
                .min(cores - 1);
            assignments[task] = core;
            core_energy[core] += metrics[task].energy;
            core_busy[core] = core_busy[core].max(cfg.tasks[task].arrival) + cfg.tasks[task].length;
            core_peak[core] = core_peak[core].max(metrics[task].peak_temperature);
        }
        let migrations = mapping.rebalance(&mut assignments, &metrics, cores);

        // Phase 3: closed-loop die-wide simulation. Without DTM (or
        // with the explicit "none" policy) the event set degenerates to
        // the open-loop start/finish breakpoints and the simulator
        // reproduces the historical timeline bit for bit — the golden
        // gate's refactor contract (see `crate::dtm` docs).
        let sample_times: Vec<f64> = cfg
            .covert
            .as_ref()
            .map_or_else(Vec::new, CovertConfig::sample_times);
        let sim = dtm::simulate(&dtm::SimInput {
            die: &cfg.die,
            solver: &self.solver,
            tasks: &cfg.tasks,
            metrics: &metrics,
            order: &order,
            assignments: &assignments,
            dtm: cfg.dtm.as_ref(),
            sample_times: &sample_times,
            sample_core: cfg.covert.as_ref().map_or(0, |c| c.receiver_core),
        })?;
        Ok(Simulated {
            reports,
            metrics,
            migrations,
            sim,
        })
    }

    /// Runs the scenario end to end — analyze (batch-parallel on the
    /// shared engine), map (sequential), simulate (die-wide transient +
    /// steady) — honouring per-request overrides; see the crate-level
    /// docs for the determinism contract.
    ///
    /// # Errors
    ///
    /// * [`TadfaError::DeadlineExceeded`] if the override deadline
    ///   passed before every task's analysis was started;
    /// * any error the per-task analysis pipeline reports (the first
    ///   failing task aborts the scenario — scenarios are specs, so a
    ///   failing task is a configuration bug, not data).
    pub fn run_with(&self, over: &RunOverrides) -> Result<ScenarioResult, TadfaError> {
        let cfg = &self.cfg;
        let Simulated {
            reports,
            metrics,
            migrations,
            sim,
        } = self.simulate(over)?;
        let assignments = sim.final_core;
        let cores = cfg.die.cores();
        let ambient = cfg.die.rc_params().ambient;
        let steady = self.solver.steady_state(&sim.avg_power);
        let covert = cfg.covert.as_ref().map(|c| decode(c, &sim.samples));

        // Assemble.
        let tasks: Vec<TaskOutcome> = cfg
            .tasks
            .iter()
            .enumerate()
            .map(|(i, t)| TaskOutcome {
                name: t.name.clone(),
                core: assignments[i],
                arrival: t.arrival,
                start: sim.starts[i],
                length: sim.occupancy[i],
                peak_temperature: metrics[i].peak_temperature,
                energy: metrics[i].energy,
                fingerprint: metrics[i].fingerprint,
            })
            .collect();
        let per_core: Vec<CoreSummary> = (0..cores)
            .map(|core| {
                let on_core: Vec<usize> = (0..cfg.tasks.len())
                    .filter(|&i| assignments[i] == core)
                    .collect();
                // Folded from +0.0: an empty f64 `sum()` is -0.0.
                CoreSummary {
                    core,
                    energy: on_core.iter().fold(0.0, |s, &i| s + metrics[i].energy),
                    busy: on_core.iter().fold(0.0, |s, &i| s + sim.occupancy[i]),
                    peak_temperature: on_core
                        .iter()
                        .map(|&i| metrics[i].peak_temperature)
                        .fold(ambient, f64::max),
                    tasks: on_core,
                }
            })
            .collect();

        Ok(ScenarioResult {
            name: cfg.name.clone(),
            mapping: cfg.mapping.clone(),
            cores,
            assignments,
            migrations,
            tasks,
            per_core,
            die: DieSummary {
                transient_peak: sim.transient_peak,
                transient_peak_time: sim.transient_peak_time,
                steady_peak: steady.peak(),
                steady_converged: true,
                steady_sweeps: 0,
                makespan: sim.makespan,
            },
            dtm: sim.dtm,
            covert,
            reports,
        })
    }
}

/// Runs a scenario end to end, building (and discarding) the prepared
/// state for one shot — the batch entry point. Long-lived callers
/// should [`PreparedScenario::prepare`] once and run many times to keep
/// the solve cache warm; both paths produce byte-identical results.
///
/// # Errors
///
/// Everything [`PreparedScenario::prepare`] and
/// [`PreparedScenario::run`] report.
pub fn run_scenario(cfg: &ScenarioConfig) -> Result<ScenarioResult, TadfaError> {
    PreparedScenario::prepare(cfg.clone())?.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::suite_tasks;
    use std::time::Instant;
    use tadfa_thermal::RcParams;

    fn quad_config(mapping: &str) -> ScenarioConfig {
        let die = MultiCoreFloorplan::new(4, 4, 4, RcParams::default(), Some(40.0)).unwrap();
        let mut cfg = ScenarioConfig::new("test", die, suite_tasks(8, 5e-4, 1e-3), mapping);
        cfg.workers = 2;
        cfg
    }

    #[test]
    fn scenario_runs_and_reports_consistently() {
        let r = run_scenario(&quad_config("round-robin")).unwrap();
        assert_eq!(r.cores, 4);
        assert_eq!(r.tasks.len(), 8);
        assert_eq!(r.assignments, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        assert_eq!(r.migrations, 0);
        assert!(r.die.transient_peak > RcParams::default().ambient);
        assert!(r.die.steady_converged);
        assert!(r.die.makespan > 0.0);
        // Per-core partitions cover every task exactly once.
        let mut seen: Vec<usize> = r.per_core.iter().flat_map(|c| c.tasks.clone()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
        // Report fingerprints survive into outcomes.
        for (outcome, report) in r.tasks.iter().zip(&r.reports) {
            assert_eq!(outcome.fingerprint, report.fingerprint());
        }
    }

    #[test]
    fn fingerprint_is_stable_across_runs_and_workers() {
        let base = run_scenario(&quad_config("coolest-core"))
            .unwrap()
            .fingerprint();
        for workers in [1, 3, 8] {
            let mut cfg = quad_config("coolest-core");
            cfg.workers = workers;
            assert_eq!(
                run_scenario(&cfg).unwrap().fingerprint(),
                base,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn prepared_scenario_warm_runs_are_byte_identical() {
        let prepared = PreparedScenario::prepare(quad_config("coolest-core")).unwrap();
        let cold = prepared.run().unwrap();
        let stats_cold = prepared.cache_stats();
        assert!(stats_cold.misses > 0, "cold run populated the cache");

        // A warm re-run — even at a different worker count — answers
        // repeated solves from the cache and reproduces every byte.
        let warm = prepared
            .run_with(&RunOverrides {
                workers: Some(1),
                deadline: None,
            })
            .unwrap();
        assert_eq!(cold.fingerprint(), warm.fingerprint());
        assert_eq!(
            crate::report::render_report(&cold),
            crate::report::render_report(&warm)
        );
        let stats_warm = prepared.cache_stats();
        assert!(stats_warm.hits > stats_cold.hits, "warm run hit the cache");

        // And both equal the one-shot batch path.
        let one_shot = run_scenario(&quad_config("coolest-core")).unwrap();
        assert_eq!(cold.fingerprint(), one_shot.fingerprint());
    }

    #[test]
    fn prepared_scenario_is_shareable_across_threads() {
        fn assert_shareable<T: Send + Sync>() {}
        assert_shareable::<PreparedScenario>();
    }

    #[test]
    fn prepared_scenario_deadline_fails_cleanly_and_recovers() {
        let prepared = PreparedScenario::prepare(quad_config("round-robin")).unwrap();
        let expired = RunOverrides {
            workers: None,
            deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
        };
        assert!(matches!(
            prepared.run_with(&expired),
            Err(TadfaError::DeadlineExceeded)
        ));
        // The prepared state survives an abandoned run intact.
        assert!(prepared.run().is_ok());
    }

    #[test]
    fn module_scenarios_run_interprocedurally_and_reproduce() {
        let module = tadfa_ir::parse_module(
            "func @hot(%0) {\nblock0:\n  %1 = mul %0, %0\n  %2 = mul %1, %1\n  \
             %3 = mul %2, %2\n  ret %3\n}\n\n\
             func @a(%0) {\nblock0:\n  %1 = call @hot(%0)\n  ret %1\n}\n\n\
             func @b(%0) {\nblock0:\n  %1 = call @hot(%0)\n  %2 = add %1, %0\n  ret %2\n}\n",
        )
        .unwrap();
        let die = MultiCoreFloorplan::new(2, 4, 4, RcParams::default(), Some(40.0)).unwrap();
        let tasks: Vec<Task> = module
            .functions()
            .iter()
            .enumerate()
            .map(|(k, f)| Task {
                name: f.name().to_string(),
                func: f.clone(),
                arrival: k as f64 * 5e-4,
                length: 1e-3,
            })
            .collect();
        let mut cfg = ScenarioConfig::new("module", die, tasks, "coolest-core");
        cfg.module = Some(module);
        let base = run_scenario(&cfg).unwrap();
        assert_eq!(base.tasks.len(), 3);
        assert_eq!(base.tasks[0].name, "hot");
        // Callers replay the callee's steps, so they run hotter than
        // the callee alone.
        assert!(base.tasks[1].peak_temperature > RcParams::default().ambient);
        for workers in [1, 3] {
            let mut cfg = cfg.clone();
            cfg.workers = workers;
            assert_eq!(
                run_scenario(&cfg).unwrap().fingerprint(),
                base.fingerprint(),
                "workers={workers}"
            );
        }

        // A mismatched task list is rejected at prepare time, and so is
        // a recursive module.
        let mut short = cfg.clone();
        short.tasks.pop();
        assert!(matches!(
            PreparedScenario::prepare(short),
            Err(TadfaError::InvalidConfig {
                param: "module",
                ..
            })
        ));
        let rec = tadfa_ir::parse_module(
            "func @loop(%0) {\nblock0:\n  %1 = call @loop(%0)\n  ret %1\n}\n",
        )
        .unwrap();
        let mut bad = cfg.clone();
        bad.tasks = vec![Task {
            name: "loop".to_string(),
            func: rec.functions()[0].clone(),
            arrival: 0.0,
            length: 1e-3,
        }];
        bad.module = Some(rec);
        assert!(matches!(
            PreparedScenario::prepare(bad),
            Err(TadfaError::Verify(_))
        ));
    }

    #[test]
    fn policies_disagree_on_placement() {
        let rr = run_scenario(&quad_config("round-robin")).unwrap();
        let shard = run_scenario(&quad_config("static-shard")).unwrap();
        assert_ne!(rr.assignments, shard.assignments);
        assert_ne!(rr.fingerprint(), shard.fingerprint());
    }

    #[test]
    fn unknown_names_and_bad_tasks_are_errors() {
        let mut cfg = quad_config("no-such-policy");
        assert!(matches!(
            run_scenario(&cfg),
            Err(TadfaError::UnknownPolicy(_))
        ));
        cfg.mapping = "round-robin".to_string();
        cfg.assignment_policy = "bogus".to_string();
        assert!(matches!(
            run_scenario(&cfg),
            Err(TadfaError::UnknownPolicy(_))
        ));
        let mut cfg = quad_config("round-robin");
        cfg.tasks[0].length = 0.0;
        assert!(matches!(
            run_scenario(&cfg),
            Err(TadfaError::InvalidConfig {
                param: "length",
                ..
            })
        ));
        let mut cfg = quad_config("round-robin");
        cfg.tasks[0].arrival = f64::NAN;
        assert!(matches!(
            run_scenario(&cfg),
            Err(TadfaError::InvalidConfig {
                param: "arrival",
                ..
            })
        ));
    }

    #[test]
    fn empty_task_set_is_fine() {
        let die = MultiCoreFloorplan::new(2, 4, 4, RcParams::default(), None).unwrap();
        let cfg = ScenarioConfig::new("empty", die, Vec::new(), "round-robin");
        let r = run_scenario(&cfg).unwrap();
        assert_eq!(r.tasks.len(), 0);
        assert_eq!(r.die.makespan, 0.0);
        let amb = RcParams::default().ambient;
        assert!((r.die.transient_peak - amb).abs() < 1e-12);
        assert!((r.die.steady_peak - amb).abs() < 1e-6);
    }

    /// At the steady state of every committed spec's time-averaged
    /// power, the die sheds through its vertical paths exactly the
    /// power it takes in, and no cell sits below ambient.
    #[test]
    fn committed_specs_balance_energy_at_steady_state() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
        let specs = crate::spec::load_spec_dir(&dir).unwrap();
        assert!(specs.len() >= 10, "committed specs: {}", specs.len());
        for (name, cfg) in specs {
            let rc = cfg.die.rc_params();
            let g_v = 1.0 / rc.vertical_resistance;
            let prepared = PreparedScenario::prepare(cfg).unwrap();
            let sim = prepared.simulate(&RunOverrides::default()).unwrap().sim;
            let steady = prepared.solver.steady_state(&sim.avg_power);
            let p_in: f64 = sim.avg_power.iter().sum();
            let p_out: f64 = steady.temps().iter().map(|t| g_v * (t - rc.ambient)).sum();
            assert!(p_in > 0.0, "{name}: no power");
            assert!(
                (p_in - p_out).abs() <= 1e-9 * p_in,
                "{name}: {p_in} W in, {p_out} W out"
            );
            assert!(
                steady.min() >= rc.ambient - 1e-9,
                "{name}: {}",
                steady.min()
            );
        }
    }

    #[test]
    fn thermal_balanced_spreads_a_skewed_stream() {
        // All tasks arrive at once; round-robin and thermal-balanced
        // both spread them, but the balanced policy balances energy.
        let mut cfg = quad_config("thermal-balanced");
        for t in &mut cfg.tasks {
            t.arrival = 0.0;
        }
        let r = run_scenario(&cfg).unwrap();
        let energies: Vec<f64> = r.per_core.iter().map(|c| c.energy).collect();
        let max = energies.iter().cloned().fold(f64::MIN, f64::max);
        let min = energies.iter().cloned().fold(f64::MAX, f64::min);
        let total: f64 = energies.iter().sum();
        assert!(max - min <= total / 2.0, "balanced spread: {energies:?}");
    }
}
