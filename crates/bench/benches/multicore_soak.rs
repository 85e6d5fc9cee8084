//! Multi-core scenario soak bench — the nightly long-runner.
//!
//! Runs a large generated task stream through every built-in mapping
//! policy on an 8-core coupled die, timing whole scenarios (analysis +
//! mapping + die simulation) and asserting that every repetition
//! reproduces the same scenario fingerprint — the determinism contract
//! under sustained load.
//!
//! Sized for the nightly pipeline; the per-push CI never runs it. Tune
//! with `SOAK_TASKS` (default 48) and `SOAK_WORKERS` (default 4).
//!
//! Run: `cargo bench -p tadfa-bench --bench multicore_soak`

use tadfa_bench::quickbench::{fmt_duration, Harness};
use tadfa_sched::{
    generated_tasks, run_scenario, MultiCoreFloorplan, ScenarioConfig, MAPPING_POLICY_NAMES,
};
use tadfa_thermal::RcParams;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn scenario(policy: &str, tasks: usize, workers: usize) -> ScenarioConfig {
    let die = MultiCoreFloorplan::new(8, 8, 8, RcParams::default(), Some(40.0))
        .expect("soak die is valid");
    let mut cfg = ScenarioConfig::new(
        &format!("soak-{policy}"),
        die,
        generated_tasks(tasks, 0xDAC, 8, 2e-4, 9e-4),
        policy,
    );
    cfg.workers = workers;
    cfg
}

fn main() {
    let tasks = env_usize("SOAK_TASKS", 48);
    let workers = env_usize("SOAK_WORKERS", 4);
    println!("multi-core soak: {tasks} generated tasks, 8 cores, {workers} workers\n");

    let mut h = Harness::new();
    h.sample_size = 3;
    h.warmup_iters = 1;
    for policy in MAPPING_POLICY_NAMES {
        let cfg = scenario(policy, tasks, workers);
        let reference = run_scenario(&cfg)
            .expect("soak scenario runs")
            .fingerprint();
        let name = format!("scenario/{policy}/{tasks}tasks");
        h.bench_function(&name, || {
            let r = run_scenario(&cfg).expect("soak scenario runs");
            assert_eq!(
                r.fingerprint(),
                reference,
                "{policy}: fingerprint drift under soak"
            );
            r.migrations
        });
        let mean = h.mean_of(&name).expect("benched");
        println!(
            "{policy:<17} {} / scenario  ({:.1} tasks/s)",
            fmt_duration(mean),
            tasks as f64 / mean.as_secs_f64().max(1e-12)
        );
    }
    println!();
    h.report();
    println!("\nall policies fingerprint-stable under soak: true");
}
