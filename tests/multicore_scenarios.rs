//! Acceptance tests for the multi-core scenario subsystem:
//!
//! * **decomposition** — a K-core die with zero coupling reproduces K
//!   independent one-core solves bit-for-bit (the block-diagonal
//!   contract of the modal die solver);
//! * **worker invariance** — scenario results (and their rendered JSON
//!   reports) are byte-identical at any engine worker count;
//! * **golden stability** — every committed `scenarios/` spec still
//!   produces its committed golden report, byte for byte (the same
//!   check CI's golden-report job runs via `tadfa check`);
//! * **physics** — inter-core coupling actually moves heat between
//!   cores and changes the scenario fingerprint.

use std::path::Path;
use tadfa::prelude::*;
use tadfa::sched::{
    load_spec, render_report, run_scenario, suite_tasks, MultiCoreFloorplan, ScenarioConfig,
};

fn bits(temps: &[f64]) -> Vec<u64> {
    temps.iter().map(|t| t.to_bits()).collect()
}

/// A distinct deterministic power pattern per core: `(die power, one
/// vector per core)`.
fn per_core_power(cores: usize, per: usize) -> (Vec<f64>, Vec<Vec<f64>>) {
    let core_powers: Vec<Vec<f64>> = (0..cores)
        .map(|k| {
            let mut p = vec![0.0; per];
            p[k % per] += 1e-3 * (k + 1) as f64;
            p[(3 * k + 1) % per] += 0.4e-3;
            p
        })
        .collect();
    (core_powers.concat(), core_powers)
}

/// With no coupling edges, per-core slices of a die transient are
/// bit-identical to one-core dies solved through the same modal path,
/// for every core count/shape tried and distinct per-core power
/// patterns.
#[test]
fn zero_coupling_die_reproduces_independent_single_cores() {
    let rc = RcParams::default();
    for (cores, rows, cols) in [(2, 3, 4), (3, 4, 4), (5, 2, 3), (3, 4, 1)] {
        let per = rows * cols;
        let die = MultiCoreFloorplan::new(cores, rows, cols, rc, None)
            .unwrap()
            .modal()
            .unwrap();
        let single = MultiCoreFloorplan::new(1, rows, cols, rc, None)
            .unwrap()
            .modal()
            .unwrap();
        let (die_power, core_powers) = per_core_power(cores, per);

        let mut die_state = die.ambient_state();
        let mut single_states: Vec<_> = (0..cores).map(|_| single.ambient_state()).collect();
        for dt in [2e-6, 1e-4, 3e-3] {
            die.step(&mut die_state, &die_power, dt);
            for (k, s) in single_states.iter_mut().enumerate() {
                single.step(s, &core_powers[k], dt);
                assert_eq!(
                    bits(&die_state.temps().temps()[k * per..(k + 1) * per]),
                    bits(s.temps().temps()),
                    "{cores}x{rows}x{cols} core {k} dt={dt}"
                );
            }
        }
    }
}

/// The steady state decomposes the same way, now for distinct per-core
/// loads too: the modal solve is direct, so no die-wide iteration count
/// couples the cores.
#[test]
fn zero_coupling_steady_state_matches_replicated_single_core() {
    let rc = RcParams::default();
    for (cores, rows, cols) in [(4, 3, 3), (3, 4, 4), (5, 2, 3)] {
        let per = rows * cols;
        let die = MultiCoreFloorplan::new(cores, rows, cols, rc, None)
            .unwrap()
            .modal()
            .unwrap();
        let single = MultiCoreFloorplan::new(1, rows, cols, rc, None)
            .unwrap()
            .modal()
            .unwrap();
        let (die_power, core_powers) = per_core_power(cores, per);
        let die_ss = die.steady_state(&die_power);
        for (k, p) in core_powers.iter().enumerate() {
            assert_eq!(
                bits(&die_ss.temps()[k * per..(k + 1) * per]),
                bits(single.steady_state(p).temps()),
                "{cores}x{rows}x{cols} core {k}"
            );
        }
    }
}

fn scenario(workers: usize, coupling: Option<f64>) -> ScenarioConfig {
    let die = MultiCoreFloorplan::new(4, 4, 4, RcParams::default(), coupling).unwrap();
    let mut cfg = ScenarioConfig::new(
        "invariance",
        die,
        suite_tasks(6, 5e-4, 1e-3),
        "thermal-balanced",
    );
    cfg.workers = workers;
    cfg
}

/// The acceptance criterion in executable form: the whole scenario —
/// scheduling decisions, migrations, die temperatures, and the rendered
/// JSON report — is byte-identical across runs and worker counts.
#[test]
fn scenario_reports_are_worker_count_invariant() {
    let base = run_scenario(&scenario(1, Some(40.0))).unwrap();
    let base_report = render_report(&base);
    for workers in [2, 4, 9] {
        let r = run_scenario(&scenario(workers, Some(40.0))).unwrap();
        assert_eq!(r.fingerprint(), base.fingerprint(), "workers={workers}");
        assert_eq!(render_report(&r), base_report, "workers={workers}");
        assert_eq!(r.assignments, base.assignments);
        assert_eq!(r.migrations, base.migrations);
    }
}

/// Coupling is not cosmetic: the same scenario with and without
/// inter-core coupling disagrees on die temperatures (heat crosses core
/// boundaries) and therefore on the scenario fingerprint.
#[test]
fn coupling_changes_the_die_outcome() {
    let coupled = run_scenario(&scenario(2, Some(10.0))).unwrap();
    let uncoupled = run_scenario(&scenario(2, None)).unwrap();
    // Same analysis and scheduling inputs...
    assert_eq!(coupled.assignments, uncoupled.assignments);
    // ...different die physics.
    assert!(coupled.die.transient_peak < uncoupled.die.transient_peak);
    assert_ne!(coupled.fingerprint(), uncoupled.fingerprint());
}

/// Every committed scenario spec reproduces its committed golden report
/// byte for byte — the in-tree twin of CI's golden-report job.
#[test]
fn committed_scenarios_match_their_golden_reports() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    let mut entries: Vec<_> = std::fs::read_dir(root.join("scenarios"))
        .expect("scenarios/ exists")
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    for path in entries {
        if !matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("toml" | "json")
        ) {
            continue;
        }
        let cfg = load_spec(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let result = run_scenario(&cfg).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let golden = root.join("scenarios/golden").join(format!(
            "{}.json",
            path.file_stem().and_then(|s| s.to_str()).unwrap()
        ));
        let expected = std::fs::read_to_string(&golden)
            .unwrap_or_else(|e| panic!("missing golden {}: {e}", golden.display()));
        assert_eq!(
            render_report(&result),
            expected,
            "golden drift for {} — regenerate with `tadfa run {} --out {}`",
            path.display(),
            path.display(),
            golden.display()
        );
        checked += 1;
    }
    assert!(
        checked >= 10,
        "expected ≥10 committed scenarios (incl. covert/DTM family), found {checked}"
    );
}

/// The golden gate refuses fast-mode specs: committed fingerprints are
/// exact-solver contracts, so a scenario requesting the
/// reassociation-permitting `solver = "fast"` must be rejected by
/// `tadfa check` unless `--allow-fast` is passed — and every committed
/// spec must itself be exact-mode, or the golden job would refuse it.
#[test]
fn golden_gate_rejects_fast_mode_unless_opted_in() {
    use tadfa::sched::golden_gate_guard;

    let die = MultiCoreFloorplan::new(2, 4, 4, RcParams::default(), Some(40.0)).unwrap();
    let mut cfg = ScenarioConfig::new("fast-spec", die, suite_tasks(4, 5e-4, 1e-3), "coolest-core");
    assert_eq!(cfg.dfa.solver_mode, SolverMode::Exact);
    assert!(
        golden_gate_guard(&cfg, false).is_ok(),
        "exact always passes"
    );

    cfg.dfa.solver_mode = SolverMode::Fast;
    let err = golden_gate_guard(&cfg, false).expect_err("fast must be refused");
    assert!(
        err.contains("--allow-fast"),
        "refusal names the escape hatch: {err}"
    );
    assert!(
        golden_gate_guard(&cfg, true).is_ok(),
        "--allow-fast gates fast deliberately"
    );

    // Committed specs stay exact-mode so the golden job accepts them.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for path in std::fs::read_dir(root.join("scenarios"))
        .expect("scenarios/ exists")
        .map(|e| e.unwrap().path())
        .filter(|p| {
            matches!(
                p.extension().and_then(|e| e.to_str()),
                Some("toml" | "json")
            )
        })
    {
        let cfg = load_spec(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(
            golden_gate_guard(&cfg, false).is_ok(),
            "committed spec {} would be refused by the golden gate",
            path.display()
        );
    }
}
