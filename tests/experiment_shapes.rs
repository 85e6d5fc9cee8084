//! Cheap assertions of the experiment *shapes* documented in
//! EXPERIMENTS.md — who wins, in what order — so regressions in the
//! reproduced results fail CI, not just the prose.

use tadfa::prelude::*;
use tadfa::sim::{simulate_trace, CosimConfig};
use tadfa::workloads::{generate, GeneratorConfig};

fn measured_stats(session: &mut Session, func: &tadfa::ir::Function, policy: &str) -> MapStats {
    session.set_policy_name(policy, 3).expect("known policy");
    let report = session.analyze(func).expect("workload analyzes");
    let exec = Interpreter::new(&report.func)
        .with_assignment(&report.assignment)
        .with_fuel(50_000_000)
        .run(&[3, 7])
        .expect("workload runs");
    let rf = session.register_file();
    let model = ThermalModel::new(rf.floorplan().clone(), session.rc_params());
    let map = simulate_trace(
        &exec.trace,
        rf,
        &model,
        &session.power_model(),
        &CosimConfig::default(),
    )
    .peak_map;
    MapStats::of(&map, rf.floorplan())
}

fn fig1_workload(pressure: usize) -> tadfa::ir::Function {
    generate(&GeneratorConfig {
        seed: 2009,
        segments: 5,
        exprs_per_segment: 10,
        pressure,
        loops: 2,
        trip_count: 100,
        memory: false,
        hot_vars: 0,
        hot_weight: 8,
    })
}

/// E1 / Fig. 1: the ordered first-free policy produces the hottest, most
/// uneven map; chessboard and random are far more uniform.
#[test]
fn e1_first_free_is_the_hot_spot_producer() {
    let mut session = Session::builder().floorplan(8, 8).build().unwrap();
    let func = fig1_workload(24);

    let ff = measured_stats(&mut session, &func, "first-free");
    let cb = measured_stats(&mut session, &func, "chessboard");
    let rnd = measured_stats(&mut session, &func, "random");

    assert!(
        ff.peak > cb.peak + 1.0,
        "ff {:.2} vs cb {:.2}",
        ff.peak,
        cb.peak
    );
    assert!(
        ff.peak > rnd.peak + 1.0,
        "ff {:.2} vs rnd {:.2}",
        ff.peak,
        rnd.peak
    );
    assert!(
        ff.stddev > 2.0 * cb.stddev,
        "ff σ {:.3} vs cb σ {:.3}",
        ff.stddev,
        cb.stddev
    );
    assert!(
        ff.max_gradient > cb.max_gradient,
        "ff ∇ {:.3} vs cb ∇ {:.3}",
        ff.max_gradient,
        cb.max_gradient
    );
}

/// E2 / §2 caveat: chessboard's uniformity degrades once pressure passes
/// half the register file.
#[test]
fn e2_chessboard_degrades_past_half_pressure() {
    let mut session = Session::builder().floorplan(8, 8).build().unwrap();
    let low = measured_stats(&mut session, &fig1_workload(12), "chessboard");
    let high = measured_stats(&mut session, &fig1_workload(40), "chessboard");
    assert!(
        high.stddev > 1.5 * low.stddev,
        "σ low-pressure {:.3} vs past-half {:.3}",
        low.stddev,
        high.stddev
    );
}

/// E3 / Fig. 2: iterations grow as δ shrinks; the iteration cap reports
/// non-convergence — as data on a successful analysis, never a panic.
#[test]
fn e3_delta_controls_iterations() {
    let mut session = Session::builder().floorplan(4, 4).build().unwrap();
    let func = tadfa::workloads::fibonacci().func;

    let mut run = |delta: f64, cap: usize| {
        session
            .set_dfa_config(ThermalDfaConfig {
                delta,
                max_iterations: cap,
                time_scale: 10_000.0,
                ..ThermalDfaConfig::default()
            })
            .expect("sweep config is valid");
        session.analyze(&func).expect("fib analyzes")
    };

    let loose = run(1.0, 1000);
    let tight = run(1e-3, 1000);
    assert!(loose.convergence().is_converged());
    assert!(tight.convergence().is_converged());
    assert!(tight.convergence().iterations() > loose.convergence().iterations());

    let capped = run(1e-9, 3);
    assert!(!capped.convergence().is_converged());
}

/// E4 / §1, the paper's central claim: on every kernel of the
/// `accuracy` binary (first-free, seed 42, the default session) the
/// DFA's predicted peak map tracks the trace-driven co-simulated one.
/// RMS, L∞ and |peak error| may each exceed their recorded value by at
/// most max(20%, 0.05 K), Pearson may fall by at most 0.02, and the
/// predicted hot spot may move at most one cell farther away.
#[test]
fn e4_prediction_tracks_cosimulation() {
    // workload, rms (K), linf (K), pearson, peak error (K), hot-spot distance
    const RECORDED: [(&str, f64, f64, f64, f64, usize); 13] = [
        ("matmul", 1.134, 4.554, 0.878, 1.647, 3),
        ("fir", 1.119, 4.317, 0.933, 3.089, 0),
        ("dot", 0.933, 3.872, 0.961, 3.872, 0),
        ("fib", 0.996, 4.363, 0.969, 4.363, 0),
        ("checksum", 1.155, 4.694, 0.965, 4.694, 0),
        ("bsort", 0.995, 4.706, 0.901, 1.683, 0),
        ("stencil", 1.037, 3.648, 0.960, 3.648, 0),
        ("saxpy", 1.008, 4.435, 0.965, 4.435, 0),
        ("hist", 0.970, 4.030, 0.979, 3.767, 1),
        ("butterfly", 0.003, 0.010, 0.999, -0.002, 1),
        ("popcount", 0.897, 3.682, 0.979, 3.682, 0),
        ("rand-a", 1.106, 4.056, 0.991, 3.816, 0),
        ("rand-b", 1.129, 3.733, 0.990, 3.733, 0),
    ];
    let within = |got: f64, recorded: f64| got <= recorded + (0.2 * recorded).max(0.05);

    let mut session = tadfa_bench::default_session();
    let fp = session.register_file().floorplan().clone();
    let workloads = tadfa_bench::accuracy_workloads();
    assert_eq!(workloads.len(), RECORDED.len());
    for (w, &(name, rms, linf, pearson, peak_error, hotspot)) in workloads.iter().zip(&RECORDED) {
        assert_eq!(w.name, name);
        let eval = tadfa_bench::evaluate_policy(&mut session, w, "first-free", 42)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(eval.dfa.convergence.is_converged(), "{name} converges");
        let acc = compare_maps(&eval.predicted, &eval.measured, &fp);
        assert!(within(acc.rms, rms), "{name}: rms {:.3} K", acc.rms);
        assert!(within(acc.linf, linf), "{name}: linf {:.3} K", acc.linf);
        assert!(
            within(acc.peak_error.abs(), peak_error.abs()),
            "{name}: peak error {:.3} K",
            acc.peak_error
        );
        assert!(
            acc.pearson >= pearson - 0.02,
            "{name}: pearson {:.3}",
            acc.pearson
        );
        assert!(
            acc.hotspot_distance <= hotspot + 1,
            "{name}: hot spot {} cells away",
            acc.hotspot_distance
        );
    }
}

/// E5 / §3: finer analysis grids predict strictly better (RMS against
/// ground truth shrinks as points increase).
///
/// The DFA's fixpoint is the *sustained* thermal state, so the ground
/// truth must come from a saturated execution — hence fib(3000), not the
/// canonical fib(30).
#[test]
fn e5_finer_grids_predict_better() {
    let mut full_session = Session::builder().floorplan(8, 8).build().unwrap();
    let w = tadfa::workloads::fibonacci();
    let report = full_session.analyze(&w.func).unwrap();

    // Ground truth from a saturated run.
    let exec = Interpreter::new(&report.func)
        .with_assignment(&report.assignment)
        .with_fuel(50_000_000)
        .run(&[3000])
        .unwrap();
    let rf = full_session.register_file();
    let fp = rf.floorplan().clone();
    let model = ThermalModel::new(fp.clone(), full_session.rc_params());
    let dfa_config = full_session.dfa_config();
    let cosim = CosimConfig {
        seconds_per_cycle: dfa_config.seconds_per_cycle,
        time_scale: dfa_config.time_scale,
        ..CosimConfig::default()
    };
    let truth =
        simulate_trace(&exec.trace, rf, &model, &full_session.power_model(), &cosim).peak_map;

    let rms_at = |rows: usize, cols: usize| {
        let mut session = Session::builder()
            .floorplan(8, 8)
            .granularity(rows, cols)
            .build()
            .unwrap();
        let r = session.analyze(&w.func).unwrap();
        compare_maps(&r.predicted, &truth, &fp).rms
    };

    let coarse = rms_at(1, 1);
    let mid = rms_at(4, 4);
    let fine = rms_at(8, 8);
    assert!(fine < mid, "8x8 rms {fine:.4} !< 4x4 rms {mid:.4}");
    assert!(mid < coarse, "4x4 rms {mid:.4} !< 1x1 rms {coarse:.4}");
}

/// E7: the predictive critical set finds the hot accumulators of a loop
/// kernel before any assignment exists.
#[test]
fn e7_predictive_set_overlaps_measured_hot_variables() {
    let mut session = Session::builder()
        .floorplan(8, 8)
        .critical_config(CriticalConfig { temp_fraction: 0.5 })
        .build()
        .unwrap();
    let w = tadfa::workloads::fibonacci();

    let pred = session.predict(&w.func).unwrap();
    let predicted = pred.predicted_critical(0.3);
    assert!(!predicted.is_empty());

    let report = session.analyze(&w.func).unwrap();
    let overlap = predicted
        .iter()
        .filter(|v| report.critical.is_critical(**v))
        .count();
    assert!(
        overlap > 0,
        "no overlap between predicted {:?} and measured {:?}",
        predicted,
        report.critical.critical()
    );
}
