//! Suite-wide bit-identity of the compiled solver kernels and of the
//! sweep's clean-block skip.
//!
//! The kernel-level property tests live in
//! `crates/thermal/tests/kernel_identity.rs`; this file closes the loop
//! end to end: whole `ThermalReport`s produced through the compiled
//! solver plan (the production path of `Session` and `Engine`, which
//! skips blocks whose entry bits did not change) must fingerprint
//! **byte-identical** to reports produced through the naive oracle
//! stepper, which walks every block
//! (`SessionCore::analyze_with_reference_solver`) — for every workload
//! in the standard suite, across policies and grid granularities, and
//! state by state on generated `analyze-cold`-style traffic.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;
use tadfa::prelude::*;
use tadfa::workloads::{generate, generate_module, GeneratorConfig, ModuleGeneratorConfig};

fn suite_funcs() -> Vec<Function> {
    standard_suite().into_iter().map(|w| w.func).collect()
}

fn reference_fingerprints(session: &Session, funcs: &[Function]) -> Vec<u128> {
    let core = session.shared_core();
    let (name, seed) = session.policy_spec().expect("named policy");
    funcs
        .iter()
        .map(|f| {
            let mut policy = tadfa::regalloc::policy_by_name(name, core.register_file(), seed)
                .expect("built-in policy");
            core.analyze_with_reference_solver(f, policy.as_mut())
                .expect("suite analyzes")
                .fingerprint()
        })
        .collect()
}

#[test]
fn suite_fingerprints_match_reference_solver() {
    let funcs = suite_funcs();
    for policy in ["first-free", "round-robin", "chessboard"] {
        let mut session = Session::builder()
            .floorplan(8, 8)
            .policy_name(policy, 0)
            .build()
            .unwrap();
        let compiled: Vec<u128> = session
            .analyze_batch(&funcs)
            .into_iter()
            .map(|r| r.expect("suite analyzes").fingerprint())
            .collect();
        let reference = reference_fingerprints(&session, &funcs);
        assert_eq!(compiled, reference, "policy {policy}");
    }
}

#[test]
fn coarse_grid_fingerprints_match_reference_solver() {
    // Coarsening rescales the RC parameters and changes the stencil
    // shape; bit-identity must survive that too.
    let funcs = suite_funcs();
    for (gr, gc) in [(4, 4), (2, 8), (1, 8), (8, 1), (1, 1)] {
        let mut session = Session::builder()
            .floorplan(8, 8)
            .granularity(gr, gc)
            .build()
            .unwrap();
        let compiled: Vec<u128> = session
            .analyze_batch(&funcs)
            .into_iter()
            .map(|r| r.expect("suite analyzes").fingerprint())
            .collect();
        let reference = reference_fingerprints(&session, &funcs);
        assert_eq!(compiled, reference, "granularity {gr}x{gc}");
    }
}

#[test]
fn parallel_engine_matches_reference_solver() {
    // Transitively guaranteed (engine == sequential, sequential ==
    // reference), asserted directly anyway: the full production stack —
    // shared compiled plan, per-worker scratch, solve cache — against
    // the naive oracle.
    let funcs = suite_funcs();
    let session = Session::builder()
        .floorplan(8, 8)
        .policy_name("first-free", 0)
        .build()
        .unwrap();
    let engine = Engine::from_session(&session, 4).unwrap();
    let parallel: Vec<u128> = engine
        .analyze_batch_parallel(&funcs)
        .into_iter()
        .map(|r| r.expect("suite analyzes").fingerprint())
        .collect();
    let reference = reference_fingerprints(&session, &funcs);
    assert_eq!(parallel, reference);
}

/// Generated traffic from perfbench's `analyze-cold` ranges: 48
/// functions and 10 modules (whose call sites replay callee summaries).
/// The inputs rotate through eight configurations: both merge rules,
/// leakage on and off, and the full and a coarsened grid (one point
/// per 2×2 cells). The skipping production sweep and the non-skipping
/// oracle must agree on every after/entry/exit bit, on the residual
/// history and on convergence: the spill codec writes all of them as
/// exact bits.
#[test]
fn generated_traffic_matches_the_oracle_state_by_state() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0018);
    let funcs: Vec<Function> = (0..48)
        .map(|_| {
            generate(&GeneratorConfig {
                seed: rng.next_u64(),
                segments: rng.gen_range(3usize..7),
                exprs_per_segment: rng.gen_range(4usize..9),
                pressure: rng.gen_range(4usize..13),
                loops: rng.gen_range(1usize..3),
                trip_count: 40,
                memory: rng.gen_bool(0.5),
                hot_vars: rng.gen_range(0usize..4),
                hot_weight: 8,
            })
        })
        .collect();
    let modules: Vec<Vec<Function>> = (0..10)
        .map(|_| {
            generate_module(&ModuleGeneratorConfig {
                seed: rng.next_u64(),
                depth: rng.gen_range(1usize..3),
                fanout: 2,
                leaves: rng.gen_range(3usize..6),
                shared_hot_callees: rng.gen_range(1usize..3),
                layer_width: 2,
                exprs_per_function: rng.gen_range(4usize..9),
            })
            .functions()
            .to_vec()
        })
        .collect();

    let rf = RegisterFile::new(Floorplan::grid(8, 8));
    let grids = [
        AnalysisGrid::full(&rf, RcParams::default()),
        AnalysisGrid::coarsened(&rf, RcParams::default(), 4, 4).unwrap(),
    ];
    let inputs = funcs.chunks(1).chain(modules.iter().map(Vec::as_slice));
    let mut calls = 0;
    for (i, members) in inputs.enumerate() {
        let grid = &grids[i % 2];
        let merge = [MergeRule::Max, MergeRule::Average][i / 2 % 2];
        let cfg = ThermalDfaConfig {
            leakage_feedback: i / 4 % 2 == 1,
            ..ThermalDfaConfig::default().with_merge(merge)
        };
        // Module members come callees first, so each caller finds its
        // callees' summaries already computed.
        let mut summaries: HashMap<String, Arc<ThermalSummary>> = HashMap::new();
        for f in members {
            let mut f = f.clone();
            let alloc =
                allocate_linear_scan(&mut f, &rf, &mut FirstFree, &RegAllocConfig::default())
                    .expect("generated code allocates");
            let dfa = ThermalDfa::with_summaries(
                &f,
                &alloc.assignment,
                grid,
                PowerModel::default(),
                cfg,
                &summaries,
            )
            .expect("callees are summarised first");
            assert_eq!(
                dfa.run().encode(),
                dfa.run_reference().encode(),
                "input {i} ({cfg:?}): {}",
                f.name()
            );
            calls += f
                .inst_ids_in_layout_order()
                .into_iter()
                .filter(|&(_, id)| f.inst(id).op == Opcode::Call)
                .count();
            summaries.insert(f.name().to_string(), Arc::new(dfa.summarize()));
        }
    }
    assert!(calls > 0, "the modules exercise call-site replay");
}
