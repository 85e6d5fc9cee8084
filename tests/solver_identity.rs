//! Suite-wide bit-identity of the compiled solver kernels.
//!
//! The kernel-level property tests live in
//! `crates/thermal/tests/kernel_identity.rs`; this file closes the loop
//! end to end: whole `ThermalReport`s produced through the compiled
//! solver plan (the production path of `Session` and `Engine`) must
//! fingerprint **byte-identical** to reports produced through the
//! retained pre-optimization reference path
//! (`SessionCore::analyze_with_reference_solver`) — for every workload
//! in the standard suite, across policies and grid granularities.

use tadfa::prelude::*;

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
    // the naive pre-optimization path.
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
