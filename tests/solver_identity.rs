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
use tadfa::core::{BlockVisits, DfaScratch};
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

/// Runs `dfa` through the deferring production sweep and the oracle,
/// requires the same encoded bytes, and returns the production run's
/// convergence and work counter.
fn matches_the_oracle(dfa: &ThermalDfa<'_>, label: &str) -> (Convergence, BlockVisits) {
    let mut scratch = DfaScratch::default();
    let run = dfa.run_with(&mut scratch, None);
    assert_eq!(run.encode(), dfa.run_reference().encode(), "{label}");
    (run.convergence, scratch.visits())
}

/// `analyze-cold`-shaped functions from the same ranges as above.
fn cold_functions(seed: u64, count: usize) -> Vec<Function> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
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
        .collect()
}

/// The 4×4 and 6×6 register files most committed specs analyse on:
/// their grids take the flat lane pass, not the 8-wide one. Production
/// sweep and oracle must agree state by state under both merge rules,
/// with leakage on every other input.
#[test]
fn narrow_register_files_match_the_oracle_state_by_state() {
    let funcs = cold_functions(0x5EED_0035, 8);
    for (rows, cols) in [(4, 4), (6, 6)] {
        let rf = RegisterFile::new(Floorplan::grid(rows, cols));
        let grid = AnalysisGrid::full(&rf, RcParams::default());
        for (i, f) in funcs.iter().enumerate() {
            let mut f = f.clone();
            let alloc =
                allocate_linear_scan(&mut f, &rf, &mut FirstFree, &RegAllocConfig::default())
                    .expect("generated code allocates");
            for merge in [MergeRule::Max, MergeRule::Average] {
                let cfg = ThermalDfaConfig {
                    leakage_feedback: i % 2 == 1,
                    ..ThermalDfaConfig::default().with_merge(merge)
                };
                let dfa = ThermalDfa::new(&f, &alloc.assignment, &grid, PowerModel::default(), cfg)
                    .unwrap();
                matches_the_oracle(&dfa, &format!("{rows}x{cols}, input {i}, {merge:?}"));
            }
        }
    }
}

/// The places where deferring the acyclic tail could go wrong, each
/// against the oracle, which never defers: residuals near the rounding
/// floor, runs that stop at the cap with the tail behind, leakage,
/// call sites in the tail, and an irreducible CFG.
#[test]
fn deferring_the_tail_matches_the_oracle() {
    let rf = RegisterFile::new(Floorplan::grid(8, 8));
    let grid = AnalysisGrid::full(&rf, RcParams::default());
    let allocate = |f: &Function| {
        let mut f = f.clone();
        let alloc = allocate_linear_scan(&mut f, &rf, &mut FirstFree, &RegAllocConfig::default())
            .expect("the input allocates");
        (f, alloc.assignment)
    };
    let mut deferred = 0;

    // δ = 1e-9 at time_scale 1 under the Average merge: a one-cycle
    // step shrinks differences by only ~3e-7, so without the guard the
    // tail can change by one ulp more than `rest` (inputs 1, 22 and 30
    // of this stream do).
    for (i, f) in cold_functions(0x5EED_0032, 40).iter().enumerate() {
        let (f, assignment) = allocate(f);
        for leakage_feedback in [false, true] {
            let cfg = ThermalDfaConfig {
                time_scale: 1.0,
                leakage_feedback,
                ..ThermalDfaConfig::default()
                    .with_merge(MergeRule::Average)
                    .with_delta(1e-9)
            };
            let dfa = ThermalDfa::new(&f, &assignment, &grid, PowerModel::default(), cfg).unwrap();
            deferred += matches_the_oracle(&dfa, &format!("time_scale 1, input {i}"))
                .1
                .deferred;
        }
    }
    assert!(deferred > 0, "the time_scale 1 runs defer");

    // Runs stopped by the cap: at 3 sweeps, and at a cap reached right
    // after a deferring sweep (one more allowed sweep defers once more).
    let (f, f_assignment) = allocate(&cold_functions(0x5EED_0032, 1)[0]);
    let capped = |cap: usize, leakage_feedback: bool| {
        let cfg = ThermalDfaConfig {
            leakage_feedback,
            ..ThermalDfaConfig::default().with_max_iterations(cap)
        };
        let dfa = ThermalDfa::new(&f, &f_assignment, &grid, PowerModel::default(), cfg).unwrap();
        matches_the_oracle(&dfa, &format!("cap {cap}, leakage {leakage_feedback}"))
    };
    for leakage_feedback in [false, true] {
        let (conv, at_3) = capped(3, leakage_feedback);
        assert!(
            !conv.is_converged() && at_3.deferred > 0,
            "{conv:?} {at_3:?}"
        );
        let (conv, at_20) = capped(20, leakage_feedback);
        let (_, at_19) = capped(19, leakage_feedback);
        assert!(!conv.is_converged(), "{conv:?}");
        assert!(at_20.deferred > at_19.deferred, "sweep 19 of 20 defers");
    }

    // An Average-merge run that never converges: two loop bodies of
    // different heat feed one header (tests/session_api.rs).
    let (osc, assignment) = allocate(&oscillator());
    let cfg = ThermalDfaConfig::default()
        .with_merge(MergeRule::Average)
        .with_delta(1e-9)
        .with_max_iterations(40);
    let dfa = ThermalDfa::new(&osc, &assignment, &grid, PowerModel::default(), cfg).unwrap();
    let (conv, visits) = matches_the_oracle(&dfa, "oscillator");
    assert!(
        !conv.is_converged() && visits.deferred > 0,
        "{conv:?} {visits:?}"
    );

    // A leakage slope at or above g_v: no step shrinks differences, so
    // deferral switches off.
    let g_v = 1.0 / RcParams::default().vertical_resistance;
    let base = PowerModel::default();
    for coeff in [g_v / base.leakage_per_cell, 60.0] {
        let pm = PowerModel {
            leakage_temp_coeff: coeff,
            ..base
        };
        let cfg = ThermalDfaConfig::default().with_max_iterations(30);
        let dfa = ThermalDfa::new(&f, &f_assignment, &grid, pm, cfg).unwrap();
        let (_, visits) = matches_the_oracle(&dfa, &format!("leakage coefficient {coeff}"));
        assert_eq!(visits.deferred, 0, "coefficient {coeff}");
    }

    // Module members with call sites in the tail.
    let (leaf, leaf_assignment) = allocate(&leaf());
    let leaf_dfa = ThermalDfa::new(
        &leaf,
        &leaf_assignment,
        &grid,
        PowerModel::default(),
        ThermalDfaConfig::default(),
    )
    .unwrap();
    let summaries = HashMap::from([("leaf".to_string(), Arc::new(leaf_dfa.summarize()))]);
    let (caller, caller_assignment) = allocate(&loop_then_call());
    for merge in [MergeRule::Max, MergeRule::Average] {
        let cfg = ThermalDfaConfig::default().with_merge(merge);
        let dfa = ThermalDfa::with_summaries(
            &caller,
            &caller_assignment,
            &grid,
            PowerModel::default(),
            cfg,
            &summaries,
        )
        .unwrap();
        let (_, visits) = matches_the_oracle(&dfa, &format!("call in the tail, {merge:?}"));
        assert!(visits.deferred > 0, "{merge:?}");
    }

    // The irreducible CFG of `irreducible_like_merge_still_terminates`
    // (crates/ir/src/dom.rs), which the verifier admits: the cycle a ⇄ b
    // has two entries, and only the exit is tail.
    let irr = irreducible();
    assert!(Verifier::new(&irr).run().is_ok());
    let (irr, assignment) = allocate(&irr);
    for merge in [MergeRule::Max, MergeRule::Average] {
        let cfg = ThermalDfaConfig::default().with_merge(merge);
        let dfa = ThermalDfa::new(&irr, &assignment, &grid, PowerModel::default(), cfg).unwrap();
        let (_, visits) = matches_the_oracle(&dfa, &format!("irreducible, {merge:?}"));
        assert!(visits.deferred > 0, "{merge:?}");
    }
}

/// Two loop bodies with different register traffic feeding one header.
fn oscillator() -> Function {
    let mut b = FunctionBuilder::new("oscillator");
    let (header, hot, cold, exit) = (b.new_block(), b.new_block(), b.new_block(), b.new_block());
    let n = b.iconst(1000);
    let i = b.iconst(0);
    let acc = b.iconst(1);
    b.jump(header);
    b.switch_to(header);
    let done = b.cmpge(i, n);
    let one = b.iconst(1);
    let parity = b.and(i, one);
    let odd = b.cmpne(parity, n);
    b.branch(done, exit, hot);
    b.switch_to(hot);
    let t1 = b.mul(acc, acc);
    let t2 = b.mul(t1, acc);
    let t3 = b.add(t2, t1);
    b.mov_into(acc, t3);
    let i2 = b.add(i, one);
    b.mov_into(i, i2);
    b.branch(odd, header, cold);
    b.switch_to(cold);
    let i3 = b.add(i, one);
    b.mov_into(i, i3);
    b.jump(header);
    b.switch_to(exit);
    b.ret(Some(acc));
    b.finish()
}

/// A straight-line callee.
fn leaf() -> Function {
    let mut b = FunctionBuilder::new("leaf");
    let x = b.param();
    let y = b.mul(x, x);
    let z = b.add(y, x);
    b.ret(Some(z));
    b.finish()
}

/// A counted loop, then two calls of `leaf` in the exit block, the tail.
fn loop_then_call() -> Function {
    let mut b = FunctionBuilder::new("caller");
    let (h, body, exit) = (b.new_block(), b.new_block(), b.new_block());
    let n = b.iconst(40);
    let i = b.iconst(0);
    let acc = b.iconst(1);
    b.jump(h);
    b.switch_to(h);
    let d = b.cmpge(i, n);
    b.branch(d, exit, body);
    b.switch_to(body);
    let sq = b.mul(acc, i);
    b.mov_into(acc, sq);
    let one = b.iconst(1);
    let i2 = b.add(i, one);
    b.mov_into(i, i2);
    b.jump(h);
    b.switch_to(exit);
    let r = b.call("leaf", &[acc]);
    let s = b.call("leaf", &[r]);
    b.ret(Some(s));
    b.finish()
}

/// entry → a, b; a → b; b → a, exit — a cycle with two entries.
fn irreducible() -> Function {
    let mut b = FunctionBuilder::new("irr");
    let c = b.param();
    let (a, bb, exit) = (b.new_block(), b.new_block(), b.new_block());
    b.branch(c, a, bb);
    b.switch_to(a);
    let x = b.mul(c, c);
    let y = b.add(x, c);
    b.mov_into(c, y);
    b.jump(bb);
    b.switch_to(bb);
    let z = b.add(c, c);
    b.mov_into(c, z);
    b.branch(c, a, exit);
    b.switch_to(exit);
    b.ret(Some(c));
    b.finish()
}
