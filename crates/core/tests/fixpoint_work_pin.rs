//! Pins the fixpoint's work counters. Wall times on a shared runner
//! spread too widely to catch a change that stops deferring the
//! acyclic tail or doubles the sweeps; these deterministic counts do.
//! A change that moves them on purpose re-records them here and says
//! why.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use tadfa_core::{AnalysisGrid, BlockVisits, DfaScratch, ThermalDfa, ThermalDfaConfig};
use tadfa_ir::Function;
use tadfa_regalloc::{allocate_linear_scan, FirstFree, RegAllocConfig};
use tadfa_thermal::{Floorplan, PowerModel, RcParams, RegisterFile};
use tadfa_workloads::{generate, standard_suite, GeneratorConfig};

/// Summed sweeps and block visits of `funcs`, each allocated with
/// `FirstFree` and analysed on the full 8×8 grid under the default
/// config, through one scratch.
fn work(funcs: Vec<Function>) -> (usize, BlockVisits) {
    let rf = RegisterFile::new(Floorplan::grid(8, 8));
    let grid = AnalysisGrid::full(&rf, RcParams::default());
    let mut scratch = DfaScratch::default();
    let mut sweeps = 0;
    for mut f in funcs {
        let alloc = allocate_linear_scan(&mut f, &rf, &mut FirstFree, &RegAllocConfig::default())
            .expect("the input allocates");
        let dfa = ThermalDfa::new(
            &f,
            &alloc.assignment,
            &grid,
            PowerModel::default(),
            ThermalDfaConfig::default(),
        )
        .unwrap();
        sweeps += dfa.run_with(&mut scratch, None).residual_history.len();
    }
    (sweeps, scratch.visits())
}

#[test]
fn suite_work_matches_the_pinned_counts() {
    let suite = standard_suite().into_iter().map(|w| w.func).collect();
    // Before the tail was deferred: 2,185 sweeps, 46,303 walked, 7,797
    // skipped.
    let expected = BlockVisits {
        walked: 42_814,
        skipped: 7_797,
        deferred: 3_505,
    };
    assert_eq!(work(suite), (2_185, expected));
}

/// Functions from the ranges of perfbench's `analyze-cold` stream.
#[test]
fn cold_traffic_work_matches_the_pinned_counts() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0006);
    let funcs = (0..24)
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
    // Before the tail was deferred: 4,687 sweeps, 355,337 walked,
    // 149,079 skipped.
    let expected = BlockVisits {
        walked: 202_393,
        skipped: 149_079,
        deferred: 153_755,
    };
    assert_eq!(work(funcs), (4_687, expected));
}
