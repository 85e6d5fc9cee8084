//! Pins the solve-cache key. `ThermalDfa::signature` keys the in-memory
//! cache and every segment a service spills to `--cache-dir`; a key
//! that moves silently turns the segments written by an earlier build
//! into misses after a restart. In-tree tests write and read keys with
//! one binary, so only recorded values catch that.

use tadfa_core::{AnalysisGrid, ThermalDfa, ThermalDfaConfig};
use tadfa_regalloc::{allocate_linear_scan, FirstFree, RegAllocConfig};
use tadfa_thermal::{Floorplan, PowerModel, RcParams, RegisterFile};
use tadfa_workloads::standard_suite;

/// Each standard-suite kernel's signature on the full 8×8 grid under
/// `FirstFree` and the default config.
const PINNED: [(&str, u128); 11] = [
    ("matmul", 0x1862b3e25cdb3643fab2e3fa7c250cb4),
    ("fir", 0xedf9f1aee67fe0d4005868206b40cf1e),
    ("dot", 0x7bad13d580420888971416a3ed47b335),
    ("fib", 0xd1c72051a8e8209559eae779fc8a4f4c),
    ("checksum", 0x0c4c78f8b2c91fd170f3f38b1f3818d2),
    ("bsort", 0x36c70c54838cd8b496907a77df344bff),
    ("stencil", 0xca85107bb72fd8dcab6cfc8da8f2226e),
    ("saxpy", 0x31b22a2d11990bdb97c9ca8286ddeb87),
    ("hist", 0xffd879d7097e4f651a04fcb4d9806d34),
    ("butterfly", 0x1546d85aade4222803020db9a68eb7d0),
    ("popcount", 0x7a5b6aa21089f69351776d3ac7796135),
];

#[test]
fn suite_signatures_match_the_pinned_keys() {
    let rf = RegisterFile::new(Floorplan::grid(8, 8));
    let grid = AnalysisGrid::full(&rf, RcParams::default());
    let actual: Vec<(&str, u128)> = standard_suite()
        .into_iter()
        .map(|w| {
            let mut f = w.func;
            let alloc =
                allocate_linear_scan(&mut f, &rf, &mut FirstFree, &RegAllocConfig::default())
                    .unwrap();
            let dfa = ThermalDfa::new(
                &f,
                &alloc.assignment,
                &grid,
                PowerModel::default(),
                ThermalDfaConfig::default(),
            )
            .unwrap();
            (w.name, dfa.signature())
        })
        .collect();
    assert_eq!(actual, PINNED);
}
