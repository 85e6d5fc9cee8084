//! Benches for the thermal DFA — the E5 cost curve (analysis time vs
//! granularity) plus liveness for scale reference.
//!
//! Offline harness (`tadfa_bench::quickbench`) in place of criterion —
//! see that module's docs.
//!
//! Run: `cargo bench -p tadfa-bench --bench analysis`

use tadfa_bench::quickbench::Harness;
use tadfa_core::Session;
use tadfa_dataflow::Liveness;
use tadfa_ir::Cfg;
use tadfa_regalloc::{allocate_linear_scan, policy_by_name, RegAllocConfig};
use tadfa_thermal::{Floorplan, RegisterFile};
use tadfa_workloads::{fibonacci, matmul};

fn bench_dfa_granularity(h: &mut Harness) {
    let func = fibonacci().func;
    for (gr, gc) in [(1usize, 1usize), (2, 2), (4, 4), (8, 8)] {
        let mut session = Session::builder()
            .floorplan(8, 8)
            .granularity(gr, gc)
            .build()
            .expect("bench granularities are valid");
        h.bench_function(&format!("thermal_dfa_granularity/{gr}x{gc}"), || {
            session
                .analyze(&func)
                .expect("fib analyzes")
                .peak_temperature()
        });
    }
}

fn bench_liveness(h: &mut Harness) {
    let func = matmul(5).func;
    let cfg = Cfg::compute(&func);

    h.bench_function("liveness_matmul", || {
        Liveness::compute(&func, &cfg).num_vregs()
    });
}

fn bench_allocation_policies(h: &mut Harness) {
    // Times allocation alone (not the DFA), so policy-level regressions
    // stay visible; each sample clones the function and the allocator
    // resets the policy, so samples measure identical work.
    let rf = RegisterFile::new(Floorplan::grid(8, 8));
    for name in ["first-free", "chessboard", "round-robin"] {
        let func = matmul(4).func;
        let mut policy = policy_by_name(name, &rf, 1).expect("known policy");
        h.bench_function(&format!("allocation/{name}"), || {
            let mut f = func.clone();
            allocate_linear_scan(&mut f, &rf, policy.as_mut(), &RegAllocConfig::default())
                .expect("matmul allocates")
                .stats
                .rounds
        });
    }
}

fn main() {
    let mut h = Harness::new();
    bench_dfa_granularity(&mut h);
    bench_liveness(&mut h);
    bench_allocation_policies(&mut h);
    h.report();
}
