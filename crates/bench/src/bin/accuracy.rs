//! **E4 — prediction accuracy.** "A compiler may be able to predict,
//! with reasonable accuracy, the thermal state of the processor at every
//! point in the program" (§1).
//!
//! For every suite kernel: the DFA-predicted peak map is scored against
//! the trace-driven co-simulated map (RMS/L∞ error, Pearson correlation,
//! hot-spot localisation).
//!
//! Run: `cargo run -p tadfa-bench --bin accuracy`

use tadfa_bench::{accuracy_workloads, default_session, evaluate_policy, k3, print_table};
use tadfa_sim::compare_maps;

fn main() {
    let mut session = default_session();
    let fp = session.register_file().floorplan().clone();

    println!("== E4: compile-time prediction vs feedback-driven ground truth ==");
    println!("policy: first-free; metrics on peak maps over the whole run\n");

    let mut rows = Vec::new();
    for w in &accuracy_workloads() {
        match evaluate_policy(&mut session, w, "first-free", 42) {
            Ok(eval) => {
                let acc = compare_maps(&eval.predicted, &eval.measured, &fp);
                rows.push(vec![
                    w.name.to_string(),
                    k3(acc.rms),
                    k3(acc.linf),
                    format!("{:.3}", acc.pearson),
                    k3(acc.peak_error),
                    acc.hotspot_distance.to_string(),
                    if eval.dfa.convergence.is_converged() {
                        "yes"
                    } else {
                        "NO"
                    }
                    .to_string(),
                ]);
            }
            Err(e) => rows.push(vec![w.name.to_string(), format!("error: {e}")]),
        }
    }

    print_table(
        &[
            "workload",
            "rms(K)",
            "linf(K)",
            "pearson",
            "peak err(K)",
            "hotspot dist",
            "converged",
        ],
        &rows,
    );

    println!(
        "\nexpected shape: strong positive correlation and hotspot distance 0-2 cells \
         on regular kernels; larger errors on the irregular generated programs \
         (the compile-time estimate averages over paths the execution takes \
         data-dependently)."
    );
}
