//! Parallel batch analysis: share one validated `Session` core across a
//! worker pool and analyze the standard suite in parallel — the
//! workload the paper's "cheap enough to run for every function" pitch
//! scales into.
//!
//! Run: `cargo run --example parallel_engine`

use tadfa::prelude::*;

fn main() -> Result<(), TadfaError> {
    // One validated session; the engine snapshots its core (register
    // file, RC grid, power model, configs) behind an Arc and recreates
    // its named policy per worker.
    let mut session = Session::builder()
        .floorplan(8, 8)
        .policy_name("first-free", 0)
        .build()?;
    let workers = std::thread::available_parallelism().map_or(4, |n| n.get());
    let engine = Engine::from_session(&session, workers)?;

    let suite = standard_suite();
    let funcs: Vec<Function> = suite.iter().map(|w| w.func.clone()).collect();

    // Whole suite at once; each function gets its own Result slot, and
    // the order matches the input no matter which worker ran it.
    println!("analyzing {} kernels on {workers} workers:\n", funcs.len());
    let reports = engine.analyze_batch_parallel(&funcs);
    for (w, report) in suite.iter().zip(&reports) {
        match report {
            Ok(r) => println!(
                "  {:<12} peak {:7.2} K  converged: {}",
                w.name,
                r.peak_temperature(),
                r.convergence().is_converged()
            ),
            Err(e) => println!("  {:<12} failed: {e}", w.name),
        }
    }

    // The reports are byte-identical to the sequential session's — the
    // engine's determinism contract.
    let sequential = session.analyze_batch(&funcs);
    let identical = sequential.iter().zip(&reports).all(|(a, b)| match (a, b) {
        (Ok(a), Ok(b)) => a.fingerprint() == b.fingerprint(),
        _ => false,
    });
    println!("\nbyte-identical to sequential analyze_batch: {identical}");

    // A second pass over the same suite is answered from the solve
    // cache instead of re-running the RC integration.
    engine.analyze_batch_parallel(&funcs);
    let stats = engine.cache_stats();
    println!(
        "\nsolve cache after a second pass: {} entries, {:.1}% hit rate",
        stats.entries,
        100.0 * stats.hit_rate()
    );
    Ok(())
}
