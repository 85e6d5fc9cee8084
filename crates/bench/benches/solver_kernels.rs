//! The solver quickbench: compiled kernels vs the naive oracle,
//! kernel-level and end-to-end.
//!
//! Three questions, answered every run:
//!
//! 1. **Kernel speed** — ns/op of one RC transient step (the thermal
//!    DFA's innermost operation) through the naive solver and the
//!    compiled stencil kernel; steady-state solve times through the
//!    naive Gauss–Seidel oracle and the exact modal solver; and one
//!    run of 100 modal windows on a 4-core die.
//! 2. **End-to-end speed** — cold, single-thread `analyze_batch` over
//!    the standard suite through the production fixpoint (compiled
//!    kernels, clean blocks skipped) vs the same sweep driven by the
//!    naive oracle stepper, which walks every block
//!    (`SessionCore::analyze_with_reference_solver`; the "reference"
//!    entries time it). Two bars: the
//!    interleaved-pair speedup must stay ≥ 5× (PR 3's 3× bar,
//!    tightened once the fused explicit-SIMD kernels landed), and
//!    absolute throughput must stay ≥ 2× the pre-SIMD committed
//!    baseline of ~901 funcs/s (the PR 9 bar).
//! 3. **Identity** — compiled reports fingerprint byte-identical to
//!    reference reports (asserted, not just printed).
//! 4. **Interprocedural memoization** — warm `analyze_module` (callee
//!    summaries + fixpoints served from the solve cache) vs full
//!    re-analysis of the same module.
//!
//! Machine-readable output: `BENCH_solver.json` at the workspace root
//! (override with `BENCH_SOLVER_JSON`), written via
//! `Harness::export_json_with_text` so the perf trajectory is tracked
//! from this PR onward.
//!
//! Run: `cargo bench -p tadfa-bench --bench solver_kernels`

use std::path::PathBuf;
use tadfa_bench::quickbench::{black_box, fmt_duration, Harness};
use tadfa_core::Session;
use tadfa_ir::Function;
use tadfa_regalloc::policy_by_name;
use tadfa_thermal::{CompiledModel, Floorplan, ModalSolver, RcParams, StepScratch, ThermalModel};
use tadfa_workloads::standard_suite;

/// Steps per sample for the kernel micro-benches (one step is tens of
/// ns — too fine for the harness clock on its own).
const STEPS_PER_SAMPLE: usize = 10_000;

/// The per-instruction stepping regime of the DFA: dt well under the
/// stability limit, so exactly one sub-step per call.
const INSTRUCTION_DT: f64 = 3e-6;

/// `analyze_batch_funcs_per_sec` as committed in `BENCH_solver.json`
/// before the fused explicit-SIMD kernels landed. The PR 9 acceptance
/// bar is ≥ 2x this number on the bench host (see
/// docs/KERNEL_OPTIMIZATION_GUIDE.md for the campaign that got there).
const PRE_SIMD_FUNCS_PER_SEC: f64 = 901.0;

/// Best-effort host CPU model for `BENCH_solver.json` metadata.
/// `.cargo/config.toml` pins `-C target-cpu=native`, so every number in
/// the bench document is relative to this machine; recording the model
/// makes cross-host comparisons visibly apples-to-oranges.
fn host_cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn bench_step_kernels(h: &mut Harness) -> (f64, f64) {
    let model = ThermalModel::new(Floorplan::grid(8, 8), RcParams::default());
    let stencil = CompiledModel::new(&model);
    let mut power = vec![0.0; 64];
    power[27] = 1e-3;
    power[9] = 0.4e-3;

    h.bench_function("step/naive/8x8", || {
        let mut s = model.ambient_state();
        for _ in 0..STEPS_PER_SAMPLE {
            model.step(&mut s, &power, INSTRUCTION_DT);
        }
        s.peak()
    });
    h.bench_function("step/stencil/8x8", || {
        let mut s = model.ambient_state();
        let mut scratch = StepScratch::new();
        for _ in 0..STEPS_PER_SAMPLE {
            stencil.step_into(&mut s, &power, INSTRUCTION_DT, &mut scratch);
        }
        s.peak()
    });

    // Pure solve time: model, power vector, and modal factors are all
    // built outside the timed closures.
    let big = ThermalModel::new(Floorplan::grid(32, 32), RcParams::default());
    let mut big_power = vec![0.0; 1024];
    big_power[33] = 1e-3;
    let big_solver = big.modal();
    h.bench_function("steady/naive/32x32", || big.steady_state(&big_power).peak());
    h.bench_function("steady/modal/32x32", || {
        big_solver.steady_state(&big_power).peak()
    });
    bench_die_windows(h);

    let ns_per =
        |name: &str| h.mean_of(name).expect("benched").as_nanos() as f64 / STEPS_PER_SAMPLE as f64;
    (ns_per("step/naive/8x8"), ns_per("step/stencil/8x8"))
}

/// Windows per `window/modal/4x6x6` sample.
const DIE_WINDOWS: usize = 100;

/// One run's worth of die windows from a fresh state: `het_bursty_dvfs`'s
/// die (4 cores of 6×6 at 25 K/W coupling) through `ModalSolver::new`.
/// The sequence holds each of three powers for two windows and each of
/// six lengths for three, so the state reuses a projection on half the
/// windows and decay factors on two thirds; the rest are timed misses
/// (six lengths cycle through the state's four decay slots).
fn bench_die_windows(h: &mut Harness) {
    let (cores, rows, cols) = (4, 6, 6);
    let rc = RcParams::default();
    let g_lat = 1.0 / rc.lateral_resistance;
    let strip: Vec<f64> = (1..cores * cols)
        .map(|j| if j % cols == 0 { 1.0 / 25.0 } else { g_lat })
        .collect();
    let solver = ModalSolver::new(cores, rows, cols, &strip, &rc).expect("valid die");
    let per = rows * cols;
    // Two or three busy cores per power, a few hundred µW per cell.
    let powers: Vec<Vec<f64>> = (0..3)
        .map(|k| {
            (0..cores * per)
                .map(|i| {
                    if (i / per + k) % 4 == 3 {
                        0.0
                    } else {
                        1e-4 * ((i * 7 + k * 13) % 11) as f64
                    }
                })
                .collect()
        })
        .collect();
    let lengths = [2e-4, 5e-4, 1e-4, 1e-3, 3e-4, 7.5e-4];
    h.bench_function("window/modal/4x6x6", || {
        let mut state = solver.ambient_state();
        for i in 0..DIE_WINDOWS {
            solver.step(&mut state, &powers[(i / 2) % 3], lengths[(i / 3) % 6]);
        }
        state.temps().peak()
    });
}

/// Times the cold single-thread batch through both solver paths in
/// **interleaved pairs** (compiled then reference per round), so CPU
/// frequency drift and noisy neighbours hit both sides equally, and
/// returns `(compiled median s, reference median s, median per-pair
/// speedup)`.
fn bench_analyze_batch(h: &mut Harness, funcs: &[Function]) -> (f64, f64, f64) {
    let mut session = Session::builder()
        .floorplan(8, 8)
        .policy_name("first-free", 0)
        .build()
        .expect("bench session is valid");
    let core = session.shared_core();

    let run_compiled = |session: &mut Session| {
        session
            .analyze_batch(funcs)
            .into_iter()
            .map(|r| r.expect("suite analyzes").peak_temperature())
            .fold(0.0f64, f64::max)
    };
    let run_reference = || {
        funcs
            .iter()
            .map(|f| {
                let mut policy =
                    policy_by_name("first-free", core.register_file(), 0).expect("built-in policy");
                core.analyze_with_reference_solver(f, policy.as_mut())
                    .expect("suite analyzes")
                    .peak_temperature()
            })
            .fold(0.0f64, f64::max)
    };

    // Warmup both paths.
    for _ in 0..2 {
        black_box(run_compiled(&mut session));
        black_box(run_reference());
    }

    const ROUNDS: usize = 12;
    let mut compiled_samples = Vec::with_capacity(ROUNDS);
    let mut reference_samples = Vec::with_capacity(ROUNDS);
    let mut ratios = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let t0 = std::time::Instant::now();
        black_box(run_compiled(&mut session));
        let c = t0.elapsed();
        let t0 = std::time::Instant::now();
        black_box(run_reference());
        let r = t0.elapsed();
        compiled_samples.push(c);
        reference_samples.push(r);
        ratios.push(r.as_secs_f64() / c.as_secs_f64().max(1e-12));
    }
    h.record_samples("analyze_batch/compiled/suite", compiled_samples);
    h.record_samples("analyze_batch/reference/suite", reference_samples);
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    let speedup = ratios[ratios.len() / 2];

    // Identity: compiled fingerprints == reference fingerprints.
    let compiled: Vec<u128> = session
        .analyze_batch(funcs)
        .into_iter()
        .map(|r| r.expect("suite analyzes").fingerprint())
        .collect();
    let reference: Vec<u128> = funcs
        .iter()
        .map(|f| {
            let mut policy =
                policy_by_name("first-free", core.register_file(), 0).expect("built-in policy");
            core.analyze_with_reference_solver(f, policy.as_mut())
                .expect("suite analyzes")
                .fingerprint()
        })
        .collect();
    assert_eq!(
        compiled, reference,
        "compiled solver must be byte-identical to the reference"
    );
    println!("compiled reports byte-identical to reference: true");

    let median_s = |name: &str| h.summary_of(name).expect("benched").median_ns as f64 / 1e9;
    (
        median_s("analyze_batch/compiled/suite"),
        median_s("analyze_batch/reference/suite"),
        speedup,
    )
}

/// Times interprocedural module analysis through the memoized-summary
/// path (a warm engine whose solve cache holds every callee summary
/// and fixpoint) against full re-analysis (a cache-free sequential
/// session that rebuilds everything per round), in interleaved pairs
/// like the batch bench. Returns the median per-pair speedup.
fn bench_module_summaries(h: &mut Harness) -> f64 {
    let module = tadfa_workloads::generate_module(&tadfa_workloads::ModuleGeneratorConfig {
        depth: 2,
        fanout: 2,
        leaves: 4,
        shared_hot_callees: 2,
        layer_width: 3,
        exprs_per_function: 8,
        ..tadfa_workloads::ModuleGeneratorConfig::default()
    });
    let session = Session::builder()
        .floorplan(8, 8)
        .policy_name("first-free", 0)
        .build()
        .expect("bench session is valid");
    let engine = tadfa_core::Engine::from_session(&session, 1).expect("engine builds");

    let run_summarized = || {
        engine
            .analyze_module(&module)
            .expect("module analyzes")
            .peak_temperature()
    };
    let run_reanalysis = || {
        let mut session = Session::builder()
            .floorplan(8, 8)
            .policy_name("first-free", 0)
            .build()
            .expect("bench session is valid");
        session
            .analyze_module(&module)
            .expect("module analyzes")
            .peak_temperature()
    };

    // Warmup fills the summary + result memos; identity is asserted
    // here too — the memoized path must not move a byte.
    let warm = engine.analyze_module(&module).expect("module analyzes");
    let fresh = run_reanalysis();
    assert_eq!(
        warm.peak_temperature(),
        fresh,
        "memoized summaries must be byte-identical to re-analysis"
    );

    const ROUNDS: usize = 12;
    let mut summarized_samples = Vec::with_capacity(ROUNDS);
    let mut reanalysis_samples = Vec::with_capacity(ROUNDS);
    let mut ratios = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let t0 = std::time::Instant::now();
        black_box(run_summarized());
        let s = t0.elapsed();
        let t0 = std::time::Instant::now();
        black_box(run_reanalysis());
        let r = t0.elapsed();
        summarized_samples.push(s);
        reanalysis_samples.push(r);
        ratios.push(r.as_secs_f64() / s.as_secs_f64().max(1e-12));
    }
    h.record_samples("analyze_module/summarized/warm", summarized_samples);
    h.record_samples("analyze_module/reanalysis/cold", reanalysis_samples);
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    ratios[ratios.len() / 2]
}

fn main() {
    let funcs: Vec<Function> = standard_suite().into_iter().map(|w| w.func).collect();
    println!(
        "standard suite = {} functions, single thread\n",
        funcs.len()
    );

    let mut h = Harness::new();
    h.sample_size = 20;
    let (naive_step_ns, stencil_step_ns) = bench_step_kernels(&mut h);

    let (compiled_s, reference_s, batch_speedup) = bench_analyze_batch(&mut h, &funcs);
    let module_speedup = bench_module_summaries(&mut h);

    h.report();
    println!();

    let window_ns = h
        .summary_of("window/modal/4x6x6")
        .expect("benched")
        .median_ns as f64
        / DIE_WINDOWS as f64;
    let kernel_speedup = naive_step_ns / stencil_step_ns.max(1e-12);
    let throughput = funcs.len() as f64 / compiled_s.max(1e-12);
    println!("step kernel:     naive {naive_step_ns:.1} ns/op  →  stencil {stencil_step_ns:.1} ns/op  ({kernel_speedup:.2}x)");
    println!(
        "analyze_batch:   reference {}  →  compiled {}  ({batch_speedup:.2}x cold, 1 thread, {throughput:.1} funcs/s)",
        fmt_duration(std::time::Duration::from_secs_f64(reference_s)),
        fmt_duration(std::time::Duration::from_secs_f64(compiled_s)),
    );
    println!(
        "analyze_module:  memoized summaries + warm caches {module_speedup:.2}x over full re-analysis"
    );
    println!("die window:      {window_ns:.0} ns/window (4 cores of 6x6, median)");

    let path = std::env::var("BENCH_SOLVER_JSON").map_or_else(
        |_| {
            PathBuf::from(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../BENCH_solver.json"
            ))
        },
        PathBuf::from,
    );
    // The determinism digest the tadfa-bench perf-trend gate recomputes
    // and hard-diffs: any drift in suite fingerprints fails CI.
    // Formatted through the same helper the tadfa-bench gate uses to
    // recompute it, so the string comparison cannot drift by format.
    let digest = tadfa_sched::hex_fingerprint(tadfa_bench::suite_digest());
    let cpu = host_cpu_model();
    h.export_json_with_text(
        &path,
        &[
            ("step_naive_ns_per_op", naive_step_ns),
            ("step_stencil_ns_per_op", stencil_step_ns),
            ("step_kernel_speedup", kernel_speedup),
            ("window_modal_ns_per_window", window_ns),
            ("analyze_batch_cold_1thread_speedup", batch_speedup),
            ("analyze_batch_funcs_per_sec", throughput),
            ("analyze_module_summarized_speedup", module_speedup),
            ("suite_functions", funcs.len() as f64),
        ],
        &[("suite_digest", &digest), ("bench_host_cpu", &cpu)],
    )
    .expect("write BENCH_solver.json");
    println!("wrote {} (host: {cpu})", path.display());

    // The acceptance bars. Shared CI runners can be contended or
    // throttled, so they set SOLVER_BENCH_NO_ENFORCE=1 and treat these
    // as a reporting smoke test; local/dev runs enforce by default.
    //
    // * PR 3: the interleaved-pair speedup over the retained reference
    //   solver, tightened from 3x to 5x once the fused explicit-SIMD
    //   kernels landed (measured 6.7x; the interleaving makes this
    //   ratio robust to frequency drift, so a 5x bar is not twitchy).
    // * PR 9: absolute throughput ≥ 2x the pre-SIMD committed baseline.
    let funcs_bar = 2.0 * PRE_SIMD_FUNCS_PER_SEC;
    if std::env::var_os("SOLVER_BENCH_NO_ENFORCE").is_none() {
        assert!(
            batch_speedup >= 5.0,
            "acceptance bar: cold single-thread analyze_batch speedup \
             {batch_speedup:.2}x < 5x"
        );
        assert!(
            throughput >= funcs_bar,
            "PR 9 acceptance bar: analyze_batch throughput {throughput:.1} funcs/s \
             < 2x the pre-SIMD baseline ({funcs_bar:.0} funcs/s)"
        );
    } else {
        if batch_speedup < 5.0 {
            println!("WARNING: speedup {batch_speedup:.2}x below the 5x bar (not enforced)");
        }
        if throughput < funcs_bar {
            println!(
                "WARNING: throughput {throughput:.1} funcs/s below the 2x-baseline bar \
                 ({funcs_bar:.0} funcs/s, not enforced)"
            );
        }
    }
}
