//! `tadfa-perfbench` — the repository's end-to-end and per-layer
//! benchmark. See `perfbench/README.md` for the workloads, metrics and
//! commands.
//!
//! ```text
//! tadfa-perfbench --workload <scenario-warm|analyze-cold|fleet-open>
//!                 --seed N --seconds S --trace 0|1 [--bin-dir DIR]
//! ```
//!
//! Run from the repository root. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`
//! (end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`). Any wrong answer makes the exit code nonzero.

mod calib;
mod client;
mod fleet;
mod layers;
mod requests;
mod specs;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use tadfa_sched::json::escape;
use trace::Tracer;
use workloads::{Ctx, Measured};

/// Where runs keep their generated specs, fleet state and traces.
const WORK_DIR: &str = ".bench_work";
/// How many `analyze-cold` / `fleet-open` requests the traced run's
/// mix and fleet probes replay.
const PROBE_MIX: usize = 120;

const WORKLOADS: [&str; 3] = ["scenario-warm", "analyze-cold", "fleet-open"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds: f64 = 20.0;
    let mut trace = false;
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_string());
    let mut bin_dir = PathBuf::from(target).join("release");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{a} needs a value"))
        };
        match a.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => seconds = value()?.parse().map_err(|_| "--seconds needs a number")?,
            "--trace" => trace = value()? == "1",
            "--bin-dir" => bin_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (known: {})",
            WORKLOADS.join(", ")
        ));
    }
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        bin_dir,
    })
}

/// The host and build every result is stamped with.
fn stamp(args: &Args) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    format!(
        "{{\"available_parallelism\": {}, \"cpu_model\": {}, \"commit\": {}, \"rustc\": {}, \
         \"profile\": \"{}\", \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        workloads::threads(),
        escape(&cpu),
        escape(&env("PERFBENCH_COMMIT")),
        escape(&env("PERFBENCH_RUSTC")),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        escape(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
    )
}

fn run_workload(ctx: &Ctx, workload: &str, seconds: f64) -> Result<Measured, String> {
    match workload {
        "scenario-warm" => workloads::scenario_warm(ctx, seconds),
        "analyze-cold" => workloads::analyze_cold(ctx, seconds),
        _ => workloads::fleet_open(ctx, seconds),
    }
}

/// One metric line of the result: value and unit.
type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

fn end_to_end(m: &Measured) -> Metrics {
    BTreeMap::from([
        ("setup_s", (m.setup_s, "s")),
        ("throughput_rps", (m.throughput_rps, "1/s")),
        ("latency_p50_ms", (m.latency_p50_ms, "ms")),
        ("latency_p99_ms", (m.latency_p99_ms, "ms")),
        ("peak_rss_mb", (m.peak_rss_mb, "MB")),
    ])
}

/// The request mix the traced run's probes replay: the workload's own
/// requests, from its first index.
fn probe_mix(ctx: &Ctx, workload: &str) -> Vec<requests::Req> {
    let stems = ctx.specs.stems();
    match workload {
        "scenario-warm" => {
            let order = requests::warm_order(ctx.seed, &stems);
            (0..4 * order.len() as u64)
                .map(|i| requests::Req::run(i, &order[i as usize % order.len()]))
                .collect()
        }
        "analyze-cold" => (0..PROBE_MIX as u64)
            .map(|i| requests::cold(ctx.seed, i, &stems, workloads::MODULE_SHARE))
            .collect(),
        _ => workloads::fleet_mix(ctx.seed, &stems, 0, PROBE_MIX),
    }
}

/// Per-layer metrics: an untraced and a traced pass of the workload
/// (for the overhead ratio), then the spec, mix and fleet probes.
fn traced(ctx: &mut Ctx, workload: &str, out: &mut Measured) -> Result<(Metrics, String), String> {
    let half = (ctx.seconds / 2.0).max(1.0);
    // The two passes only feed the overhead ratio; a quarter of the
    // end-to-end sample floor keeps the traced run well inside its time.
    ctx.min_samples = workloads::MIN_SAMPLES / 4;
    let ctx = &*ctx;
    let plain = run_workload(ctx, workload, half)?;
    let mut t = Tracer::new();
    let traced = run_workload(ctx, workload, half)?;
    out.host_factor = plain.host_factor;
    for m in [&plain, &traced] {
        out.attempted += m.attempted;
        out.failed += m.failed;
        out.mismatches.extend(m.mismatches.iter().cloned());
    }
    let server = layers::probe_server(ctx)?;
    let specs = layers::spec_probe(ctx, &server, &mut t)?;
    let mix = probe_mix(ctx, workload);
    let mixed = layers::mix_probe(ctx, &server, &mix, &specs, &mut t)?;
    let fleet = layers::fleet_probe(ctx, &mix, &mut t)?;
    out.attempted += (mix.len() * 3) as u64;
    out.failed += mixed.mismatches + fleet.mismatches;

    let sum = |f: &dyn Fn(&layers::SpecFigures) -> f64| specs.values().map(f).sum::<f64>();
    let handle_p50 = stats::median(&mixed.handle_ms);
    let handle_mean = mixed.handle_ms_total / mixed.handle_ms.len().max(1) as f64;
    let handle_by_id: BTreeMap<u64, f64> = mix
        .iter()
        .map(|r| r.id)
        .zip(mixed.handle_ms.iter().copied())
        .collect();
    let num = |doc: &Option<tadfa_sched::json::JsonValue>, sec: &str, key: &str| {
        doc.as_ref()
            .and_then(|d| d.get(sec))
            .and_then(|s| s.get(key))
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0)
    };
    let [hits, misses, summary_hits, summary_stores] = mixed.cache;
    let analyze_s: f64 = mixed.analyze_ms.iter().sum::<f64>() / 1e3;
    let dominated = specs
        .values()
        .filter(|f| f.die_ms() >= 0.75 * f.handle_ms)
        .count();
    let late = if workload == "fleet-open" {
        plain.late_p99_ms
    } else {
        fleet.late_p99_ms
    };
    let metrics: Metrics = BTreeMap::from([
        ("sched.runner.prepare_ms", (sum(&|f| f.prepare_ms), "ms")),
        ("sched.runner.run_ms", (sum(&|f| f.run_ms), "ms")),
        (
            "sched.runner.steady_sweeps",
            (sum(&|f| f.steady_sweeps as f64), "count"),
        ),
        ("sched.dtm.die_ms", (sum(&|f| f.die_ms()), "ms")),
        (
            "sched.dtm.die_share",
            (mixed.die_ms_total / mixed.handle_ms_total, "ratio"),
        ),
        ("sched.dtm.specs_die_dominated", (dominated as f64, "count")),
        ("sched.dtm.epochs", (sum(&|f| f.epochs as f64), "count")),
        (
            "sched.dtm.level_changes",
            (sum(&|f| f.level_changes as f64), "count"),
        ),
        (
            "sched.dtm.throttle_events",
            (sum(&|f| f.throttle_events as f64), "count"),
        ),
        (
            "core.engine.analyze_ms",
            (stats::median(&mixed.analyze_ms), "ms"),
        ),
        (
            "core.engine.funcs_analyzed",
            (mixed.funcs_analyzed as f64, "count"),
        ),
        (
            "core.engine.funcs_per_s",
            (mixed.funcs_analyzed as f64 / analyze_s, "1/s"),
        ),
        ("core.cache.hits", (hits as f64, "count")),
        ("core.cache.misses", (misses as f64, "count")),
        (
            "core.cache.hit_ratio",
            (hits as f64 / (hits + misses).max(1) as f64, "ratio"),
        ),
        ("core.cache.summary_hits", (summary_hits as f64, "count")),
        (
            "core.cache.summary_stores",
            (summary_stores as f64, "count"),
        ),
        ("ir.parser.parse_us", (parse_us(ctx, &mixed.parse_us), "us")),
        ("serve.service.handle_ms", (handle_p50, "ms")),
        (
            "serve.protocol.encode_us",
            (
                stats::median(&specs.values().map(|f| f.encode_us).collect::<Vec<_>>()),
                "us",
            ),
        ),
        (
            "serve.reactor.transport_us",
            (
                layers::paired_median(&plain.samples, &handle_by_id) * 1e3,
                "us",
            ),
        ),
        (
            "serve.queue.wait_ms",
            (
                num(&plain.stats, "latency", "mean_ns") / 1e6 - handle_mean,
                "ms",
            ),
        ),
        (
            "serve.queue.peak_depth",
            (num(&plain.stats, "queue", "peak_depth"), "count"),
        ),
        (
            "serve.queue.rejected",
            (num(&plain.stats, "queue", "rejected"), "count"),
        ),
        ("serve.router.forward_ms", (fleet.forward_ms, "ms")),
        ("serve.router.forwarded", (fleet.forwarded, "count")),
        ("serve.router.retries", (fleet.retries, "count")),
        ("serve.router.failovers", (fleet.failovers, "count")),
        ("serve.persist.appended", (fleet.appended, "count")),
        ("loadgen.late_p99_ms", (late, "ms")),
        (
            "loadgen.trace_overhead_p50",
            (traced.latency_p50_ms / plain.latency_p50_ms, "ratio"),
        ),
        (
            "loadgen.trace_overhead_rps",
            (traced.throughput_rps / plain.throughput_rps, "ratio"),
        ),
    ]);

    // The ROADMAP baseline: the die is at least 75% of a warm request
    // on 10 of the 11 committed specs.
    if ctx.seed == 0 && workload == "scenario-warm" {
        let verdict = if dominated >= 10 {
            "consistent"
        } else {
            "NOT consistent"
        };
        eprintln!(
            "die share check: die >= 75% of Server::handle on {dominated} of {} specs \
             ({verdict} with the ROADMAP baseline of 10 of 11)",
            specs.len()
        );
    }

    let mut lines = String::new();
    let _ = writeln!(lines, "{{\"spec_figures\": [");
    for (i, (stem, f)) in specs.iter().enumerate() {
        let _ = writeln!(
            lines,
            "  {{\"spec\": {}, \"prepare_ms\": {}, \"run_ms\": {}, \"analyze_ms\": {}, \"die_ms\": {}, \
             \"handle_ms\": {}, \"steady_sweeps\": {}, \"epochs\": {}}}{}",
            escape(stem),
            f.prepare_ms,
            f.run_ms,
            f.analyze_ms,
            f.die_ms(),
            f.handle_ms,
            f.steady_sweeps,
            f.epochs,
            if i + 1 < specs.len() { "," } else { "" }
        );
    }
    let _ = writeln!(lines, "]}}");
    layers::record_samples(&mut t, "loadgen.request", &traced.samples);
    lines.push_str(&t.to_jsonl());
    Ok((metrics, lines))
}

/// Median parse time over the mix's sources; a mix without sources
/// (`scenario-warm`) parses the seed's first cold requests instead.
fn parse_us(ctx: &Ctx, measured: &[f64]) -> f64 {
    if !measured.is_empty() {
        return stats::median(measured);
    }
    let stems = ctx.specs.stems();
    let times: Vec<f64> = (0..PROBE_MIX as u64)
        .map(|i| {
            let req = requests::cold(ctx.seed, i, &stems, workloads::MODULE_SHARE);
            let src = req.source.expect("cold requests carry source");
            let t0 = std::time::Instant::now();
            let ok = match req.kind {
                requests::Kind::Module => tadfa_ir::parse_module(&src).is_ok(),
                _ => tadfa_ir::parse_function(&src).is_ok(),
            };
            assert!(ok, "generated IR parses");
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&times)
}

fn render(correct: bool, m: &Measured, metrics: &Metrics) -> String {
    let mut body = String::new();
    for (i, (name, (value, unit))) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { -1.0 };
        let _ = write!(
            body,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if i > 0 { ", " } else { "" }
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        m.attempted.max(1),
        m.failed
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tadfa-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(WORK_DIR);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("tadfa-perfbench: cannot create {WORK_DIR}: {e}");
        return ExitCode::from(2);
    }
    let stamp = stamp(&args);
    let setup = specs::materialise(args.seed, std::path::Path::new("."), &work)
        .and_then(|specs| requests::Oracle::new(&specs).map(|oracle| (specs, oracle)));
    let (specs, oracle) = match setup {
        Ok(x) => x,
        Err(e) => {
            eprintln!("tadfa-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        min_samples: workloads::MIN_SAMPLES,
        work: work.clone(),
        bin_dir: args.bin_dir.clone(),
        specs,
        oracle,
    };
    let outcome = if args.trace {
        let mut m = Measured::default();
        traced(&mut ctx, &args.workload, &mut m).map(|(metrics, lines)| {
            let path = work.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
            let text = format!("{{\"stamp\": {stamp}}}\n{lines}");
            if let Err(e) = std::fs::write(&path, text) {
                eprintln!("tadfa-perfbench: cannot write {}: {e}", path.display());
            }
            (m, metrics)
        })
    } else {
        run_workload(&ctx, &args.workload, args.seconds).map(|m| {
            let metrics = end_to_end(&m);
            (m, metrics)
        })
    };
    let (m, metrics) = match outcome {
        Ok(x) => x,
        Err(e) => {
            eprintln!("tadfa-perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for line in &m.mismatches {
        eprintln!("mismatch: {line}");
    }
    let correct = m.failed == 0 && m.mismatches.is_empty();
    println!("stamp {stamp}");
    println!(
        "failed_ratio {} ({} of {} attempted)",
        m.failed as f64 / m.attempted.max(1) as f64,
        m.failed,
        m.attempted
    );
    println!(
        "host_factor {} (the host ran this much slower than the reference; \
         end-to-end times and rates are scaled to the reference host)",
        m.host_factor
    );
    println!("{}", render(correct, &m, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
