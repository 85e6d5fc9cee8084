//! The traced run's per-layer probes.
//!
//! Each probe calls a layer's public functions directly, wrapped in
//! [`Tracer`] spans, on the same seed's inputs:
//!
//! * the spec probe: `PreparedScenario::prepare`, warm `run_with`, the
//!   warm analysis inside it, and `protocol::scenario_response`, per
//!   spec;
//! * the mix probe: `Server::handle` (in-process, no sockets) on the
//!   workload's own request mix, with the request sources parsed and
//!   analysed cold on fresh engines beside it;
//! * the fleet probe: the same mix through a spawned fleet's router and
//!   directly to its workers.

use crate::client::{self, Sample};
use crate::fleet::FleetProc;
use crate::requests::{Kind, Oracle, Req};
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{self, Ctx, FLEET_CONNS, FLEET_WORKERS};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use tadfa_core::engine::BatchOptions;
use tadfa_sched::json::JsonValue;
use tadfa_sched::PreparedScenario;
use tadfa_serve::{Server, ServerConfig};

/// Repetitions of each timed call in the spec probe (medians kept).
const PROBE_REPS: usize = 9;
/// Rate of the fleet probe's open loop, requests/s: low enough that
/// nothing queues, so the latency is the path, not the backlog.
const FLEET_PROBE_RATE: f64 = 25.0;

/// Per-spec figures from the spec probe (medians over repetitions).
#[derive(Debug, Default, Clone)]
pub struct SpecFigures {
    pub prepare_ms: f64,
    pub run_ms: f64,
    pub analyze_ms: f64,
    /// Warm `Server::handle` of the spec's `run-scenario`.
    pub handle_ms: f64,
    pub encode_us: f64,
    pub funcs: usize,
    pub steady_sweeps: usize,
    pub epochs: usize,
    pub level_changes: usize,
    pub throttle_events: usize,
}

impl SpecFigures {
    /// Self time of the die: warm run minus its warm analysis.
    pub fn die_ms(&self) -> f64 {
        (self.run_ms - self.analyze_ms).max(0.0)
    }
}

fn warm_analyze(p: &PreparedScenario) -> usize {
    let cfg = p.config();
    match &cfg.module {
        Some(module) => p
            .engine()
            .analyze_module(module)
            .expect("a prepared module analyses")
            .len(),
        None => {
            let funcs: Vec<_> = cfg.tasks.iter().map(|t| t.func.clone()).collect();
            let n = funcs.len();
            for r in p.engine().analyze_batch_parallel(&funcs) {
                r.expect("a prepared task analyses");
            }
            n
        }
    }
}

/// The in-process server the spec and mix probes call `handle` on. It
/// runs one engine worker, so its cache counters repeat exactly from
/// run to run.
pub fn probe_server(ctx: &Ctx) -> Result<Server, String> {
    Server::load(&ServerConfig {
        engine_workers: Some(1),
        ..workloads::server_config(&ctx.specs.dir)
    })
    .map_err(|e| e.to_string())
}

/// One `Server::handle` call on `req`, in a span.
fn handle(server: &Server, t: &mut Tracer, req: &Req) -> String {
    let parsed = tadfa_serve::parse_request(&req.line).expect("generated requests parse");
    t.span("serve.service.handle", Some(req.id), |_| {
        server.handle(&parsed, Instant::now())
    })
}

/// Prepares and runs every spec, timing each layer's public call; the
/// server's `handle` of the same spec is timed in the same repetitions,
/// so the die's share of it compares like with like.
pub fn spec_probe(
    ctx: &Ctx,
    server: &Server,
    t: &mut Tracer,
) -> Result<BTreeMap<String, SpecFigures>, String> {
    let mut out = BTreeMap::new();
    for (k, (stem, cfg)) in ctx.specs.configs.iter().enumerate() {
        let request = Some(k as u64);
        let mut prepared = None;
        for _ in 0..PROBE_REPS.min(3) {
            prepared = Some(t.span("sched.runner.prepare", request, |_| {
                PreparedScenario::prepare(cfg.clone())
            }));
        }
        let prepared = prepared
            .expect("at least one rep")
            .map_err(|e| e.to_string())?;
        let first = prepared.run().map_err(|e| e.to_string())?;
        let mut f = SpecFigures {
            funcs: warm_analyze(&prepared),
            steady_sweeps: first.die.steady_sweeps,
            ..SpecFigures::default()
        };
        if let Some(d) = &first.dtm {
            f.epochs = d.epochs;
            f.level_changes = d.level_changes;
            f.throttle_events = d.throttle_events;
        }
        let req = Req::run(k as u64, stem);
        handle(server, t, &req);
        for _ in 0..PROBE_REPS {
            handle(server, t, &req);
            let result = t
                .span("sched.runner.run_with", request, |_| {
                    prepared.run_with(&BatchOptions::default())
                })
                .map_err(|e| e.to_string())?;
            t.span("core.engine.analyze", request, |_| warm_analyze(&prepared));
            let line = t.span("serve.protocol.encode", request, |_| {
                tadfa_serve::protocol::scenario_response(0, stem, &result)
            });
            std::hint::black_box(line);
        }
        let last = |name: &str| {
            let all: Vec<f64> = t
                .spans()
                .iter()
                .filter(|s| s.name == name && s.request == request)
                .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
                .collect();
            stats::median(&all)
        };
        f.prepare_ms = last("sched.runner.prepare");
        f.run_ms = last("sched.runner.run_with");
        f.analyze_ms = last("core.engine.analyze");
        f.handle_ms = last("serve.service.handle");
        f.encode_us = last("serve.protocol.encode") * 1e3;
        out.insert(stem.clone(), f);
    }
    Ok(out)
}

/// What the mix probe measured.
#[derive(Debug, Default)]
pub struct MixFigures {
    pub handle_ms: Vec<f64>,
    pub die_ms_total: f64,
    pub handle_ms_total: f64,
    pub analyze_ms: Vec<f64>,
    pub funcs_analyzed: usize,
    pub parse_us: Vec<f64>,
    /// Cache counter deltas over the mix: hits, misses, summary hits,
    /// summary stores.
    pub cache: [u64; 4],
    pub mismatches: u64,
}

fn cache_totals(doc: &JsonValue) -> [u64; 4] {
    let mut out = [0u64; 4];
    for sc in doc
        .get("scenarios")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
    {
        for (slot, key) in ["hits", "misses", "summary_hits", "summary_stores"]
            .iter()
            .enumerate()
        {
            out[slot] += sc
                .get("cache")
                .and_then(|c| c.get(key))
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0) as u64;
        }
    }
    out
}

fn handle_stats(server: &Server) -> JsonValue {
    let req = tadfa_serve::parse_request("{\"id\": 0, \"op\": \"stats\"}").expect("stats parses");
    let line = server.handle(&req, Instant::now());
    tadfa_serve::parse_response(&line)
        .expect("stats answers")
        .doc
}

/// Calls `Server::handle` in-process on every request of `mix` (after
/// the spec probe warmed every spec on the same server), with the parse
/// and a cold analysis of each source on fresh engines beside it.
pub fn mix_probe(
    ctx: &Ctx,
    server: &Server,
    mix: &[Req],
    specs: &BTreeMap<String, SpecFigures>,
    t: &mut Tracer,
) -> Result<MixFigures, String> {
    let fresh = Oracle::new(&ctx.specs)?;
    let mut m = MixFigures::default();
    let before = cache_totals(&handle_stats(server));
    for req in mix {
        let line = t.span("probe.request", Some(req.id), |t| {
            match (req.kind, req.source.as_deref()) {
                (Kind::Run, _) | (_, None) => {
                    let f = &specs[&req.scenario];
                    m.funcs_analyzed += f.funcs;
                    m.analyze_ms.push(f.analyze_ms);
                    m.die_ms_total += f.die_ms();
                }
                (Kind::Analyze, Some(src)) => {
                    let t0 = Instant::now();
                    let func = t.span("ir.parser.parse", Some(req.id), |_| {
                        tadfa_ir::parse_function(src)
                    });
                    m.parse_us.push(t0.elapsed().as_secs_f64() * 1e6);
                    let func = func.map_err(|e| e.to_string())?;
                    let t0 = Instant::now();
                    t.span("core.engine.analyze", Some(req.id), |_| {
                        fresh.engine(&req.scenario).analyze_batch_parallel(&[func])
                    });
                    m.analyze_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    m.funcs_analyzed += 1;
                }
                (Kind::Module, Some(src)) => {
                    let t0 = Instant::now();
                    let module = t.span("ir.parser.parse", Some(req.id), |_| {
                        tadfa_ir::parse_module(src)
                    });
                    m.parse_us.push(t0.elapsed().as_secs_f64() * 1e6);
                    let module = module.map_err(|e| e.to_string())?;
                    m.funcs_analyzed += module.len();
                    let t0 = Instant::now();
                    t.span("core.engine.analyze", Some(req.id), |_| {
                        fresh.engine(&req.scenario).analyze_module(&module)
                    })
                    .map_err(|e| e.to_string())?;
                    m.analyze_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                }
            }
            let t0 = Instant::now();
            let line = handle(server, t, req);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            m.handle_ms.push(ms);
            m.handle_ms_total += ms;
            Ok::<String, String>(line)
        })?;
        let sample = Sample {
            id: req.id,
            start: Instant::now(),
            latency_ms: 0.0,
            late_ms: 0.0,
            response: Some(line),
        };
        let want = ctx.oracle.expected(req)?;
        if !client::verified(&sample, &want) {
            m.mismatches += 1;
        }
    }
    let after = cache_totals(&handle_stats(server));
    for i in 0..4 {
        m.cache[i] = after[i] - before[i];
    }
    Ok(m)
}

/// FNV-1a 64, the router's shard hash.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The worker the router sends `req` to first.
fn owner(req: &Req, workers: usize) -> usize {
    let mut h = fnv1a64(req.scenario.as_bytes());
    if let Some(src) = &req.source {
        h ^= fnv1a64(src.as_bytes());
    }
    (h % workers as u64) as usize
}

/// What the fleet probe measured.
#[derive(Debug, Default)]
pub struct FleetFigures {
    /// Median over requests of routed minus direct latency.
    pub forward_ms: f64,
    pub late_p99_ms: f64,
    pub forwarded: f64,
    pub retries: f64,
    pub failovers: f64,
    pub appended: f64,
    pub mismatches: u64,
}

/// Sends `mix` straight to the workers (warm requests to the worker
/// that owns them, cold ones to the other, so both passes stay cold),
/// then through the router at a low open-loop rate, on a fresh fleet.
pub fn fleet_probe(ctx: &Ctx, mix: &[Req], t: &mut Tracer) -> Result<FleetFigures, String> {
    let state = ctx.work.join("fleet-probe");
    let (fleet, _) = FleetProc::spawn(&ctx.bin_dir, &ctx.specs.dir, &state, FLEET_WORKERS)?;
    let stems = ctx.specs.stems();
    let mut f = FleetFigures::default();
    let mut check = |pairs: &[(Req, Sample)]| -> Result<(), String> {
        for (req, s) in pairs {
            if !client::verified(s, &ctx.oracle.expected(req)?) {
                f.mismatches += 1;
            }
        }
        Ok(())
    };
    // Warm every spec on its owner through the router.
    let warm = client::closed_loop(
        fleet.router,
        |i| Req::run(1 << 40 | i, &stems[i as usize]),
        |i| i as usize >= stems.len(),
    )
    .map_err(|e| e.to_string())?;
    check(&warm)?;

    let mut direct = BTreeMap::new();
    for (w, addr) in fleet.workers.iter().enumerate() {
        let mine: Vec<&Req> = mix
            .iter()
            .filter(|r| {
                let o = owner(r, FLEET_WORKERS);
                if r.kind == Kind::Run {
                    o == w
                } else {
                    (o + 1) % FLEET_WORKERS == w
                }
            })
            .collect();
        if mine.is_empty() {
            continue;
        }
        let pairs = client::closed_loop(
            *addr,
            |i| mine[i as usize].clone(),
            |i| i as usize >= mine.len(),
        )
        .map_err(|e| e.to_string())?;
        check(&pairs)?;
        direct.extend(pairs.into_iter().map(|(r, s)| (r.id, s.latency_ms)));
    }
    // Evenly spaced due times: the mix has fewer requests than the
    // window a Poisson draw needs to average out.
    let due: Vec<f64> = (0..mix.len())
        .map(|i| i as f64 / FLEET_PROBE_RATE)
        .collect();
    let samples = client::pipelined(
        fleet.router,
        FLEET_CONNS,
        mix,
        client::Pace::Due(&due),
        Duration::from_secs(30),
    )
    .map_err(|e| e.to_string())?;
    let routed: Vec<(Req, Sample)> = mix.iter().cloned().zip(samples).collect();
    check(&routed)?;
    record_samples(
        t,
        "serve.router.request",
        &routed.iter().map(|(_, s)| s.clone()).collect::<Vec<_>>(),
    );
    let doc = fleet.stats()?;
    fleet.shutdown();

    let routed: Vec<Sample> = routed.into_iter().map(|(_, s)| s).collect();
    f.forward_ms = paired_median(&routed, &direct);
    f.late_p99_ms = client::late_p99(&routed);
    let router = doc.get("fleet").and_then(|x| x.get("router"));
    let num = |k: &str| {
        router
            .and_then(|r| r.get(k))
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0)
    };
    f.forwarded = num("forwarded");
    f.retries = num("retries");
    f.failovers = num("failovers");
    f.appended = doc
        .get("scenarios")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|s| {
            s.get("persist")
                .and_then(|p| p.get("appended"))
                .and_then(JsonValue::as_f64)
        })
        .sum();
    Ok(f)
}

/// The median over requests of `samples` latency minus `base[id]`,
/// for the requests present in both.
pub fn paired_median(samples: &[Sample], base: &BTreeMap<u64, f64>) -> f64 {
    let diffs: Vec<f64> = samples
        .iter()
        .filter(|s| s.latency_ms.is_finite())
        .filter_map(|s| base.get(&s.id).map(|b| s.latency_ms - b))
        .collect();
    stats::median(&diffs)
}

/// Client spans after the fact: one span per request, from its start
/// (or due time) over its latency.
pub fn record_samples(t: &mut Tracer, name: &'static str, samples: &[Sample]) {
    for s in samples {
        if s.latency_ms.is_finite() {
            t.record(
                name,
                s.start,
                Duration::from_secs_f64(s.latency_ms / 1e3),
                Some(s.id),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::requests;
    use std::path::Path;

    /// The deterministic counters of the spec and mix probes (cache,
    /// summaries, steady sweeps, DTM, functions analysed) on one seed.
    fn counters(seed: u64) -> Vec<u64> {
        let work =
            std::env::temp_dir().join(format!("perfbench-counters-{}-{seed}", std::process::id()));
        let mut specs = crate::specs::materialise(seed, Path::new(".."), &work).unwrap();
        // The cheap specs keep the test short; het_bursty_dvfs brings DTM.
        specs.configs.retain(|(s, _)| {
            [
                "solo_baseline",
                "module_call_tree",
                "files_pair",
                "het_bursty_dvfs",
            ]
            .contains(&s.as_str())
        });
        let oracle = Oracle::new(&specs).unwrap();
        let ctx = Ctx {
            seed,
            seconds: 1.0,
            min_samples: 10,
            work: work.clone(),
            bin_dir: work.clone(),
            specs,
            oracle,
        };
        let stems = ctx.specs.stems();
        let mut mix: Vec<Req> = (0..12)
            .map(|i| requests::cold(seed, i, &stems, 0.25))
            .collect();
        mix.extend(
            stems
                .iter()
                .enumerate()
                .map(|(i, s)| Req::run(100 + i as u64, s)),
        );
        let mut t = Tracer::new();
        let server = probe_server(&ctx).unwrap();
        let figures = spec_probe(&ctx, &server, &mut t).unwrap();
        let mixed = mix_probe(&ctx, &server, &mix, &figures, &mut t).unwrap();
        let _ = std::fs::remove_dir_all(&work);
        assert_eq!(mixed.mismatches, 0);
        let mut out: Vec<u64> = mixed.cache.to_vec();
        out.push(mixed.funcs_analyzed as u64);
        for f in figures.values() {
            out.extend(
                [
                    f.steady_sweeps,
                    f.epochs,
                    f.level_changes,
                    f.throttle_events,
                ]
                .map(|c| c as u64),
            );
        }
        out
    }

    #[test]
    fn two_traced_runs_of_one_seed_repeat_their_counters() {
        for seed in [0, 5] {
            let first = counters(seed);
            assert!(first.iter().any(|&c| c > 0));
            assert_eq!(first, counters(seed), "seed {seed}");
        }
    }

    #[test]
    fn paired_median_subtracts_per_request() {
        let now = Instant::now();
        let sample = |id, latency_ms| Sample {
            id,
            start: now,
            latency_ms,
            late_ms: 0.0,
            response: None,
        };
        let samples = [
            sample(1, 10.0),
            sample(2, 30.0),
            sample(3, f64::INFINITY),
            sample(4, 5.0),
            sample(9, 1.0),
        ];
        let base = BTreeMap::from([(1, 9.0), (2, 27.0), (3, 1.0), (4, 0.0)]);
        assert_eq!(paired_median(&samples, &base), 3.0);
    }
}
