//! Request generation and the oracles responses are checked against.
//!
//! Every request is a pure function of the seed and its index, so one
//! seed always produces the same request bytes. Cold requests carry IR
//! that no earlier request carried (each draws its own generator
//! seed), so they miss every solve cache they meet.

use crate::specs::SpecSet;
use crate::stats::Rng;
use std::collections::BTreeMap;
use tadfa_core::engine::BatchOptions;
use tadfa_sched::json::escape;
use tadfa_sched::{hex_fingerprint, PreparedScenario};
use tadfa_workloads::{generate, generate_module, GeneratorConfig, ModuleGeneratorConfig};

/// The operation a request asks for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Run,
    Analyze,
    Module,
}

impl Kind {
    pub fn op(self) -> &'static str {
        match self {
            Kind::Run => "run-scenario",
            Kind::Analyze => "analyze",
            Kind::Module => "analyze-module",
        }
    }
}

/// One request: what it asks and its exact wire bytes.
#[derive(Clone, Debug)]
pub struct Req {
    pub id: u64,
    pub kind: Kind,
    pub scenario: String,
    /// IR text for `analyze` / `analyze-module`.
    pub source: Option<String>,
    /// The JSON line sent on the wire, without its newline.
    pub line: String,
}

impl Req {
    pub fn run(id: u64, scenario: &str) -> Req {
        Req {
            id,
            kind: Kind::Run,
            scenario: scenario.to_string(),
            source: None,
            line: format!(
                "{{\"id\": {id}, \"op\": \"run-scenario\", \"scenario\": {}}}",
                escape(scenario)
            ),
        }
    }

    fn analyze(id: u64, kind: Kind, scenario: &str, source: String) -> Req {
        let line = format!(
            "{{\"id\": {id}, \"op\": \"{}\", \"scenario\": {}, \"source\": {}}}",
            kind.op(),
            escape(scenario),
            escape(&source)
        );
        Req {
            id,
            kind,
            scenario: scenario.to_string(),
            source: Some(source),
            line,
        }
    }
}

/// The spec set in seed-shuffled order: one `run-scenario` cycle.
pub fn warm_order(seed: u64, stems: &[String]) -> Vec<String> {
    let mut order = stems.to_vec();
    Rng::stream(seed, 3).shuffle(&mut order);
    order
}

/// Cold request number `index` of `seed`: a never-seen function (or,
/// with probability `module_share`, a never-seen module whose
/// functions share hot callees) on a seed-chosen scenario.
pub fn cold(seed: u64, index: u64, stems: &[String], module_share: f64) -> Req {
    let mut rng = Rng::stream(seed, 0x1_0000 + index);
    let scenario = &stems[rng.range(0, stems.len() as u64 - 1) as usize];
    let id = index;
    if rng.unit() < module_share {
        let module = generate_module(&ModuleGeneratorConfig {
            seed: rng.next_u64(),
            depth: rng.range(1, 2) as usize,
            fanout: 2,
            leaves: rng.range(3, 5) as usize,
            shared_hot_callees: rng.range(1, 2) as usize,
            layer_width: 2,
            exprs_per_function: rng.range(4, 8) as usize,
        });
        Req::analyze(id, Kind::Module, scenario, module.to_string())
    } else {
        let func = generate(&GeneratorConfig {
            seed: rng.next_u64(),
            segments: rng.range(3, 6) as usize,
            exprs_per_segment: rng.range(4, 8) as usize,
            pressure: rng.range(4, 12) as usize,
            loops: rng.range(1, 2) as usize,
            trip_count: 40,
            memory: rng.next_u64() & 1 == 1,
            hot_vars: rng.range(0, 3) as usize,
            hot_weight: 8,
        });
        Req::analyze(id, Kind::Analyze, scenario, func.to_string())
    }
}

/// Expected response fingerprints: the spec set's for `run-scenario`,
/// a fresh engine per scenario (never the server's) for cold requests.
#[derive(Debug)]
pub struct Oracle {
    runs: BTreeMap<String, String>,
    engines: BTreeMap<String, PreparedScenario>,
}

impl Oracle {
    pub fn new(specs: &SpecSet) -> Result<Oracle, String> {
        let mut engines = BTreeMap::new();
        for (stem, cfg) in &specs.configs {
            let prepared =
                PreparedScenario::prepare(cfg.clone()).map_err(|e| format!("{stem}: {e}"))?;
            engines.insert(stem.clone(), prepared);
        }
        Ok(Oracle {
            runs: specs.expected.clone(),
            engines,
        })
    }

    /// The fresh engine of one scenario.
    pub fn engine(&self, stem: &str) -> &tadfa_core::engine::Engine {
        self.engines[stem].engine()
    }

    /// The fingerprint `req`'s response must carry.
    pub fn expected(&self, req: &Req) -> Result<String, String> {
        let opts = BatchOptions {
            workers: Some(1),
            deadline: None,
        };
        let engine = || {
            self.engines
                .get(&req.scenario)
                .map(PreparedScenario::engine)
                .ok_or_else(|| format!("no oracle engine for {}", req.scenario))
        };
        let source = || req.source.as_deref().unwrap_or("");
        match req.kind {
            Kind::Run => self
                .runs
                .get(&req.scenario)
                .cloned()
                .ok_or_else(|| format!("no expected fingerprint for {}", req.scenario)),
            Kind::Analyze => {
                let func = tadfa_ir::parse_function(source()).map_err(|e| e.to_string())?;
                let report = engine()?
                    .analyze_batch_parallel_opts(&[func], &opts)
                    .pop()
                    .expect("one function in, one report out")
                    .map_err(|e| e.to_string())?;
                Ok(hex_fingerprint(report.fingerprint()))
            }
            Kind::Module => {
                let module = tadfa_ir::parse_module(source()).map_err(|e| e.to_string())?;
                let report = engine()?
                    .analyze_module_opts(&module, &opts)
                    .map_err(|e| e.to_string())?;
                Ok(hex_fingerprint(report.fingerprint()))
            }
        }
    }

    /// Expected fingerprints for many requests, computed on `threads`
    /// threads; results are in input order.
    pub fn expected_all(&self, reqs: &[Req], threads: usize) -> Vec<Result<String, String>> {
        let chunk = reqs.len().div_ceil(threads.max(1)).max(1);
        std::thread::scope(|s| {
            let handles: Vec<_> = reqs
                .chunks(chunk)
                .map(|part| s.spawn(move || part.iter().map(|r| self.expected(r)).collect()))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| -> Vec<Result<String, String>> {
                    h.join().expect("oracle thread panicked")
                })
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stems() -> Vec<String> {
        ["a", "b", "c"].iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn one_seed_always_produces_the_same_request_bytes() {
        for index in 0..40 {
            let a = cold(11, index, &stems(), 0.25);
            let b = cold(11, index, &stems(), 0.25);
            assert_eq!(a.line, b.line);
        }
        assert_eq!(warm_order(4, &stems()), warm_order(4, &stems()));
        assert_ne!(
            cold(11, 0, &stems(), 0.25).line,
            cold(12, 0, &stems(), 0.25).line
        );
    }

    #[test]
    fn cold_requests_never_repeat_and_parse() {
        let reqs: Vec<Req> = (0..60).map(|i| cold(3, i, &stems(), 0.25)).collect();
        let mut sources: Vec<&str> = reqs.iter().map(|r| r.source.as_deref().unwrap()).collect();
        sources.sort_unstable();
        sources.dedup();
        assert_eq!(sources.len(), reqs.len());
        assert!(reqs.iter().any(|r| r.kind == Kind::Module));
        for r in &reqs {
            tadfa_serve::parse_request(&r.line).expect("request line parses");
            let src = r.source.as_deref().unwrap();
            match r.kind {
                Kind::Module => assert!(tadfa_ir::parse_module(src).is_ok()),
                _ => assert!(tadfa_ir::parse_function(src).is_ok()),
            }
        }
    }
}
