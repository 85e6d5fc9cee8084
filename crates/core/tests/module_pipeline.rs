//! The module pipeline prepares each member once: one allocation per
//! member, whichever entry point and worker count runs it, and an
//! already expired deadline stops it before it touches the cache.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tadfa_core::engine::{BatchOptions, Engine, PolicyFactory};
use tadfa_core::{ModuleReport, Session, TadfaError};
use tadfa_ir::{Module, PReg};
use tadfa_regalloc::{AssignmentPolicy, ChoiceContext};
use tadfa_workloads::{generate_module, pressure_ladder, ModuleGeneratorConfig};

/// First-free assignment that counts its resets: linear-scan allocation
/// resets the policy once per allocation round.
#[derive(Debug)]
struct CountingResets(Arc<AtomicU64>);

impl AssignmentPolicy for CountingResets {
    fn name(&self) -> &'static str {
        "counting-first-free"
    }

    fn choose(&mut self, free: &[PReg], _ctx: &ChoiceContext<'_>) -> PReg {
        free[0]
    }

    fn reset(&mut self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// A generated module plus one high-pressure member that spills on a
/// 2×2 register file and so needs more than one allocation round.
fn module() -> Module {
    let mut module = generate_module(&ModuleGeneratorConfig::default());
    let (_, hot) = pressure_ladder(&[8], 7).pop().expect("one level");
    module.push(hot).expect("a fresh name");
    module
}

fn session(policy: Box<dyn AssignmentPolicy>) -> Session {
    Session::builder()
        .floorplan(2, 2)
        .policy(policy)
        .build()
        .expect("valid session")
}

fn rounds(report: &ModuleReport) -> u64 {
    report
        .reports()
        .iter()
        .map(|r| r.alloc_stats.rounds as u64)
        .sum()
}

#[test]
fn every_member_is_allocated_once() {
    let module = module();
    let resets = Arc::new(AtomicU64::new(0));

    let mut s = session(Box::new(CountingResets(Arc::clone(&resets))));
    let sequential = s.analyze_module(&module).expect("module analyses");
    let total = rounds(&sequential);
    assert!(
        total > module.len() as u64,
        "some member spills, so rounds are not just one per member: {total}"
    );
    assert_eq!(resets.swap(0, Ordering::Relaxed), total, "session");

    for workers in [1, 4] {
        let counter = Arc::clone(&resets);
        let factory = PolicyFactory::custom(move || Box::new(CountingResets(Arc::clone(&counter))));
        let engine = Engine::new(s.shared_core(), factory, workers).expect("valid engine");
        for pass in ["cold", "warm"] {
            let report = engine.analyze_module(&module).expect("module analyses");
            assert_eq!(report.fingerprint(), sequential.fingerprint());
            assert_eq!(
                resets.swap(0, Ordering::Relaxed),
                rounds(&report),
                "workers={workers} {pass}"
            );
        }
    }
}

#[test]
fn expired_deadline_stops_a_cold_module_before_the_cache() {
    let module = module();
    let s = Session::builder()
        .floorplan(4, 4)
        .build()
        .expect("valid session");
    let engine = Engine::from_session(&s, 2).expect("valid engine");
    let before = engine.cache_stats();
    let expired = BatchOptions {
        workers: None,
        deadline: Some(Instant::now() - Duration::from_millis(1)),
    };
    assert!(matches!(
        engine.analyze_module_opts(&module, &expired),
        Err(TadfaError::DeadlineExceeded)
    ));
    assert_eq!(engine.cache_stats(), before, "no member was prepared");
    // The refused call left nothing behind: a later one runs cold.
    engine.analyze_module(&module).expect("module analyses");
    assert!(engine.cache_stats().summary_stores > 0);
}
