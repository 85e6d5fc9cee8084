//! The parallel batch analysis engine.
//!
//! The paper's pitch is that thermal prediction is cheap enough to run
//! inside a compiler for *every* function — which at production scale
//! means batches of thousands of functions and whole modules.
//! [`Session::analyze_batch`] runs those one at a time on one core; an
//! [`Engine`] runs them on a worker pool.
//!
//! # Threading model
//!
//! An engine wraps a validated [`SessionCore`] in an [`Arc`] and, per
//! batch call, spawns `workers` scoped threads over a shared atomic
//! work index:
//!
//! * **Shared, read-only:** the core (register file, analysis grid with
//!   its RC model *and* its compiled solver plan — one
//!   [`CompiledModel`](tadfa_thermal::CompiledModel) behind an `Arc`,
//!   stepped by every worker) and the [`SolveCache`].
//! * **Per worker:** one reusable [`DfaScratch`] — the solver's step
//!   scratch, whose sparse power buffer is reset in O(accesses) per
//!   instruction.
//! * **Per item:** an independent `Result` slot — a function that fails
//!   allocation produces its own `Err` without disturbing the rest of
//!   the batch, and results are returned in input order regardless of
//!   which worker finished first. A batch item allocates under a
//!   freshly instantiated policy from the engine's [`PolicyFactory`];
//!   a module member was already allocated, once, by the sequential
//!   summary phase that precedes the pool (see
//!   [`Engine::analyze_module`]).
//!
//! Because every allocation starts from the same policy state and the
//! solve cache keys on exact bits, the engine's reports are
//! **byte-identical** to the sequential session's, in the same order —
//! `tests/engine_parallel.rs` asserts this fingerprint by fingerprint.
//!
//! # Example
//!
//! ```
//! use tadfa_core::engine::Engine;
//! use tadfa_core::Session;
//!
//! let session = Session::builder().floorplan(8, 8).build()?;
//! let engine = Engine::from_session(&session, 4)?;
//!
//! let funcs: Vec<_> = tadfa_workloads::standard_suite()
//!     .into_iter()
//!     .map(|w| w.func)
//!     .collect();
//! let reports = engine.analyze_batch_parallel(&funcs);
//! assert_eq!(reports.len(), funcs.len());
//! assert!(reports.iter().all(|r| r.is_ok()));
//! # Ok::<(), tadfa_core::TadfaError>(())
//! ```

use crate::cache::{CacheStats, SolveCache};
use crate::dfa::DfaScratch;
use crate::error::TadfaError;
use crate::session::{ModuleReport, Prepared, Session, SessionCore, ThermalReport};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tadfa_ir::{Function, Module};
use tadfa_regalloc::{policy_by_name, AssignmentPolicy};
use tadfa_thermal::RegisterFile;

/// Recreates the assignment policy for every batch item and every
/// module call, so each starts from the same initial policy state no
/// matter which worker picks it up.
#[derive(Clone)]
pub struct PolicyFactory {
    inner: FactoryInner,
}

#[derive(Clone)]
enum FactoryInner {
    Named { name: String, seed: u64 },
    Custom(Arc<dyn Fn() -> Box<dyn AssignmentPolicy> + Send + Sync>),
}

impl std::fmt::Debug for PolicyFactory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            FactoryInner::Named { name, seed } => write!(f, "PolicyFactory({name:?}, {seed})"),
            FactoryInner::Custom(_) => write!(f, "PolicyFactory(custom)"),
        }
    }
}

impl PolicyFactory {
    /// A factory for a built-in policy (see
    /// [`tadfa_regalloc::POLICY_NAMES`]). The name is validated when the
    /// engine is built, not here.
    pub fn named(name: &str, seed: u64) -> PolicyFactory {
        PolicyFactory {
            inner: FactoryInner::Named {
                name: name.to_string(),
                seed,
            },
        }
    }

    /// A factory from a closure — the escape hatch for policies outside
    /// the built-in set. The closure must produce an identically
    /// initialised policy on every call or the engine's determinism
    /// guarantee is forfeit.
    pub fn custom(
        f: impl Fn() -> Box<dyn AssignmentPolicy> + Send + Sync + 'static,
    ) -> PolicyFactory {
        PolicyFactory {
            inner: FactoryInner::Custom(Arc::new(f)),
        }
    }

    /// Instantiates one policy object.
    ///
    /// # Errors
    ///
    /// Returns [`TadfaError::UnknownPolicy`] for an unrecognised name.
    pub fn instantiate(&self, rf: &RegisterFile) -> Result<Box<dyn AssignmentPolicy>, TadfaError> {
        match &self.inner {
            FactoryInner::Named { name, seed } => policy_by_name(name, rf, *seed)
                .ok_or_else(|| TadfaError::UnknownPolicy(name.clone())),
            FactoryInner::Custom(f) => Ok(f()),
        }
    }
}

/// Request-scoped overrides for one batch call — the knobs a long-lived
/// service applies per request without rebuilding the engine (or
/// discarding its warm [`SolveCache`]).
///
/// Neither knob can change a computed result: the worker count only
/// moves wall-clock time (results stay input-ordered and
/// byte-identical), and a deadline only turns *unstarted* items into
/// [`TadfaError::DeadlineExceeded`] — every item that does run produces
/// exactly the bytes it would have produced without the deadline.
#[derive(Copy, Clone, Debug, Default)]
pub struct BatchOptions {
    /// Worker threads for this call only; `None` keeps the engine's
    /// count, `Some(0)` is clamped to 1.
    pub workers: Option<usize>,
    /// Abandon items not yet started once this instant passes.
    pub deadline: Option<Instant>,
}

impl BatchOptions {
    /// Whether the deadline (if any) has already passed.
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// A parallel batch analysis engine over a shared [`SessionCore`].
///
/// See the [module docs](self) for the threading model and an example.
/// Construct with [`Engine::from_session`] (shares the session's
/// validated core and recreates its named policy per worker) or
/// [`Engine::new`] for explicit control.
#[derive(Debug)]
pub struct Engine {
    core: Arc<SessionCore>,
    factory: PolicyFactory,
    workers: usize,
    cache: SolveCache,
}

impl Engine {
    /// An engine over an explicit core and policy factory.
    ///
    /// # Errors
    ///
    /// * [`TadfaError::InvalidConfig`] for `workers == 0`;
    /// * [`TadfaError::UnknownPolicy`] if the factory names a policy
    ///   that does not exist (checked now, not per item).
    pub fn new(
        core: Arc<SessionCore>,
        factory: PolicyFactory,
        workers: usize,
    ) -> Result<Engine, TadfaError> {
        if workers == 0 {
            return Err(TadfaError::InvalidConfig {
                param: "workers",
                value: 0.0,
                reason: "engine needs at least one worker",
            });
        }
        // Validate the factory once up front so batch items never fail
        // on engine configuration.
        let _ = factory.instantiate(core.register_file())?;
        Ok(Engine {
            core,
            factory,
            workers,
            cache: SolveCache::new(),
        })
    }

    /// An engine sharing `session`'s core (a snapshot — later `set_*`
    /// calls on the session do not reach the engine) and recreating its
    /// policy per worker.
    ///
    /// # Errors
    ///
    /// * [`TadfaError::UnsharablePolicy`] if the session's policy was
    ///   installed as an object ([`SessionBuilder::policy`](crate::SessionBuilder::policy) /
    ///   [`Session::set_policy`]) and therefore cannot be recreated per
    ///   worker — use a named policy or [`Engine::new`] with a
    ///   [`PolicyFactory::custom`];
    /// * [`TadfaError::InvalidConfig`] for `workers == 0`.
    pub fn from_session(session: &Session, workers: usize) -> Result<Engine, TadfaError> {
        let (name, seed) = session
            .policy_spec()
            .ok_or_else(|| TadfaError::UnsharablePolicy(session.policy_name().to_string()))?;
        Engine::new(
            session.shared_core(),
            PolicyFactory::named(name, seed),
            workers,
        )
    }

    /// The worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The shared analysis core.
    pub fn core(&self) -> &SessionCore {
        &self.core
    }

    /// Hit/miss/occupancy counters of the solve cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Empties the solve cache and zeroes its counters (for cold-start
    /// measurements).
    pub fn clear_cache(&self) {
        self.cache.clear()
    }

    /// The engine's solve cache — direct access for persistence tiers
    /// that spill new entries to disk and preload them on restart.
    pub fn cache(&self) -> &SolveCache {
        &self.cache
    }

    /// Analyzes a batch of functions on the worker pool.
    ///
    /// Results come back in input order, one independent `Result` per
    /// function, byte-identical to what
    /// [`Session::analyze_batch`] produces for the same core — only
    /// faster: items run concurrently and repeated RC solves are
    /// answered from the engine's cache.
    pub fn analyze_batch_parallel(
        &self,
        funcs: &[Function],
    ) -> Vec<Result<ThermalReport, TadfaError>> {
        self.analyze_batch_parallel_opts(funcs, &BatchOptions::default())
    }

    /// [`Engine::analyze_batch_parallel`] with request-scoped
    /// [`BatchOptions`]: a per-call worker count and/or a deadline past
    /// which unstarted items come back as
    /// [`TadfaError::DeadlineExceeded`]. Items that run are
    /// byte-identical to an unoptioned call.
    pub fn analyze_batch_parallel_opts(
        &self,
        funcs: &[Function],
        opts: &BatchOptions,
    ) -> Vec<Result<ThermalReport, TadfaError>> {
        self.execute(funcs.len(), opts, |i, scratch| {
            let mut policy = self.factory.instantiate(self.core.register_file())?;
            self.core
                .analyze_with(&funcs[i], policy.as_mut(), scratch, Some(&self.cache))
        })
    }

    /// Analyzes a whole module on the worker pool, byte-identical to
    /// [`Session::analyze_module`] and invariant under the worker
    /// count.
    ///
    /// Two phases: first the call graph's condensation is walked
    /// bottom-up **sequentially**, allocating every function once and
    /// memoising its [`ThermalSummary`](crate::ThermalSummary) in the
    /// engine's cache — cheap, solver-free work whose order callers
    /// depend on; then every function's fixpoint report runs **in
    /// parallel** from that same preparation, each call site replaying
    /// its callee's summary. Repeated bodies — within the module or
    /// across calls — are answered from the summary memo and the solve
    /// cache ([`Engine::cache_stats`] exposes both).
    ///
    /// # Errors
    ///
    /// Returns [`TadfaError::Verify`] if the module fails verification
    /// (unknown callee, call arity mismatch, recursive call cycle) and
    /// the first member error otherwise — unlike the independent items
    /// of a batch, a module's reports stand together.
    pub fn analyze_module(&self, module: &Module) -> Result<ModuleReport, TadfaError> {
        self.analyze_module_opts(module, &BatchOptions::default())
    }

    /// [`Engine::analyze_module`] with request-scoped [`BatchOptions`].
    /// A deadline that expires mid-module fails the whole call with
    /// [`TadfaError::DeadlineExceeded`] (module reports are
    /// all-or-nothing); it is checked before each member of either
    /// phase, so an already expired deadline touches no cache counter.
    pub fn analyze_module_opts(
        &self,
        module: &Module,
        opts: &BatchOptions,
    ) -> Result<ModuleReport, TadfaError> {
        let mut policy = self.factory.instantiate(self.core.register_file())?;
        let members: Vec<Mutex<Option<Prepared<'_>>>> = self
            .core
            .prepare_module(module, policy.as_mut(), Some(&self.cache), opts.deadline)?
            .into_iter()
            .map(|m| Mutex::new(Some(m)))
            .collect();
        let reports = self
            .execute(members.len(), opts, |i, scratch| {
                let member = members[i]
                    .lock()
                    .expect("member slot poisoned")
                    .take()
                    .expect("every member index is claimed exactly once");
                self.core
                    .analyze_prepared(member, scratch, Some(&self.cache))
            })
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ModuleReport::from_parts(
            module.names().map(String::from).collect(),
            reports,
        ))
    }

    /// The worker pool: scoped threads pulling indices `0..n` off a
    /// shared atomic counter, each with its own scratch buffers,
    /// writing `run(i, scratch)` into per-slot result cells so output
    /// order equals index order. A passed deadline turns every
    /// not-yet-claimed index into [`TadfaError::DeadlineExceeded`]
    /// without calling `run` (checked per claim, so the remainder
    /// drains in microseconds).
    fn execute(
        &self,
        n: usize,
        opts: &BatchOptions,
        run: impl Fn(usize, &mut DfaScratch) -> Result<ThermalReport, TadfaError> + Sync,
    ) -> Vec<Result<ThermalReport, TadfaError>> {
        if n == 0 {
            return Vec::new();
        }
        let workers = opts.workers.unwrap_or(self.workers).max(1).min(n);
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<ThermalReport, TadfaError>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut scratch = DfaScratch::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let result = if opts.expired() {
                            Err(TadfaError::DeadlineExceeded)
                        } else {
                            run(i, &mut scratch)
                        };
                        *slots[i].lock().expect("result slot poisoned") = Some(result);
                    }
                });
            }
        });

        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("every index was claimed exactly once")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tadfa_ir::FunctionBuilder;

    fn kernel(muls: usize) -> Function {
        let mut b = FunctionBuilder::new("k");
        let x = b.param();
        let mut v = x;
        for _ in 0..muls {
            v = b.mul(v, v);
        }
        b.ret(Some(v));
        b.finish()
    }

    fn session() -> Session {
        Session::builder()
            .floorplan(4, 4)
            .policy_name("round-robin", 0)
            .build()
            .unwrap()
    }

    #[test]
    fn engine_matches_sequential_session() {
        let mut s = session();
        let funcs: Vec<Function> = (2..8).map(kernel).collect();
        let sequential: Vec<u128> = s
            .analyze_batch(&funcs)
            .into_iter()
            .map(|r| r.unwrap().fingerprint())
            .collect();

        for workers in [1, 3] {
            let engine = Engine::from_session(&s, workers).unwrap();
            let parallel: Vec<u128> = engine
                .analyze_batch_parallel(&funcs)
                .into_iter()
                .map(|r| r.unwrap().fingerprint())
                .collect();
            assert_eq!(sequential, parallel, "workers={workers}");
        }
    }

    #[test]
    fn batch_options_override_workers_without_moving_results() {
        let s = session();
        let engine = Engine::from_session(&s, 2).unwrap();
        let funcs: Vec<Function> = (2..6).map(kernel).collect();
        let base: Vec<u128> = engine
            .analyze_batch_parallel(&funcs)
            .into_iter()
            .map(|r| r.unwrap().fingerprint())
            .collect();
        for workers in [Some(0), Some(1), Some(7)] {
            let opts = BatchOptions {
                workers,
                deadline: None,
            };
            let got: Vec<u128> = engine
                .analyze_batch_parallel_opts(&funcs, &opts)
                .into_iter()
                .map(|r| r.unwrap().fingerprint())
                .collect();
            assert_eq!(base, got, "workers={workers:?}");
        }
    }

    #[test]
    fn expired_deadline_abandons_unstarted_items_cleanly() {
        let s = session();
        let engine = Engine::from_session(&s, 2).unwrap();
        let funcs: Vec<Function> = (2..6).map(kernel).collect();
        let opts = BatchOptions {
            workers: None,
            deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
        };
        let results = engine.analyze_batch_parallel_opts(&funcs, &opts);
        assert_eq!(results.len(), funcs.len());
        for r in results {
            assert!(matches!(r, Err(TadfaError::DeadlineExceeded)));
        }
        // A generous deadline changes nothing.
        let opts = BatchOptions {
            workers: None,
            deadline: Some(Instant::now() + std::time::Duration::from_secs(3600)),
        };
        assert!(engine
            .analyze_batch_parallel_opts(&funcs, &opts)
            .iter()
            .all(|r| r.is_ok()));
    }

    #[test]
    fn zero_workers_is_an_error() {
        let s = session();
        let e = Engine::from_session(&s, 0).unwrap_err();
        assert!(matches!(
            e,
            TadfaError::InvalidConfig {
                param: "workers",
                ..
            }
        ));
    }

    #[test]
    fn boxed_policy_is_unsharable() {
        let s = Session::builder()
            .policy(Box::new(tadfa_regalloc::FirstFree))
            .build()
            .unwrap();
        let e = Engine::from_session(&s, 2).unwrap_err();
        assert!(matches!(e, TadfaError::UnsharablePolicy(ref n) if n == "first-free"));
    }

    #[test]
    fn unknown_factory_name_fails_at_construction() {
        let s = session();
        let e = Engine::new(s.shared_core(), PolicyFactory::named("bogus", 0), 2).unwrap_err();
        assert!(matches!(e, TadfaError::UnknownPolicy(ref n) if n == "bogus"));
    }

    #[test]
    fn custom_factory_runs() {
        let s = session();
        let engine = Engine::new(
            s.shared_core(),
            PolicyFactory::custom(|| Box::new(tadfa_regalloc::FirstFree)),
            2,
        )
        .unwrap();
        let reports = engine.analyze_batch_parallel(&[kernel(3)]);
        assert!(reports[0].is_ok());
    }

    #[test]
    fn empty_batch_is_empty() {
        let engine = Engine::from_session(&session(), 2).unwrap();
        assert!(engine.analyze_batch_parallel(&[]).is_empty());
    }

    #[test]
    fn cache_warms_across_batches() {
        let engine = Engine::from_session(&session(), 2).unwrap();
        let funcs = vec![kernel(5), kernel(5), kernel(5)];
        let cold: Vec<u128> = engine
            .analyze_batch_parallel(&funcs)
            .into_iter()
            .map(|r| r.unwrap().fingerprint())
            .collect();
        let after_cold = engine.cache_stats();
        assert!(after_cold.entries > 0, "{after_cold:?}");
        assert!(
            after_cold.hits > 0,
            "identical kernels hit within one batch: {after_cold:?}"
        );

        let warm: Vec<u128> = engine
            .analyze_batch_parallel(&funcs)
            .into_iter()
            .map(|r| r.unwrap().fingerprint())
            .collect();
        assert_eq!(cold, warm, "warm cache is byte-identical");
        let after_warm = engine.cache_stats();
        assert!(after_warm.hits > after_cold.hits);

        engine.clear_cache();
        assert_eq!(engine.cache_stats().entries, 0);
    }

    #[test]
    fn module_analysis_matches_sequential_and_any_worker_count() {
        let mut callee = FunctionBuilder::new("hot");
        let x = callee.param();
        let mut v = x;
        for _ in 0..5 {
            v = callee.mul(v, v);
        }
        callee.ret(Some(v));
        let mut funcs = vec![callee.finish()];
        for i in 0..3 {
            let mut b = FunctionBuilder::new(format!("caller{i}"));
            let x = b.param();
            let r = b.call("hot", &[x]);
            let z = b.add(r, x);
            b.ret(Some(z));
            funcs.push(b.finish());
        }
        let module = Module::from_functions(funcs).unwrap();

        let mut s = session();
        let sequential = s.analyze_module(&module).unwrap().fingerprint();
        for workers in [1, 4, 7] {
            let engine = Engine::from_session(&s, workers).unwrap();
            let cold = engine.analyze_module(&module).unwrap().fingerprint();
            let warm = engine.analyze_module(&module).unwrap().fingerprint();
            assert_eq!(sequential, cold, "workers={workers}");
            assert_eq!(cold, warm, "workers={workers} warm");
            let stats = engine.cache_stats();
            assert!(stats.summary_stores > 0, "{stats:?}");
            assert!(stats.summary_hits > 0, "warm pass reuses: {stats:?}");
        }
    }
}
