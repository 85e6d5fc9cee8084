//! The fleet router: one JSON-lines front door over N workers.
//!
//! The router speaks **exactly** the `tadfa-serve` protocol — a fleet
//! is a drop-in replacement for a single process, and `tadfa-load`
//! drives both with the same bytes. Behind the socket it shards: each
//! analysis request is hashed ([`shard_of`] — scenario stem for
//! `run-scenario`, so a scenario's cache warms in *one* worker;
//! stem + source for `analyze`/`analyze-module`, so ad-hoc load
//! spreads) to a **primary** worker, with the next slot as designated
//! **backup**. The forward itself rides pooled connections with one
//! in-flight request per connection, a per-attempt timeout, and a
//! bounded retry loop: connection errors and the worker's retryable
//! rejections (`queue-full`, `slo-shed`, `shutting-down`) trigger
//! capped exponential backoff with deterministic jitter, alternating
//! primary and backup. Because the solve is deterministic and golden
//! -verified, a failover answer is byte-identical to the primary's —
//! failure costs latency, never bytes.
//!
//! Degradation is graceful and typed: when the router's own admission
//! queue is full, or when another retry could not land inside the
//! request's deadline, the client gets
//! [`crate::protocol::kind::FLEET_OVERLOADED`]
//! — retryable, explicit, and cheap — never a hang and never a
//! silently dropped request.
//!
//! Client connections ride `tadfa-serve`'s connection layer, so `ping`
//! and `shutdown` (which tears the whole fleet down) are answered
//! inline and every other op waits in the router's admission queue.
//! Forwarders answer `stats` by merging every worker's counters (summed
//! per scenario stem, so single-process gates like "total `preloaded`
//! after restart" keep working unchanged against a fleet) plus a `fleet`
//! section with per-worker health/restart/generation detail, and
//! `reload` by broadcasting it.

use crate::fleet::{FleetState, WorkerSlot};
use crate::protocol::{self, kind, Op};
use crate::queue::RejectReason;
use crate::reactor::{self, write_line, Admission, Job, LineHandler};
use crate::service::ServerConfig;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// FNV-1a 64 — the shard hash (stable across processes and runs, no
/// dependency on the std hasher's per-process seed).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The primary worker index for a scenario stem in an `n`-worker
/// fleet. Public so chaos harnesses can aim at (or away from) the
/// worker that owns a given scenario's keyspace; the backup is always
/// `(shard_of(..) + 1) % n`.
pub fn shard_of(scenario: &str, workers: usize) -> usize {
    (fnv1a64(scenario.as_bytes()) % workers.max(1) as u64) as usize
}

/// The shard hash for one request op (`None` for ops the router
/// handles itself rather than forwarding to one worker).
fn shard_key(op: &Op) -> Option<u64> {
    match op {
        Op::RunScenario { scenario, .. } => Some(fnv1a64(scenario.as_bytes())),
        Op::Analyze {
            scenario, source, ..
        }
        | Op::AnalyzeModule {
            scenario, source, ..
        } => {
            let mut h = fnv1a64(scenario.as_bytes());
            h ^= fnv1a64(source.as_bytes());
            Some(h)
        }
        Op::Stats | Op::Reload | Op::Ping | Op::Shutdown => None,
    }
}

/// Routing, retry, and shedding knobs.
#[derive(Clone, Debug)]
pub struct RouterPolicy {
    /// Router admission-queue slots (overflow is shed as
    /// `fleet-overloaded`).
    pub queue_capacity: usize,
    /// Forwarder threads draining the queue.
    pub forwarders: usize,
    /// Per-connect timeout when dialing a worker.
    pub connect_timeout_ms: u64,
    /// Deadline applied when a request does not carry `deadline_ms`.
    pub default_deadline_ms: u64,
    /// Cap on any single forward attempt (so one hung worker burns one
    /// attempt, not the whole deadline).
    pub attempt_timeout_ms: u64,
    /// Retries after the first attempt before the request is shed.
    pub max_retries: u32,
    /// First backoff; doubles per attempt.
    pub backoff_base_ms: u64,
    /// Backoff ceiling.
    pub backoff_cap_ms: u64,
    /// Longest accepted request line.
    pub max_line_bytes: usize,
}

impl Default for RouterPolicy {
    fn default() -> RouterPolicy {
        RouterPolicy {
            queue_capacity: 64,
            forwarders: 8,
            connect_timeout_ms: 1_000,
            default_deadline_ms: 30_000,
            attempt_timeout_ms: 5_000,
            max_retries: 5,
            backoff_base_ms: 20,
            backoff_cap_ms: 1_000,
            max_line_bytes: 1 << 20,
        }
    }
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("workers", &self.state.worker_count())
            .field("queue", &self.admission.queue.stats())
            .finish()
    }
}

/// The fleet front-end. Share via `Arc`; [`Router::run_forwarders`]
/// starts the drain threads and [`Router::serve`] runs the connection
/// layer until shutdown.
pub struct Router {
    state: Arc<FleetState>,
    policy: RouterPolicy,
    admission: Admission,
    forwarded: AtomicU64,
    retries: AtomicU64,
    failovers: AtomicU64,
}

impl Router {
    /// A router over a fleet's shared state.
    pub fn new(state: Arc<FleetState>, policy: RouterPolicy) -> Arc<Router> {
        let queue_capacity = policy.queue_capacity;
        Arc::new(Router {
            state,
            policy,
            admission: Admission::new(queue_capacity),
            forwarded: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
        })
    }

    /// Starts the forwarder threads that drain the admission queue.
    pub fn run_forwarders(self: &Arc<Router>) -> Vec<std::thread::JoinHandle<()>> {
        (0..self.policy.forwarders.max(1))
            .map(|_| {
                let router = Arc::clone(self);
                std::thread::spawn(move || {
                    while let Some(job) = router.admission.queue.pop() {
                        let response = match job.request.op {
                            Op::Stats => router.fleet_stats(job.request.id),
                            Op::Reload => router.broadcast_reload(job.request.id),
                            _ => router.forward(&job),
                        };
                        let ok = protocol::parse_response(&response)
                            .map(|r| r.ok)
                            .unwrap_or(false);
                        router.admission.record(ok, job.admitted);
                        write_line(&job.out, &response);
                    }
                })
            })
            .collect()
    }

    /// Serves client connections on `listener` until a client
    /// `shutdown`, through `tadfa-serve`'s connection layer with the
    /// policy's line cap and the server's other connection defaults.
    ///
    /// # Errors
    ///
    /// Only setting up (the reactor's wake sockets, the listener's
    /// nonblocking mode) can fail; accept errors are logged and
    /// survived.
    pub fn serve(self: &Arc<Router>, listener: TcpListener) -> std::io::Result<()> {
        let cfg = ServerConfig {
            max_line_bytes: self.policy.max_line_bytes,
            ..ServerConfig::default()
        };
        reactor::serve(Arc::clone(self), listener, &cfg)
    }

    /// Forwards one job to its shard with deadline-aware bounded retry
    /// and primary/backup alternation; always returns a response line.
    fn forward(&self, job: &Job) -> String {
        let workers = self.state.worker_count();
        let key = shard_key(&job.request.op).expect("stats and reload are not forwarded");
        let primary = (key % workers as u64) as usize;
        let backup = (primary + 1) % workers;
        let deadline_ms = match &job.request.op {
            Op::RunScenario { deadline_ms, .. }
            | Op::Analyze { deadline_ms, .. }
            | Op::AnalyzeModule { deadline_ms, .. } => {
                deadline_ms.unwrap_or(self.policy.default_deadline_ms)
            }
            _ => self.policy.default_deadline_ms,
        };
        let deadline = job.admitted + Duration::from_millis(deadline_ms.max(1));
        let attempt_cap = Duration::from_millis(self.policy.attempt_timeout_ms.max(1));

        let mut attempt: u32 = 0;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return self.shed_response(job, attempt, "deadline passed");
            }
            let remaining = deadline - now;
            // Alternate preference between primary and backup so a
            // flapping primary doesn't absorb every retry.
            let order = if attempt.is_multiple_of(2) {
                [primary, backup]
            } else {
                [backup, primary]
            };
            let slot = order
                .iter()
                .map(|&i| &self.state.slots()[i])
                .find(|s| s.routable());
            if let Some(slot) = slot {
                if attempt > 0 {
                    self.retries.fetch_add(1, Ordering::Relaxed);
                }
                match call_worker(
                    slot,
                    &job.line,
                    remaining.min(attempt_cap),
                    Duration::from_millis(self.policy.connect_timeout_ms.max(1)),
                ) {
                    Ok(response) => {
                        let retryable = protocol::parse_response(&response)
                            .ok()
                            .and_then(|r| r.error)
                            .is_some_and(|e| {
                                e == kind::QUEUE_FULL
                                    || e == kind::SLO_SHED
                                    || e == kind::SHUTTING_DOWN
                            });
                        if !retryable {
                            self.forwarded.fetch_add(1, Ordering::Relaxed);
                            slot.count_forward();
                            if slot.index() != primary {
                                self.failovers.fetch_add(1, Ordering::Relaxed);
                            }
                            return response;
                        }
                        // Worker said "not now": back off and retry.
                    }
                    Err(_) => {
                        // Connection-level failure: the connection was
                        // dropped by `call_worker`; back off and retry
                        // (possibly against the backup).
                    }
                }
            }
            attempt += 1;
            if attempt > self.policy.max_retries {
                return self.shed_response(job, attempt, "retry budget exhausted");
            }
            let backoff = backoff_for(&self.policy, job.request.id, attempt);
            if Instant::now() + backoff >= deadline {
                return self.shed_response(job, attempt, "next retry would breach the deadline");
            }
            std::thread::sleep(backoff);
        }
    }

    /// The typed graceful-degradation response.
    fn shed_response(&self, job: &Job, attempts: u32, why: &str) -> String {
        self.admission.shed.fetch_add(1, Ordering::Relaxed);
        protocol::error_response(
            Some(job.request.id),
            kind::FLEET_OVERLOADED,
            &format!("fleet overloaded after {attempts} attempt(s): {why}"),
        )
    }

    /// Broadcasts `reload` to every routable worker; ok only if every
    /// one of them reloaded.
    fn broadcast_reload(&self, id: u64) -> String {
        let line = format!("{{\"id\": {id}, \"op\": \"reload\"}}");
        let timeout = Duration::from_millis(self.policy.default_deadline_ms.max(1));
        let connect = Duration::from_millis(self.policy.connect_timeout_ms.max(1));
        let mut scenarios: Option<u64> = None;
        let mut reloaded = 0usize;
        for slot in self.state.slots() {
            if !slot.routable() {
                continue;
            }
            let parsed = call_worker(slot, &line, timeout, connect)
                .ok()
                .and_then(|r| protocol::parse_response(&r).ok());
            match parsed {
                Some(r) if r.ok => {
                    reloaded += 1;
                    if scenarios.is_none() {
                        scenarios = r
                            .doc
                            .get("scenarios")
                            .and_then(|v| v.as_f64())
                            .map(|n| n as u64);
                    }
                }
                _ => {
                    return protocol::error_response(
                        Some(id),
                        kind::RELOAD_FAILED,
                        &format!("worker-{} failed to reload", slot.index()),
                    )
                }
            }
        }
        if reloaded == 0 {
            return protocol::error_response(Some(id), kind::RELOAD_FAILED, "no routable workers");
        }
        protocol::reload_response(id, scenarios.unwrap_or(0) as usize)
    }

    /// The merged fleet `stats` response: per-scenario counters summed
    /// across workers (same shape as a single worker's, so existing
    /// clients and gates work unchanged), the router's own queue and
    /// latency, and a `fleet` section with per-worker detail.
    fn fleet_stats(&self, id: u64) -> String {
        use tadfa_sched::json::JsonValue;

        let line = "{\"id\": 0, \"op\": \"stats\"}";
        let timeout = Duration::from_millis(self.policy.attempt_timeout_ms.max(1));
        let connect = Duration::from_millis(self.policy.connect_timeout_ms.max(1));

        // stem -> section ("cache"/"persist"/"" for top-level counters)
        // -> field -> sum. Stems keep first-appearance order.
        let mut stem_order: Vec<String> = Vec::new();
        let mut merged: BTreeMap<String, BTreeMap<&'static str, BTreeMap<String, u64>>> =
            BTreeMap::new();
        let mut workers_json = String::new();

        for (i, slot) in self.state.slots().iter().enumerate() {
            let snap = slot.snapshot();
            let doc = if snap.addr.is_some() {
                call_worker(slot, line, timeout, connect)
                    .ok()
                    .and_then(|r| protocol::parse_response(&r).ok())
                    .filter(|r| r.ok)
                    .map(|r| r.doc)
            } else {
                None
            };
            let (mut preloaded, mut entries) = (0u64, 0u64);
            if let Some(doc) = &doc {
                if let Some(list) = doc.get("scenarios").and_then(JsonValue::as_array) {
                    for sc in list {
                        let Some(stem) = sc.get("name").and_then(JsonValue::as_str) else {
                            continue;
                        };
                        if !merged.contains_key(stem) {
                            stem_order.push(stem.to_string());
                        }
                        let per_stem = merged.entry(stem.to_string()).or_default();
                        for section in ["cache", "persist"] {
                            let Some(obj) = sc.get(section).and_then(JsonValue::as_object) else {
                                continue;
                            };
                            let sums = per_stem.entry(section).or_default();
                            for (field, value) in obj {
                                if let Some(n) = value.as_f64() {
                                    *sums.entry(field.clone()).or_insert(0) += n as u64;
                                }
                            }
                        }
                        let top = per_stem.entry("").or_default();
                        for field in ["runs", "analyzes", "module_analyzes"] {
                            if let Some(n) = sc.get(field).and_then(JsonValue::as_f64) {
                                *top.entry(field.to_string()).or_insert(0) += n as u64;
                            }
                        }
                        let cache = sc.get("cache");
                        preloaded += cache
                            .and_then(|c| c.get("preloaded"))
                            .and_then(JsonValue::as_f64)
                            .unwrap_or(0.0) as u64;
                        entries += cache
                            .and_then(|c| c.get("entries"))
                            .and_then(JsonValue::as_f64)
                            .unwrap_or(0.0) as u64;
                    }
                }
            }
            if i > 0 {
                workers_json.push_str(", ");
            }
            let (probes, probe_failures) = snap.probe_counts;
            workers_json.push_str(&format!(
                "{{\"worker\": {}, \"state\": \"{}\", \"pid\": {}, \"generation\": {}, \
                 \"restarts\": {}, \"forwarded\": {}, \"probes\": {}, \
                 \"probe_failures\": {}, \"preloaded\": {}, \"entries\": {}}}",
                snap.index,
                snap.state.name(),
                snap.pid
                    .map_or_else(|| "null".to_string(), |p| p.to_string()),
                snap.generation,
                snap.restarts,
                snap.forwarded,
                probes,
                probe_failures,
                preloaded,
                entries,
            ));
        }

        let mut scenarios = String::new();
        for (i, stem) in stem_order.iter().enumerate() {
            if i > 0 {
                scenarios.push_str(", ");
            }
            let per_stem = &merged[stem];
            let top = |f: &str| {
                per_stem
                    .get("")
                    .and_then(|m| m.get(f))
                    .copied()
                    .unwrap_or(0)
            };
            scenarios.push_str(&format!(
                "{{\"name\": {}, \"runs\": {}, \"analyzes\": {}, \"module_analyzes\": {}",
                tadfa_sched::json::escape(stem),
                top("runs"),
                top("analyzes"),
                top("module_analyzes"),
            ));
            for section in ["cache", "persist"] {
                let Some(sums) = per_stem.get(section) else {
                    continue;
                };
                scenarios.push_str(&format!(", \"{section}\": {{"));
                for (j, (field, sum)) in sums.iter().enumerate() {
                    if j > 0 {
                        scenarios.push_str(", ");
                    }
                    scenarios.push_str(&format!("\"{field}\": {sum}"));
                }
                scenarios.push('}');
            }
            scenarios.push('}');
        }

        format!(
            "{{\"id\": {id}, \"ok\": true, \"op\": \"stats\", \"scenarios\": [{scenarios}], \
             \"fleet\": {{\"workers\": [{workers_json}], \
             \"router\": {{\"forwarded\": {}, \"retries\": {}, \"failovers\": {}, \
             \"shed\": {}}}}}, {}}}",
            self.forwarded.load(Ordering::Relaxed),
            self.retries.load(Ordering::Relaxed),
            self.failovers.load(Ordering::Relaxed),
            self.admission.shed.load(Ordering::Relaxed),
            self.admission.stats_blocks(0),
        )
    }
}

impl LineHandler for Router {
    const KEEPS_LINE: bool = true;

    fn admission(&self) -> &Admission {
        &self.admission
    }

    /// A full queue sheds the request as `fleet-overloaded` (counted).
    fn rejection(&self, reason: RejectReason) -> (&'static str, String) {
        match reason {
            RejectReason::Full => {
                self.admission.shed.fetch_add(1, Ordering::Relaxed);
                (
                    kind::FLEET_OVERLOADED,
                    format!(
                        "router queue full (capacity {})",
                        self.policy.queue_capacity
                    ),
                )
            }
            RejectReason::Closed => (kind::SHUTTING_DOWN, "fleet is shutting down".to_string()),
        }
    }

    fn shutdown(&self) {
        self.state.request_shutdown();
        self.admission.queue.close();
    }

    fn shutting_down(&self) -> bool {
        self.state.shutting_down()
    }
}

/// The capped exponential backoff before retry `attempt` (1-based),
/// with deterministic jitter keyed on `(id, attempt)` so a burst of
/// rejected requests does not retry in lockstep.
fn backoff_for(policy: &RouterPolicy, id: u64, attempt: u32) -> Duration {
    let base = policy
        .backoff_base_ms
        .max(1)
        .saturating_mul(1u64 << (attempt - 1).min(16))
        .min(policy.backoff_cap_ms.max(1));
    let mut seed = [0u8; 12];
    seed[..8].copy_from_slice(&id.to_le_bytes());
    seed[8..].copy_from_slice(&attempt.to_le_bytes());
    let jitter = fnv1a64(&seed) % (base / 2 + 1);
    Duration::from_millis(base + jitter)
}

/// One request/response exchange with a worker over a pooled
/// connection. A clean exchange returns the connection to the pool;
/// *any* error drops it (a half-used connection with an abandoned
/// in-flight request must never be reused).
fn call_worker(
    slot: &WorkerSlot,
    line: &str,
    timeout: Duration,
    connect_timeout: Duration,
) -> Result<String, String> {
    let (generation, stream) = slot
        .checkout(connect_timeout.min(timeout))
        .map_err(|e| format!("connect: {e}"))?;
    let exchange = (|| -> std::io::Result<String> {
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        let mut writer = &stream;
        writer.write_all(line.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        // One request in flight per connection, so read-ahead past the
        // newline cannot swallow anyone else's bytes.
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut response = String::new();
        let n = reader.read_line(&mut response)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "worker closed the connection mid-exchange",
            ));
        }
        Ok(response.trim().to_string())
    })();
    match exchange {
        Ok(response) => {
            slot.checkin(generation, stream);
            Ok(response)
        }
        Err(e) => Err(format!("exchange: {e}")), // stream dropped here
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for n in 1..=8usize {
            for stem in ["solo_baseline", "octa_shard", "files_pair", "x"] {
                let s = shard_of(stem, n);
                assert!(s < n);
                assert_eq!(s, shard_of(stem, n), "deterministic");
            }
        }
        assert_eq!(shard_of("anything", 0), 0, "worker count clamped");
    }

    #[test]
    fn scenario_requests_shard_by_stem_alone() {
        let a = shard_key(&Op::RunScenario {
            scenario: "solo_baseline".to_string(),
            workers: None,
            deadline_ms: None,
        })
        .unwrap();
        assert_eq!(a % 8, shard_of("solo_baseline", 8) as u64 % 8);
        let b = shard_key(&Op::Analyze {
            scenario: "solo_baseline".to_string(),
            source: "func @f(%0) {}".to_string(),
            workers: None,
            deadline_ms: None,
        })
        .unwrap();
        let c = shard_key(&Op::Analyze {
            scenario: "solo_baseline".to_string(),
            source: "func @g(%0) {}".to_string(),
            workers: None,
            deadline_ms: None,
        })
        .unwrap();
        assert_ne!(b, c, "analyze load spreads by source");
        assert!(shard_key(&Op::Ping).is_none());
        assert!(shard_key(&Op::Stats).is_none());
    }

    #[test]
    fn backoff_grows_caps_and_jitters_deterministically() {
        let policy = RouterPolicy {
            backoff_base_ms: 20,
            backoff_cap_ms: 1_000,
            ..RouterPolicy::default()
        };
        for attempt in 1..=12u32 {
            let base = 20u64.saturating_mul(1 << (attempt - 1).min(16)).min(1_000);
            let d = backoff_for(&policy, 7, attempt);
            assert!(
                d >= Duration::from_millis(base),
                "attempt {attempt}: {d:?} below base {base} ms"
            );
            assert!(
                d <= Duration::from_millis(base + base / 2),
                "attempt {attempt}: {d:?} above jitter ceiling"
            );
            assert_eq!(d, backoff_for(&policy, 7, attempt), "deterministic");
        }
        // Different ids jitter differently (no retry lockstep) for at
        // least some attempt.
        assert!(
            (1..=6).any(|a| backoff_for(&policy, 1, a) != backoff_for(&policy, 2, a)),
            "jitter must depend on the request id"
        );
    }

    #[test]
    fn launch_with_a_bogus_binary_fails_cleanly() {
        let fleet = crate::fleet::Fleet::launch(crate::fleet::FleetConfig {
            workers: 1,
            serve_bin: std::path::PathBuf::from("/nonexistent-tadfa-serve"),
            spawn_timeout_ms: 10,
            ..crate::fleet::FleetConfig::default()
        });
        assert!(fleet.is_err(), "bogus binary cannot launch");
    }
}
