//! The fleet supervisor: spawn, watch, and resurrect `tadfa-serve`
//! worker processes.
//!
//! One serve process is one fault domain — a SIGKILL takes the whole
//! service down until an operator notices. The fleet layer makes the
//! service *self-healing*: a [`Fleet`] spawns
//! [`FleetConfig::workers`] worker processes (each a stock
//! `tadfa-serve --listen 127.0.0.1:0` with its **own**
//! `--cache-dir` slice under [`FleetConfig::cache_root`]), and two
//! background loops keep them honest:
//!
//! * the **supervisor** ([`Fleet::run_background`]) polls every child:
//!   an exited worker is restarted after a capped exponential backoff
//!   (reset once a worker proves it can stay up), and a worker whose
//!   process is alive but whose health says [`HealthState::Dead`] — the
//!   SIGSTOP/deadlock shape a crash monitor never catches — is killed
//!   first, then restarted through the same path;
//! * the **health loop** probes every worker on a fixed cadence and
//!   drives the per-worker state machine (see [`crate::health`]) the
//!   router consults for routing and failover.
//!
//! Recovery is *warm* by construction: a restarted worker reuses its
//! slice's segment directory, so the persistent tier preloads every
//! entry its predecessor spilled, and with
//! [`FleetConfig::warm_golden`] set the worker fingerprint-verifies
//! every scenario against the committed goldens **before it starts
//! listening** — a worker rejoins rotation only after proving its
//! recovered cache still produces golden bytes. While it is down, its
//! keyspace is served by the backup worker; the solve is
//! deterministic, so failover changes latency, never bytes.
//!
//! Worker identity is tracked by **generation**: every (re)spawn bumps
//! the slot's generation, resets its health to
//! [`HealthState::Starting`], and invalidates pooled router
//! connections and in-flight probe results from the previous process —
//! stale history never vouches for a new process.

use crate::health::{
    probe, probe_kind_for, HealthState, HealthTracker, DEAD_AFTER, PROBE_INTERVAL, PROBE_TIMEOUT,
};
use crate::persist;
use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Pooled connections kept per worker; beyond this, returned
/// connections are simply dropped.
const POOL_CAP: usize = 16;

/// How long a worker must stay up before its restart backoff resets.
const STABLE_AFTER: Duration = Duration::from_secs(10);

/// Grace period after spawn before the supervisor may kill a worker on
/// the health loop's verdict (startup probes race the first listen).
const KILL_GRACE: Duration = Duration::from_secs(2);

/// Base restart backoff in ms, doubled per consecutive respawn failure
/// up to [`RESTART_BACKOFF_CAP_MS`].
const RESTART_BACKOFF_MS: u64 = 100;

/// Upper bound on the restart backoff, in ms.
const RESTART_BACKOFF_CAP_MS: u64 = 5_000;

/// How long a spawned worker may take to report its listening address
/// before the spawn is declared failed.
const SPAWN_TIMEOUT: Duration = Duration::from_secs(60);

/// How a [`Fleet`] is built.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Worker processes to run (clamped to at least 1).
    pub workers: usize,
    /// Scenario spec directory passed to every worker.
    pub scenario_dir: PathBuf,
    /// Root of the per-worker persistent cache slices: worker `i`
    /// appends under `<cache_root>/worker-<i>/` and preloads from it
    /// on every (re)start — the warm-recovery directory.
    pub cache_root: PathBuf,
    /// Where `worker-<i>.pid` files are maintained (chaos harnesses
    /// and operators read them; refreshed on every restart).
    pub state_dir: PathBuf,
    /// Passed through as each worker's `--warm-golden`: a restarted
    /// worker fingerprint-verifies every scenario before it listens,
    /// so rejoining rotation implies golden bytes.
    pub warm_golden: Option<PathBuf>,
    /// The `tadfa-serve` binary to spawn.
    pub serve_bin: PathBuf,
    /// Compact the dead worker's segment directories (dropping
    /// duplicate-key records) before each restart — the supervisor
    /// hook for [`persist::compact_dir`].
    pub compact_on_restart: bool,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            workers: 3,
            scenario_dir: PathBuf::from("scenarios"),
            cache_root: PathBuf::from("fleet-cache"),
            state_dir: PathBuf::from("fleet-state"),
            warm_golden: None,
            serve_bin: PathBuf::from("tadfa-serve"),
            compact_on_restart: false,
        }
    }
}

/// A fleet startup failure.
#[derive(Debug)]
pub enum FleetError {
    /// A worker failed to spawn or to report a listening address.
    Spawn {
        /// Which worker slot failed.
        index: usize,
        /// Why.
        message: String,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Spawn { index, message } => {
                write!(f, "worker-{index} failed to start: {message}")
            }
        }
    }
}

impl std::error::Error for FleetError {}

/// The mutable identity of one worker slot, guarded as a unit.
#[derive(Debug)]
struct SlotInfo {
    addr: Option<SocketAddr>,
    pid: Option<u32>,
    generation: u64,
    health: HealthTracker,
}

/// One worker slot: the shard of the keyspace it owns, its current
/// process identity (address, pid, generation), health, counters, and
/// the router's pooled connections to it.
#[derive(Debug)]
pub struct WorkerSlot {
    index: usize,
    info: Mutex<SlotInfo>,
    pool: Mutex<Vec<(u64, TcpStream)>>,
    forwarded: AtomicU64,
    restarts: AtomicU64,
}

/// A point-in-time copy of a slot's identity and health, for the
/// fleet `stats` response.
#[derive(Clone, Debug)]
pub struct SlotSnapshot {
    /// The slot index (shard id).
    pub index: usize,
    /// Current listening address, if in service.
    pub addr: Option<SocketAddr>,
    /// Current process id, if in service.
    pub pid: Option<u32>,
    /// Process generation (bumped per spawn).
    pub generation: u64,
    /// Health verdict.
    pub state: HealthState,
    /// Lifetime `(probes, failures)`.
    pub probe_counts: (u64, u64),
    /// Requests the router forwarded to this slot.
    pub forwarded: u64,
    /// Times the supervisor respawned this slot.
    pub restarts: u64,
}

impl WorkerSlot {
    fn new(index: usize) -> WorkerSlot {
        WorkerSlot {
            index,
            info: Mutex::new(SlotInfo {
                addr: None,
                pid: None,
                generation: 0,
                health: HealthTracker::new(),
            }),
            pool: Mutex::new(Vec::new()),
            forwarded: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
        }
    }

    /// The slot index.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The current `(address, generation)`, when the worker is up.
    pub fn addr(&self) -> Option<(SocketAddr, u64)> {
        let info = self.info.lock().expect("slot poisoned");
        info.addr.map(|a| (a, info.generation))
    }

    /// The current health verdict.
    pub fn health_state(&self) -> HealthState {
        self.info.lock().expect("slot poisoned").health.state()
    }

    /// Whether the router may send this slot traffic: it has an
    /// address and its health is not [`HealthState::Dead`] (and has
    /// answered at least one probe since its last spawn — a
    /// [`HealthState::Starting`] worker is not yet vouched for).
    pub fn routable(&self) -> bool {
        let info = self.info.lock().expect("slot poisoned");
        info.addr.is_some()
            && matches!(
                info.health.state(),
                HealthState::Healthy | HealthState::Degraded
            )
    }

    /// Counts one router forward to this slot.
    pub fn count_forward(&self) {
        self.forwarded.fetch_add(1, Ordering::Relaxed);
    }

    /// A stats-time copy of identity, health, and counters.
    pub fn snapshot(&self) -> SlotSnapshot {
        let info = self.info.lock().expect("slot poisoned");
        SlotSnapshot {
            index: self.index,
            addr: info.addr,
            pid: info.pid,
            generation: info.generation,
            state: info.health.state(),
            probe_counts: info.health.counts(),
            forwarded: self.forwarded.load(Ordering::Relaxed),
            restarts: self.restarts.load(Ordering::Relaxed),
        }
    }

    /// Installs a freshly spawned process: new generation, health back
    /// to [`HealthState::Starting`], stale pooled connections dropped.
    pub fn set_spawned(&self, addr: SocketAddr, pid: u32) {
        let mut info = self.info.lock().expect("slot poisoned");
        info.addr = Some(addr);
        info.pid = Some(pid);
        info.generation += 1;
        info.health.reset();
        drop(info);
        self.pool.lock().expect("pool poisoned").clear();
    }

    /// Takes the worker out of service (process exited or was killed):
    /// no address, health dead, pooled connections dropped.
    pub fn set_down(&self) {
        let mut info = self.info.lock().expect("slot poisoned");
        info.addr = None;
        info.pid = None;
        // The process is gone; don't wait for probes to agree.
        info.health.record_failure(1);
        drop(info);
        self.pool.lock().expect("pool poisoned").clear();
    }

    /// Records one probe outcome, but only if the probed generation is
    /// still current — a result raced against a restart must not vouch
    /// for (or slander) the new process.
    pub fn record_probe(&self, generation: u64, ok: bool, dead_after: u32) {
        let mut info = self.info.lock().expect("slot poisoned");
        if info.generation != generation || info.addr.is_none() {
            return;
        }
        if ok {
            info.health.record_success();
        } else {
            info.health.record_failure(dead_after);
        }
    }

    /// Checks out a connection to the worker: a pooled one from the
    /// current generation if available, else a fresh connect. The
    /// caller must [`checkin`](WorkerSlot::checkin) it after a clean
    /// exchange — and must *drop* it instead after any error or
    /// timeout (a connection with an abandoned in-flight request would
    /// desynchronize its next user).
    ///
    /// # Errors
    ///
    /// `NotConnected` when the slot has no address; otherwise the
    /// underlying connect error.
    pub fn checkout(&self, connect_timeout: Duration) -> std::io::Result<(u64, TcpStream)> {
        let Some((addr, generation)) = self.addr() else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotConnected,
                format!("worker-{} is not in service", self.index),
            ));
        };
        {
            let mut pool = self.pool.lock().expect("pool poisoned");
            while let Some((conn_generation, stream)) = pool.pop() {
                if conn_generation == generation {
                    return Ok((generation, stream));
                }
                // Stale generation: the process it spoke to is gone.
            }
        }
        let stream = TcpStream::connect_timeout(&addr, connect_timeout)?;
        // Forwarded lines are small; Nagle queuing them behind a
        // delayed ACK costs ~40ms per hop.
        let _ = stream.set_nodelay(true);
        Ok((generation, stream))
    }

    /// Returns a connection after a clean request/response exchange.
    pub fn checkin(&self, generation: u64, stream: TcpStream) {
        let current = self.info.lock().expect("slot poisoned").generation;
        if generation != current {
            return; // stale — the worker restarted mid-exchange
        }
        let mut pool = self.pool.lock().expect("pool poisoned");
        if pool.len() < POOL_CAP {
            pool.push((generation, stream));
        }
    }
}

/// State shared by the supervisor, the health loop, and the router.
#[derive(Debug)]
pub struct FleetState {
    slots: Vec<Arc<WorkerSlot>>,
    shutdown: AtomicBool,
}

impl FleetState {
    /// The worker slots, index-ordered.
    pub fn slots(&self) -> &[Arc<WorkerSlot>] {
        &self.slots
    }

    /// Number of worker slots (the shard count).
    pub fn worker_count(&self) -> usize {
        self.slots.len()
    }

    /// Whether fleet shutdown has been requested.
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Requests fleet shutdown: the supervisor stops restarting and
    /// tears the workers down; the router and health loops exit.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }
}

/// What the supervisor knows about one worker's process.
enum ChildState {
    /// Running (as far as the last poll saw).
    Alive {
        child: Child,
        spawned_at: Instant,
        backoff_ms: u64,
    },
    /// Down; respawn at `at`.
    Restarting { at: Instant, backoff_ms: u64 },
}

/// A running fleet: shared state plus the supervisor-owned children.
pub struct Fleet {
    state: Arc<FleetState>,
    cfg: FleetConfig,
    children: Vec<ChildState>,
}

impl fmt::Debug for Fleet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fleet")
            .field("workers", &self.state.worker_count())
            .finish()
    }
}

impl Fleet {
    /// Spawns every worker and waits for each to report its listening
    /// address (with [`FleetConfig::warm_golden`], that implies each
    /// passed golden verification). All-or-nothing: any worker failing
    /// to start tears the others down and errors.
    ///
    /// # Errors
    ///
    /// [`FleetError::Spawn`] for the first worker that fails to start.
    pub fn launch(cfg: FleetConfig) -> Result<Fleet, FleetError> {
        let cfg = FleetConfig {
            workers: cfg.workers.max(1),
            ..cfg
        };
        let state = Arc::new(FleetState {
            slots: (0..cfg.workers)
                .map(|i| Arc::new(WorkerSlot::new(i)))
                .collect(),
            shutdown: AtomicBool::new(false),
        });
        let mut children = Vec::with_capacity(cfg.workers);
        for index in 0..cfg.workers {
            match spawn_worker(&cfg, index) {
                Ok((child, addr, pid)) => {
                    state.slots[index].set_spawned(addr, pid);
                    children.push(ChildState::Alive {
                        child,
                        spawned_at: Instant::now(),
                        backoff_ms: RESTART_BACKOFF_MS,
                    });
                }
                Err(message) => {
                    for c in &mut children {
                        if let ChildState::Alive { child, .. } = c {
                            let _ = child.kill();
                            let _ = child.wait();
                        }
                    }
                    return Err(FleetError::Spawn { index, message });
                }
            }
        }
        Ok(Fleet {
            state,
            cfg,
            children,
        })
    }

    /// The shared state handle (for the router and for stats).
    pub fn state(&self) -> Arc<FleetState> {
        Arc::clone(&self.state)
    }

    /// Starts the supervisor and health loops in background threads,
    /// consuming the fleet (the supervisor owns the children from here
    /// on). Join the returned handles after requesting shutdown.
    pub fn run_background(self) -> Vec<std::thread::JoinHandle<()>> {
        let Fleet {
            state,
            cfg,
            children,
        } = self;
        let supervisor = {
            let state = Arc::clone(&state);
            let cfg = cfg.clone();
            std::thread::spawn(move || supervise(&state, &cfg, children))
        };
        let health = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || health_loop(&state))
        };
        vec![supervisor, health]
    }
}

/// The per-worker cache slice directory.
pub fn worker_cache_dir(cache_root: &Path, index: usize) -> PathBuf {
    cache_root.join(format!("worker-{index}"))
}

/// The per-worker pid file path.
pub fn worker_pid_file(state_dir: &Path, index: usize) -> PathBuf {
    state_dir.join(format!("worker-{index}.pid"))
}

/// Spawns one worker process and waits for it to report its listening
/// address on stderr (`tadfa-serve: listening on <addr> ...`), then
/// writes the slot's pid file. The worker's stderr keeps streaming to
/// the supervisor's stderr, line-prefixed, for its whole life.
fn spawn_worker(cfg: &FleetConfig, index: usize) -> Result<(Child, SocketAddr, u32), String> {
    let cache_dir = worker_cache_dir(&cfg.cache_root, index);
    let mut cmd = Command::new(&cfg.serve_bin);
    cmd.arg("--scenarios")
        .arg(&cfg.scenario_dir)
        .arg("--listen")
        .arg("127.0.0.1:0")
        .arg("--cache-dir")
        .arg(&cache_dir);
    if let Some(golden) = &cfg.warm_golden {
        cmd.arg("--warm-golden").arg(golden);
    }
    cmd.stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    let mut child = cmd.spawn().map_err(|e| format!("spawn: {e}"))?;
    let pid = child.id();
    let stderr = child.stderr.take().expect("piped stderr");

    // One thread per worker life: relay stderr lines (prefixed) and
    // fish the listening address out of the startup banner.
    let (tx, rx) = mpsc::channel::<Result<SocketAddr, String>>();
    std::thread::spawn(move || {
        let mut sent = false;
        for line in BufReader::new(stderr).lines() {
            let Ok(line) = line else { break };
            eprintln!("[worker-{index}] {line}");
            if sent {
                continue;
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                let addr = rest
                    .split_whitespace()
                    .next()
                    .and_then(|a| a.parse::<SocketAddr>().ok());
                let _ = tx.send(addr.ok_or_else(|| format!("unparseable address in: {line}")));
                sent = true;
            }
        }
        if !sent {
            let _ = tx.send(Err("worker exited before listening".to_string()));
        }
    });

    let addr = match rx.recv_timeout(SPAWN_TIMEOUT) {
        Ok(Ok(addr)) => addr,
        Ok(Err(message)) => {
            let _ = child.kill();
            let _ = child.wait();
            return Err(message);
        }
        Err(_) => {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!(
                "no listening address within {} ms",
                SPAWN_TIMEOUT.as_millis()
            ));
        }
    };
    let _ = std::fs::create_dir_all(&cfg.state_dir);
    if let Err(e) = std::fs::write(worker_pid_file(&cfg.state_dir, index), format!("{pid}\n")) {
        eprintln!("tadfa-fleet: cannot write pid file for worker-{index}: {e}");
    }
    Ok((child, addr, pid))
}

/// The supervisor loop: poll children, restart the dead (after
/// backoff, optionally compacting their segment directories first),
/// kill the hung, and tear everything down on shutdown.
fn supervise(state: &FleetState, cfg: &FleetConfig, mut children: Vec<ChildState>) {
    loop {
        if state.shutting_down() {
            shutdown_children(state, &mut children);
            return;
        }
        for (index, child_state) in children.iter_mut().enumerate() {
            let slot = &state.slots[index];
            match child_state {
                ChildState::Alive {
                    child,
                    spawned_at,
                    backoff_ms,
                } => {
                    let exited = matches!(child.try_wait(), Ok(Some(_)));
                    if exited {
                        // A worker that stayed up long enough proved
                        // the backoff can reset; a crash loop doubles.
                        let next_backoff = if spawned_at.elapsed() >= STABLE_AFTER {
                            RESTART_BACKOFF_MS
                        } else {
                            (*backoff_ms * 2).min(RESTART_BACKOFF_CAP_MS)
                        };
                        eprintln!(
                            "tadfa-fleet: worker-{index} exited; restart in {next_backoff} ms \
                             (keyspace failed over meanwhile)"
                        );
                        slot.set_down();
                        *child_state = ChildState::Restarting {
                            at: Instant::now() + Duration::from_millis(*backoff_ms),
                            backoff_ms: next_backoff,
                        };
                    } else if slot.health_state() == HealthState::Dead
                        && spawned_at.elapsed() >= KILL_GRACE
                    {
                        // Alive but unresponsive (hung/stopped): the
                        // health loop demoted it, so reclaim the slot
                        // the hard way. The kill lands on the next
                        // poll as a normal exit.
                        eprintln!(
                            "tadfa-fleet: worker-{index} is unresponsive (health: dead); \
                             killing it for restart"
                        );
                        let _ = child.kill();
                    }
                }
                ChildState::Restarting { at, backoff_ms } if Instant::now() >= *at => {
                    let backoff_ms = *backoff_ms;
                    if cfg.compact_on_restart {
                        compact_worker_cache(&cfg.cache_root, index);
                    }
                    match spawn_worker(cfg, index) {
                        Ok((child, addr, pid)) => {
                            slot.set_spawned(addr, pid);
                            slot.restarts.fetch_add(1, Ordering::Relaxed);
                            eprintln!(
                                "tadfa-fleet: worker-{index} restarted (pid {pid}, {addr}); \
                                 rejoins rotation on its first successful probe"
                            );
                            *child_state = ChildState::Alive {
                                child,
                                spawned_at: Instant::now(),
                                backoff_ms,
                            };
                        }
                        Err(message) => {
                            let next = (backoff_ms * 2).min(RESTART_BACKOFF_CAP_MS);
                            eprintln!(
                                "tadfa-fleet: worker-{index} restart failed ({message}); \
                                 next attempt in {next} ms"
                            );
                            *child_state = ChildState::Restarting {
                                at: Instant::now() + Duration::from_millis(next),
                                backoff_ms: next,
                            };
                        }
                    }
                }
                ChildState::Restarting { .. } => {}
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Compacts every scenario segment directory under one worker's cache
/// slice (best effort; a failed compaction leaves the originals, which
/// is exactly the crash contract).
fn compact_worker_cache(cache_root: &Path, index: usize) {
    let dir = worker_cache_dir(cache_root, index);
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if !path.is_dir() {
            continue;
        }
        match persist::compact_dir(&path) {
            Ok(report) => eprintln!(
                "tadfa-fleet: compacted {} before restart: {} unique, {} duplicate(s) dropped",
                path.display(),
                report.unique,
                report.duplicates
            ),
            Err(e) => eprintln!("tadfa-fleet: compaction of {} failed: {e}", path.display()),
        }
    }
}

/// Tears every live child down: polite protocol `shutdown` first, a
/// bounded wait, then SIGKILL for stragglers; pid files removed.
fn shutdown_children(state: &FleetState, children: &mut [ChildState]) {
    for (index, entry) in children.iter_mut().enumerate() {
        if let ChildState::Alive { child, .. } = entry {
            if let Some((addr, _)) = state.slots[index].addr() {
                send_shutdown(addr);
            }
            let deadline = Instant::now() + Duration::from_secs(2);
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    _ if Instant::now() >= deadline => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                    _ => std::thread::sleep(Duration::from_millis(20)),
                }
            }
            state.slots[index].set_down();
        }
    }
}

/// Best-effort protocol `shutdown` to one worker.
fn send_shutdown(addr: SocketAddr) {
    let timeout = Duration::from_millis(500);
    let Ok(stream) = TcpStream::connect_timeout(&addr, timeout) else {
        return;
    };
    let _ = stream.set_write_timeout(Some(timeout));
    let mut stream = stream;
    let _ = writeln!(stream, "{{\"id\": 0, \"op\": \"shutdown\"}}");
    let _ = stream.flush();
}

/// The health loop: probe every in-service worker each round, feed the
/// per-slot state machine, exit on shutdown.
fn health_loop(state: &FleetState) {
    let mut round: u64 = 0;
    while !state.shutting_down() {
        round += 1;
        let probe_kind = probe_kind_for(round);
        for slot in state.slots() {
            let Some((addr, generation)) = slot.addr() else {
                continue;
            };
            let ok = probe(addr, probe_kind, PROBE_TIMEOUT).is_ok();
            slot.record_probe(generation, ok, DEAD_AFTER);
        }
        std::thread::sleep(PROBE_INTERVAL);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_lifecycle_generations_gate_probes_and_pool() {
        let slot = WorkerSlot::new(0);
        assert!(!slot.routable(), "a never-spawned slot is not routable");

        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        slot.set_spawned(addr, 42);
        assert_eq!(slot.health_state(), HealthState::Starting);
        assert!(!slot.routable(), "starting workers are not vouched for");

        let (_, generation) = slot.addr().unwrap();
        slot.record_probe(generation, true, 3);
        assert_eq!(slot.health_state(), HealthState::Healthy);
        assert!(slot.routable());

        // A probe result from the previous generation is ignored.
        slot.record_probe(generation - 1, false, 1);
        assert_eq!(slot.health_state(), HealthState::Healthy);

        slot.set_down();
        assert!(!slot.routable());
        assert_eq!(slot.health_state(), HealthState::Dead);

        slot.set_spawned(addr, 43);
        let snap = slot.snapshot();
        assert_eq!(snap.generation, 2);
        assert_eq!(snap.state, HealthState::Starting);
        assert_eq!(snap.pid, Some(43));
    }

    #[test]
    fn checkout_without_address_is_not_connected() {
        let slot = WorkerSlot::new(1);
        let err = slot.checkout(Duration::from_millis(10)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotConnected);
    }

    #[test]
    fn checkin_from_a_stale_generation_is_dropped() {
        let slot = WorkerSlot::new(0);
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        slot.set_spawned(addr, 7);
        let (generation, stream) = slot.checkout(Duration::from_secs(1)).unwrap();
        // Restart bumps the generation; the old connection must not be
        // handed to a future checkout.
        slot.set_spawned(addr, 8);
        slot.checkin(generation, stream);
        assert!(slot.pool.lock().unwrap().is_empty());
    }

    #[test]
    fn worker_paths_are_per_index() {
        assert_eq!(
            worker_cache_dir(Path::new("/c"), 2),
            PathBuf::from("/c/worker-2")
        );
        assert_eq!(
            worker_pid_file(Path::new("/s"), 0),
            PathBuf::from("/s/worker-0.pid")
        );
    }
}
