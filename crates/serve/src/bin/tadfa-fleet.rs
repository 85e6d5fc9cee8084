//! `tadfa-fleet` — the self-healing multi-process analysis service.
//!
//! Spawns `--workers` stock `tadfa-serve` processes (each with its own
//! cache slice under `--cache-root`) and serves the same JSON-lines
//! protocol on one front socket, sharding requests across the workers
//! by scenario fingerprint. The fleet heals itself: health probes
//! demote unresponsive workers (healthy → degraded → dead), a dead
//! worker's keyspace fails over to its backup (byte-identical, because
//! the solve is deterministic), the supervisor restarts crashed or
//! hung workers with capped backoff, and a restarted worker rejoins
//! only after preloading its segment directory — warm — and (with
//! `--warm-golden`) re-verifying every scenario fingerprint against
//! the committed goldens.
//!
//! ```text
//! tadfa-fleet --listen <addr:port> [--scenarios <dir>] [--workers N]
//!             [--cache-root <dir>] [--state-dir <dir>] [--warm-golden <dir>]
//!             [--serve-bin <path>] [--compact-on-restart]
//!             [--attempt-timeout-ms N]
//! ```
//!
//! `--workers` takes 1 to `tadfa_sched::MAX_WORKERS` (256); each worker
//! is a process. Exit codes: `0` clean shutdown, `2` usage/startup
//! error. All diagnostics (including each worker's stderr,
//! line-prefixed `[worker-N]`) go to stderr.

use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;
use tadfa_sched::MAX_WORKERS;
use tadfa_serve::{Fleet, FleetConfig, Router, RouterPolicy};

const USAGE: &str = "\
tadfa-fleet — self-healing sharded fleet of tadfa-serve workers

USAGE:
    tadfa-fleet --listen <addr:port> [--scenarios <dir>] [--workers N]
                [--cache-root <dir>] [--state-dir <dir>] [--warm-golden <dir>]
                [--serve-bin <path>] [--compact-on-restart]
                [--attempt-timeout-ms N]

Spawns --workers tadfa-serve processes (at most 256), each with its
own persistent cache slice under --cache-root/worker-<i>, and routes
the standard JSON-lines protocol from one socket: run-scenario shards
by scenario stem (cache locality), analyze/analyze-module by
stem+source (spread), each with the next worker as failover backup.
Health probes (ping + stats) demote workers healthy -> degraded ->
dead; dead workers lose their traffic to the backup and are restarted
by the supervisor with capped exponential backoff, rejoining warm from
their segment directory. Requests retry with backoff+jitter on
queue-full and connection errors, and are shed with a typed
fleet-overloaded error once another retry would breach the deadline;
each forward attempt is capped at --attempt-timeout-ms. --state-dir
holds worker-<i>.pid files for chaos tooling; --compact-on-restart
compacts a dead worker's segment directories before restarting it.";

fn main() -> ExitCode {
    let mut cfg = FleetConfig::default();
    let mut policy = RouterPolicy::default();
    let mut listen: Option<String> = None;
    // The sibling tadfa-serve is the default worker binary.
    if let Ok(exe) = std::env::current_exe() {
        if let Some(dir) = exe.parent() {
            cfg.serve_bin = dir.join("tadfa-serve");
        }
    }

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    let u64_arg = |name: &str, v: Option<&String>| -> Result<u64, String> {
        v.ok_or_else(|| format!("{name} needs a value"))?
            .parse::<u64>()
            .map_err(|_| format!("{name} needs a non-negative integer"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--listen" => match it.next() {
                Some(addr) => listen = Some(addr.clone()),
                None => return usage_error("--listen needs an <addr:port>"),
            },
            "--scenarios" => match it.next() {
                Some(dir) => cfg.scenario_dir = PathBuf::from(dir),
                None => return usage_error("--scenarios needs a directory"),
            },
            "--workers" => match u64_arg(arg, it.next()) {
                // Each worker is a process.
                Ok(v) if (1..=MAX_WORKERS as u64).contains(&v) => cfg.workers = v as usize,
                Ok(v) => {
                    return usage_error(&format!(
                        "--workers is {v}, outside the range 1 to {MAX_WORKERS}"
                    ))
                }
                Err(e) => return usage_error(&e),
            },
            "--cache-root" => match it.next() {
                Some(dir) => cfg.cache_root = PathBuf::from(dir),
                None => return usage_error("--cache-root needs a directory"),
            },
            "--state-dir" => match it.next() {
                Some(dir) => cfg.state_dir = PathBuf::from(dir),
                None => return usage_error("--state-dir needs a directory"),
            },
            "--warm-golden" => match it.next() {
                Some(dir) => cfg.warm_golden = Some(PathBuf::from(dir)),
                None => return usage_error("--warm-golden needs a directory"),
            },
            "--serve-bin" => match it.next() {
                Some(path) => cfg.serve_bin = PathBuf::from(path),
                None => return usage_error("--serve-bin needs a path"),
            },
            "--compact-on-restart" => cfg.compact_on_restart = true,
            "--attempt-timeout-ms" => match u64_arg(arg, it.next()) {
                Ok(v) => policy.attempt_timeout_ms = v,
                Err(e) => return usage_error(&e),
            },
            "--help" | "-h" | "help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument '{other}'")),
        }
    }
    let Some(listen) = listen else {
        return usage_error("--listen is required (the fleet has no pipe mode)");
    };

    // Bind the front door before paying for worker startup, so an
    // unusable address fails in milliseconds.
    let listener = match TcpListener::bind(&listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("tadfa-fleet: cannot bind {listen}: {e}");
            return ExitCode::from(2);
        }
    };

    let fleet = match Fleet::launch(cfg.clone()) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("tadfa-fleet: {e}");
            return ExitCode::from(2);
        }
    };
    let state = fleet.state();
    let addr = listener
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or(listen);
    eprintln!(
        "tadfa-fleet: listening on {addr} ({} workers, scenarios from {})",
        state.worker_count(),
        cfg.scenario_dir.display(),
    );

    let fleet_threads = fleet.run_background();
    let router = Router::new(state, policy);
    let forwarders = router.run_forwarders();
    let served = router.serve(listener);
    for handle in forwarders.into_iter().chain(fleet_threads) {
        let _ = handle.join();
    }
    if let Err(e) = served {
        eprintln!("tadfa-fleet: {e}");
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("{message}\n\n{USAGE}");
    ExitCode::from(2)
}
