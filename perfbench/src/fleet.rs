//! A spawned `tadfa-fleet` (router plus supervised `tadfa-serve`
//! workers), as deployed: one process per worker, each with its own
//! cache slice.

use crate::client;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use tadfa_sched::json::JsonValue;

/// A running fleet. Dropping it kills whatever is still running.
#[derive(Debug)]
pub struct FleetProc {
    child: Child,
    pub router: SocketAddr,
    /// Worker listening addresses, by worker index.
    pub workers: Vec<SocketAddr>,
    relay: Option<std::thread::JoinHandle<()>>,
    state: std::path::PathBuf,
}

/// What the fleet's stderr told us.
enum Banner {
    Router(SocketAddr),
    Worker(usize, SocketAddr),
}

fn parse_banner(line: &str) -> Option<Banner> {
    let addr = line
        .split("listening on ")
        .nth(1)?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    if let Some(rest) = line.strip_prefix("[worker-") {
        let index = rest.split(']').next()?.parse().ok()?;
        Some(Banner::Worker(index, addr))
    } else if line.starts_with("tadfa-fleet:") {
        Some(Banner::Router(addr))
    } else {
        None
    }
}

impl FleetProc {
    /// Spawns the fleet and waits until every worker is healthy.
    /// Returns the fleet and the seconds from spawn to healthy.
    pub fn spawn(
        bin_dir: &Path,
        specs: &Path,
        state: &Path,
        workers: usize,
    ) -> Result<(FleetProc, f64), String> {
        let _ = std::fs::remove_dir_all(state);
        std::fs::create_dir_all(state).map_err(|e| e.to_string())?;
        let start = Instant::now();
        let mut child = Command::new(bin_dir.join("tadfa-fleet"))
            .arg("--listen")
            .arg("127.0.0.1:0")
            .arg("--workers")
            .arg(workers.to_string())
            .arg("--scenarios")
            .arg(specs)
            .arg("--cache-root")
            .arg(state.join("cache"))
            .arg("--state-dir")
            .arg(state.join("state"))
            .arg("--serve-bin")
            .arg(bin_dir.join("tadfa-serve"))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn tadfa-fleet: {e}"))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // Drains the fleet's stderr for its whole life (a full pipe
        // would stall the fleet) and reports the listening banners.
        let relay = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let Some(b) = parse_banner(&line) {
                    let _ = tx.send(b);
                }
            }
        });
        let mut fleet = FleetProc {
            child,
            router: SocketAddr::from(([127, 0, 0, 1], 0)),
            workers: vec![SocketAddr::from(([127, 0, 0, 1], 0)); workers],
            relay: Some(relay),
            state: state.to_path_buf(),
        };
        let deadline = start + Duration::from_secs(60);
        let mut seen_router = false;
        let mut seen_workers = 0;
        while !seen_router || seen_workers < workers {
            let left = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(left) {
                Ok(Banner::Router(a)) => {
                    fleet.router = a;
                    seen_router = true;
                }
                Ok(Banner::Worker(i, a)) if i < workers => {
                    fleet.workers[i] = a;
                    seen_workers += 1;
                }
                Ok(Banner::Worker(..)) => {}
                Err(_) => return Err("fleet did not come up within 60 s".to_string()),
            }
        }
        while !fleet.all_healthy() {
            if Instant::now() > deadline {
                return Err("fleet workers did not turn healthy within 60 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok((fleet, start.elapsed().as_secs_f64()))
    }

    /// The router's merged `stats` document.
    pub fn stats(&self) -> Result<JsonValue, String> {
        stats_of(self.router)
    }

    fn all_healthy(&self) -> bool {
        self.stats().ok().is_some_and(|doc| {
            doc.get("fleet")
                .and_then(|f| f.get("workers"))
                .and_then(JsonValue::as_array)
                .is_some_and(|ws| {
                    ws.len() == self.workers.len()
                        && ws
                            .iter()
                            .all(|w| w.get("state").and_then(JsonValue::as_str) == Some("healthy"))
                })
        })
    }

    /// Peak resident memory of the router plus every worker, MB.
    pub fn peak_rss_mb(&self) -> f64 {
        let mut pids = vec![self.child.id()];
        if let Ok(doc) = self.stats() {
            if let Some(ws) = doc
                .get("fleet")
                .and_then(|f| f.get("workers"))
                .and_then(JsonValue::as_array)
            {
                pids.extend(
                    ws.iter()
                        .filter_map(|w| w.get("pid").and_then(JsonValue::as_f64))
                        .map(|p| p as u32),
                );
            }
        }
        pids.into_iter().map(vm_hwm_mb).sum()
    }

    /// Asks the fleet to shut down and waits for the router and its
    /// workers to exit (killing it after a grace period), then removes
    /// its state directory.
    pub fn shutdown(mut self) {
        let _ = client::call(self.router, "{\"id\": 0, \"op\": \"shutdown\"}");
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        self.reap();
        let _ = std::fs::remove_dir_all(&self.state);
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(relay) = self.relay.take() {
            let _ = relay.join();
        }
    }
}

impl Drop for FleetProc {
    fn drop(&mut self) {
        self.reap();
    }
}

/// One `stats` request against a router or a worker.
pub fn stats_of(addr: SocketAddr) -> Result<JsonValue, String> {
    let line = client::call(addr, "{\"id\": 0, \"op\": \"stats\"}").map_err(|e| e.to_string())?;
    let parsed = tadfa_serve::parse_response(&line)?;
    if !parsed.ok {
        return Err(format!("stats failed: {line}"));
    }
    Ok(parsed.doc)
}

/// `VmHWM` (peak resident set) of a process, MB; 0 if unreadable.
pub fn vm_hwm_mb(pid: u32) -> f64 {
    let path = format!("/proc/{pid}/status");
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banners_name_the_router_and_each_worker() {
        match parse_banner("tadfa-fleet: listening on 127.0.0.1:4100 (2 workers, scenarios from s)")
        {
            Some(Banner::Router(a)) => assert_eq!(a.port(), 4100),
            _ => panic!("router banner"),
        }
        match parse_banner(
            "[worker-1] tadfa-serve: listening on 127.0.0.1:4200 (11 scenarios loaded)",
        ) {
            Some(Banner::Worker(1, a)) => assert_eq!(a.port(), 4200),
            _ => panic!("worker banner"),
        }
        assert!(parse_banner("[worker-0] some other line").is_none());
    }
}
