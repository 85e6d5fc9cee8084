//! Helpers shared by the integration tests that drive a real
//! `tadfa-fleet` process.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A scratch directory removed on drop (best-effort).
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("tadfa-fleet-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir creatable");
        TempDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A minimal scenario directory (just `solo_baseline`) so repeated
/// fleet startups stay fast.
pub fn mini_scenarios(root: &Path) -> PathBuf {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let dir = root.join("scenarios");
    std::fs::create_dir_all(dir.join("golden")).expect("scenario dir creatable");
    std::fs::copy(
        repo.join("solo_baseline.toml"),
        dir.join("solo_baseline.toml"),
    )
    .expect("spec copies");
    std::fs::copy(
        repo.join("golden/solo_baseline.json"),
        dir.join("golden/solo_baseline.json"),
    )
    .expect("golden copies");
    dir
}

/// A real `tadfa-fleet` child process.
pub struct FleetChild {
    /// The router process.
    pub process: Child,
    state_dir: PathBuf,
}

impl FleetChild {
    /// Spawns a `tadfa-fleet` over `scenarios` with its cache and state
    /// under `tmp` (and, given `fd_limit`, that open-file limit for the
    /// router and its workers), and returns it with the ephemeral front
    /// address its startup banner reports. The rest of its stderr is
    /// drained in the background so workers never block on a full pipe.
    pub fn spawn(
        scenarios: &Path,
        tmp: &Path,
        workers: usize,
        extra: &[&str],
        fd_limit: Option<usize>,
    ) -> (FleetChild, SocketAddr) {
        let state_dir = tmp.join("state");
        let bin = env!("CARGO_BIN_EXE_tadfa-fleet");
        let mut command = match fd_limit {
            None => Command::new(bin),
            Some(limit) => {
                // `exec` keeps the shell's pid, so `process` is still
                // the router.
                let mut sh = Command::new("sh");
                sh.arg("-c")
                    .arg(format!("ulimit -n {limit} && exec \"$0\" \"$@\""))
                    .arg(bin);
                sh
            }
        };
        let mut child = command
            .arg("--listen")
            .arg("127.0.0.1:0")
            .arg("--scenarios")
            .arg(scenarios)
            .arg("--workers")
            .arg(workers.to_string())
            .arg("--cache-root")
            .arg(tmp.join("cache"))
            .arg("--state-dir")
            .arg(&state_dir)
            .args(extra)
            .stderr(Stdio::piped())
            .spawn()
            .expect("tadfa-fleet spawns");
        let stderr = child.stderr.take().expect("piped stderr");
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let Some(rest) = line.strip_prefix("tadfa-fleet: listening on ") {
                    let addr = rest.split_whitespace().next().unwrap_or("").to_string();
                    let _ = tx.send(addr);
                }
            }
        });
        let fleet = FleetChild {
            process: child,
            state_dir,
        };
        let addr = rx
            .recv_timeout(Duration::from_secs(120))
            .expect("fleet reports its front address")
            .parse()
            .expect("front address parses");
        (fleet, addr)
    }

    /// Waits for the exit a protocol `shutdown` starts and asserts it
    /// is clean.
    pub fn assert_clean_exit(&mut self) {
        let started = Instant::now();
        loop {
            if let Some(status) = self.process.try_wait().expect("child waitable") {
                assert!(status.success(), "fleet exits cleanly, got {status}");
                return;
            }
            assert!(
                started.elapsed() < Duration::from_secs(30),
                "fleet did not exit within 30s of shutdown"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}

impl Drop for FleetChild {
    /// Unless the fleet already shut down cleanly (which tears its
    /// workers down), kills the router and then every worker its pid
    /// files name: a killed or crashed router leaves its workers
    /// running, and a failing test must not leak them.
    fn drop(&mut self) {
        if matches!(self.process.try_wait(), Ok(Some(status)) if status.success()) {
            return;
        }
        let _ = self.process.kill();
        let _ = self.process.wait();
        kill_workers(&self.state_dir);
    }
}

/// SIGKILLs every worker whose pid file lies in a fleet's `state_dir`.
pub fn kill_workers(state_dir: &Path) {
    for entry in std::fs::read_dir(state_dir).into_iter().flatten() {
        let Ok(pid) = entry.and_then(|e| std::fs::read_to_string(e.path())) else {
            continue;
        };
        let _ = Command::new("kill")
            .arg("-9")
            .arg(pid.trim())
            .stderr(Stdio::null())
            .status();
    }
}
