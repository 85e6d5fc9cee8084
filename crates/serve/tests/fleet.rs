//! Integration tests for the self-healing fleet layer
//! (`tadfa-fleet` + `tadfa-load --spawn-fleet`):
//!
//! * **front door** — the fleet serves the standard protocol from one
//!   socket: ping answers, run-scenario answers byte-identically to
//!   the committed golden, stats carries the merged per-worker fleet
//!   block, shutdown tears down every worker;
//! * **kill mid-sweep** — SIGKILLing a worker while a sweep is running
//!   must be invisible to clients (zero errors, every fingerprint
//!   golden) and the victim must rejoin healthy *and warm* (nonzero
//!   preloaded) within a bounded window;
//! * **hang mid-sweep** — a SIGSTOPped worker is demoted by health
//!   probes, its traffic fails over inside the request deadline, and
//!   the supervisor kills + restarts it; same client-invisibility and
//!   bounded-rejoin gates.
//!
//! The chaos tests drive the real `tadfa-load --chaos` path — the same
//! command CI's fleet-smoke job runs.

mod common;

use common::{mini_scenarios, FleetChild, TempDir};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::Command;
use tadfa_serve::protocol::{parse_response, ParsedResponse};

/// The committed golden fingerprint for `solo_baseline`.
fn golden_fingerprint(scenarios: &Path) -> String {
    let text = std::fs::read_to_string(scenarios.join("golden/solo_baseline.json"))
        .expect("golden readable");
    tadfa_sched::json::parse(&text)
        .expect("golden parses")
        .get("fingerprint")
        .and_then(|v| v.as_str().map(str::to_string))
        .expect("golden has a fingerprint")
}

/// A real `tadfa-fleet` child plus a TCP connection to its front door.
struct FleetProc {
    child: FleetChild,
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl FleetProc {
    fn start(scenarios: &Path, tmp: &Path, workers: usize, extra: &[&str]) -> FleetProc {
        let (child, addr) = FleetChild::spawn(scenarios, tmp, workers, extra, None);
        let stream = TcpStream::connect(addr).expect("front door connects");
        let reader = BufReader::new(stream.try_clone().expect("stream clones"));
        FleetProc {
            child,
            stream,
            reader,
        }
    }

    fn call(&mut self, line: &str) -> ParsedResponse {
        writeln!(self.stream, "{line}").expect("request writes");
        self.stream.flush().expect("request flushes");
        let mut resp = String::new();
        let n = self.reader.read_line(&mut resp).expect("response reads");
        assert!(n > 0, "fleet closed the connection before responding");
        parse_response(resp.trim_end())
            .unwrap_or_else(|e| panic!("unparseable response ({e}): {resp}"))
    }

    /// Protocol shutdown, then wait for a clean exit.
    fn shutdown(mut self) {
        let resp = self.call(r#"{"id": 9999, "op": "shutdown"}"#);
        assert!(resp.ok, "shutdown acknowledged");
        self.child.assert_clean_exit();
    }
}

#[test]
fn fleet_front_door_serves_golden_bytes_and_merged_stats() {
    let tmp = TempDir::new("front-door");
    let scenarios = mini_scenarios(tmp.path());
    let mut fleet = FleetProc::start(&scenarios, tmp.path(), 3, &[]);

    let pong = fleet.call(r#"{"id": 1, "op": "ping"}"#);
    assert!(pong.ok, "ping answers through the router");

    let run = fleet.call(r#"{"id": 2, "op": "run-scenario", "scenario": "solo_baseline"}"#);
    assert!(run.ok, "run-scenario succeeds: {run:?}");
    assert_eq!(
        run.fingerprint.as_deref().expect("fingerprint present"),
        golden_fingerprint(&scenarios),
        "fleet answer is the committed golden"
    );

    let stats = fleet.call(r#"{"id": 3, "op": "stats"}"#);
    assert!(stats.ok, "stats answers");
    let workers = stats
        .doc
        .get("fleet")
        .and_then(|f| f.get("workers"))
        .and_then(|w| w.as_array())
        .expect("stats carries fleet.workers");
    assert_eq!(workers.len(), 3, "one entry per worker");
    let total_runs: f64 = stats
        .doc
        .get("scenarios")
        .and_then(|v| v.as_array())
        .expect("stats carries merged scenarios")
        .iter()
        .filter_map(|s| s.get("runs").and_then(|v| v.as_f64()))
        .sum();
    assert!(total_runs >= 1.0, "the run shows up in merged counters");

    fleet.shutdown();
}

/// Runs `tadfa-load --spawn-fleet` with the given chaos spec and
/// asserts the whole robustness contract at once: exit 0 means zero
/// client-visible errors, every fingerprint byte-identical to golden,
/// and the victim back healthy + warm inside the rejoin budget.
fn chaos_replay(tag: &str, chaos: &str, rejoin_ms: u64, fleet_extra: &[&str]) {
    let tmp = TempDir::new(tag);
    let scenarios = mini_scenarios(tmp.path());
    let state = tmp.path().join("state");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_tadfa-load"));
    cmd.arg("--spawn-fleet")
        .arg(env!("CARGO_BIN_EXE_tadfa-fleet"))
        .arg("--scenarios")
        .arg(&scenarios)
        .args(["--sweep", "2", "--warmup", "1", "--repeat", "16"])
        .args(["--chaos", chaos])
        .arg("--fleet-state")
        .arg(&state)
        .args(["--expect-rejoin-ms", &rejoin_ms.to_string()]);
    for pair in [
        ["--fleet-arg", "--workers"],
        ["--fleet-arg", "3"],
        ["--fleet-arg", "--cache-root"],
    ] {
        cmd.args(pair);
    }
    cmd.arg("--fleet-arg").arg(tmp.path().join("cache"));
    cmd.arg("--fleet-arg").arg("--state-dir");
    cmd.arg("--fleet-arg").arg(&state);
    for extra in fleet_extra {
        cmd.arg("--fleet-arg").arg(extra);
    }
    let output = cmd.output().expect("tadfa-load runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "chaos replay failed ({}):\n--- stdout ---\n{stdout}\n--- stderr ---\n{stderr}",
        output.status,
    );
    assert!(
        stderr.contains("tadfa-load: chaos: sent"),
        "chaos actually fired:\n{stderr}"
    );
    assert!(
        stdout.contains("rejoined healthy and warm"),
        "victim rejoined warm inside the budget:\n{stdout}"
    );
}

#[test]
fn sigkilled_worker_is_invisible_to_clients_and_rejoins_warm() {
    chaos_replay("kill", "kill-worker:1", 30_000, &[]);
}

#[test]
fn sigstopped_worker_is_demoted_fails_over_and_rejoins_warm() {
    // A hung worker can only burn one bounded attempt per request; the
    // tight attempt timeout keeps the failover inside the deadline and
    // the test fast.
    chaos_replay(
        "hang",
        "hang-worker:1",
        45_000,
        &["--attempt-timeout-ms", "1500"],
    );
}
