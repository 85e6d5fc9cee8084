//! Drives the argument parsers of `tadfa-serve` and `tadfa-fleet` on
//! the real binaries. Each flag that starts threads or processes is
//! capped at `tadfa_sched::MAX_WORKERS`, and a value outside its range
//! exits 2 while the arguments are parsed, before anything loads or
//! starts. Flags the binaries no longer take are unknown arguments.
//! The scenario directory and the fleet's worker binary do not exist,
//! so a value that got past a parser would fail to load or to spawn
//! instead of starting anything.

use std::process::{Command, Output};
use tadfa_sched::MAX_WORKERS;

fn serve(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tadfa-serve"))
        .args(["--scenarios", "no-such-scenario-dir"])
        .args(args)
        .output()
        .expect("tadfa-serve runs")
}

fn fleet(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tadfa-fleet"))
        .args(["--listen", "127.0.0.1:0"])
        .args(["--scenarios", "no-such-scenario-dir"])
        .args(["--serve-bin", "no-such-serve-bin"])
        .args(args)
        .output()
        .expect("tadfa-fleet runs")
}

#[test]
fn thread_counts_above_the_limit_exit_2() {
    let over = (MAX_WORKERS + 1).to_string();
    for flag in ["--service-workers", "--engine-workers", "--reactor-shards"] {
        let out = serve(&[flag, &over]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        assert!(
            stderr.contains(flag) && stderr.contains(&format!("limit of {MAX_WORKERS}")),
            "{flag}: {stderr}"
        );
    }
}

#[test]
fn fleet_worker_counts_outside_the_range_exit_2() {
    for workers in [0, MAX_WORKERS + 1] {
        let out = fleet(&["--workers", &workers.to_string()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--workers {workers}: {stderr}");
        assert!(
            stderr.contains(&format!(
                "--workers is {workers}, outside the range 1 to {MAX_WORKERS}"
            )),
            "--workers {workers}: {stderr}"
        );
    }
}

#[test]
fn removed_flags_are_unknown_arguments() {
    for flag in ["--max-line-bytes", "--stall-timeout-ms"] {
        let out = serve(&[flag, "1"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "tadfa-serve {flag}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown argument '{flag}'")),
            "tadfa-serve {flag}: {stderr}"
        );
    }
    for flag in [
        "--health-interval-ms",
        "--health-timeout-ms",
        "--dead-after",
        "--restart-backoff-ms",
        "--spawn-timeout-ms",
        "--queue-capacity",
        "--forwarders",
        "--default-deadline-ms",
        "--max-retries",
        "--serve-arg",
    ] {
        let out = fleet(&[flag, "1"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "tadfa-fleet {flag}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown argument '{flag}'")),
            "tadfa-fleet {flag}: {stderr}"
        );
    }
}
