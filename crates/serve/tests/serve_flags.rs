//! Drives `tadfa-serve`'s argument parser on the real binary: each
//! flag that starts threads is capped at `tadfa_sched::MAX_WORKERS`,
//! and a value above it exits 2 while the arguments are parsed,
//! before anything loads or starts. The scenario directory does not
//! exist, so a value that got past the parser would fail to load
//! instead of starting its threads.

use std::process::{Command, Output};
use tadfa_sched::MAX_WORKERS;

fn serve(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tadfa-serve"))
        .args(["--scenarios", "no-such-scenario-dir"])
        .args(args)
        .output()
        .expect("tadfa-serve runs")
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
