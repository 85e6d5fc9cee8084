//! Drives `tadfa-load`'s gates on the real binaries: CI relies on its
//! exit codes — `0` when every reply matches its golden and every gate
//! holds, `1` on a mismatch, an SLO breach or a failed expectation, `2`
//! for usage errors. Each case replays `solo_baseline` alone through a
//! spawned `tadfa-serve` in pipe mode.

#[allow(dead_code)] // the fleet helpers go unused here
mod common;

use common::{mini_scenarios, TempDir};
use std::path::Path;
use std::process::{Command, Output};

/// Runs `tadfa-load --spawn tadfa-serve --scenarios <scenarios>` with
/// `extra` appended.
fn load(scenarios: &Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tadfa-load"))
        .arg("--spawn")
        .arg(env!("CARGO_BIN_EXE_tadfa-serve"))
        .arg("--scenarios")
        .arg(scenarios)
        .args(extra)
        .output()
        .expect("tadfa-load runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn a_clean_replay_exits_0() {
    let tmp = TempDir::new("load-clean");
    let out = load(&mini_scenarios(tmp.path()), &[]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
}

#[test]
fn a_golden_off_by_one_hex_digit_exits_1() {
    let tmp = TempDir::new("load-mismatch");
    let scenarios = mini_scenarios(tmp.path());
    let golden = scenarios.join("golden/solo_baseline.json");
    let text = std::fs::read_to_string(&golden).unwrap();
    let at = text
        .find("\"fingerprint\"")
        .expect("golden has a fingerprint");
    let digit = at + text[at..].find("0x").expect("hex fingerprint") + 2;
    let mut tampered = text.into_bytes();
    tampered[digit] = if tampered[digit] == b'0' { b'1' } else { b'0' };
    std::fs::write(&golden, tampered).unwrap();

    let out = load(&scenarios, &[]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("MISMATCH"), "{}", stderr(&out));
}

#[test]
fn a_breached_p99_budget_exits_1() {
    let tmp = TempDir::new("load-slo");
    let out = load(&mini_scenarios(tmp.path()), &["--slo-p99-ms", "0.000001"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("SLO BREACH"), "{}", stderr(&out));
}

#[test]
fn unmet_cache_expectations_exit_1() {
    let tmp = TempDir::new("load-expect");
    let scenarios = mini_scenarios(tmp.path());
    let out = load(&scenarios, &["--expect-cache-hits", "1000000000"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("cache hits"), "{}", stderr(&out));
    // Without a --cache-dir nothing is preloaded.
    let out = load(&scenarios, &["--expect-preloaded", "1"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("preloaded"), "{}", stderr(&out));
}

#[test]
fn report_writer_flags_are_unknown_arguments() {
    let tmp = TempDir::new("load-flags");
    let scenarios = mini_scenarios(tmp.path());
    for flag in [
        "--bench-out",
        "--samples-out",
        "--trend-out",
        "--date",
        "--bench-label",
    ] {
        let out = load(&scenarios, &[flag, "x"]);
        assert_eq!(out.status.code(), Some(2), "{flag}: {}", stderr(&out));
        assert!(
            stderr(&out).contains("unknown argument"),
            "{flag}: {}",
            stderr(&out)
        );
    }
}
