//! Drives the `tadfa` binary: its exit codes are the interface CI's
//! golden gate relies on — `0` when the fingerprint matches, `1` on
//! drift, `2` for usage and spec errors.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn tadfa(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tadfa"))
        .args(args)
        .output()
        .expect("the tadfa binary runs")
}

fn repo(rel: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(rel)
        .to_str()
        .unwrap()
        .to_string()
}

/// A scratch directory removed on drop (best-effort).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("tadfa-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir creatable");
        TempDir(dir)
    }

    fn file(&self, name: &str, contents: &str) -> String {
        let path = self.0.join(name);
        std::fs::write(&path, contents).expect("temp file writable");
        path.to_str().unwrap().to_string()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const SPEC: &str = "scenarios/solo_baseline.toml";
const GOLDEN: &str = "scenarios/golden/solo_baseline.json";

#[test]
fn check_against_the_golden_exits_0() {
    let out = tadfa(&["check", &repo(SPEC), "--expected", &repo(GOLDEN)]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("byte-identical"), "{stdout}");
}

#[test]
fn check_against_a_tampered_golden_exits_1() {
    let golden = std::fs::read_to_string(repo(GOLDEN)).unwrap();
    // Change one digit of the fingerprint's value.
    let at = golden
        .find("\"fingerprint\"")
        .expect("golden has a fingerprint");
    let digit = at + golden[at..].find("0x").expect("hex fingerprint") + 2;
    let mut tampered = golden.into_bytes();
    tampered[digit] = if tampered[digit] == b'0' { b'1' } else { b'0' };
    let dir = TempDir::new("tampered");
    let expected = dir.file("golden.json", std::str::from_utf8(&tampered).unwrap());
    let out = tadfa(&["check", &repo(SPEC), "--expected", &expected]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("FINGERPRINT DRIFT"), "{stderr}");
}

#[test]
fn the_retired_fast_flag_exits_2() {
    let out = tadfa(&[
        "check",
        &repo(SPEC),
        "--expected",
        &repo(GOLDEN),
        "--allow-fast",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag"), "{stderr}");
}

#[test]
fn a_spec_naming_the_retired_solver_key_exits_2() {
    let spec = std::fs::read_to_string(repo(SPEC)).unwrap();
    let dir = TempDir::new("solver");
    let path = dir.file("fast.toml", &format!("{spec}\n[dfa]\nsolver = \"fast\"\n"));
    let out = tadfa(&["run", &path]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown key 'solver'"), "{stderr}");
}

/// `--workers` is capped at `MAX_WORKERS` and must be at least 1; both
/// are rejected while the arguments are parsed. The spec does not
/// exist, so a value that got past the parser would fail to load
/// instead of running.
#[test]
fn worker_counts_outside_1_to_the_limit_exit_2() {
    let limit = tadfa::sched::MAX_WORKERS;
    let over = (limit + 1).to_string();
    let (spec, golden) = (repo("scenarios/no_such_spec.toml"), repo(GOLDEN));
    for workers in ["0", over.as_str()] {
        for args in [
            vec!["run", &spec, "--workers", workers],
            vec!["check", &spec, "--expected", &golden, "--workers", workers],
        ] {
            let out = tadfa(&args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
            assert!(
                stderr.contains("--workers") && stderr.contains(&format!("limit of {limit}")),
                "{args:?}: {stderr}"
            );
        }
    }
}
