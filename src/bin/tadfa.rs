//! `tadfa` — the headless scenario runner.
//!
//! Loads a declarative multi-core scenario spec (TOML or JSON, see
//! `tadfa_sched::spec`), runs it through the `Session`/`Engine`/
//! scheduler stack, and emits the deterministic machine-readable JSON
//! report (`tadfa_sched::render_report`). The `check` subcommand is the
//! CI golden-report gate: it re-runs a spec and diffs the scenario
//! fingerprint against a committed expected report.
//!
//! ```text
//! tadfa run <spec> [--out <file>] [--workers N]
//! tadfa check <spec> --expected <report.json> [--workers N]
//! tadfa policies
//! ```
//!
//! Exit codes: `0` success / fingerprints match, `1` fingerprint
//! mismatch, `2` usage or configuration error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use tadfa::sched::{
    json, load_spec, render_report, run_scenario, ScenarioConfig, ScenarioResult, DTM_POLICY_INFO,
    MAPPING_POLICY_INFO,
};

const USAGE: &str = "\
tadfa — multi-core thermal scenario runner

USAGE:
    tadfa run <spec.toml|spec.json> [--out <file>] [--workers N]
    tadfa check <spec> --expected <report.json> [--workers N]
    tadfa policies
    tadfa help

`run` prints the deterministic JSON report to stdout (or --out FILE).
`check` re-runs the spec and compares the scenario fingerprint against
the expected report — the CI golden gate. `policies` lists the built-in
mapping and DTM policies.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("policies") => {
            println!("Mapping policies:");
            for (name, what) in MAPPING_POLICY_INFO {
                println!("  {name:<17} {what}");
            }
            println!();
            println!("DTM policies:");
            for (name, what) in DTM_POLICY_INFO {
                println!("  {name:<17} {what}");
            }
            ExitCode::SUCCESS
        }
        Some("help") | Some("--help") | Some("-h") | None => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown subcommand '{other}'\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Parsed common flags: the spec path plus optional overrides.
struct CommonArgs {
    spec: PathBuf,
    workers: Option<usize>,
    out: Option<PathBuf>,
    expected: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<CommonArgs, String> {
    let mut spec = None;
    let mut workers = None;
    let mut out = None;
    let mut expected = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workers" => {
                let v = it.next().ok_or("--workers needs a value")?;
                workers = Some(
                    v.parse::<usize>()
                        .map_err(|_| format!("--workers needs a positive integer, got '{v}'"))?,
                );
            }
            "--out" => out = Some(PathBuf::from(it.next().ok_or("--out needs a path")?)),
            "--expected" => {
                expected = Some(PathBuf::from(it.next().ok_or("--expected needs a path")?))
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            path if spec.is_none() => spec = Some(PathBuf::from(path)),
            extra => return Err(format!("unexpected argument '{extra}'")),
        }
    }
    Ok(CommonArgs {
        spec: spec.ok_or("missing <spec> path")?,
        workers,
        out,
        expected,
    })
}

/// Loads a spec and applies command-line overrides.
fn load_with_overrides(spec: &Path, workers: Option<usize>) -> Result<ScenarioConfig, String> {
    let mut cfg = load_spec(spec).map_err(|e| e.to_string())?;
    if let Some(w) = workers {
        cfg.workers = w;
    }
    Ok(cfg)
}

fn execute(cfg: &ScenarioConfig) -> Result<ScenarioResult, String> {
    run_scenario(cfg).map_err(|e| format!("scenario '{}' failed: {e}", cfg.name))
}

fn cmd_run(args: &[String]) -> ExitCode {
    let args = match parse_args(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.expected.is_some() {
        eprintln!("--expected only applies to `check`\n\n{USAGE}");
        return ExitCode::from(2);
    }
    let result = match load_with_overrides(&args.spec, args.workers).and_then(|cfg| execute(&cfg)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let report = render_report(&result);
    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &report) {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::from(2);
            }
            eprintln!("wrote {}", path.display());
        }
        None => print!("{report}"),
    }
    ExitCode::SUCCESS
}

fn cmd_check(args: &[String]) -> ExitCode {
    let args = match parse_args(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.out.is_some() {
        eprintln!("--out only applies to `run`\n\n{USAGE}");
        return ExitCode::from(2);
    }
    let Some(expected_path) = &args.expected else {
        eprintln!("check needs --expected <report.json>\n\n{USAGE}");
        return ExitCode::from(2);
    };
    let expected_text = match std::fs::read_to_string(expected_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {}: {e}", expected_path.display());
            return ExitCode::from(2);
        }
    };
    let expected_fp = match json::parse(&expected_text)
        .map_err(|e| e.to_string())
        .and_then(|doc| {
            doc.get("fingerprint")
                .and_then(|v| v.as_str().map(str::to_string))
                .ok_or_else(|| "expected report has no \"fingerprint\" field".to_string())
        }) {
        Ok(fp) => fp,
        Err(e) => {
            eprintln!("{}: {e}", expected_path.display());
            return ExitCode::from(2);
        }
    };

    let cfg = match load_with_overrides(&args.spec, args.workers) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let result = match execute(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let report = render_report(&result);
    let actual_fp = tadfa::sched::hex_fingerprint(result.fingerprint());
    if actual_fp != expected_fp {
        eprintln!(
            "FINGERPRINT DRIFT for {}:\n  expected {expected_fp}  ({})\n  actual   {actual_fp}",
            args.spec.display(),
            expected_path.display(),
        );
        eprintln!(
            "If the change is intentional, refresh the golden report:\n  \
             tadfa run {} --out {}",
            args.spec.display(),
            expected_path.display()
        );
        return ExitCode::from(1);
    }
    let bytes_match = report == expected_text;
    println!(
        "OK {}: fingerprint {actual_fp} matches{}",
        args.spec.display(),
        if bytes_match {
            " (report byte-identical)"
        } else {
            " (report text differs — schema change without fingerprint impact)"
        }
    );
    ExitCode::SUCCESS
}
