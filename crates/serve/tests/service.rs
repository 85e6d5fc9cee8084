//! Acceptance tests for the persistent analysis service:
//!
//! * **golden equality** — a warm server answers every committed
//!   scenario with the fingerprint its committed golden report
//!   records, cold and warm, serially and under concurrent handling
//!   (the tentpole's determinism contract, in-process);
//! * **backpressure** — with no workers draining, requests beyond the
//!   admission queue's capacity get an immediate `queue-full` error
//!   (never a hang), and the backlog still drains once workers start;
//! * **protocol edges** — malformed lines, unknown scenarios, and
//!   expired deadlines all come back as clean, correlated errors;
//! * **end to end** — the real `tadfa-load` binary replays the
//!   committed scenarios against a spawned `tadfa-serve` in pipe mode
//!   at 1 and 4 client concurrency (exactly what the CI smoke job
//!   runs).

use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tadfa_serve::protocol::{kind, parse_request, parse_response};
use tadfa_serve::{Server, ServerConfig, Sink};

/// The committed scenario specs, shared with the offline CLI and CI.
fn scenario_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn server(queue_capacity: usize, service_workers: usize) -> Server {
    Server::load(&ServerConfig {
        scenario_dir: scenario_dir(),
        queue_capacity,
        service_workers,
        ..ServerConfig::default()
    })
    .expect("committed scenarios load")
}

/// The `fingerprint` field of a committed golden report.
fn golden_fingerprint(stem: &str) -> String {
    let path = scenario_dir().join("golden").join(format!("{stem}.json"));
    let text = std::fs::read_to_string(&path).expect("golden readable");
    tadfa_sched::json::parse(&text)
        .expect("golden parses")
        .get("fingerprint")
        .and_then(|v| v.as_str().map(str::to_string))
        .expect("golden has a fingerprint")
}

fn run_request(id: u64, stem: &str, workers: Option<usize>) -> tadfa_serve::Request {
    let workers = workers.map_or(String::new(), |w| format!(", \"workers\": {w}"));
    parse_request(&format!(
        "{{\"id\": {id}, \"op\": \"run-scenario\", \"scenario\": \"{stem}\"{workers}}}"
    ))
    .expect("well-formed request")
}

/// A sink capturing every response line for assertions.
fn capture() -> (Sink, Arc<Mutex<Vec<u8>>>) {
    #[derive(Clone)]
    struct Shared(Arc<Mutex<Vec<u8>>>);
    impl std::io::Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let buf = Arc::new(Mutex::new(Vec::new()));
    (tadfa_serve::sink(Shared(Arc::clone(&buf))), buf)
}

fn captured_lines(buf: &Arc<Mutex<Vec<u8>>>) -> Vec<String> {
    String::from_utf8(buf.lock().unwrap().clone())
        .expect("utf8 responses")
        .lines()
        .map(str::to_string)
        .collect()
}

#[test]
fn warm_concurrent_service_matches_offline_goldens() {
    let server = server(64, 2);
    let stems: Vec<String> = server
        .scenario_names()
        .iter()
        .map(|s| s.to_string())
        .collect();
    assert!(
        stems.len() >= 5,
        "committed scenario set present: {stems:?}"
    );

    // Cold pass, then a cache-warm pass with a different per-request
    // worker count: every fingerprint equals the committed golden.
    for round in 0..2 {
        for (i, stem) in stems.iter().enumerate() {
            let workers = if round == 0 { None } else { Some(1) };
            let line = server.handle(&run_request(i as u64, stem, workers), Instant::now());
            let resp = parse_response(&line).expect("response parses");
            assert!(resp.ok, "round {round} {stem}: {line}");
            assert_eq!(
                resp.fingerprint.as_deref().expect("fingerprint present"),
                golden_fingerprint(stem),
                "round {round} {stem}"
            );
        }
    }

    // Concurrent pass: 4 client threads hammer the same warm server;
    // every response still matches its golden byte for byte.
    std::thread::scope(|scope| {
        for t in 0..4 {
            let server = &server;
            let stems = &stems;
            scope.spawn(move || {
                for (i, stem) in stems.iter().enumerate() {
                    let id = (100 + t * stems.len() + i) as u64;
                    let line = server.handle(&run_request(id, stem, None), Instant::now());
                    let resp = parse_response(&line).expect("response parses");
                    assert!(resp.ok, "thread {t} {stem}: {line}");
                    assert_eq!(
                        resp.fingerprint.as_deref().unwrap(),
                        golden_fingerprint(stem),
                        "thread {t} {stem}"
                    );
                }
            });
        }
    });

    // The warm passes actually hit the cache.
    let stats = server.handle(
        &parse_request(r#"{"id": 999, "op": "stats"}"#).unwrap(),
        Instant::now(),
    );
    let stats = parse_response(&stats).unwrap();
    let scenarios = stats.doc.get("scenarios").unwrap().as_array().unwrap();
    assert_eq!(scenarios.len(), stems.len());
    let total_hits: f64 = scenarios
        .iter()
        .map(|s| {
            s.get("cache")
                .and_then(|c| c.get("hits"))
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0)
        })
        .sum();
    assert!(total_hits > 0.0, "warm rounds hit the solve cache");
    let report_hits: f64 = scenarios
        .iter()
        .map(|s| {
            s.get("cache")
                .and_then(|c| c.get("report_hits"))
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0)
        })
        .sum();
    assert!(report_hits > 0.0, "warm rounds replay the analysis memo");
}

#[test]
fn backpressure_rejects_cleanly_and_backlog_still_drains() {
    // Capacity 2, and crucially no workers draining while requests
    // flood in: everything beyond 2 must be rejected immediately.
    let server = server(2, 1);
    let stem = server.scenario_names()[0].to_string();
    let flood: String = (0..10)
        .map(|i| format!("{{\"id\": {i}, \"op\": \"run-scenario\", \"scenario\": \"{stem}\"}}\n"))
        .collect();
    let (out, buf) = capture();
    let shutdown = server
        .attach(Cursor::new(flood.into_bytes()), &out)
        .expect("in-memory reader");
    assert!(!shutdown, "EOF, not shutdown");

    let rejected = captured_lines(&buf);
    assert_eq!(rejected.len(), 8, "10 requests, 2 slots: {rejected:?}");
    for line in &rejected {
        let resp = parse_response(line).expect("rejection parses");
        assert!(!resp.ok);
        assert_eq!(resp.error.as_deref(), Some(kind::QUEUE_FULL));
        assert!(resp.id.is_some(), "rejections stay correlated: {line}");
    }
    let q = server.queue_stats();
    assert_eq!((q.accepted, q.rejected, q.depth), (2, 8, 2));

    // Once workers start and the queue closes, the admitted backlog
    // drains to completion — rejected requests lost nothing but a slot.
    let workers = server.start_workers(1);
    server.close();
    for w in workers {
        w.join().expect("worker exits at close");
    }
    let all = captured_lines(&buf);
    assert_eq!(all.len(), 10, "every request answered exactly once");
    let ok_count = all.iter().filter(|l| parse_response(l).unwrap().ok).count();
    assert_eq!(ok_count, 2, "both admitted requests completed");
    assert_eq!(server.queue_stats().depth, 0);

    // A request arriving after close is told the service is going
    // away — not "retry later".
    let late = format!("{{\"id\": 99, \"op\": \"run-scenario\", \"scenario\": \"{stem}\"}}\n");
    let (out, buf) = capture();
    server.attach(Cursor::new(late.into_bytes()), &out).unwrap();
    let lines = captured_lines(&buf);
    let resp = parse_response(&lines[0]).unwrap();
    assert_eq!(resp.error.as_deref(), Some(kind::SHUTTING_DOWN));
}

#[test]
fn protocol_edges_answer_with_correlated_errors() {
    let server = server(8, 1);
    let stem = server.scenario_names()[0].to_string();

    // Unknown scenario.
    let line = server.handle(&run_request(1, "no-such-scenario", None), Instant::now());
    let resp = parse_response(&line).unwrap();
    assert!(!resp.ok);
    assert_eq!(resp.error.as_deref(), Some(kind::UNKNOWN_SCENARIO));
    assert!(
        resp.message.unwrap().contains(&stem),
        "error lists what is loaded"
    );

    // Expired deadline: clean error, and the server still works after.
    let req = parse_request(&format!(
        "{{\"id\": 2, \"op\": \"run-scenario\", \"scenario\": \"{stem}\", \"deadline_ms\": 0}}"
    ))
    .unwrap();
    // Admitted an hour ago, so the 0 ms deadline has long passed.
    let admitted = Instant::now() - std::time::Duration::from_secs(3600);
    let resp = parse_response(&server.handle(&req, admitted)).unwrap();
    assert_eq!(resp.error.as_deref(), Some(kind::DEADLINE_EXCEEDED));
    let resp =
        parse_response(&server.handle(&run_request(3, &stem, None), Instant::now())).unwrap();
    assert!(resp.ok, "deadline abandonment leaves the engine healthy");

    // Malformed lines through the reader: correlated when possible.
    let input = "not json\n{\"id\": 7, \"op\": \"nope\"}\n{\"id\": 8, \"op\": \"ping\"}\n";
    let (out, buf) = capture();
    server
        .attach(Cursor::new(input.as_bytes().to_vec()), &out)
        .unwrap();
    let lines = captured_lines(&buf);
    assert_eq!(lines.len(), 3);
    let bad = parse_response(&lines[0]).unwrap();
    assert_eq!(
        (bad.id, bad.error.as_deref()),
        (None, Some(kind::BAD_REQUEST))
    );
    let bad = parse_response(&lines[1]).unwrap();
    assert_eq!(
        (bad.id, bad.error.as_deref()),
        (Some(7), Some(kind::BAD_REQUEST))
    );
    let pong = parse_response(&lines[2]).unwrap();
    assert!(pong.ok, "ping bypasses the queue: {}", lines[2]);
}

#[test]
fn analyze_reuses_a_scenario_environment_deterministically() {
    let server = server(8, 1);
    let stem = server.scenario_names()[0].to_string();
    let source = "func @probe(%0) {\nblock0:\n  %1 = mul %0, %0\n  %2 = add %1, %0\n  ret %2\n}\n";
    let line = format!(
        "{{\"id\": 1, \"op\": \"analyze\", \"scenario\": \"{stem}\", \"source\": {}}}",
        tadfa_sched::json::escape(source)
    );
    let req = parse_request(&line).unwrap();
    let a = parse_response(&server.handle(&req, Instant::now())).unwrap();
    assert!(a.ok, "analyze succeeds");
    assert_eq!(a.doc.get("function").unwrap().as_str(), Some("probe"));
    assert!(a.doc.get("peak_k").unwrap().as_f64().unwrap() > 0.0);
    // Same source, warm cache: identical fingerprint.
    let b = parse_response(&server.handle(&req, Instant::now())).unwrap();
    assert_eq!(a.fingerprint, b.fingerprint);

    // Unparseable source is an analysis error, not a panic.
    let req = parse_request(&format!(
        "{{\"id\": 2, \"op\": \"analyze\", \"scenario\": \"{stem}\", \"source\": \"garbage\"}}"
    ))
    .unwrap();
    let resp = parse_response(&server.handle(&req, Instant::now())).unwrap();
    assert_eq!(resp.error.as_deref(), Some(kind::ANALYSIS_FAILED));
}

#[test]
fn analyze_module_summarises_callees_and_reports_summary_stats() {
    let server = server(8, 1);
    let stem = server.scenario_names()[0].to_string();
    let source = "func @hot(%0) {\nblock0:\n  %1 = mul %0, %0\n  %2 = mul %1, %1\n  ret %2\n}\n\n\
                  func @caller(%0) {\nblock0:\n  %1 = call @hot(%0)\n  %2 = add %1, %0\n  ret %2\n}\n";
    let line = format!(
        "{{\"id\": 1, \"op\": \"analyze-module\", \"scenario\": \"{stem}\", \"source\": {}}}",
        tadfa_sched::json::escape(source)
    );
    let req = parse_request(&line).unwrap();
    let a = parse_response(&server.handle(&req, Instant::now())).unwrap();
    assert!(a.ok, "analyze-module succeeds: {a:?}");
    let names: Vec<&str> = a
        .doc
        .get("functions")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|v| v.as_str().unwrap())
        .collect();
    assert_eq!(names, ["hot", "caller"], "module order");
    assert!(a.doc.get("peak_k").unwrap().as_f64().unwrap() > 0.0);
    assert_eq!(a.doc.get("converged").unwrap().as_bool(), Some(true));
    // Same module, warm cache: identical fingerprint.
    let b = parse_response(&server.handle(&req, Instant::now())).unwrap();
    assert_eq!(a.fingerprint, b.fingerprint);

    // A recursive module is a clean analysis error, not a hang.
    let rec = "func @loop(%0) {\nblock0:\n  %1 = call @loop(%0)\n  ret %1\n}\n";
    let req = parse_request(&format!(
        "{{\"id\": 2, \"op\": \"analyze-module\", \"scenario\": \"{stem}\", \"source\": {}}}",
        tadfa_sched::json::escape(rec)
    ))
    .unwrap();
    let resp = parse_response(&server.handle(&req, Instant::now())).unwrap();
    assert_eq!(resp.error.as_deref(), Some(kind::ANALYSIS_FAILED));
    assert!(resp.message.unwrap().contains("recursi"), "names the cycle");

    // The stats response surfaces the summary-cache counters and the
    // module-analyze count.
    let stats = server.handle(
        &parse_request(r#"{"id": 9, "op": "stats"}"#).unwrap(),
        Instant::now(),
    );
    let stats = parse_response(&stats).unwrap();
    let scenarios = stats.doc.get("scenarios").unwrap().as_array().unwrap();
    let env = scenarios
        .iter()
        .find(|s| s.get("name").and_then(|v| v.as_str()) == Some(stem.as_str()))
        .expect("stats lists the scenario");
    assert_eq!(
        env.get("module_analyzes").and_then(|v| v.as_f64()),
        Some(2.0)
    );
    let cache = env.get("cache").unwrap();
    assert!(cache.get("summary_stores").unwrap().as_f64().unwrap() >= 1.0);
    assert!(
        cache.get("summary_hits").unwrap().as_f64().unwrap() >= 1.0,
        "the warm repeat reused the memoized summary"
    );
}

/// The CI smoke job, in-tree: the real binaries, pipe mode, 1 and 4
/// client concurrency, every committed scenario, golden-diffed.
#[test]
fn load_client_replays_goldens_through_a_spawned_server() {
    let scenarios = scenario_dir();
    for concurrency in ["1", "4"] {
        let status = std::process::Command::new(env!("CARGO_BIN_EXE_tadfa-load"))
            .arg("--spawn")
            .arg(env!("CARGO_BIN_EXE_tadfa-serve"))
            .arg("--scenarios")
            .arg(&scenarios)
            .args(["--concurrency", concurrency, "--repeat", "2"])
            .status()
            .expect("tadfa-load spawns");
        assert!(
            status.success(),
            "tadfa-load --concurrency {concurrency} failed: {status}"
        );
    }
}
