//! The wire protocol: JSON lines in both directions.
//!
//! A client sends one JSON object per line; the service answers with
//! one JSON object per line. Lines are the framing — no value may
//! contain a raw newline (the [`json::escape`] writer guarantees this
//! for everything the service emits). Responses carry the request's
//! `id` and may arrive **out of order** when the service processes
//! requests concurrently; clients correlate by id.
//!
//! # Requests
//!
//! ```json
//! {"id": 1, "op": "run-scenario", "scenario": "solo_baseline"}
//! {"id": 2, "op": "run-scenario", "scenario": "octa_shard", "workers": 2, "deadline_ms": 5000}
//! {"id": 3, "op": "analyze", "scenario": "solo_baseline", "source": "func @f(%0) { ... }"}
//! {"id": 4, "op": "analyze-module", "scenario": "solo_baseline", "source": "func @leaf(%0) { ... } func @main(%0) { ... }"}
//! {"id": 5, "op": "stats"}
//! {"id": 6, "op": "reload"}
//! {"id": 7, "op": "ping"}
//! {"id": 8, "op": "shutdown"}
//! ```
//!
//! `id` is a non-negative integer chosen by the client; `workers` and
//! `deadline_ms` are the per-request overrides forwarded to the
//! engine ([`RunOverrides`](tadfa_sched::RunOverrides)). `workers` is
//! at most [`MAX_WORKERS`] (256), the limit the scenario-spec reader
//! puts on `[schedule] workers`. On
//! `run-scenario`, `workers` only affects a cold run: once the
//! scenario's analysis memo is filled, its runs replay the memo and
//! use no engine workers (see
//! [`PreparedScenario`](tadfa_sched::PreparedScenario)). Unknown ops
//! and unknown keys are rejected — a typo cannot silently run a
//! different request than intended, mirroring the scenario-spec
//! reader's philosophy.
//!
//! # Responses
//!
//! Success: `{"id": N, "ok": true, "op": "...", ...}` with op-specific
//! fields — most importantly `fingerprint`, which for `run-scenario`
//! is **exactly** the fingerprint the offline `tadfa run` golden
//! reports record (the service ≡ batch contract).
//! Failure: `{"id": N, "ok": false, "error": "<kind>", "message": "..."}`
//! where `<kind>` is one of the [`kind`] constants; `id` is `null`
//! only when the request line was too malformed to carry one.

use tadfa_sched::json::{self, escape, number, JsonValue};
use tadfa_sched::{hex_fingerprint, ScenarioResult, MAX_WORKERS};

/// Machine-readable error kinds carried in the `error` field.
pub mod kind {
    /// The request line was not valid protocol JSON.
    pub const BAD_REQUEST: &str = "bad-request";
    /// The named scenario is not loaded in this service.
    pub const UNKNOWN_SCENARIO: &str = "unknown-scenario";
    /// The admission queue was full; the request was never admitted.
    /// Retry later — nothing was computed.
    pub const QUEUE_FULL: &str = "queue-full";
    /// The service is shutting down; the request was never admitted
    /// and retrying against this server is pointless.
    pub const SHUTTING_DOWN: &str = "shutting-down";
    /// The request's deadline passed before its work finished.
    pub const DEADLINE_EXCEEDED: &str = "deadline-exceeded";
    /// The analysis itself failed (bad IR source, allocation failure).
    pub const ANALYSIS_FAILED: &str = "analysis-failed";
    /// The request line exceeded the configured size cap before a
    /// newline arrived; the connection is closed after this response.
    pub const REQUEST_TOO_LARGE: &str = "request-too-large";
    /// The request waited past the latency SLO before a worker could
    /// start it, so it was shed without computing — retrying later (or
    /// elsewhere) beats serving a uselessly late answer.
    pub const SLO_SHED: &str = "slo-shed";
    /// A `reload` failed; the previous environment stays in service.
    pub const RELOAD_FAILED: &str = "reload-failed";
    /// The fleet router shed the request: its own admission queue was
    /// full, or no worker answered within the retry budget and another
    /// retry would breach the request's deadline. Retryable — nothing
    /// was computed — and the typed form of graceful degradation (the
    /// router degrades loudly rather than hanging or dropping).
    pub const FLEET_OVERLOADED: &str = "fleet-overloaded";
}

/// One parsed request.
#[derive(Clone, PartialEq, Debug)]
pub struct Request {
    /// Client-chosen correlation id, echoed into the response.
    pub id: u64,
    /// What to do.
    pub op: Op,
}

/// The operation a [`Request`] asks for.
#[derive(Clone, PartialEq, Debug)]
pub enum Op {
    /// Run a loaded scenario end to end on its warm engine.
    RunScenario {
        /// Scenario stem (the spec's file stem, as listed at startup).
        scenario: String,
        /// Per-request engine worker override.
        workers: Option<usize>,
        /// Per-request deadline, milliseconds from admission.
        deadline_ms: Option<u64>,
    },
    /// Analyze one IR function in a loaded scenario's environment.
    Analyze {
        /// Scenario stem whose session/engine/cache to analyze under.
        scenario: String,
        /// The function, in `.tir` text form.
        source: String,
        /// Per-request engine worker override.
        workers: Option<usize>,
        /// Per-request deadline, milliseconds from admission.
        deadline_ms: Option<u64>,
    },
    /// Analyze a whole IR module interprocedurally (functions may
    /// `call` each other; callee bodies are summarised once, bottom-up)
    /// in a loaded scenario's environment.
    AnalyzeModule {
        /// Scenario stem whose session/engine/cache to analyze under.
        scenario: String,
        /// The module (one or more functions), in `.tir` text form.
        source: String,
        /// Per-request engine worker override.
        workers: Option<usize>,
        /// Per-request deadline, milliseconds from admission.
        deadline_ms: Option<u64>,
    },
    /// Report service counters (per-scenario cache stats, queue depth).
    Stats,
    /// Re-resolve and re-prepare the scenario directory, atomically
    /// swapping the environment; in-flight requests finish against
    /// whichever environment they resolve.
    Reload,
    /// Liveness probe; answered immediately, never queued.
    Ping,
    /// Stop accepting requests, drain, and exit.
    Shutdown,
}

/// A request-line rejection: what was wrong, and the id to echo into
/// the error response when the line was well-formed enough to carry
/// one.
#[derive(Clone, PartialEq, Debug)]
pub struct RequestError {
    /// The request id, when one could be extracted.
    pub id: Option<u64>,
    /// What went wrong.
    pub message: String,
}

impl RequestError {
    fn new(id: Option<u64>, message: impl Into<String>) -> RequestError {
        RequestError {
            id,
            message: message.into(),
        }
    }
}

/// Reads a `u64` out of a JSON number field (rejecting negatives and
/// fractions).
fn as_u64(v: &JsonValue, key: &str) -> Result<u64, String> {
    match v.as_f64() {
        Some(n) if n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64 => Ok(n as u64),
        _ => Err(format!("'{key}' must be a non-negative integer")),
    }
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a [`RequestError`] (carrying the id when extractable) for
/// malformed JSON, a missing/invalid `id` or `op`, an unknown op,
/// unknown keys, or missing/mis-typed op arguments.
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    let doc = json::parse(line).map_err(|e| RequestError::new(None, e.to_string()))?;
    let members = doc
        .as_object()
        .ok_or_else(|| RequestError::new(None, "request must be a JSON object"))?;
    let id = match doc.get("id") {
        Some(v) => Some(as_u64(v, "id").map_err(|m| RequestError::new(None, m))?),
        None => None,
    };
    let fail = |m: String| RequestError::new(id, m);
    let id = id.ok_or_else(|| RequestError::new(None, "missing 'id'".to_string()))?;
    let op_name = doc
        .get("op")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| fail("missing or non-string 'op'".to_string()))?;

    let allowed: &[&str] = match op_name {
        "run-scenario" => &["id", "op", "scenario", "workers", "deadline_ms"],
        "analyze" | "analyze-module" => {
            &["id", "op", "scenario", "source", "workers", "deadline_ms"]
        }
        "stats" | "reload" | "ping" | "shutdown" => &["id", "op"],
        other => return Err(fail(format!("unknown op '{other}'"))),
    };
    for (key, _) in members {
        if !allowed.contains(&key.as_str()) {
            return Err(fail(format!(
                "unknown key '{key}' for op '{op_name}' (allowed: {})",
                allowed.join(", ")
            )));
        }
    }

    let str_field = |key: &str| -> Result<String, RequestError> {
        doc.get(key)
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .ok_or_else(|| RequestError::new(id.into(), format!("missing or non-string '{key}'")))
    };
    let u64_field = |key: &str| -> Result<Option<u64>, RequestError> {
        match doc.get(key) {
            None => Ok(None),
            Some(v) => as_u64(v, key)
                .map(Some)
                .map_err(|m| RequestError::new(id.into(), m)),
        }
    };
    let workers_field = || -> Result<Option<usize>, RequestError> {
        match u64_field("workers")? {
            Some(w) if w > MAX_WORKERS as u64 => Err(RequestError::new(
                id.into(),
                format!("'workers' = {w} exceeds the limit of {MAX_WORKERS}"),
            )),
            w => Ok(w.map(|w| w as usize)),
        }
    };

    let op = match op_name {
        "run-scenario" => Op::RunScenario {
            scenario: str_field("scenario")?,
            workers: workers_field()?,
            deadline_ms: u64_field("deadline_ms")?,
        },
        "analyze" => Op::Analyze {
            scenario: str_field("scenario")?,
            source: str_field("source")?,
            workers: workers_field()?,
            deadline_ms: u64_field("deadline_ms")?,
        },
        "analyze-module" => Op::AnalyzeModule {
            scenario: str_field("scenario")?,
            source: str_field("source")?,
            workers: workers_field()?,
            deadline_ms: u64_field("deadline_ms")?,
        },
        "stats" => Op::Stats,
        "reload" => Op::Reload,
        "ping" => Op::Ping,
        "shutdown" => Op::Shutdown,
        _ => unreachable!("op validated above"),
    };
    Ok(Request { id, op })
}

/// The success response for `run-scenario`: the scenario fingerprint
/// (byte-for-byte the value the offline golden reports record) plus
/// the headline die numbers.
pub fn scenario_response(id: u64, stem: &str, r: &ScenarioResult) -> String {
    format!(
        "{{\"id\": {id}, \"ok\": true, \"op\": \"run-scenario\", \"scenario\": {}, \
         \"fingerprint\": {}, \"cores\": {}, \"tasks\": {}, \"migrations\": {}, \
         \"transient_peak_k\": {}, \"steady_peak_k\": {}, \"makespan_s\": {}}}",
        escape(stem),
        escape(&hex_fingerprint(r.fingerprint())),
        r.cores,
        r.tasks.len(),
        r.migrations,
        number(r.die.transient_peak),
        number(r.die.steady_peak),
        number(r.die.makespan),
    )
}

/// The success response for `analyze`: the report fingerprint and the
/// headline analysis numbers.
pub fn analyze_response(
    id: u64,
    stem: &str,
    func: &str,
    fingerprint: u128,
    peak_k: f64,
    converged: bool,
) -> String {
    format!(
        "{{\"id\": {id}, \"ok\": true, \"op\": \"analyze\", \"scenario\": {}, \
         \"function\": {}, \"fingerprint\": {}, \"peak_k\": {}, \"converged\": {converged}}}",
        escape(stem),
        escape(func),
        escape(&hex_fingerprint(fingerprint)),
        number(peak_k),
    )
}

/// The success response for `analyze-module`: the module fingerprint
/// (folding every function's name and report fingerprint, in module
/// order), the function names, and the module-wide headline numbers.
pub fn analyze_module_response(
    id: u64,
    stem: &str,
    functions: &[&str],
    fingerprint: u128,
    peak_k: f64,
    converged: bool,
) -> String {
    let mut names = String::new();
    for (i, f) in functions.iter().enumerate() {
        if i > 0 {
            names.push_str(", ");
        }
        names.push_str(&escape(f));
    }
    format!(
        "{{\"id\": {id}, \"ok\": true, \"op\": \"analyze-module\", \"scenario\": {}, \
         \"functions\": [{names}], \"fingerprint\": {}, \"peak_k\": {}, \"converged\": {converged}}}",
        escape(stem),
        escape(&hex_fingerprint(fingerprint)),
        number(peak_k),
    )
}

/// The success response for `ping`.
pub fn pong_response(id: u64) -> String {
    format!("{{\"id\": {id}, \"ok\": true, \"op\": \"ping\"}}")
}

/// The success response for `reload`: how many scenarios the fresh
/// environment serves.
pub fn reload_response(id: u64, scenarios: usize) -> String {
    format!("{{\"id\": {id}, \"ok\": true, \"op\": \"reload\", \"scenarios\": {scenarios}}}")
}

/// The success response for `shutdown` (sent before the service
/// drains and exits).
pub fn shutdown_response(id: u64) -> String {
    format!("{{\"id\": {id}, \"ok\": true, \"op\": \"shutdown\"}}")
}

/// An error response; `id` is `null` when the request line did not
/// carry a usable one.
pub fn error_response(id: Option<u64>, error_kind: &str, message: &str) -> String {
    let id = id.map_or_else(|| "null".to_string(), |v| v.to_string());
    format!(
        "{{\"id\": {id}, \"ok\": false, \"error\": {}, \"message\": {}}}",
        escape(error_kind),
        escape(message),
    )
}

/// A response as the client sees it: the envelope fields pre-extracted
/// plus the full document for op-specific fields.
#[derive(Clone, PartialEq, Debug)]
pub struct ParsedResponse {
    /// The echoed request id (`None` for a `null` id on a parse-reject).
    pub id: Option<u64>,
    /// Whether the request succeeded.
    pub ok: bool,
    /// The `fingerprint` field, when present.
    pub fingerprint: Option<String>,
    /// The error kind ([`kind`]) on failure.
    pub error: Option<String>,
    /// The human-readable failure message.
    pub message: Option<String>,
    /// The whole response document.
    pub doc: JsonValue,
}

/// Parses one response line (the client half of the protocol).
///
/// # Errors
///
/// Returns the underlying [`json::JsonError`] message for a line that
/// is not a JSON object with a boolean `ok`.
pub fn parse_response(line: &str) -> Result<ParsedResponse, String> {
    let doc = json::parse(line).map_err(|e| e.to_string())?;
    let ok = doc
        .get("ok")
        .and_then(JsonValue::as_bool)
        .ok_or("response has no boolean 'ok'")?;
    let id = doc.get("id").and_then(JsonValue::as_f64).map(|n| n as u64);
    Ok(ParsedResponse {
        id,
        ok,
        fingerprint: doc
            .get("fingerprint")
            .and_then(JsonValue::as_str)
            .map(str::to_string),
        error: doc
            .get("error")
            .and_then(JsonValue::as_str)
            .map(str::to_string),
        message: doc
            .get("message")
            .and_then(JsonValue::as_str)
            .map(str::to_string),
        doc,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_parse_with_overrides_and_defaults() {
        let r = parse_request(
            r#"{"id": 7, "op": "run-scenario", "scenario": "solo", "workers": 2, "deadline_ms": 50}"#,
        )
        .unwrap();
        assert_eq!(r.id, 7);
        assert_eq!(
            r.op,
            Op::RunScenario {
                scenario: "solo".to_string(),
                workers: Some(2),
                deadline_ms: Some(50),
            }
        );
        let r = parse_request(r#"{"id": 0, "op": "run-scenario", "scenario": "s"}"#).unwrap();
        assert!(matches!(
            r.op,
            Op::RunScenario {
                workers: None,
                deadline_ms: None,
                ..
            }
        ));
        let r = parse_request(r#"{"id": 1, "op": "analyze", "scenario": "s", "source": "func"}"#)
            .unwrap();
        assert!(matches!(r.op, Op::Analyze { .. }));
        for (op, expected) in [
            ("stats", Op::Stats),
            ("reload", Op::Reload),
            ("ping", Op::Ping),
            ("shutdown", Op::Shutdown),
        ] {
            let r = parse_request(&format!(r#"{{"id": 2, "op": "{op}"}}"#)).unwrap();
            assert_eq!(r.op, expected);
        }
    }

    #[test]
    fn malformed_requests_carry_the_id_when_possible() {
        // No id extractable: the error response must use null.
        assert_eq!(parse_request("not json").unwrap_err().id, None);
        assert_eq!(parse_request(r#"{"op": "ping"}"#).unwrap_err().id, None);
        assert_eq!(parse_request(r#"[1, 2]"#).unwrap_err().id, None);
        assert_eq!(
            parse_request(r#"{"id": -1, "op": "ping"}"#).unwrap_err().id,
            None
        );
        // Id extractable: later failures still correlate.
        let e = parse_request(r#"{"id": 9, "op": "nope"}"#).unwrap_err();
        assert_eq!(e.id, Some(9));
        let e = parse_request(r#"{"id": 9, "op": "run-scenario"}"#).unwrap_err();
        assert_eq!((e.id, e.message.contains("scenario")), (Some(9), true));
        let e = parse_request(r#"{"id": 9, "op": "ping", "bogus": 1}"#).unwrap_err();
        assert!(e.message.contains("bogus"), "{}", e.message);
        let e =
            parse_request(r#"{"id": 9, "op": "run-scenario", "scenario": "s", "workers": 1.5}"#)
                .unwrap_err();
        assert!(e.message.contains("workers"), "{}", e.message);
        // The worker cap names the field, on every op that takes it.
        for line in [
            r#"{"id": 9, "op": "run-scenario", "scenario": "s", "workers": 257}"#,
            r#"{"id": 9, "op": "analyze", "scenario": "s", "source": "", "workers": 257}"#,
            r#"{"id": 9, "op": "analyze-module", "scenario": "s", "source": "", "workers": 100000}"#,
        ] {
            let e = parse_request(line).unwrap_err();
            assert_eq!(e.id, Some(9), "{line}");
            assert!(
                e.message.contains("workers") && e.message.contains("256"),
                "{}",
                e.message
            );
        }
        let r =
            parse_request(r#"{"id": 9, "op": "run-scenario", "scenario": "s", "workers": 256}"#)
                .unwrap();
        assert!(
            matches!(
                r.op,
                Op::RunScenario {
                    workers: Some(256),
                    ..
                }
            ),
            "{r:?}"
        );
    }

    #[test]
    fn responses_are_single_lines_that_round_trip() {
        let lines = [
            analyze_response(3, "solo", "f\"n", 0xAB, 341.5, true),
            pong_response(1),
            shutdown_response(2),
            error_response(None, kind::BAD_REQUEST, "broken\nline"),
            error_response(Some(4), kind::QUEUE_FULL, "queue full (capacity 8)"),
        ];
        for line in &lines {
            assert!(!line.contains('\n'), "framing: {line}");
            let p = parse_response(line).unwrap();
            assert_eq!(p.ok, p.error.is_none());
        }
        let p = parse_response(&lines[0]).unwrap();
        assert_eq!(p.id, Some(3));
        assert_eq!(
            p.fingerprint.as_deref(),
            Some("0x000000000000000000000000000000ab")
        );
        assert_eq!(p.doc.get("function").unwrap().as_str(), Some("f\"n"));
        let p = parse_response(&lines[3]).unwrap();
        assert_eq!(p.id, None);
        assert_eq!(p.error.as_deref(), Some(kind::BAD_REQUEST));
        assert_eq!(p.message.as_deref(), Some("broken\nline"));
        assert!(parse_response("{}").is_err());
        assert!(parse_response("nope").is_err());
    }
}
