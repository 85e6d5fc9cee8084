//! Robustness of the JSON-lines request parser against hostile bytes:
//! every line a connection can deliver, after the lossy UTF-8
//! conversion and the trim both doors apply, must parse to a `Request`
//! or return a typed `RequestError` whose `bad-request` response is one
//! well-formed line, and must never panic.
//!
//! (Seeded-loop style: the offline build has no proptest, so cases are
//! drawn from the workspace's deterministic `rand` stub.)

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use tadfa_sched::json::escape;
use tadfa_serve::protocol::{error_response, kind, parse_response};
use tadfa_serve::{parse_request, Op};

const FUNCTION: &str =
    "func @probe(%0) {\nblock0:\n  %1 = mul %0, %0\n  %2 = add %1, %0\n  ret %2\n}\n";

const MODULE: &str = "func @hot(%0) {\nblock0:\n  %1 = mul %0, %0\n  ret %1\n}\n\n\
                      func @caller(%0) {\nblock0:\n  %1 = call @hot(%0)\n  %2 = add %1, %0\n  ret %2\n}\n";

/// One valid line per op, each overridable op with `workers` and
/// `deadline_ms`.
fn valid_lines() -> Vec<String> {
    vec![
        r#"{"id": 1, "op": "run-scenario", "scenario": "solo_baseline", "workers": 2, "deadline_ms": 5000}"#
            .to_string(),
        format!(
            r#"{{"id": 2, "op": "analyze", "scenario": "solo_baseline", "source": {}, "workers": 1, "deadline_ms": 250}}"#,
            escape(FUNCTION)
        ),
        format!(
            r#"{{"id": 3, "op": "analyze-module", "scenario": "solo_baseline", "source": {}, "workers": 3, "deadline_ms": 90}}"#,
            escape(MODULE)
        ),
        r#"{"id": 4, "op": "stats"}"#.to_string(),
        r#"{"id": 5, "op": "reload"}"#.to_string(),
        r#"{"id": 6, "op": "ping"}"#.to_string(),
        r#"{"id": 7, "op": "shutdown"}"#.to_string(),
    ]
}

/// Parses `bytes` as a reactor shard does. A rejection must answer as
/// one line that a client parses back to the same error.
fn check(bytes: &[u8]) {
    let line = String::from_utf8_lossy(bytes);
    if let Err(e) = parse_request(line.trim()) {
        assert!(!e.message.is_empty(), "an error says what went wrong");
        let response = error_response(e.id, kind::BAD_REQUEST, &e.message);
        assert!(!response.contains('\n'), "one line: {response}");
        let parsed = parse_response(&response).expect("an error response parses");
        assert!(!parsed.ok);
        assert_eq!(parsed.error.as_deref(), Some(kind::BAD_REQUEST));
        assert_eq!(parsed.message.as_deref(), Some(e.message.as_str()));
    }
}

#[test]
fn valid_lines_parse_with_their_overrides() {
    let ops: Vec<Op> = valid_lines()
        .iter()
        .map(|line| parse_request(line).expect("a valid line parses").op)
        .collect();
    assert_eq!(
        ops[0],
        Op::RunScenario {
            scenario: "solo_baseline".to_string(),
            workers: Some(2),
            deadline_ms: Some(5000),
        }
    );
    assert_eq!(
        ops[1],
        Op::Analyze {
            scenario: "solo_baseline".to_string(),
            source: FUNCTION.to_string(),
            workers: Some(1),
            deadline_ms: Some(250),
        }
    );
    assert_eq!(
        ops[2],
        Op::AnalyzeModule {
            scenario: "solo_baseline".to_string(),
            source: MODULE.to_string(),
            workers: Some(3),
            deadline_ms: Some(90),
        }
    );
    assert_eq!(ops[3..], [Op::Stats, Op::Reload, Op::Ping, Op::Shutdown]);
}

#[test]
fn every_truncation_is_a_typed_error() {
    for line in valid_lines() {
        let bytes = line.as_bytes();
        for cut in 0..bytes.len() {
            let prefix = String::from_utf8_lossy(&bytes[..cut]);
            assert!(
                parse_request(prefix.trim()).is_err(),
                "a {cut}-byte prefix of {line} parsed"
            );
            check(&bytes[..cut]);
        }
    }
}

#[test]
fn every_single_bit_flip_parses_or_is_a_typed_error() {
    for line in valid_lines() {
        let mut flipped = line.into_bytes();
        for i in 0..flipped.len() {
            for bit in 0..8 {
                flipped[i] ^= 1 << bit;
                check(&flipped);
                flipped[i] ^= 1 << bit;
            }
        }
    }
}

/// Keys and values from the protocol's own grammar, so that junk gets
/// past the JSON reader into the field checks.
#[rustfmt::skip]
const KEYS: &[&str] = &["id", "op", "scenario", "source", "workers", "deadline_ms", "", "\0"];

#[rustfmt::skip]
const VALUES: &[&str] = &[
    "\"run-scenario\"", "\"analyze\"", "\"analyze-module\"", "\"stats\"", "\"reload\"",
    "\"ping\"", "\"shutdown\"", "\"solo_baseline\"", "\"\\ud800\"", "\"\\udc00x\"",
    "\"\\u00\"", "\"\u{2028}\"", "0", "7", "-1", "1.5", "1e999", "-0",
    "18446744073709551616", "true", "null", "[]", "{}", "[[[",
];

/// An object of protocol keys and values, one byte of it sometimes
/// overwritten.
fn grammar_junk(rng: &mut StdRng) -> Vec<u8> {
    let mut line = String::from("{");
    for k in 0..rng.gen_range(0usize..6) {
        if k > 0 {
            line.push_str(", ");
        }
        let key = escape(KEYS[rng.gen_range(0..KEYS.len())]);
        line.push_str(&format!(
            "{key}: {}",
            VALUES[rng.gen_range(0..VALUES.len())]
        ));
    }
    line.push('}');
    let mut bytes = line.into_bytes();
    if rng.gen_bool(0.5) {
        let at = rng.gen_range(0..bytes.len());
        bytes[at] = rng.next_u64() as u8;
    }
    bytes
}

#[test]
fn seeded_junk_parses_or_is_a_typed_error() {
    let mut rng = StdRng::seed_from_u64(0x50CE7);
    for _ in 0..2_000 {
        let junk: Vec<u8> = if rng.gen_bool(0.5) {
            let len = rng.gen_range(0usize..256);
            (0..len).map(|_| rng.next_u64() as u8).collect()
        } else {
            grammar_junk(&mut rng)
        };
        check(&junk);
    }
}
