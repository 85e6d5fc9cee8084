//! Crash-restart and fault-injection tests for the persistent
//! solve-cache tier:
//!
//! * **crash restart** — populate the cache through a real
//!   `tadfa-serve` process, kill it hard (no clean shutdown), restart
//!   on the same `--cache-dir`, and prove the second start preloads
//!   the persisted entries, serves out of them (hits, zero misses),
//!   and answers byte-identically to the first process;
//! * **fault injection** — a zero-length segment, a flipped checksum
//!   byte, and a truncated segment each load cleanly: bad records are
//!   skipped and counted in the stats `persist` block, never trusted,
//!   and never panic the server;
//! * **summary work cap** — a checksummed summary whose step schedule
//!   no analysis of the scenario produces is dropped before the
//!   preload and counted, while every summary the committed specs
//!   spill is kept.
//!
//! The crash and fault tests drive the actual `tadfa-serve` binary over
//! its pipe-mode protocol — the same artifact and path CI's
//! restart-warm-cache smoke step exercises; the summary tests drive an
//! in-process `Server` through the same cache directory.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;
use tadfa_core::{SpillEntry, SpillValue};
use tadfa_serve::protocol::{parse_request, parse_response, ParsedResponse};
use tadfa_serve::{SegmentStore, Server, ServerConfig};

/// A scratch directory removed on drop (best-effort).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("tadfa-persistence-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir creatable");
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A minimal scenario directory holding only the self-contained
/// `solo_baseline` spec and its golden — keeps the repeated server
/// restarts in these tests fast.
fn mini_scenarios(root: &Path) -> PathBuf {
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

/// A real `tadfa-serve` child process spoken to over pipe mode.
struct PipeServer {
    child: Child,
    stdin: ChildStdin,
    reader: BufReader<ChildStdout>,
}

impl PipeServer {
    fn start(scenarios: &Path, extra: &[&str]) -> PipeServer {
        let mut child = Command::new(env!("CARGO_BIN_EXE_tadfa-serve"))
            .arg("--scenarios")
            .arg(scenarios)
            .arg("--pipe")
            .args(extra)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("tadfa-serve spawns");
        let stdin = child.stdin.take().expect("piped stdin");
        let reader = BufReader::new(child.stdout.take().expect("piped stdout"));
        PipeServer {
            child,
            stdin,
            reader,
        }
    }

    /// Sends one request line and returns the raw response line.
    fn call_raw(&mut self, line: &str) -> String {
        writeln!(self.stdin, "{line}").expect("request writes");
        self.stdin.flush().expect("request flushes");
        loop {
            let mut resp = String::new();
            let n = self.reader.read_line(&mut resp).expect("response reads");
            assert!(n > 0, "server closed the pipe before responding");
            let resp = resp.trim_end_matches('\n').to_string();
            if !resp.trim().is_empty() {
                return resp;
            }
        }
    }

    fn call(&mut self, line: &str) -> ParsedResponse {
        let raw = self.call_raw(line);
        parse_response(&raw).unwrap_or_else(|e| panic!("unparseable response ({e}): {raw}"))
    }

    /// SIGKILL — the crash model. No shutdown request, no clean exit.
    fn kill(mut self) {
        self.child.kill().expect("kill succeeds");
        let _ = self.child.wait();
    }

    /// Clean shutdown through the protocol.
    fn shutdown(mut self) {
        let resp = self.call(r#"{"id": 9999, "op": "shutdown"}"#);
        assert!(resp.ok, "shutdown acknowledged");
        drop(self.stdin);
        let _ = self.child.wait();
    }
}

/// Sums one per-scenario `cache` counter out of a stats response.
fn cache_total(stats: &ParsedResponse, field: &str) -> f64 {
    stats
        .doc
        .get("scenarios")
        .and_then(|v| v.as_array())
        .expect("stats lists scenarios")
        .iter()
        .filter_map(|s| {
            s.get("cache")
                .and_then(|c| c.get(field))
                .and_then(|v| v.as_f64())
        })
        .sum()
}

/// The `persist` block totals `(loaded, skipped)` out of a stats
/// response.
fn persist_totals(stats: &ParsedResponse) -> (f64, f64) {
    let mut loaded = 0.0;
    let mut skipped = 0.0;
    for s in stats
        .doc
        .get("scenarios")
        .and_then(|v| v.as_array())
        .expect("stats lists scenarios")
    {
        let Some(p) = s.get("persist") else { continue };
        loaded += p.get("loaded").and_then(|v| v.as_f64()).unwrap_or(0.0);
        skipped += p.get("skipped").and_then(|v| v.as_f64()).unwrap_or(0.0);
    }
    (loaded, skipped)
}

const RUN: &str = r#"{"id": 41, "op": "run-scenario", "scenario": "solo_baseline"}"#;
const STATS: &str = r#"{"id": 42, "op": "stats"}"#;

/// Populates a cache directory through one server lifetime and
/// returns it alongside the scenario dir.
fn populated_cache(tmp: &TempDir) -> (PathBuf, PathBuf) {
    let scenarios = mini_scenarios(tmp.path());
    let cache = tmp.path().join("cache");
    let mut srv = PipeServer::start(&scenarios, &["--cache-dir", cache.to_str().unwrap()]);
    let resp = srv.call(RUN);
    assert!(resp.ok, "populate run succeeds");
    srv.shutdown();
    (scenarios, cache)
}

/// The segment files of the `solo_baseline` cache slice, sorted.
fn segments(cache: &Path) -> Vec<PathBuf> {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(cache.join("solo_baseline"))
        .expect("scenario cache dir exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "tadc"))
        .collect();
    segs.sort();
    assert!(!segs.is_empty(), "cache dir holds segment files");
    segs
}

/// The segment actually holding records (the largest one).
fn data_segment(cache: &Path) -> PathBuf {
    segments(cache)
        .into_iter()
        .max_by_key(|p| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0))
        .expect("nonempty segment list")
}

/// Restarts a server on `cache`, checks it still serves the golden
/// answer, and returns the `(loaded, skipped)` persistence totals.
fn restart_and_verify(scenarios: &Path, cache: &Path) -> (f64, f64) {
    let mut srv = PipeServer::start(scenarios, &["--cache-dir", cache.to_str().unwrap()]);
    let stats = srv.call(STATS);
    let totals = persist_totals(&stats);
    let resp = srv.call(RUN);
    assert!(resp.ok, "restart still serves: {resp:?}");
    assert_eq!(
        resp.fingerprint.as_deref().expect("fingerprint present"),
        golden_fingerprint(scenarios),
        "response after restart is still the committed golden"
    );
    srv.shutdown();
    totals
}

#[test]
fn cache_survives_a_hard_kill_and_the_restart_serves_byte_identically() {
    let tmp = TempDir::new("crash-restart");
    let scenarios = mini_scenarios(tmp.path());
    let cache = tmp.path().join("cache");

    // First life: cold run, entries spilled to disk per-request — then
    // SIGKILL. No clean shutdown path gets to run.
    let mut srv = PipeServer::start(&scenarios, &["--cache-dir", cache.to_str().unwrap()]);
    let first = srv.call_raw(RUN);
    let first_resp = parse_response(&first).expect("first response parses");
    assert!(first_resp.ok, "cold run succeeds: {first}");
    let stats = srv.call(STATS);
    let stored = cache_total(&stats, "entries");
    assert!(stored > 0.0, "the run populated the cache");
    srv.kill();

    // The segment files survived the kill with real data in them
    // (every segment starts with an 8-byte magic; records follow).
    let on_disk: u64 = segments(&cache)
        .iter()
        .map(|p| std::fs::metadata(p).expect("segment stat").len())
        .sum();
    assert!(
        on_disk > 8 * segments(&cache).len() as u64,
        "segments hold records beyond their headers ({on_disk} bytes)"
    );

    // Second life: the cache tier must come back warm...
    let mut srv = PipeServer::start(&scenarios, &["--cache-dir", cache.to_str().unwrap()]);
    let stats = srv.call(STATS);
    let preloaded = cache_total(&stats, "preloaded");
    let (loaded, skipped) = persist_totals(&stats);
    assert!(preloaded > 0.0, "restart preloaded persisted entries");
    assert_eq!(preloaded, stored, "every stored entry came back");
    assert_eq!((loaded, skipped), (preloaded, 0.0), "clean segment load");

    // ...answer the same request byte-for-byte identically...
    let second = srv.call_raw(RUN);
    assert_eq!(first, second, "restarted response is byte-identical");

    // ...and have served it out of the warm cache: hits only, not a
    // single recomputation.
    let stats = srv.call(STATS);
    assert!(cache_total(&stats, "hits") > 0.0, "preloaded entries hit");
    assert_eq!(cache_total(&stats, "misses"), 0.0, "nothing recomputed");
    srv.shutdown();
}

#[test]
fn zero_length_segment_loads_cleanly() {
    let tmp = TempDir::new("zero-seg");
    let (scenarios, cache) = populated_cache(&tmp);
    let (pristine_loaded, _) = restart_and_verify(&scenarios, &cache);
    assert!(pristine_loaded > 0.0);

    // An empty segment file — e.g. a crash between create and the
    // magic write — is a clean no-op, not an error.
    std::fs::write(cache.join("solo_baseline/seg-0999.tadc"), b"").expect("empty segment");
    let (loaded, skipped) = restart_and_verify(&scenarios, &cache);
    assert_eq!(loaded, pristine_loaded, "every real record still loads");
    assert_eq!(skipped, 0.0, "an empty file skips nothing");
}

#[test]
fn flipped_checksum_byte_skips_only_that_record() {
    let tmp = TempDir::new("bad-checksum");
    let (scenarios, cache) = populated_cache(&tmp);
    let (pristine_loaded, _) = restart_and_verify(&scenarios, &cache);

    // Flip one byte inside the first record's checksum field (layout:
    // 8-byte magic, then per record [u32 len | u64 checksum | payload]).
    let seg = data_segment(&cache);
    let mut bytes = std::fs::read(&seg).expect("segment readable");
    assert!(bytes.len() > 20, "segment holds at least one record");
    bytes[12] ^= 0xff;
    std::fs::write(&seg, bytes).expect("segment writable");

    // The framing is intact, so exactly that record is skipped; the
    // rest load, the server starts, and the answer is recomputed where
    // needed — still golden, never trusted from a bad checksum.
    let (loaded, skipped) = restart_and_verify(&scenarios, &cache);
    assert_eq!(skipped, 1.0, "exactly the corrupted record is skipped");
    assert_eq!(loaded, pristine_loaded - 1.0, "the rest still load");
}

/// Duplicates the data segment under a higher segment number — the
/// duplicate-key shape compaction exists to clean up (same entries
/// appended across process lifetimes). Returns the record count of the
/// duplicated segment's source.
fn duplicate_data_segment(cache: &Path) {
    let seg = data_segment(cache);
    std::fs::copy(&seg, cache.join("solo_baseline/seg-0900.tadc")).expect("segment duplicates");
}

#[test]
fn compact_cache_collapses_duplicates_to_one_segment_and_stays_golden() {
    let tmp = TempDir::new("compact");
    let (scenarios, cache) = populated_cache(&tmp);
    let (pristine_loaded, _) = restart_and_verify(&scenarios, &cache);
    duplicate_data_segment(&cache);

    // The CLI entry point CI and the fleet supervisor use.
    let status = Command::new(env!("CARGO_BIN_EXE_tadfa-serve"))
        .arg("--compact-cache")
        .arg("--cache-dir")
        .arg(&cache)
        .status()
        .expect("compactor runs");
    assert!(status.success(), "compaction exits 0");

    assert_eq!(
        segments(&cache).len(),
        1,
        "compaction leaves exactly one segment"
    );
    let (loaded, skipped) = restart_and_verify(&scenarios, &cache);
    assert_eq!(loaded, pristine_loaded, "every unique record survived");
    assert_eq!(skipped, 0.0, "the compacted segment is pristine");
}

#[test]
fn crash_mid_compaction_never_loses_precompaction_data() {
    let tmp = TempDir::new("compact-crash");
    let (scenarios, cache) = populated_cache(&tmp);
    let dir = cache.join("solo_baseline");

    // Baseline: how many entries a clean restart preloads.
    let mut srv = PipeServer::start(&scenarios, &["--cache-dir", cache.to_str().unwrap()]);
    let pristine_preloaded = cache_total(&srv.call(STATS), "preloaded");
    assert!(pristine_preloaded > 0.0);
    srv.shutdown();
    duplicate_data_segment(&cache);

    // Crash shape 1 — before the rename: the compactor dies leaving
    // only its temp file. A `.tmp` is invisible to the loader, so the
    // next start sees exactly the pre-compaction data.
    std::fs::write(dir.join("seg-0901.tmp"), b"half-written garbage").expect("stray tmp");
    let mut srv = PipeServer::start(&scenarios, &["--cache-dir", cache.to_str().unwrap()]);
    let stats = srv.call(STATS);
    assert_eq!(
        cache_total(&stats, "preloaded"),
        pristine_preloaded,
        "stray tmp changes nothing: duplicates collapse first-wins at preload"
    );
    let resp = srv.call(RUN);
    assert_eq!(
        resp.fingerprint.as_deref().expect("fingerprint present"),
        golden_fingerprint(&scenarios),
        "still golden with a torn compaction on disk"
    );
    srv.kill();
    std::fs::remove_file(dir.join("seg-0901.tmp")).expect("stray tmp removable");

    // Crash shape 2 — between the phases: the compacted segment is
    // durable but the old segments were never deleted. Everything
    // coexists; preload is first-wins over identical values, so the
    // entry count and the answers are unchanged.
    let plan = tadfa_serve::persist::compact_write(&dir).expect("compaction write phase");
    assert!(plan.new_segment.is_some(), "there was data to compact");
    assert!(plan.report.duplicates > 0, "the duplicate segment was seen");
    let mut srv = PipeServer::start(&scenarios, &["--cache-dir", cache.to_str().unwrap()]);
    let stats = srv.call(STATS);
    assert_eq!(
        cache_total(&stats, "preloaded"),
        pristine_preloaded,
        "old + compacted segments coexisting lose nothing"
    );
    let resp = srv.call(RUN);
    assert_eq!(
        resp.fingerprint.as_deref().expect("fingerprint present"),
        golden_fingerprint(&scenarios),
        "still golden between the compaction phases"
    );
    srv.kill();

    // Rerunning compaction after the crash converges: one segment,
    // same entries, same bytes.
    tadfa_serve::persist::compact_dir(&dir).expect("compaction converges");
    assert_eq!(segments(&cache).len(), 1, "converged to one segment");
    let mut srv = PipeServer::start(&scenarios, &["--cache-dir", cache.to_str().unwrap()]);
    let stats = srv.call(STATS);
    assert_eq!(cache_total(&stats, "preloaded"), pristine_preloaded);
    let resp = srv.call(RUN);
    assert_eq!(
        resp.fingerprint.as_deref().expect("fingerprint present"),
        golden_fingerprint(&scenarios)
    );
    srv.shutdown();
}

#[test]
fn truncated_segment_abandons_the_tail_without_panicking() {
    let tmp = TempDir::new("truncated");
    let (scenarios, cache) = populated_cache(&tmp);
    let (pristine_loaded, _) = restart_and_verify(&scenarios, &cache);

    // Chop the last 3 bytes — a torn final record, the classic
    // crash-mid-append shape.
    let seg = data_segment(&cache);
    let len = std::fs::metadata(&seg).expect("segment stat").len();
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&seg)
        .expect("segment opens");
    file.set_len(len - 3).expect("segment truncates");
    drop(file);

    // The torn record is skipped (and nothing after it trusted); the
    // server still starts and still serves the golden answer.
    let (loaded, skipped) = restart_and_verify(&scenarios, &cache);
    assert!(skipped >= 1.0, "the torn tail is counted as skipped");
    assert!(
        loaded >= pristine_loaded - skipped && loaded < pristine_loaded,
        "only the tail is lost (loaded {loaded} of {pristine_loaded})"
    );
}

/// A two-function module: `caller` replays `hot`'s summary.
const MODULE: &str = "func @hot(%0) {\nblock0:\n  %1 = mul %0, %0\n  %2 = mul %1, %1\n  ret %2\n}\n\n\
                      func @caller(%0) {\nblock0:\n  %1 = call @hot(%0)\n  %2 = add %1, %0\n  ret %2\n}\n";

/// Handles one request line on an in-process server.
fn handle(server: &Server, line: &str) -> ParsedResponse {
    let req = parse_request(line).expect("well-formed request");
    parse_response(&server.handle(&req, Instant::now())).expect("parseable response")
}

fn module_request(stem: &str) -> String {
    format!(
        "{{\"id\": 7, \"op\": \"analyze-module\", \"scenario\": \"{stem}\", \"source\": {}}}",
        tadfa_sched::json::escape(MODULE)
    )
}

/// The per-scenario `persist.dropped` counters of a stats response.
fn dropped_per_scenario(stats: &ParsedResponse) -> Vec<(String, f64)> {
    stats
        .doc
        .get("scenarios")
        .and_then(|v| v.as_array())
        .expect("stats lists scenarios")
        .iter()
        .map(|s| {
            let name = s.get("name").and_then(|v| v.as_str()).unwrap_or("?");
            let dropped = s
                .get("persist")
                .and_then(|p| p.get("dropped"))
                .and_then(|v| v.as_f64())
                .expect("the persist block counts dropped summaries");
            (name.to_string(), dropped)
        })
        .collect()
}

/// The encoded byte of bit 24 of a summary entry's first sub-step
/// count: kind tag and key (17 bytes), then the summary's version,
/// signature, point count, leakage flag, three leakage coefficients
/// and step count (58 bytes), then the first step's start and end
/// (8 bytes), then its little-endian `u32` sub-step count.
const FIRST_N_SUB: usize = 17 + 58 + 8;

#[test]
fn a_summary_with_a_corrupt_sub_step_count_is_dropped_before_the_preload() {
    let tmp = TempDir::new("summary-cap");
    let scenarios = mini_scenarios(tmp.path());
    let cache = tmp.path().join("cache");
    let cfg = ServerConfig {
        scenario_dir: scenarios,
        cache_dir: Some(cache.clone()),
        ..ServerConfig::default()
    };
    let request = module_request("solo_baseline");
    let first = handle(&Server::load(&cfg).expect("scenarios load"), &request);
    assert!(first.ok, "{first:?}");

    // Keep only the summaries, so the restart re-runs both fixpoints
    // and `caller`'s replays `hot`'s summary from the cache. `hot`'s is
    // the shorter trace; flip bit 24 of its first sub-step count.
    let slice = cache.join("solo_baseline");
    let (_, report) = SegmentStore::open(&slice).expect("the slice opens");
    let mut summaries: Vec<SpillEntry> = report
        .entries
        .into_iter()
        .filter(|e| matches!(e.value, SpillValue::Summary(_)))
        .collect();
    let steps = |e: &SpillEntry| match &e.value {
        SpillValue::Summary(s) => s.num_steps(),
        SpillValue::Result(_) => unreachable!("only summaries are kept"),
    };
    let hot = (0..summaries.len())
        .min_by_key(|&i| steps(&summaries[i]))
        .expect("the module spilled summaries");
    let mut bytes = summaries[hot].to_bytes();
    let n_sub = |b: &[u8]| u32::from_le_bytes(b[FIRST_N_SUB..FIRST_N_SUB + 4].try_into().unwrap());
    let before = n_sub(&bytes);
    bytes[FIRST_N_SUB + 3] ^= 0x01;
    assert_eq!(n_sub(&bytes), before ^ 1 << 24, "bit 24 flipped");
    summaries[hot] = SpillEntry::from_bytes(&bytes).expect("the flipped count still decodes");

    // A fresh, checksummed segment holding the rewritten summaries.
    for seg in segments(&cache) {
        std::fs::remove_file(seg).expect("segment removable");
    }
    let (store, _) = SegmentStore::open(&slice).expect("the slice reopens");
    store
        .append(&summaries)
        .expect("the rewritten records append");
    drop(store);

    let server = Server::load(&cfg).expect("scenarios load");
    let stats = handle(&server, STATS);
    assert_eq!(
        dropped_per_scenario(&stats),
        [("solo_baseline".to_string(), 1.0)],
        "the corrupt summary is dropped"
    );
    assert_eq!(
        cache_total(&stats, "preloaded"),
        (summaries.len() - 1) as f64,
        "every other summary is preloaded"
    );
    let again = handle(&server, &request);
    assert!(again.ok, "{again:?}");
    assert_eq!(again.fingerprint, first.fingerprint, "the same answer");
}

#[test]
fn no_summary_the_committed_specs_spill_is_dropped() {
    let tmp = TempDir::new("summary-fit");
    let cfg = ServerConfig {
        scenario_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios"),
        cache_dir: Some(tmp.path().join("cache")),
        ..ServerConfig::default()
    };
    let server = Server::load(&cfg).expect("committed scenarios load");
    let stems = server.scenario_names();
    for stem in &stems {
        let run = format!("{{\"id\": 1, \"op\": \"run-scenario\", \"scenario\": \"{stem}\"}}");
        assert!(handle(&server, &run).ok, "{stem} runs");
        assert!(handle(&server, &module_request(stem)).ok, "{stem} module");
    }
    drop(server);

    let mut summaries = 0;
    for stem in &stems {
        let (_, report) = SegmentStore::open(&tmp.path().join("cache").join(stem)).expect("opens");
        summaries += report
            .entries
            .iter()
            .filter(|e| matches!(e.value, SpillValue::Summary(_)))
            .count();
    }
    assert!(summaries >= stems.len(), "every scenario spilled summaries");
    let stats = handle(&Server::load(&cfg).expect("reloads"), STATS);
    for (stem, dropped) in dropped_per_scenario(&stats) {
        assert_eq!(dropped, 0.0, "{stem}");
    }
    assert!(cache_total(&stats, "preloaded") > 0.0);
}
