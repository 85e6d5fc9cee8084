//! `tadfa-load` — replay client and load harness for `tadfa-serve`.
//!
//! Resolves the committed scenario specs (through the same
//! `load_spec_dir` the service and offline CLI use), replays them
//! against a live server, and asserts every response fingerprint is
//! **byte-identical** to the committed `scenarios/golden/` reports —
//! the service ≡ offline-CLI determinism gate. Repeating the replay
//! (`--repeat`) makes later rounds cache-warm, so the gate also proves
//! warm results equal cold ones.
//!
//! Beyond the correctness gate it is a load harness: every request is
//! individually timed (client-observed, admission retries included),
//! `--warmup` runs untimed rounds first, `--sweep` replays the whole
//! plan at several client concurrency levels, and exact
//! p50/p99/p999 quantiles are computed from the raw samples (the
//! server's own histogram is ~3%-accurate; the harness keeps every
//! sample and is exact). `--slo-p99-ms` turns the latency report into
//! a gate: any measured level whose p99 exceeds the budget fails the
//! run. The harness prints what it measured and writes no report
//! file; the request-path benchmark is `perfbench/`.
//!
//! ```text
//! tadfa-load --spawn <tadfa-serve-bin> | --spawn-fleet <tadfa-fleet-bin>
//!            | --connect <addr:port>
//!            [--scenarios <dir>] [--golden <dir>] [--concurrency N]
//!            [--sweep N,M,...] [--warmup R] [--repeat R] [--workers W]
//!            [--slo-p99-ms MS] [--expect-preloaded N] [--expect-cache-hits N]
//!            [--serve-arg ARG]... [--fleet-arg ARG]... [--shutdown]
//!            [--chaos kill-worker:<sec> | hang-worker:<sec>]
//!            [--fleet-state <dir>] [--expect-rejoin-ms MS]
//! ```
//!
//! `--spawn` launches the given service binary in pipe mode as a child
//! (and always shuts it down at the end); extra `--serve-arg` values
//! are passed through to it, so a caller can e.g. spawn with
//! `--serve-arg --cache-dir --serve-arg /tmp/cache` to exercise the
//! persistent solve-cache tier. `--spawn-fleet` launches a
//! `tadfa-fleet` supervisor+router instead (on an ephemeral TCP port,
//! extra `--fleet-arg` values passed through) and replays against the
//! fleet — same bytes, same goldens, same gates. `--connect` talks to
//! an already-running TCP server (and sends `shutdown` only with
//! `--shutdown`). `queue-full`, `slo-shed`, and `fleet-overloaded`
//! rejections are retried with backoff — backpressure is load
//! shedding, not wrong results — and counted in the summary.
//! `--expect-preloaded` / `--expect-cache-hits` assert minimums
//! against the server's own stats counters, which is how the
//! crash-restart gate proves the second server start really served out
//! of the persisted cache.
//!
//! # Chaos mode
//!
//! `--chaos kill-worker:<sec>` (SIGKILL) or `--chaos hang-worker:<sec>`
//! (SIGSTOP) injects a worker failure `<sec>` seconds into the replay:
//! the victim is the *primary* shard owner of the first scenario —
//! guaranteed to be in the request path — found through the fleet's
//! `--fleet-state` pid files. The replay keeps running through the
//! failure, and the standard gates then assert the fleet's robustness
//! contract: zero client-visible errors, every fingerprint still
//! byte-identical to golden. `--expect-rejoin-ms` additionally polls
//! fleet stats until the victim worker is healthy again **with a warm
//! cache** (nonzero `preloaded`), failing if recovery takes longer
//! than the budget.
//!
//! Exit codes: `0` every response matched its golden and every gate
//! held, `1` any mismatch, request error, SLO breach, or failed
//! expectation, `2` usage or configuration error.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};
use tadfa_sched::{json, load_spec_dir};
use tadfa_serve::protocol::{self, kind, ParsedResponse};
use tadfa_serve::shard_of;

const USAGE: &str = "\
tadfa-load — golden-replay client / load harness for tadfa-serve

USAGE:
    tadfa-load --spawn <tadfa-serve-bin> | --spawn-fleet <tadfa-fleet-bin>
               | --connect <addr:port>
               [--scenarios <dir>]   (default: scenarios)
               [--golden <dir>]      (default: <scenarios>/golden)
               [--concurrency N]     (default: 1)
               [--sweep N,M,...]     (saturation sweep: replay at each level)
               [--warmup R]          (untimed warmup rounds per level; default 0)
               [--repeat R]          (default: 2, raised for sweeps — see below)
               [--workers W]         (per-request engine worker override)
               [--slo-p99-ms MS]     (fail if any level's p99 exceeds this)
               [--expect-preloaded N](fail unless server preloaded >= N entries)
               [--expect-cache-hits N](fail unless server cache hits >= N)
               [--serve-arg ARG]     (extra arg for the --spawn server; repeatable)
               [--fleet-arg ARG]     (extra arg for the --spawn-fleet binary)
               [--shutdown]          (also shut down a --connect server)
               [--chaos kill-worker:<sec> | hang-worker:<sec>]
                                     (SIGKILL / SIGSTOP a fleet worker mid-replay)
               [--fleet-state <dir>] (fleet --state-dir, for chaos pid files)
               [--expect-rejoin-ms MS](fail unless the chaos victim rejoins
                                      healthy + warm within this budget)

Replays every committed scenario spec against the server and fails
unless every response fingerprint is byte-identical to the committed
golden report — at any concurrency, cold or warm. Every request is
timed; with --sweep the whole replay runs once per concurrency level
and the report carries exact p50/p99/p999 per level. Unless --repeat
is given explicitly, sweeps raise the per-level rounds so every level
collects >= 100 samples (the minimum that can resolve a p99); a
warning is printed for any level whose sample count still cannot
resolve a reported percentile.";

struct Args {
    spawn: Option<PathBuf>,
    spawn_fleet: Option<PathBuf>,
    connect: Option<String>,
    scenarios: PathBuf,
    golden: Option<PathBuf>,
    concurrency: usize,
    sweep: Option<Vec<usize>>,
    warmup: usize,
    repeat: usize,
    /// Whether `--repeat` was given on the command line; only an
    /// implicit default is raised to make sweep percentiles resolvable.
    repeat_explicit: bool,
    workers: Option<usize>,
    slo_p99_ms: Option<f64>,
    expect_preloaded: Option<f64>,
    expect_cache_hits: Option<f64>,
    serve_args: Vec<String>,
    fleet_args: Vec<String>,
    shutdown: bool,
    chaos: Option<(ChaosKind, u64)>,
    fleet_state: Option<PathBuf>,
    expect_rejoin_ms: Option<u64>,
}

/// Which failure `--chaos` injects into the fleet mid-replay.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ChaosKind {
    /// SIGKILL: abrupt crash — exercises failover + supervised restart.
    KillWorker,
    /// SIGSTOP: silent hang — exercises health demotion, failover, and
    /// the supervisor's hung-worker kill.
    HangWorker,
}

fn parse_chaos(spec: &str) -> Result<(ChaosKind, u64), String> {
    let err = || format!("--chaos needs kill-worker:<sec> or hang-worker:<sec>, got '{spec}'");
    let (kind, secs) = spec.split_once(':').ok_or_else(err)?;
    let kind = match kind {
        "kill-worker" => ChaosKind::KillWorker,
        "hang-worker" => ChaosKind::HangWorker,
        _ => return Err(err()),
    };
    let secs: u64 = secs.parse().map_err(|_| err())?;
    Ok((kind, secs))
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        spawn: None,
        spawn_fleet: None,
        connect: None,
        scenarios: PathBuf::from("scenarios"),
        golden: None,
        concurrency: 1,
        sweep: None,
        warmup: 0,
        repeat: 2,
        repeat_explicit: false,
        workers: None,
        slo_p99_ms: None,
        expect_preloaded: None,
        expect_cache_hits: None,
        serve_args: Vec::new(),
        fleet_args: Vec::new(),
        shutdown: false,
        chaos: None,
        fleet_state: None,
        expect_rejoin_ms: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--spawn" => parsed.spawn = Some(PathBuf::from(value()?)),
            "--spawn-fleet" => parsed.spawn_fleet = Some(PathBuf::from(value()?)),
            "--connect" => parsed.connect = Some(value()?),
            "--scenarios" => parsed.scenarios = PathBuf::from(value()?),
            "--golden" => parsed.golden = Some(PathBuf::from(value()?)),
            "--concurrency" => {
                parsed.concurrency = value()?
                    .parse()
                    .map_err(|_| "--concurrency needs a positive integer".to_string())?
            }
            "--sweep" => {
                let levels: Result<Vec<usize>, _> =
                    value()?.split(',').map(|s| s.trim().parse()).collect();
                match levels {
                    Ok(levels) if !levels.is_empty() && levels.iter().all(|&l| l > 0) => {
                        parsed.sweep = Some(levels)
                    }
                    _ => return Err("--sweep needs comma-separated positive integers".to_string()),
                }
            }
            "--warmup" => {
                parsed.warmup = value()?
                    .parse()
                    .map_err(|_| "--warmup needs a non-negative integer".to_string())?
            }
            "--repeat" => {
                parsed.repeat = value()?
                    .parse()
                    .map_err(|_| "--repeat needs a positive integer".to_string())?;
                parsed.repeat_explicit = true;
            }
            "--workers" => {
                parsed.workers = Some(
                    value()?
                        .parse()
                        .map_err(|_| "--workers needs an integer".to_string())?,
                )
            }
            "--slo-p99-ms" => {
                let ms: f64 = value()?
                    .parse()
                    .map_err(|_| "--slo-p99-ms needs a number".to_string())?;
                if !ms.is_finite() || ms <= 0.0 {
                    return Err("--slo-p99-ms needs a positive number".to_string());
                }
                parsed.slo_p99_ms = Some(ms);
            }
            "--expect-preloaded" => {
                parsed.expect_preloaded = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|_| "--expect-preloaded needs an integer".to_string())?
                        as f64,
                )
            }
            "--expect-cache-hits" => {
                parsed.expect_cache_hits = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|_| "--expect-cache-hits needs an integer".to_string())?
                        as f64,
                )
            }
            "--serve-arg" => parsed.serve_args.push(value()?),
            "--fleet-arg" => parsed.fleet_args.push(value()?),
            "--shutdown" => parsed.shutdown = true,
            "--chaos" => parsed.chaos = Some(parse_chaos(&value()?)?),
            "--fleet-state" => parsed.fleet_state = Some(PathBuf::from(value()?)),
            "--expect-rejoin-ms" => {
                parsed.expect_rejoin_ms = Some(
                    value()?
                        .parse()
                        .map_err(|_| "--expect-rejoin-ms needs an integer".to_string())?,
                )
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let modes = [
        parsed.spawn.is_some(),
        parsed.spawn_fleet.is_some(),
        parsed.connect.is_some(),
    ]
    .iter()
    .filter(|&&m| m)
    .count();
    if modes != 1 {
        return Err("exactly one of --spawn / --spawn-fleet / --connect is required".to_string());
    }
    if parsed.concurrency == 0 || parsed.repeat == 0 {
        return Err("--concurrency and --repeat must be positive".to_string());
    }
    if !parsed.serve_args.is_empty() && parsed.spawn.is_none() {
        return Err("--serve-arg only makes sense with --spawn".to_string());
    }
    if !parsed.fleet_args.is_empty() && parsed.spawn_fleet.is_none() {
        return Err("--fleet-arg only makes sense with --spawn-fleet".to_string());
    }
    if parsed.chaos.is_some() && parsed.fleet_state.is_none() {
        return Err("--chaos needs --fleet-state <dir> (the fleet's --state-dir)".to_string());
    }
    if parsed.expect_rejoin_ms.is_some() && parsed.chaos.is_none() {
        return Err("--expect-rejoin-ms only makes sense with --chaos".to_string());
    }
    Ok(parsed)
}

/// The transport: a line writer plus the pending-response router the
/// background reader thread feeds. Dropping the writer (spawn mode)
/// is the server's EOF.
struct Client {
    writer: Mutex<Box<dyn Write + Send>>,
    pending: Arc<Mutex<HashMap<u64, mpsc::Sender<ParsedResponse>>>>,
    /// Set by the reader thread on EOF: the server is gone, so callers
    /// registering afterwards must fail fast instead of waiting out
    /// the response timeout.
    dead: Arc<AtomicBool>,
}

impl Client {
    /// Registers interest in `id`, sends the request line, and waits
    /// for the routed response.
    fn call(&self, id: u64, line: &str) -> Result<ParsedResponse, String> {
        let (tx, rx) = mpsc::channel();
        self.pending
            .lock()
            .expect("pending map poisoned")
            .insert(id, tx);
        // Checked *after* registering: either the reader's EOF drain
        // saw our sender and dropped it, or we see the dead flag here —
        // no window where a caller waits on a connection that is gone.
        if self.dead.load(Ordering::Relaxed) {
            self.pending
                .lock()
                .expect("pending map poisoned")
                .remove(&id);
            return Err(format!("request {id}: connection closed"));
        }
        {
            let mut w = self.writer.lock().expect("writer poisoned");
            writeln!(w, "{line}").map_err(|e| format!("request {id}: write failed: {e}"))?;
            w.flush()
                .map_err(|e| format!("request {id}: flush failed: {e}"))?;
        }
        rx.recv_timeout(Duration::from_secs(600))
            .map_err(|_| format!("request {id}: no response (server gone or stalled)"))
    }
}

/// Runs the reader side: every response line is routed to the caller
/// that registered its id. On EOF the dead flag is raised and the
/// pending map drained, so every waiter — current or future — fails
/// fast instead of timing out.
fn spawn_reader(
    reader: impl BufRead + Send + 'static,
    pending: Arc<Mutex<HashMap<u64, mpsc::Sender<ParsedResponse>>>>,
    dead: Arc<AtomicBool>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        for line in reader.lines() {
            let Ok(line) = line else { break };
            if line.trim().is_empty() {
                continue;
            }
            match protocol::parse_response(&line) {
                Ok(resp) => {
                    let tx = resp
                        .id
                        .and_then(|id| pending.lock().expect("pending map poisoned").remove(&id));
                    match tx {
                        Some(tx) => {
                            let _ = tx.send(resp);
                        }
                        None => eprintln!("tadfa-load: uncorrelated response: {line}"),
                    }
                }
                Err(e) => eprintln!("tadfa-load: unparseable response ({e}): {line}"),
            }
        }
        // EOF: raise the flag first, then wake every current waiter by
        // dropping its sender.
        dead.store(true, Ordering::Relaxed);
        pending.lock().expect("pending map poisoned").clear();
    })
}

/// One replay pass: correctness tallies plus (when timed) raw
/// per-request latency samples.
#[derive(Default)]
struct Phase {
    ok: usize,
    mismatches: Vec<String>,
    errors: Vec<String>,
    queue_full_retries: u64,
    shed_retries: u64,
    overload_retries: u64,
    /// Client-observed latency (ns) per successful request; empty for
    /// untimed (warmup) passes.
    samples: Vec<u64>,
}

impl Phase {
    fn absorb(&mut self, other: Phase) {
        self.ok += other.ok;
        self.mismatches.extend(other.mismatches);
        self.errors.extend(other.errors);
        self.queue_full_retries += other.queue_full_retries;
        self.shed_retries += other.shed_retries;
        self.overload_retries += other.overload_retries;
    }
}

/// Replays every scenario `rounds` times over `concurrency` client
/// threads. Each request's latency spans from first send to final
/// response, *including* bounded `queue-full` / `slo-shed` retries —
/// the latency a real caller observes under backpressure.
#[allow(clippy::too_many_arguments)]
fn replay(
    client: &Arc<Client>,
    stems: &[String],
    goldens: &HashMap<String, String>,
    rounds: usize,
    concurrency: usize,
    workers: Option<usize>,
    next_id: &AtomicU64,
    timed: bool,
) -> Phase {
    let jobs: Vec<&String> = (0..rounds).flat_map(|_| stems.iter()).collect();
    let next = AtomicUsize::new(0);
    let phase = Mutex::new(Phase::default());
    std::thread::scope(|scope| {
        for _ in 0..concurrency.min(jobs.len().max(1)) {
            scope.spawn(|| loop {
                let j = next.fetch_add(1, Ordering::Relaxed);
                if j >= jobs.len() {
                    break;
                }
                let stem = jobs[j];
                let id = next_id.fetch_add(1, Ordering::Relaxed);
                let workers_field =
                    workers.map_or(String::new(), |w| format!(", \"workers\": {w}"));
                let line = format!(
                    "{{\"id\": {id}, \"op\": \"run-scenario\", \"scenario\": {}{workers_field}}}",
                    json::escape(stem)
                );
                let started = Instant::now();
                let (mut full_retries, mut shed_retries, mut overload_retries) = (0u64, 0u64, 0u64);
                loop {
                    match client.call(id, &line) {
                        Ok(resp) if resp.ok => {
                            let elapsed = started.elapsed().as_nanos() as u64;
                            let mut s = phase.lock().expect("phase poisoned");
                            match (resp.fingerprint.as_deref(), goldens.get(stem.as_str())) {
                                (Some(got), Some(want)) if got == *want => {
                                    s.ok += 1;
                                    if timed {
                                        s.samples.push(elapsed);
                                    }
                                }
                                (got, want) => s.mismatches.push(format!(
                                    "{stem}: response fingerprint {} != golden {}",
                                    got.unwrap_or("<missing>"),
                                    want.map_or("<missing>", String::as_str),
                                )),
                            }
                            break;
                        }
                        Ok(resp)
                            if matches!(
                                resp.error.as_deref(),
                                Some(kind::QUEUE_FULL)
                                    | Some(kind::SLO_SHED)
                                    | Some(kind::FLEET_OVERLOADED)
                            ) =>
                        {
                            // Backpressure — a full queue, an SLO
                            // shed, or a fleet-level shed — is load
                            // shedding, not a wrong answer: retry
                            // with backoff, bounded.
                            match resp.error.as_deref() {
                                Some(kind::SLO_SHED) => shed_retries += 1,
                                Some(kind::FLEET_OVERLOADED) => overload_retries += 1,
                                _ => full_retries += 1,
                            }
                            if full_retries + shed_retries + overload_retries > 200 {
                                phase
                                    .lock()
                                    .expect("phase poisoned")
                                    .errors
                                    .push(format!("{stem}: still shed after 200 retries"));
                                break;
                            }
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        Ok(resp) => {
                            phase.lock().expect("phase poisoned").errors.push(format!(
                                "{stem}: {} ({})",
                                resp.error.as_deref().unwrap_or("error"),
                                resp.message.as_deref().unwrap_or("no message"),
                            ));
                            break;
                        }
                        Err(e) => {
                            phase
                                .lock()
                                .expect("phase poisoned")
                                .errors
                                .push(format!("{stem}: {e}"));
                            break;
                        }
                    }
                }
                let mut s = phase.lock().expect("phase poisoned");
                s.queue_full_retries += full_retries;
                s.shed_retries += shed_retries;
                s.overload_retries += overload_retries;
            });
        }
    });
    phase.into_inner().expect("phase poisoned")
}

/// Exact quantile of a sorted sample set: the value at 1-based rank
/// `ceil(q * n)`, clamped into range — the nearest-rank definition
/// the service histogram approximates.
fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// One measured concurrency level of the sweep.
struct LevelReport {
    concurrency: usize,
    requests: usize,
    elapsed: Duration,
    p50_ns: u64,
    p99_ns: u64,
    p999_ns: u64,
    mean_ns: u64,
    max_ns: u64,
    throughput_rps: f64,
}

impl LevelReport {
    fn from_phase(concurrency: usize, phase: &Phase, elapsed: Duration) -> LevelReport {
        let mut sorted = phase.samples.clone();
        sorted.sort_unstable();
        let sum: u128 = sorted.iter().map(|&ns| ns as u128).sum();
        let n = sorted.len();
        LevelReport {
            concurrency,
            requests: n,
            elapsed,
            p50_ns: quantile(&sorted, 0.50),
            p99_ns: quantile(&sorted, 0.99),
            p999_ns: quantile(&sorted, 0.999),
            mean_ns: if n == 0 { 0 } else { (sum / n as u128) as u64 },
            max_ns: sorted.last().copied().unwrap_or(0),
            throughput_rps: if elapsed.as_secs_f64() > 0.0 {
                n as f64 / elapsed.as_secs_f64()
            } else {
                0.0
            },
        }
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) if e.is_empty() => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    // Resolve the committed scenario set through the shared resolver
    // and collect each stem's committed golden fingerprint.
    let stems: Vec<String> = match load_spec_dir(&args.scenarios) {
        Ok(specs) => specs.into_iter().map(|(stem, _)| stem).collect(),
        Err(e) => {
            eprintln!("tadfa-load: {e}");
            return ExitCode::from(2);
        }
    };
    let golden_dir = args
        .golden
        .clone()
        .unwrap_or_else(|| args.scenarios.join("golden"));
    let mut goldens: HashMap<String, String> = HashMap::new();
    for stem in &stems {
        let path = golden_dir.join(format!("{stem}.json"));
        let fingerprint = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))
            .and_then(|text| {
                json::parse(&text)
                    .map_err(|e| format!("{}: {e}", path.display()))?
                    .get("fingerprint")
                    .and_then(|v| v.as_str().map(str::to_string))
                    .ok_or_else(|| format!("{}: no \"fingerprint\" field", path.display()))
            });
        match fingerprint {
            Ok(fp) => {
                goldens.insert(stem.clone(), fp);
            }
            Err(e) => {
                eprintln!("tadfa-load: {e}");
                return ExitCode::from(2);
            }
        }
    }

    // A sweep exists to measure tail latency, and a nearest-rank p99
    // needs at least 100 samples per level to resolve at all. Unless
    // --repeat was given explicitly, raise the per-level rounds to hit
    // that floor.
    if args.sweep.is_some() && !args.repeat_explicit && !stems.is_empty() {
        let min_rounds = 100_usize.div_ceil(stems.len());
        if min_rounds > args.repeat {
            eprintln!(
                "tadfa-load: raising --repeat {} -> {min_rounds} so each sweep level \
                 collects >= 100 samples (pass --repeat to override)",
                args.repeat
            );
            args.repeat = min_rounds;
        }
    }
    let args = args;

    // Bring up the transport.
    let pending: Arc<Mutex<HashMap<u64, mpsc::Sender<ParsedResponse>>>> =
        Arc::new(Mutex::new(HashMap::new()));
    let dead = Arc::new(AtomicBool::new(false));
    let mut child = None;
    let client = if let Some(bin) = &args.spawn {
        let mut spawned = match std::process::Command::new(bin)
            .arg("--scenarios")
            .arg(&args.scenarios)
            .arg("--pipe")
            .args(&args.serve_args)
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .spawn()
        {
            Ok(c) => c,
            Err(e) => {
                eprintln!("tadfa-load: cannot spawn {}: {e}", bin.display());
                return ExitCode::from(2);
            }
        };
        let stdin = spawned.stdin.take().expect("piped stdin");
        let stdout = spawned.stdout.take().expect("piped stdout");
        spawn_reader(
            BufReader::new(stdout),
            Arc::clone(&pending),
            Arc::clone(&dead),
        );
        child = Some(spawned);
        Client {
            writer: Mutex::new(Box::new(stdin)),
            pending,
            dead,
        }
    } else {
        let addr = if let Some(bin) = &args.spawn_fleet {
            // Launch the fleet on an ephemeral port and learn the
            // front address from its startup banner; everything else
            // on its stderr (worker lines included) is relayed.
            let mut spawned = match std::process::Command::new(bin)
                .arg("--listen")
                .arg("127.0.0.1:0")
                .arg("--scenarios")
                .arg(&args.scenarios)
                .args(&args.fleet_args)
                .stderr(std::process::Stdio::piped())
                .spawn()
            {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("tadfa-load: cannot spawn {}: {e}", bin.display());
                    return ExitCode::from(2);
                }
            };
            let stderr = spawned.stderr.take().expect("piped stderr");
            let (addr_tx, addr_rx) = mpsc::channel();
            std::thread::spawn(move || {
                for line in BufReader::new(stderr).lines() {
                    let Ok(line) = line else { break };
                    if let Some(rest) = line.strip_prefix("tadfa-fleet: listening on ") {
                        let addr = rest.split_whitespace().next().unwrap_or("").to_string();
                        let _ = addr_tx.send(addr);
                    }
                    eprintln!("{line}");
                }
            });
            let addr = match addr_rx.recv_timeout(Duration::from_secs(120)) {
                Ok(a) => a,
                Err(_) => {
                    eprintln!("tadfa-load: fleet never reported its listen address");
                    let _ = spawned.kill();
                    return ExitCode::from(2);
                }
            };
            child = Some(spawned);
            addr
        } else {
            args.connect.clone().expect("connect mode")
        };
        let stream = match std::net::TcpStream::connect(&addr) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("tadfa-load: cannot connect to {addr}: {e}");
                return ExitCode::from(2);
            }
        };
        // Request lines are small; Nagle queuing them behind a delayed
        // ACK would add ~40ms to every measured latency.
        let _ = stream.set_nodelay(true);
        let read_half = match stream.try_clone() {
            Ok(s) => s,
            Err(e) => {
                eprintln!("tadfa-load: cannot clone stream: {e}");
                return ExitCode::from(2);
            }
        };
        spawn_reader(
            BufReader::new(read_half),
            Arc::clone(&pending),
            Arc::clone(&dead),
        );
        Client {
            writer: Mutex::new(Box::new(stream)),
            pending,
            dead,
        }
    };
    let client = Arc::new(client);

    // Chaos injection runs on its own timer, concurrent with the
    // sweep: the replay must sail through the failure.
    let chaos_handle: Option<std::thread::JoinHandle<Option<usize>>> =
        args.chaos.map(|(kind, secs)| {
            let state_dir = args.fleet_state.clone().expect("checked in parse_args");
            let stem = stems.first().cloned().unwrap_or_default();
            std::thread::spawn(move || {
                inject_chaos(kind, Duration::from_secs(secs), &state_dir, &stem)
            })
        });

    // The sweep plan: each concurrency level replays every scenario
    // `warmup` untimed rounds, then `repeat` timed rounds. Without
    // --sweep there is exactly one level (--concurrency).
    let levels = args.sweep.clone().unwrap_or_else(|| vec![args.concurrency]);
    let next_id = AtomicU64::new(1);
    let mut totals = Phase::default();
    let mut reports: Vec<LevelReport> = Vec::new();
    for &level in &levels {
        if args.warmup > 0 {
            totals.absorb(replay(
                &client,
                &stems,
                &goldens,
                args.warmup,
                level,
                args.workers,
                &next_id,
                false,
            ));
        }
        let started = Instant::now();
        let phase = replay(
            &client,
            &stems,
            &goldens,
            args.repeat,
            level,
            args.workers,
            &next_id,
            true,
        );
        let elapsed = started.elapsed();
        reports.push(LevelReport::from_phase(level, &phase, elapsed));
        totals.absorb(phase);
    }

    // The chaos victim (if any) must rejoin the fleet healthy *and*
    // warm within the recovery budget — polled through the same stats
    // op a real operator would watch.
    let mut rejoin_failure: Option<String> = None;
    if let Some(handle) = chaos_handle {
        let victim = handle.join().ok().flatten();
        match (victim, args.expect_rejoin_ms) {
            (Some(victim), Some(budget_ms)) => {
                if let Err(e) = wait_for_rejoin(&client, &next_id, victim, budget_ms) {
                    rejoin_failure = Some(e);
                }
            }
            (None, Some(_)) => {
                rejoin_failure =
                    Some("chaos injection never fired; no victim to wait for".to_string());
            }
            _ => {}
        }
    }

    // Pull the server's own counters and shut down.
    let stats_id = next_id.fetch_add(1, Ordering::Relaxed);
    let mut preloaded_total = 0.0f64;
    let mut cache_hits_total = 0.0f64;
    match client.call(
        stats_id,
        &format!("{{\"id\": {stats_id}, \"op\": \"stats\"}}"),
    ) {
        Ok(resp) => {
            preloaded_total = sum_cache_field(&resp, "preloaded");
            cache_hits_total = sum_cache_field(&resp, "hits");
            println!("server stats: {}", render_stats(&resp));
        }
        Err(e) => eprintln!("tadfa-load: stats unavailable: {e}"),
    }
    if args.spawn.is_some() || args.spawn_fleet.is_some() || args.shutdown {
        let id = next_id.fetch_add(1, Ordering::Relaxed);
        let _ = client.call(id, &format!("{{\"id\": {id}, \"op\": \"shutdown\"}}"));
    }
    if let Some(mut child) = child {
        drop(client); // closes the child's stdin
        let _ = child.wait();
    }

    // Report.
    let requests_total: usize = reports.iter().map(|r| r.requests).sum();
    println!(
        "tadfa-load: {} timed request(s) over {} scenario(s) (levels {:?}, warmup {}, repeat {}): \
         {} ok, {} mismatch(es), {} error(s), {} queue-full + {} shed + {} fleet-overloaded retries",
        requests_total,
        stems.len(),
        levels,
        args.warmup,
        args.repeat,
        totals.ok,
        totals.mismatches.len(),
        totals.errors.len(),
        totals.queue_full_retries,
        totals.shed_retries,
        totals.overload_retries,
    );
    for r in &reports {
        println!(
            "  c{}: {} requests in {:.2}s ({:.1} req/s) p50 {:.2}ms p99 {:.2}ms \
             p999 {:.2}ms mean {:.2}ms max {:.2}ms",
            r.concurrency,
            r.requests,
            r.elapsed.as_secs_f64(),
            r.throughput_rps,
            ms(r.p50_ns),
            ms(r.p99_ns),
            ms(r.p999_ns),
            ms(r.mean_ns),
            ms(r.max_ns),
        );
        // A nearest-rank quantile q needs >= 1/(1-q) samples to be
        // distinguishable from max; below that the number is printed
        // but means "max", which a reader should know.
        for (label, need) in [("p99", 100usize), ("p999", 1000usize)] {
            if r.requests > 0 && r.requests < need {
                eprintln!(
                    "  warning: c{}: {} sample(s) cannot resolve {label} \
                     (needs >= {need}); the reported {label} degenerates toward max",
                    r.concurrency, r.requests,
                );
            }
        }
    }
    for m in &totals.mismatches {
        eprintln!("MISMATCH {m}");
    }
    for e in &totals.errors {
        eprintln!("ERROR {e}");
    }

    // Gates: goldens first, then recovery, then expectations, then the
    // latency SLO.
    if !totals.mismatches.is_empty() || !totals.errors.is_empty() {
        eprintln!("FAIL: service responses drifted from the committed goldens.");
        return ExitCode::from(1);
    }
    if let Some(msg) = rejoin_failure {
        eprintln!("FAIL: {msg}");
        return ExitCode::from(1);
    }
    if let Some(want) = args.expect_preloaded {
        if preloaded_total < want {
            eprintln!(
                "FAIL: server preloaded {preloaded_total} cache entr(ies), expected >= {want} \
                 — the persistent cache tier did not survive the restart."
            );
            return ExitCode::from(1);
        }
        println!("OK: server preloaded {preloaded_total} entr(ies) (>= {want}).");
    }
    if let Some(want) = args.expect_cache_hits {
        if cache_hits_total < want {
            eprintln!(
                "FAIL: server cache hits {cache_hits_total}, expected >= {want} \
                 — requests were not served out of the warm cache."
            );
            return ExitCode::from(1);
        }
        println!("OK: server cache hits {cache_hits_total} (>= {want}).");
    }
    if let Some(slo_ms) = args.slo_p99_ms {
        let breached: Vec<&LevelReport> =
            reports.iter().filter(|r| ms(r.p99_ns) > slo_ms).collect();
        if !breached.is_empty() {
            for r in &breached {
                eprintln!(
                    "SLO BREACH c{}: p99 {:.2}ms > budget {slo_ms}ms",
                    r.concurrency,
                    ms(r.p99_ns)
                );
            }
            eprintln!("FAIL: latency SLO breached at {} level(s).", breached.len());
            return ExitCode::from(1);
        }
        println!("OK: p99 within the {slo_ms}ms SLO at every level.");
    }
    println!(
        "OK: every response fingerprint matches {} (cache-warm service \u{2261} offline batch).",
        golden_dir.display()
    );
    ExitCode::SUCCESS
}

/// Sums one per-scenario cache counter across every scenario in a
/// stats response (0.0 when absent — no cache block, no scenarios).
fn sum_cache_field(resp: &ParsedResponse, field: &str) -> f64 {
    resp.doc
        .get("scenarios")
        .and_then(|v| v.as_array())
        .map(|scenarios| {
            scenarios
                .iter()
                .filter_map(|s| {
                    s.get("cache")
                        .and_then(|c| c.get(field))
                        .and_then(|v| v.as_f64())
                })
                .sum()
        })
        .unwrap_or(0.0)
}

/// Waits out the chaos delay, then signals the victim worker — the
/// *primary* shard owner of `victim_stem`, so the failure is
/// guaranteed to sit in the replay's request path. Worker pids come
/// from the fleet supervisor's `--state-dir` pid files. Returns the
/// victim's worker index, or `None` if no pid could be found.
fn inject_chaos(
    kind: ChaosKind,
    delay: Duration,
    state_dir: &std::path::Path,
    victim_stem: &str,
) -> Option<usize> {
    std::thread::sleep(delay);
    let mut pids: Vec<u32> = Vec::new();
    loop {
        let path = state_dir.join(format!("worker-{}.pid", pids.len()));
        let Ok(text) = std::fs::read_to_string(&path) else {
            break;
        };
        match text.trim().parse::<u32>() {
            Ok(pid) => pids.push(pid),
            Err(_) => break,
        }
    }
    if pids.is_empty() {
        eprintln!(
            "tadfa-load: chaos: no worker-*.pid files under {} — nothing to kill",
            state_dir.display()
        );
        return None;
    }
    let victim = shard_of(victim_stem, pids.len());
    let pid = pids[victim];
    let signal = match kind {
        ChaosKind::KillWorker => "-KILL",
        ChaosKind::HangWorker => "-STOP",
    };
    match std::process::Command::new("kill")
        .arg(signal)
        .arg(pid.to_string())
        .status()
    {
        Ok(status) if status.success() => {
            eprintln!("tadfa-load: chaos: sent {signal} to worker-{victim} (pid {pid})");
            Some(victim)
        }
        Ok(status) => {
            eprintln!("tadfa-load: chaos: kill {signal} {pid} exited {status}");
            None
        }
        Err(e) => {
            eprintln!("tadfa-load: chaos: cannot run kill: {e}");
            None
        }
    }
}

/// Polls fleet stats until the chaos victim is `healthy` again with a
/// warm cache (nonzero `preloaded` — it really restarted and reloaded
/// its segments, rather than never having died). Errs once the budget
/// is exhausted: recovery must be *bounded*, not just eventual.
fn wait_for_rejoin(
    client: &Arc<Client>,
    next_id: &AtomicU64,
    victim: usize,
    budget_ms: u64,
) -> Result<(), String> {
    let started = Instant::now();
    let mut last_seen = String::from("no fleet stats observed");
    loop {
        let id = next_id.fetch_add(1, Ordering::Relaxed);
        if let Ok(resp) = client.call(id, &format!("{{\"id\": {id}, \"op\": \"stats\"}}")) {
            if let Some((state, restarts, preloaded)) = worker_entry(&resp, victim) {
                if state == "healthy" && restarts > 0.0 && preloaded > 0.0 {
                    println!(
                        "OK: worker-{victim} rejoined healthy and warm ({preloaded} preloaded, \
                         {restarts} restart(s)) in {:.0}ms (budget {budget_ms}ms).",
                        started.elapsed().as_secs_f64() * 1e3,
                    );
                    return Ok(());
                }
                last_seen = format!("state {state}, {restarts} restart(s), {preloaded} preloaded");
            }
        }
        if started.elapsed() >= Duration::from_millis(budget_ms) {
            return Err(format!(
                "worker-{victim} did not rejoin healthy + warm within {budget_ms}ms \
                 (last seen: {last_seen})"
            ));
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Pulls `(state, restarts, preloaded)` for one worker out of a fleet
/// stats response's `fleet.workers` array.
fn worker_entry(resp: &ParsedResponse, victim: usize) -> Option<(String, f64, f64)> {
    resp.doc
        .get("fleet")?
        .get("workers")?
        .as_array()?
        .iter()
        .find(|w| w.get("worker").and_then(|v| v.as_f64()) == Some(victim as f64))
        .map(|w| {
            (
                w.get("state")
                    .and_then(|v| v.as_str())
                    .unwrap_or("?")
                    .to_string(),
                w.get("restarts").and_then(|v| v.as_f64()).unwrap_or(0.0),
                w.get("preloaded").and_then(|v| v.as_f64()).unwrap_or(0.0),
            )
        })
}

/// One line of the interesting server counters out of a stats
/// response (falls back to the raw document on surprises).
fn render_stats(resp: &ParsedResponse) -> String {
    let Some(scenarios) = resp.doc.get("scenarios").and_then(|v| v.as_array()) else {
        return format!("{:?}", resp.doc);
    };
    let mut parts: Vec<String> = Vec::new();
    for s in scenarios {
        let name = s.get("name").and_then(|v| v.as_str()).unwrap_or("?");
        let runs = s.get("runs").and_then(|v| v.as_f64()).unwrap_or(0.0);
        let (mut hits, mut misses, mut rejected, mut preloaded) = (0.0, 0.0, 0.0, 0.0);
        if let Some(c) = s.get("cache") {
            hits = c.get("hits").and_then(|v| v.as_f64()).unwrap_or(0.0);
            misses = c.get("misses").and_then(|v| v.as_f64()).unwrap_or(0.0);
            rejected = c
                .get("rejected_stores")
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0);
            preloaded = c.get("preloaded").and_then(|v| v.as_f64()).unwrap_or(0.0);
        }
        parts.push(format!(
            "{name}: {runs} runs, cache {hits}h/{misses}m/{rejected}r/{preloaded}p"
        ));
    }
    if let Some(q) = resp.doc.get("queue") {
        parts.push(format!(
            "queue accepted {} rejected {} peak {}",
            q.get("accepted").and_then(|v| v.as_f64()).unwrap_or(0.0),
            q.get("rejected").and_then(|v| v.as_f64()).unwrap_or(0.0),
            q.get("peak_depth").and_then(|v| v.as_f64()).unwrap_or(0.0),
        ));
    }
    if let Some(l) = resp.doc.get("latency") {
        parts.push(format!(
            "latency p50 {:.2}ms p99 {:.2}ms ({} obs)",
            l.get("p50_ns").and_then(|v| v.as_f64()).unwrap_or(0.0) / 1e6,
            l.get("p99_ns").and_then(|v| v.as_f64()).unwrap_or(0.0) / 1e6,
            l.get("count").and_then(|v| v.as_f64()).unwrap_or(0.0),
        ));
    }
    parts.join("; ")
}
