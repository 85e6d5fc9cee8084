//! The three workloads, each measured end to end from the client side.

use crate::calib::Speed;
use crate::client::{self, Pace, Sample};
use crate::fleet::{self, FleetProc};
use crate::requests::{self, Oracle, Req};
use crate::specs::SpecSet;
use crate::stats::{self, Rng};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use tadfa_serve::{Server, ServerConfig};

/// An end-to-end run collects at least this many latency samples, so
/// the p99 has at least ten samples beyond it.
pub const MIN_SAMPLES: usize = 1000;
/// Requests a closed loop sends per second of `--seconds` (at least
/// [`MIN_SAMPLES`] in all), so one run is a fixed amount of work: a
/// faster program finishes it sooner, and memory reflects the work,
/// not the speed. Warm: about the rate the commit that introduced this
/// benchmark sustained on 2 CPUs. Cold: about half that commit's rate,
/// which bounds how far the never-evicted cold entries grow memory.
pub const WARM_PER_SECOND: f64 = 60.0;
pub const COLD_PER_SECOND: f64 = 150.0;

/// Requests in one closed-loop run at `rate` for `seconds`.
pub fn closed_count(rate: f64, seconds: f64, min_samples: usize) -> u64 {
    (rate * seconds).ceil().max(min_samples as f64) as u64
}

/// Slices a run is cut into: its throughput and p50 are the medians
/// over slices, so a slowdown of the shared host that covers a
/// minority of the run does not move them. The p99 needs every sample
/// and is taken over the whole run.
pub const ROUNDS: usize = 5;
/// Host-speed calibration points per closed-loop run (see
/// [`crate::calib`]), spread evenly over its requests.
const CALIBRATIONS: u64 = 20;

/// Times set-up is repeated in one run; `setup_s` is the median.
pub const SETUP_REPS: usize = 15;
/// Share of `analyze-cold` requests that are whole modules.
pub const MODULE_SHARE: f64 = 0.25;
/// Workers in the `fleet-open` fleet: one per CPU of the 2-CPU host
/// the fixed rate below was calibrated on.
pub const FLEET_WORKERS: usize = 2;
/// Pipelined client connections of the open loop.
pub const FLEET_CONNS: usize = 2;
/// The fixed open-loop rate latency is reported at, requests/s: about
/// a quarter of the saturated throughput (~200 req/s) measured on the
/// commit that introduced this benchmark (2 CPUs). At half, queueing
/// made the p99 swing twofold with the shared host's speed.
pub const FIXED_RATE: f64 = 50.0;
/// The p99 limit the saturation leg is expected to stay under.
pub const P99_LIMIT_MS: f64 = 200.0;
/// Requests in flight during the saturation leg (4 per connection).
pub const SAT_WINDOW: usize = 8;
/// Fleet spawns in one run; `setup_s` is the median.
pub const FLEET_SETUP_REPS: usize = 7;
/// How long a pipelined loop waits for answers after its last send.
const DRAIN: Duration = Duration::from_secs(30);

/// What one workload pass measured. Times and rates are scaled to the
/// reference host (see [`crate::calib`]).
#[derive(Debug, Default)]
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    pub setup_s: f64,
    pub throughput_rps: f64,
    pub latency_p50_ms: f64,
    pub latency_p99_ms: f64,
    pub peak_rss_mb: f64,
    /// Every scaled latency sample of the timed phase (failures as
    /// +inf), parallel to `samples`.
    pub latencies_ms: Vec<f64>,
    /// Open-loop sender lateness p99 (0 for closed loops), unscaled.
    pub late_p99_ms: f64,
    /// Serving-side `stats` taken when the timed phase ended.
    pub stats: Option<tadfa_sched::json::JsonValue>,
    pub mismatches: Vec<String>,
    /// The timed phase's samples, for the traced run's client spans.
    pub samples: Vec<Sample>,
    /// The host's median slowness over the run (1 = reference host).
    pub host_factor: f64,
}

/// Inputs shared by every pass of one run.
#[derive(Debug)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Latency samples a pass collects at least: [`MIN_SAMPLES`] for
    /// end-to-end metrics, fewer for the traced run's overhead passes.
    pub min_samples: usize,
    pub work: PathBuf,
    pub bin_dir: PathBuf,
    pub specs: SpecSet,
    pub oracle: Oracle,
}

/// An in-process server on an ephemeral port.
pub struct InProcess {
    pub addr: SocketAddr,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl InProcess {
    /// `Server::load` plus `serve_listener`, timed until a `ping`
    /// answers: the time until the first request can be served.
    pub fn start(cfg: &ServerConfig) -> Result<(InProcess, Instant, Duration), String> {
        let t0 = Instant::now();
        let server = Server::load(cfg).map_err(|e| e.to_string())?;
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let thread = std::thread::spawn(move || server.serve_listener(listener));
        client::call(addr, "{\"id\": 0, \"op\": \"ping\"}").map_err(|e| e.to_string())?;
        Ok((InProcess { addr, thread }, t0, t0.elapsed()))
    }

    pub fn stop(self) {
        let _ = client::call(self.addr, "{\"id\": 0, \"op\": \"shutdown\"}");
        let _ = self.thread.join();
    }
}

pub fn server_config(dir: &Path) -> ServerConfig {
    ServerConfig {
        scenario_dir: dir.to_path_buf(),
        ..ServerConfig::default()
    }
}

/// Starts `SETUP_REPS` servers in turn, keeping the last; returns it
/// with the median scaled set-up time.
fn start_in_process(ctx: &Ctx, speed: &mut Speed) -> Result<(InProcess, f64), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = kept.take() {
            InProcess::stop(previous);
        }
        speed.mark();
        let (server, t0, setup) = InProcess::start(&server_config(&ctx.specs.dir))?;
        times.push((t0, setup));
        kept = Some(server);
    }
    speed.mark();
    let scaled: Vec<f64> = times.iter().map(|&(t0, d)| speed.scale(t0, d)).collect();
    Ok((kept.expect("SETUP_REPS > 0"), stats::median(&scaled)))
}

/// Checks every sample against its oracle and fills the counters and
/// the scaled latency summary of `m`. A failed or refused request
/// counts as missing every latency limit (+inf).
fn verify(ctx: &Ctx, pairs: &[(Req, Sample)], speed: &Speed, m: &mut Measured) {
    let reqs: Vec<Req> = pairs.iter().map(|(r, _)| r.clone()).collect();
    let expected = ctx.oracle.expected_all(&reqs, threads());
    for ((req, sample), want) in pairs.iter().zip(expected) {
        m.attempted += 1;
        m.samples.push(sample.clone());
        let ok = match &want {
            Ok(fp) => client::verified(sample, fp),
            Err(_) => false,
        };
        if ok {
            let raw = Duration::from_secs_f64(sample.latency_ms / 1e3);
            m.latencies_ms.push(speed.scale(sample.start, raw) * 1e3);
        } else {
            m.failed += 1;
            m.latencies_ms.push(f64::INFINITY);
            if m.mismatches.len() < 5 {
                m.mismatches.push(format!(
                    "request {} ({} {}): expected {:?}, got {}",
                    req.id,
                    req.kind.op(),
                    req.scenario,
                    want,
                    sample.response.as_deref().unwrap_or("no response")
                ));
            }
        }
    }
    m.latency_p99_ms = stats::p50_p99(&m.latencies_ms).1;
    m.host_factor = speed.median();
}

pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// One untimed pass over the spec set, so every later `run-scenario`
/// finds its analyses cached (as a long-running service would).
fn warm_round(ctx: &Ctx, addr: SocketAddr, m: &mut Measured) -> Result<(), String> {
    let stems = ctx.specs.stems();
    let pairs = client::closed_loop(
        addr,
        |i| Req::run(1 << 40 | i, &stems[i as usize]),
        |i| i as usize >= stems.len(),
    )
    .map_err(|e| e.to_string())?;
    verify(ctx, &pairs, &Speed::default(), m);
    m.latencies_ms.clear();
    m.samples.clear();
    Ok(())
}

/// A closed loop of `count` requests from `next`, with the host speed
/// calibrated between requests at [`CALIBRATIONS`] evenly spaced points.
fn calibrated_loop(
    addr: SocketAddr,
    count: u64,
    speed: &mut Speed,
    mut next: impl FnMut(u64) -> Req,
) -> Result<Vec<(Req, Sample)>, String> {
    let every = (count / CALIBRATIONS).max(1);
    let pairs = client::closed_loop(
        addr,
        |i| {
            if i % every == 0 {
                speed.mark();
            }
            next(i)
        },
        |i| i >= count,
    )
    .map_err(|e| e.to_string())?;
    speed.mark();
    Ok(pairs)
}

/// `scenario-warm`: a closed loop of `run-scenario` over one
/// connection, cycling the spec set in seed-shuffled order.
pub fn scenario_warm(ctx: &Ctx, seconds: f64) -> Result<Measured, String> {
    let mut m = Measured::default();
    let mut speed = Speed::default();
    let (srv, setup) = start_in_process(ctx, &mut speed)?;
    m.setup_s = setup;
    warm_round(ctx, srv.addr, &mut m)?;
    let order = requests::warm_order(ctx.seed, &ctx.specs.stems());
    let n = order.len() as u64;
    // Whole cycles only, so every spec is weighted equally.
    let count = closed_count(WARM_PER_SECOND, seconds, ctx.min_samples).div_ceil(n) * n;
    let pairs = calibrated_loop(srv.addr, count, &mut speed, |i| {
        Req::run(i, &order[(i % n) as usize])
    })?;
    finish_in_process(ctx, srv, &pairs, &speed, &mut m);
    Ok(m)
}

/// `analyze-cold`: a closed loop of never-seen `analyze` (and, one in
/// four, `analyze-module`) requests over one connection.
pub fn analyze_cold(ctx: &Ctx, seconds: f64) -> Result<Measured, String> {
    let mut m = Measured::default();
    let mut speed = Speed::default();
    let (srv, setup) = start_in_process(ctx, &mut speed)?;
    m.setup_s = setup;
    let stems = ctx.specs.stems();
    // Untimed warm-up on requests the timed phase never repeats.
    let warm = client::closed_loop(
        srv.addr,
        |i| requests::cold(ctx.seed, 1 << 40 | i, &stems, MODULE_SHARE),
        |i| i >= 20,
    )
    .map_err(|e| e.to_string())?;
    verify(ctx, &warm, &speed, &mut m);
    m.latencies_ms.clear();
    m.samples.clear();
    let count = closed_count(COLD_PER_SECOND, seconds, ctx.min_samples);
    let pairs = calibrated_loop(srv.addr, count, &mut speed, |i| {
        requests::cold(ctx.seed, i, &stems, MODULE_SHARE)
    })?;
    finish_in_process(ctx, srv, &pairs, &speed, &mut m);
    Ok(m)
}

fn finish_in_process(
    ctx: &Ctx,
    srv: InProcess,
    pairs: &[(Req, Sample)],
    speed: &Speed,
    m: &mut Measured,
) {
    m.stats = fleet::stats_of(srv.addr).ok();
    srv.stop();
    m.peak_rss_mb = fleet::vm_hwm_mb(std::process::id());
    verify(ctx, pairs, speed, m);
    // A closed loop is busy exactly while a request is out.
    let lat = &m.latencies_ms;
    (m.throughput_rps, m.latency_p50_ms) = round_medians(lat, |r| {
        lat[r].iter().filter(|l| l.is_finite()).sum::<f64>() / 1e3
    });
}

/// The medians over [`ROUNDS`] consecutive slices of a run (in send
/// order) of each slice's verified throughput and p50 latency.
/// `latencies` holds the scaled samples (failures as +inf); `busy`
/// gives a slice's scaled duration in seconds.
pub fn round_medians(
    latencies: &[f64],
    busy: impl Fn(std::ops::Range<usize>) -> f64,
) -> (f64, f64) {
    let size = latencies.len().div_ceil(ROUNDS).max(1);
    let (mut rps, mut p50) = (Vec::new(), Vec::new());
    for start in (0..latencies.len()).step_by(size) {
        let range = start..(start + size).min(latencies.len());
        let ok = latencies[range.clone()]
            .iter()
            .filter(|l| l.is_finite())
            .count();
        let span = busy(range.clone());
        rps.push(if span > 0.0 { ok as f64 / span } else { 0.0 });
        p50.push(stats::median(&latencies[range]));
    }
    (stats::median(&rps), stats::median(&p50))
}

/// The scaled wall time from the first send to the last answer among
/// `samples`.
fn wall_span(samples: &[Sample], speed: &Speed) -> f64 {
    let Some(first) = samples.iter().map(|s| s.start).min() else {
        return 0.0;
    };
    let last = samples
        .iter()
        .filter(|s| s.latency_ms.is_finite())
        .map(|s| s.start + Duration::from_secs_f64(s.latency_ms / 1e3))
        .max()
        .unwrap_or(first);
    speed.scale(first, last.duration_since(first))
}

/// The `fleet-open` request mix, ids from `first_id`: even positions
/// are warm `run-scenario` cycling the spec set in seed-shuffled order,
/// odd ones cold `analyze`. Interleaving (rather than drawing) keeps
/// every window of the run at the same mix.
pub fn fleet_mix(seed: u64, stems: &[String], first_id: u64, count: usize) -> Vec<Req> {
    let order = requests::warm_order(seed, stems);
    (0..count as u64)
        .map(|k| {
            let id = first_id + k;
            if k % 2 == 0 {
                Req::run(id, &order[(k / 2) as usize % order.len()])
            } else {
                requests::cold(seed, id, stems, 0.0)
            }
        })
        .collect()
}

/// `fleet-open`: an open loop against a spawned 2-worker fleet at the
/// fixed rate, then a saturation leg for the highest sustained rate.
pub fn fleet_open(ctx: &Ctx, seconds: f64) -> Result<Measured, String> {
    let mut m = Measured::default();
    let mut speed = Speed::default();
    let mut times = Vec::new();
    let mut kept: Option<FleetProc> = None;
    for _ in 0..FLEET_SETUP_REPS {
        if let Some(previous) = kept.take() {
            previous.shutdown();
        }
        speed.mark();
        let t0 = Instant::now();
        let (f, setup) = FleetProc::spawn(
            &ctx.bin_dir,
            &ctx.specs.dir,
            &ctx.work.join("fleet"),
            FLEET_WORKERS,
        )?;
        times.push((t0, Duration::from_secs_f64(setup)));
        kept = Some(f);
    }
    let fleet = kept.expect("FLEET_SETUP_REPS > 0");
    speed.mark();
    m.setup_s = stats::median(
        &times
            .iter()
            .map(|&(t0, d)| speed.scale(t0, d))
            .collect::<Vec<_>>(),
    );
    warm_round(ctx, fleet.router, &mut m)?;
    let stems = ctx.specs.stems();

    // The fixed-rate leg: long enough for min_samples at the rate. The
    // fleet is idle at the calibration points around it.
    let fixed_s = seconds.max(ctx.min_samples as f64 * 1.05 / FIXED_RATE);
    let due = client::poisson(&mut Rng::stream(ctx.seed, 5), FIXED_RATE, fixed_s);
    let fixed = fleet_mix(ctx.seed, &stems, 0, due.len());
    speed.mark();
    let samples = client::pipelined(fleet.router, FLEET_CONNS, &fixed, Pace::Due(&due), DRAIN)
        .map_err(|e| e.to_string())?;
    speed.mark();
    m.late_p99_ms = client::late_p99(&samples);
    // Memory and queue counters after a fixed amount of work.
    m.stats = Some(worker_stats(&fleet));
    m.peak_rss_mb = fleet.peak_rss_mb();

    // The saturation leg: 1.5 × min_samples requests, SAT_WINDOW in
    // flight, so the fleet is never idle and never drowned.
    let sat = fleet_mix(ctx.seed, &stems, 1 << 32, ctx.min_samples * 3 / 2);
    let sat_samples = client::pipelined(
        fleet.router,
        FLEET_CONNS,
        &sat,
        Pace::Window(SAT_WINDOW),
        DRAIN,
    )
    .map_err(|e| e.to_string())?;
    speed.mark();
    fleet.shutdown();

    // Verify everything against the oracle after the fleet is gone.
    let mut sat_m = Measured::default();
    verify(
        ctx,
        &sat.into_iter().zip(sat_samples).collect::<Vec<_>>(),
        &speed,
        &mut sat_m,
    );
    let pairs: Vec<(Req, Sample)> = fixed.into_iter().zip(samples).collect();
    verify(ctx, &pairs, &speed, &mut m);
    m.attempted += sat_m.attempted;
    m.failed += sat_m.failed;
    m.mismatches.extend(sat_m.mismatches);
    m.throughput_rps = round_medians(&sat_m.latencies_ms, |r| {
        wall_span(&sat_m.samples[r], &speed)
    })
    .0;
    m.latency_p50_ms = round_medians(&m.latencies_ms, |r| wall_span(&m.samples[r], &speed)).1;
    if sat_m.latency_p99_ms > P99_LIMIT_MS {
        eprintln!(
            "note: saturation p99 {:.1} ms is over the {P99_LIMIT_MS} ms limit",
            sat_m.latency_p99_ms
        );
    }
    Ok(m)
}

/// Every worker's own `stats`, merged into one document-shaped value:
/// queue counters summed (peak depth as the max) and latency p50 as
/// the median over workers.
fn worker_stats(fleet: &FleetProc) -> tadfa_sched::json::JsonValue {
    let docs: Vec<_> = fleet
        .workers
        .iter()
        .filter_map(|&a| fleet::stats_of(a).ok())
        .collect();
    let field = |doc: &tadfa_sched::json::JsonValue, sec: &str, key: &str| {
        doc.get(sec)
            .and_then(|s| s.get(key))
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0)
    };
    let rejected: f64 = docs.iter().map(|d| field(d, "queue", "rejected")).sum();
    let peak = docs
        .iter()
        .map(|d| field(d, "queue", "peak_depth"))
        .fold(0.0, f64::max);
    // Mean over every request the workers served, weighted by count.
    let count: f64 = docs.iter().map(|d| field(d, "latency", "count")).sum();
    let total: f64 = docs
        .iter()
        .map(|d| field(d, "latency", "count") * field(d, "latency", "mean_ns"))
        .sum();
    let text = format!(
        "{{\"queue\": {{\"rejected\": {rejected}, \"peak_depth\": {peak}}}, \
         \"latency\": {{\"mean_ns\": {}}}}}",
        total / count.max(1.0)
    );
    tadfa_sched::json::parse(&text).expect("well-formed by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slow_minority_of_rounds_does_not_move_the_round_medians() {
        // 5 rounds of 10 back-to-back 10 ms requests; the second round
        // runs at a third of the speed.
        let t0 = Instant::now();
        let mut at = t0;
        let mut samples = Vec::new();
        for i in 0..50u64 {
            let ms = if (10..20).contains(&i) { 30.0 } else { 10.0 };
            samples.push(Sample {
                id: i,
                start: at,
                latency_ms: ms,
                late_ms: 0.0,
                response: None,
            });
            at += Duration::from_secs_f64(ms / 1e3);
        }
        let latencies: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
        let (rps, p50) = round_medians(&latencies, |r| wall_span(&samples[r], &Speed::default()));
        assert!((rps - 100.0).abs() < 1e-6, "{rps}");
        assert_eq!(p50, 10.0);
    }
}
