//! The load generator's two loops and the response check.
//!
//! * [`closed_loop`]: one connection, the next request goes out only
//!   after the previous response came back.
//! * [`pipelined`] with [`Pace::Due`]: an open loop. Requests go out
//!   on a precomputed schedule over a few pipelined connections,
//!   whatever the server's state; each is timed from when it was
//!   *due*, so a stall is charged to every request it delays, and the
//!   sender's own lateness is recorded.
//! * [`pipelined`] with [`Pace::Window`]: saturation. A fixed number of
//!   requests stays in flight.
//!
//! Both run on the calling thread only.

use crate::requests::Req;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One answered (or unanswered) request.
#[derive(Clone, Debug)]
pub struct Sample {
    pub id: u64,
    /// When the request was sent (closed loop) or due (open loop).
    pub start: Instant,
    /// Client-observed latency; from the due time in an open loop.
    pub latency_ms: f64,
    /// How late the sender wrote the request (open loop only).
    pub late_ms: f64,
    /// The response line; `None` when none arrived.
    pub response: Option<String>,
}

pub fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Sends one request line and reads one response line on a fresh
/// connection (stats, shutdown).
pub fn call(addr: SocketAddr, line: &str) -> std::io::Result<String> {
    let mut stream = connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.write_all(format!("{line}\n").as_bytes())?;
    let mut out = String::new();
    BufReader::new(stream).read_line(&mut out)?;
    Ok(out.trim_end().to_string())
}

/// A closed loop over one connection: `next(i)` yields request `i`,
/// and the loop runs until `until` returns true (checked before each
/// request with the count sent so far).
pub fn closed_loop(
    addr: SocketAddr,
    mut next: impl FnMut(u64) -> Req,
    mut until: impl FnMut(u64) -> bool,
) -> std::io::Result<Vec<(Req, Sample)>> {
    let mut writer = connect(addr)?;
    writer.set_read_timeout(Some(Duration::from_secs(60)))?;
    let mut reader = BufReader::new(writer.try_clone()?);
    let mut out = Vec::new();
    let mut line = String::new();
    let mut i = 0u64;
    while !until(i) {
        let req = next(i);
        let t0 = Instant::now();
        writer.write_all(req.line.as_bytes())?;
        writer.write_all(b"\n")?;
        line.clear();
        let n = reader.read_line(&mut line)?;
        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        let response = (n > 0).then(|| line.trim_end().to_string());
        out.push((
            req.clone(),
            Sample {
                id: req.id,
                start: t0,
                latency_ms,
                late_ms: 0.0,
                response,
            },
        ));
        i += 1;
    }
    Ok(out)
}

/// One pipelined connection.
struct Pipe {
    stream: TcpStream,
    outbound: Vec<u8>,
    inbound: Vec<u8>,
}

/// When a pipelined loop sends its next request.
#[derive(Clone, Copy, Debug)]
pub enum Pace<'a> {
    /// Open loop: request `i` is due `offsets[i]` seconds after the
    /// start and is timed from then.
    Due(&'a [f64]),
    /// Saturation: keep this many requests in flight, each timed from
    /// when it was sent.
    Window(usize),
}

/// Sends `reqs` round-robin over `conns` pipelined connections to
/// `addr` at `pace`, then waits up to `drain` after the last send for
/// the stragglers. Returns one sample per request, in input order.
pub fn pipelined(
    addr: SocketAddr,
    conns: usize,
    reqs: &[Req],
    pace: Pace<'_>,
    drain: Duration,
) -> std::io::Result<Vec<Sample>> {
    let mut pipes = Vec::new();
    for _ in 0..conns.max(1) {
        let stream = connect(addr)?;
        stream.set_nonblocking(true)?;
        pipes.push(Pipe {
            stream,
            outbound: Vec::new(),
            inbound: Vec::new(),
        });
    }
    let index_of: std::collections::HashMap<u64, usize> =
        reqs.iter().enumerate().map(|(i, r)| (r.id, i)).collect();
    let start = Instant::now();
    let due = |i: usize| match pace {
        Pace::Due(offsets) => Some(start + Duration::from_secs_f64(offsets[i])),
        Pace::Window(_) => None,
    };
    let mut samples: Vec<Sample> = reqs
        .iter()
        .enumerate()
        .map(|(i, r)| Sample {
            id: r.id,
            start: due(i).unwrap_or(start),
            latency_ms: f64::INFINITY,
            late_ms: 0.0,
            response: None,
        })
        .collect();
    let mut next = 0usize;
    let mut answered = 0usize;
    let mut scratch = vec![0u8; 64 * 1024];
    let mut last_send = start;
    loop {
        let now = Instant::now();
        while next < reqs.len() {
            let ready = match pace {
                Pace::Due(_) => due(next).is_some_and(|d| d <= now),
                Pace::Window(w) => next - answered < w.max(1),
            };
            if !ready {
                break;
            }
            let pipe = &mut pipes[next % conns.max(1)];
            pipe.outbound.extend_from_slice(reqs[next].line.as_bytes());
            pipe.outbound.push(b'\n');
            let sample = &mut samples[next];
            match due(next) {
                Some(d) => sample.late_ms = now.duration_since(d).as_secs_f64() * 1e3,
                None => sample.start = now,
            }
            last_send = now;
            next += 1;
        }
        let mut progress = false;
        for pipe in &mut pipes {
            while !pipe.outbound.is_empty() {
                match pipe.stream.write(&pipe.outbound) {
                    Ok(0) => return Err(ErrorKind::WriteZero.into()),
                    Ok(n) => {
                        pipe.outbound.drain(..n);
                        progress = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            loop {
                match pipe.stream.read(&mut scratch) {
                    Ok(0) => break,
                    Ok(n) => {
                        pipe.inbound.extend_from_slice(&scratch[..n]);
                        progress = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            let received = Instant::now();
            while let Some(pos) = pipe.inbound.iter().position(|&b| b == b'\n') {
                let raw: Vec<u8> = pipe.inbound.drain(..=pos).collect();
                let text = String::from_utf8_lossy(&raw[..raw.len() - 1]).into_owned();
                let id = tadfa_serve::parse_response(&text).ok().and_then(|r| r.id);
                if let Some(&i) = id.and_then(|id| index_of.get(&id)) {
                    let sample = &mut samples[i];
                    if sample.response.is_none() {
                        sample.latency_ms =
                            received.duration_since(sample.start).as_secs_f64() * 1e3;
                        sample.response = Some(text);
                        answered += 1;
                    }
                }
            }
        }
        if answered == reqs.len() {
            break;
        }
        if next == reqs.len() && Instant::now() > last_send + drain {
            break;
        }
        if !progress {
            // Sleep in short steps: short enough to keep send lateness
            // and receive timestamps well under a millisecond.
            let until_due = due(next.min(reqs.len().saturating_sub(1)))
                .filter(|_| next < reqs.len())
                .map_or(Duration::from_micros(100), |d| {
                    d.saturating_duration_since(Instant::now())
                });
            std::thread::sleep(until_due.min(Duration::from_micros(100)));
        }
    }
    Ok(samples)
}

/// Whether a sample's response is a success carrying `expected`.
pub fn verified(sample: &Sample, expected: &str) -> bool {
    sample
        .response
        .as_deref()
        .and_then(|line| tadfa_serve::parse_response(line).ok())
        .is_some_and(|r| r.ok && r.fingerprint.as_deref() == Some(expected))
}

/// The due times of a Poisson schedule at `rate` requests/s over
/// `seconds`.
pub fn poisson(rng: &mut crate::stats::Rng, rate: f64, seconds: f64) -> Vec<f64> {
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push(t);
    }
}

/// Sender lateness the open loop could not avoid, summarised: the
/// nearest-rank p99 of `late_ms`.
pub fn late_p99(samples: &[Sample]) -> f64 {
    let late: Vec<f64> = samples.iter().map(|s| s.late_ms).collect();
    crate::stats::p50_p99(&late).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// An echo-style server that answers each line after `delay`,
    /// in order, on one thread.
    fn slow_server(delay: Duration, lines: usize) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            stream.set_nodelay(true).unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            for _ in 0..lines {
                let mut line = String::new();
                if reader.read_line(&mut line).unwrap() == 0 {
                    return;
                }
                std::thread::sleep(delay);
                let id = tadfa_serve::parse_request(line.trim()).unwrap().id;
                writeln!(
                    writer,
                    "{{\"id\": {id}, \"ok\": true, \"fingerprint\": \"x\"}}"
                )
                .unwrap();
            }
        });
        (addr, handle)
    }

    #[test]
    fn open_loop_charges_queueing_from_the_due_time() {
        // Five requests due at once against a server that takes 20 ms
        // each, one at a time: the k-th answer is ~20(k+1) ms after its
        // due time even though the sender was never late.
        let (addr, server) = slow_server(Duration::from_millis(20), 5);
        let reqs: Vec<Req> = (0..5).map(|i| Req::run(i, "s")).collect();
        let samples =
            pipelined(addr, 1, &reqs, Pace::Due(&[0.0; 5]), Duration::from_secs(5)).unwrap();
        server.join().unwrap();
        assert!(samples.iter().all(|s| verified(s, "x")));
        assert!(samples.iter().all(|s| s.late_ms < 15.0), "{samples:?}");
        let last = samples.last().unwrap().latency_ms;
        assert!(last >= 95.0, "last request waited behind four: {last} ms");
        for w in samples.windows(2) {
            assert!(w[1].latency_ms > w[0].latency_ms);
        }
    }

    #[test]
    fn unanswered_requests_are_missing_not_fast() {
        let (addr, server) = slow_server(Duration::from_millis(1), 1);
        let reqs: Vec<Req> = (0..3).map(|i| Req::run(i, "s")).collect();
        let samples = pipelined(
            addr,
            1,
            &reqs,
            Pace::Due(&[0.0; 3]),
            Duration::from_millis(200),
        )
        .unwrap();
        server.join().unwrap();
        assert_eq!(samples.iter().filter(|s| s.response.is_some()).count(), 1);
        assert!(samples[1..].iter().all(|s| s.latency_ms.is_infinite()));
        assert!(!verified(&samples[2], "x"));
    }

    #[test]
    fn window_keeps_requests_in_flight_and_times_from_the_send() {
        // A window of 1 over a 20 ms server is a closed loop: no
        // request waits behind another, so each takes ~20 ms.
        let (addr, server) = slow_server(Duration::from_millis(20), 4);
        let reqs: Vec<Req> = (0..4).map(|i| Req::run(i, "s")).collect();
        let samples = pipelined(addr, 1, &reqs, Pace::Window(1), Duration::from_secs(5)).unwrap();
        server.join().unwrap();
        assert!(
            samples
                .iter()
                .all(|s| s.latency_ms >= 19.0 && s.latency_ms < 60.0),
            "{samples:?}"
        );
        assert!(samples
            .windows(2)
            .all(|w| w[1].start >= w[0].start + Duration::from_millis(19)));
    }

    #[test]
    fn poisson_schedule_is_seeded_and_has_the_rate() {
        let a = poisson(&mut crate::stats::Rng::stream(9, 0), 200.0, 50.0);
        let b = poisson(&mut crate::stats::Rng::stream(9, 0), 200.0, 50.0);
        assert_eq!(a, b);
        assert!(a.first().unwrap() > &0.0 && a.last().unwrap() < &50.0);
        let rate = a.len() as f64 / 50.0;
        assert!((rate - 200.0).abs() < 10.0, "{rate}");
    }

    #[test]
    fn lateness_is_measured_against_the_schedule() {
        let samples: Vec<Sample> = (0..100)
            .map(|i| Sample {
                id: i,
                start: Instant::now(),
                latency_ms: 1.0,
                late_ms: if i >= 98 { 7.0 } else { 0.1 },
                response: None,
            })
            .collect();
        // Two late sends out of 100: the p99 (99th sample) is late.
        assert_eq!(late_p99(&samples), 7.0);
        assert_eq!(late_p99(&samples[..97]), 0.1);
    }
}
