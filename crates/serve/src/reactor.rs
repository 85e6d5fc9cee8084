//! The connection layer both front doors serve through: `tadfa-serve`'s
//! [`Server`](crate::Server) and the `tadfa-fleet` [`Router`](crate::Router)
//! each implement [`LineHandler`]. The [service docs](crate::service)
//! walk the request flow.

use crate::latency::LatencyHistogram;
use crate::protocol::{self, kind, Op, Request};
use crate::queue::{AdmissionQueue, RejectReason};
use crate::service::ServerConfig;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A connection's response sink: whole lines, serialized by the mutex.
pub type Sink = Arc<Mutex<Box<dyn Write + Send>>>;

/// Wraps a writer into a [`Sink`].
pub fn sink(w: impl Write + Send + 'static) -> Sink {
    Arc::new(Mutex::new(Box::new(w)))
}

/// Writes one response line to a sink (errors ignored: a vanished
/// client must not take the service down).
pub(crate) fn write_line(out: &Sink, line: &str) {
    let mut w = out.lock().expect("sink poisoned");
    let _ = writeln!(w, "{line}");
    let _ = w.flush();
}

/// One admitted unit of work: the request, its line if the handler
/// [keeps it](LineHandler::KEEPS_LINE), when it was admitted (the
/// deadline/SLO epoch), and where its response goes.
pub(crate) struct Job {
    pub line: String,
    pub request: Request,
    pub admitted: Instant,
    pub out: Sink,
}

/// What one front door admits requests into and counts them by: the
/// bounded queue, the admission→response latency histogram, and the
/// served totals its `stats` response reports.
pub(crate) struct Admission {
    pub queue: AdmissionQueue<Job>,
    pub latency: LatencyHistogram,
    pub served_ok: AtomicU64,
    pub served_err: AtomicU64,
    /// Requests answered with a shed error instead of a result.
    pub shed: AtomicU64,
}

impl Admission {
    pub fn new(queue_capacity: usize) -> Admission {
        Admission {
            queue: AdmissionQueue::new(queue_capacity),
            latency: LatencyHistogram::new(),
            served_ok: AtomicU64::new(0),
            served_err: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        }
    }

    /// Counts one response and records its admission→response latency.
    pub fn record(&self, ok: bool, admitted: Instant) {
        let served = if ok {
            &self.served_ok
        } else {
            &self.served_err
        };
        served.fetch_add(1, Ordering::Relaxed);
        let elapsed = admitted.elapsed();
        self.latency
            .record(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }

    /// The `queue`, `latency` and `requests` blocks that close both
    /// front doors' `stats` responses.
    pub fn stats_blocks(&self, persist_errors: u64) -> String {
        let q = self.queue.stats();
        let l = self.latency.snapshot();
        format!(
            "\"queue\": {{\"accepted\": {}, \"rejected\": {}, \"peak_depth\": {}, \
             \"depth\": {}, \"capacity\": {}}}, \
             \"latency\": {{\"count\": {}, \"mean_ns\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \
             \"p999_ns\": {}, \"max_ns\": {}}}, \
             \"requests\": {{\"ok\": {}, \"errors\": {}, \"shed\": {}, \"persist_errors\": {}}}",
            q.accepted,
            q.rejected,
            q.peak_depth,
            q.depth,
            q.capacity,
            l.count,
            l.mean_ns,
            l.p50_ns,
            l.p99_ns,
            l.p999_ns,
            l.max_ns,
            self.served_ok.load(Ordering::Relaxed),
            self.served_err.load(Ordering::Relaxed),
            self.shed.load(Ordering::Relaxed),
            persist_errors,
        )
    }
}

/// What a front door decides; the connection layer does the rest.
pub(crate) trait LineHandler: Send + Sync + 'static {
    /// Whether jobs keep a copy of their request line: the router
    /// forwards it verbatim, the server needs only the parsed request.
    const KEEPS_LINE: bool;

    /// Where every request but `ping`/`shutdown` is admitted.
    fn admission(&self) -> &Admission;

    /// The error kind and message answering a request the queue
    /// turned away.
    fn rejection(&self, reason: RejectReason) -> (&'static str, String);

    /// Stops admission for good: the queue closes and the acceptor and
    /// every shard exit.
    fn shutdown(&self);

    /// Whether [`shutdown`](LineHandler::shutdown) has been called.
    fn shutting_down(&self) -> bool;
}

/// Processes one complete request line: parse, answer `ping`/`shutdown`
/// inline, admit everything else into the bounded queue — or answer
/// its rejection immediately when no slot is free. Returns `true` when
/// the line requested shutdown. This is the one request path the pipe
/// reader and the reactor shards of both front doors go through.
pub(crate) fn handle_line<H: LineHandler>(handler: &H, line: &str, out: &Sink) -> bool {
    let line = line.trim();
    if line.is_empty() {
        return false;
    }
    match protocol::parse_request(line) {
        Err(e) => {
            write_line(
                out,
                &protocol::error_response(e.id, kind::BAD_REQUEST, &e.message),
            );
            false
        }
        Ok(req) => match req.op {
            // Liveness probes bypass the queue: a loaded service must
            // still answer "are you there".
            Op::Ping => {
                write_line(out, &protocol::pong_response(req.id));
                false
            }
            Op::Shutdown => {
                handler.shutdown();
                write_line(out, &protocol::shutdown_response(req.id));
                true
            }
            _ => {
                let job = Job {
                    line: String::from(if H::KEEPS_LINE { line } else { "" }),
                    request: req,
                    admitted: Instant::now(),
                    out: Arc::clone(out),
                };
                if let Err((job, reason)) = handler.admission().queue.try_push(job) {
                    let (error_kind, message) = handler.rejection(reason);
                    write_line(
                        out,
                        &protocol::error_response(Some(job.request.id), error_kind, &message),
                    );
                }
                false
            }
        },
    }
}

/// Serves `listener` with `cfg`'s reactor shards, line cap, stall
/// timeout and idle sleep until the handler shuts down — every way out,
/// errors included, shuts it down — and returns once every shard has
/// exited; draining the queue is the caller's job.
///
/// # Errors
///
/// Propagates a failure to make the listener nonblocking. Accept
/// errors never end serving: they are logged and retried.
pub(crate) fn serve<H: LineHandler>(
    handler: Arc<H>,
    listener: TcpListener,
    cfg: &ServerConfig,
) -> std::io::Result<()> {
    let shard_count = cfg.reactor_shards.max(1);
    let injectors: Vec<Arc<Mutex<Vec<TcpStream>>>> = (0..shard_count)
        .map(|_| Arc::new(Mutex::new(Vec::new())))
        .collect();
    let shards: Vec<_> = injectors
        .iter()
        .map(|inj| {
            let handler = Arc::clone(&handler);
            let inj = Arc::clone(inj);
            let cfg = cfg.clone();
            std::thread::spawn(move || reactor_shard(&*handler, &inj, &cfg))
        })
        .collect();

    let mut next = 0usize;
    let result = listener.set_nonblocking(true);
    while result.is_ok() && !handler.shutting_down() {
        match listener.accept() {
            Ok((stream, _)) => {
                // Request/response lines are small; Nagle queuing
                // them behind a delayed ACK costs ~40ms per hop.
                let _ = stream.set_nodelay(true);
                injectors[next % shard_count]
                    .lock()
                    .expect("injector poisoned")
                    .push(stream);
                next = next.wrapping_add(1);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionAborted | std::io::ErrorKind::Interrupted
                ) =>
            {
                // A client that vanished mid-handshake is its
                // problem, not the listener's.
            }
            Err(e) => {
                // Above all EMFILE/ENFILE, which pass once open
                // connections close: keep serving them and retry.
                eprintln!("accept error: {e}; retrying in 100 ms");
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
    // Shutdown, or a listener that would not go nonblocking: stop
    // admitting, join the shards; the handler's workers drain the rest.
    handler.shutdown();
    for s in shards {
        let _ = s.join();
    }
    result
}

/// How long a response write may retry `WouldBlock` before the client
/// is declared stuck and the write abandoned (errors are swallowed at
/// the sink). Bounds how long one unread-ing client can hold a
/// service worker.
const WRITE_PATIENCE: Duration = Duration::from_secs(5);

/// The write half of a reactor connection. The read half runs
/// nonblocking, and `O_NONBLOCK` is a property of the underlying
/// socket — shared by every clone of the fd — so writes can hit
/// `WouldBlock` too; this adapter retries them with bounded patience
/// so response lines stay whole.
struct PatientWriter {
    stream: TcpStream,
}

impl Write for PatientWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let start = Instant::now();
        loop {
            match self.stream.write(buf) {
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if start.elapsed() >= WRITE_PATIENCE {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                other => return other,
            }
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

/// What one service pass over a connection concluded.
enum ConnEvent {
    /// Bytes moved; poll again soon.
    Progress,
    /// Nothing to read; fine for a healthy idle connection.
    Idle,
    /// The connection is done (EOF, error, or abuse) — drop it.
    /// Responses for its already-admitted requests still go out
    /// through the sink's own socket handle.
    Close,
    /// This connection requested shutdown.
    Shutdown,
}

/// One reactor-owned connection: the nonblocking read half plus the
/// partial-line buffer.
struct Conn {
    stream: TcpStream,
    out: Sink,
    buf: Vec<u8>,
    last_activity: Instant,
}

impl Conn {
    /// Reads whatever is available (bounded per pass for fairness
    /// across a shard's connections) and processes complete lines.
    fn service<H: LineHandler>(
        &mut self,
        handler: &H,
        max_line: usize,
        scratch: &mut [u8],
    ) -> ConnEvent {
        let mut made_progress = false;
        let mut read_budget = 16;
        loop {
            match self.stream.read(scratch) {
                Ok(0) => {
                    // EOF (possibly a half-close: the client shut its
                    // write side and is waiting to read). Flush any
                    // final unterminated line, then drop the read
                    // half; responses still flow through the sink.
                    return if self.drain_final_line(handler, max_line) {
                        ConnEvent::Shutdown
                    } else {
                        ConnEvent::Close
                    };
                }
                Ok(n) => {
                    self.buf.extend_from_slice(&scratch[..n]);
                    self.last_activity = Instant::now();
                    made_progress = true;
                    match self.process_lines(handler, max_line) {
                        LineOutcome::Shutdown => return ConnEvent::Shutdown,
                        LineOutcome::TooLarge => {
                            write_line(
                                &self.out,
                                &protocol::error_response(
                                    None,
                                    kind::REQUEST_TOO_LARGE,
                                    &format!(
                                        "request line exceeds {max_line} bytes; \
                                         closing connection"
                                    ),
                                ),
                            );
                            return ConnEvent::Close;
                        }
                        LineOutcome::Continue => {}
                    }
                    read_budget -= 1;
                    if read_budget == 0 {
                        return ConnEvent::Progress;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    return if made_progress {
                        ConnEvent::Progress
                    } else {
                        ConnEvent::Idle
                    };
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return ConnEvent::Close,
            }
        }
    }

    /// Handles every complete line in the buffer, stopping early on a
    /// shutdown request or a line over the size cap (the cap applies
    /// whether or not the newline has arrived yet — a complete
    /// oversized request is as unwelcome as an unbounded partial one).
    fn process_lines<H: LineHandler>(&mut self, handler: &H, max_line: usize) -> LineOutcome {
        loop {
            match self.buf.iter().position(|&b| b == b'\n') {
                Some(pos) if pos > max_line => return LineOutcome::TooLarge,
                Some(pos) => {
                    let line: Vec<u8> = self.buf.drain(..=pos).collect();
                    let line = String::from_utf8_lossy(&line[..line.len() - 1]);
                    if handle_line(handler, &line, &self.out) {
                        return LineOutcome::Shutdown;
                    }
                }
                None if self.buf.len() > max_line => return LineOutcome::TooLarge,
                None => return LineOutcome::Continue,
            }
        }
    }

    /// At EOF, a final line may lack its newline (`printf` clients);
    /// treat end-of-stream as the terminator, as the blocking reader
    /// does.
    fn drain_final_line<H: LineHandler>(&mut self, handler: &H, max_line: usize) -> bool {
        match self.process_lines(handler, max_line) {
            LineOutcome::Shutdown => return true,
            LineOutcome::TooLarge => {
                self.buf.clear();
                return false;
            }
            LineOutcome::Continue => {}
        }
        if self.buf.is_empty() {
            return false;
        }
        let rest = std::mem::take(&mut self.buf);
        handle_line(handler, &String::from_utf8_lossy(&rest), &self.out)
    }
}

/// What [`Conn::process_lines`] found in the buffer.
enum LineOutcome {
    /// All complete lines handled; the remainder (if any) is a
    /// within-budget partial line.
    Continue,
    /// A shutdown request was seen.
    Shutdown,
    /// A line exceeded the configured size cap.
    TooLarge,
}

/// One reactor shard: adopt injected connections, poll them round the
/// loop, reap the closed/abusive, sleep only when nothing moved.
fn reactor_shard<H: LineHandler>(
    handler: &H,
    injector: &Mutex<Vec<TcpStream>>,
    cfg: &ServerConfig,
) {
    let stall = Duration::from_millis(cfg.stall_timeout_ms.max(1));
    let max_line = cfg.max_line_bytes;
    // Idle backoff: 50 µs floor, doubling per quiet pass, capped by
    // config, reset to the floor on any progress.
    const IDLE_FLOOR_US: u64 = 50;
    let idle_cap_us = cfg.idle_sleep_us.max(IDLE_FLOOR_US);
    let mut idle_us = IDLE_FLOOR_US;
    let mut conns: Vec<Conn> = Vec::new();
    let mut scratch = vec![0u8; 16 * 1024];
    loop {
        if handler.shutting_down() {
            return;
        }
        for stream in injector.lock().expect("injector poisoned").drain(..) {
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let Ok(write_half) = stream.try_clone() else {
                continue;
            };
            conns.push(Conn {
                stream,
                out: sink(PatientWriter { stream: write_half }),
                buf: Vec::new(),
                last_activity: Instant::now(),
            });
        }
        let mut any_progress = false;
        let mut shutdown = false;
        conns.retain_mut(|conn| match conn.service(handler, max_line, &mut scratch) {
            ConnEvent::Progress => {
                any_progress = true;
                true
            }
            ConnEvent::Idle => {
                // Slow-loris reaping: only a *partial* line on a
                // silent socket is abuse; idle keep-alives are free.
                if !conn.buf.is_empty() && conn.last_activity.elapsed() >= stall {
                    write_line(
                        &conn.out,
                        &protocol::error_response(
                            None,
                            kind::BAD_REQUEST,
                            "partial request line stalled; closing slow connection",
                        ),
                    );
                    false
                } else {
                    true
                }
            }
            ConnEvent::Close => false,
            ConnEvent::Shutdown => {
                shutdown = true;
                false
            }
        });
        if shutdown {
            return;
        }
        if any_progress {
            idle_us = IDLE_FLOOR_US;
        } else {
            std::thread::sleep(Duration::from_micros(idle_us));
            idle_us = (idle_us * 2).min(idle_cap_us);
        }
    }
}
