//! The connection layer both front doors serve through: `tadfa-serve`'s
//! [`Server`](crate::Server) and the `tadfa-fleet` [`Router`](crate::Router)
//! each implement [`LineHandler`]. The [service docs](crate::service)
//! walk the request flow.

use crate::latency::LatencyHistogram;
use crate::protocol::{self, kind, Op, Request};
use crate::queue::{AdmissionQueue, RejectReason};
use crate::service::ServerConfig;
use std::ffi::{c_int, c_short};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
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
    // One write per line: under TCP_NODELAY a separate newline write
    // goes out as a second segment, which the client's line reader
    // must wait for too.
    let mut framed = String::with_capacity(line.len() + 1);
    framed.push_str(line);
    framed.push('\n');
    let mut w = out.lock().expect("sink poisoned");
    let _ = w.write_all(framed.as_bytes());
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

/// `struct pollfd` from `<poll.h>`: one descriptor, the events asked
/// for, and the events [`wait`] found.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

/// Readable, or at end of stream (`<poll.h>`'s value on every Unix).
const POLLIN: c_short = 0x1;
/// Writable without blocking.
const POLLOUT: c_short = 0x4;

impl PollFd {
    fn new(fd: &impl AsRawFd, events: c_short) -> PollFd {
        PollFd {
            fd: fd.as_raw_fd(),
            events,
            revents: 0,
        }
    }

    /// Whether the last [`wait`] found anything on this descriptor:
    /// an asked-for event, or an error or hang-up, which `poll`
    /// reports unasked.
    fn ready(&self) -> bool {
        self.revents != 0
    }
}

#[cfg(target_os = "linux")]
type Nfds = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::ffi::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
}

/// Blocks in `poll(2)` until a descriptor in `fds` is
/// [ready](PollFd::ready) or `timeout` has passed (`None`: no limit),
/// and returns how many are ready, 0 on a timeout. The timeout is
/// rounded up to whole milliseconds, so a silent set never returns
/// early.
///
/// # Errors
///
/// `poll`'s own, `Interrupted` above all.
fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> std::io::Result<usize> {
    let timeout_ms = timeout.map_or(-1, |t| {
        c_int::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX)
    });
    let nfds = Nfds::try_from(fds.len())
        .map_err(|_| std::io::Error::from(std::io::ErrorKind::InvalidInput))?;
    // SAFETY: `fds` is an exclusively borrowed slice of exactly `nfds`
    // `#[repr(C)]` pollfd records; poll(2) reads and writes only those
    // records and keeps no pointer to them once it returns.
    let ready = unsafe { poll(fds.as_mut_ptr(), nfds, timeout_ms) };
    usize::try_from(ready).map_err(|_| std::io::Error::last_os_error())
}

/// A reactor thread's wake-up line: the thread waits on `rx` beside
/// its sockets, and a byte written to `tx` ends that [`wait`].
struct WakeSocket {
    tx: UnixStream,
    rx: UnixStream,
}

impl WakeSocket {
    fn new() -> std::io::Result<WakeSocket> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(WakeSocket { tx, rx })
    }

    /// Wakes the owner. A full buffer means a wake-up is already
    /// pending, so a failed write loses nothing.
    fn wake(&self) {
        let _ = (&self.tx).write(&[1]);
    }

    /// Consumes every pending wake-up.
    fn drain(&self) {
        let mut buf = [0u8; 64];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
    }
}

/// What the acceptor and the shards share: each shard's inbox of
/// accepted connections and its wake socket, and the acceptor's own.
struct Reactor {
    shards: Vec<Shard>,
    acceptor: WakeSocket,
}

/// One shard's connections, handed over by the acceptor but not yet
/// adopted, and its wake socket.
struct Shard {
    inbox: Mutex<Vec<TcpStream>>,
    wake: WakeSocket,
}

impl Reactor {
    fn new(shards: usize) -> std::io::Result<Reactor> {
        Ok(Reactor {
            shards: (0..shards)
                .map(|_| {
                    Ok(Shard {
                        inbox: Mutex::new(Vec::new()),
                        wake: WakeSocket::new()?,
                    })
                })
                .collect::<std::io::Result<_>>()?,
            acceptor: WakeSocket::new()?,
        })
    }

    /// Wakes the acceptor and every shard, so that each sees the
    /// handler's shutdown and exits.
    fn wake_all(&self) {
        self.acceptor.wake();
        for shard in &self.shards {
            shard.wake.wake();
        }
    }
}

/// Serves `listener` with `cfg`'s reactor shards, line cap and stall
/// timeout until the handler shuts down — every way out, errors
/// included, shuts it down — and returns once every shard has exited;
/// draining the queue is the caller's job.
///
/// # Errors
///
/// Propagates a failure to create the wake sockets or to make the
/// listener nonblocking. Accept errors never end serving: they are
/// logged and retried.
pub(crate) fn serve<H: LineHandler>(
    handler: Arc<H>,
    listener: TcpListener,
    cfg: &ServerConfig,
) -> std::io::Result<()> {
    let reactor = match Reactor::new(cfg.reactor_shards.max(1)) {
        Ok(reactor) => Arc::new(reactor),
        Err(e) => {
            handler.shutdown();
            return Err(e);
        }
    };
    let shards: Vec<_> = (0..reactor.shards.len())
        .map(|index| {
            let handler = Arc::clone(&handler);
            let reactor = Arc::clone(&reactor);
            let cfg = cfg.clone();
            std::thread::spawn(move || reactor_shard(&*handler, &reactor, index, &cfg))
        })
        .collect();

    let mut next = 0usize;
    let result = listener.set_nonblocking(true);
    let mut waiting = [
        PollFd::new(&listener, POLLIN),
        PollFd::new(&reactor.acceptor.rx, POLLIN),
    ];
    while result.is_ok() && !handler.shutting_down() {
        match listener.accept() {
            Ok((stream, _)) => {
                // Request/response lines are small; Nagle queuing
                // them behind a delayed ACK costs ~40ms per hop.
                let _ = stream.set_nodelay(true);
                let shard = &reactor.shards[next % reactor.shards.len()];
                shard.inbox.lock().expect("inbox poisoned").push(stream);
                shard.wake.wake();
                next = next.wrapping_add(1);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                // Until a client connects or shutdown wakes us.
                let _ = wait(&mut waiting, None);
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
                // The listener stays readable meanwhile, so waiting
                // on it would spin.
                eprintln!("accept error: {e}; retrying in 100 ms");
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
    // Shutdown, or a listener that would not go nonblocking: stop
    // admitting, join the shards; the handler's workers drain the rest.
    handler.shutdown();
    reactor.wake_all();
    for s in shards {
        let _ = s.join();
    }
    result
}

/// How long a response write may wait out `WouldBlock` before the
/// client is declared stuck and the write abandoned (errors are
/// swallowed at the sink). Bounds how long one unread-ing client can
/// hold a service worker.
const WRITE_PATIENCE: Duration = Duration::from_secs(5);

/// The write half of a reactor connection. The read half runs
/// nonblocking, and `O_NONBLOCK` is a property of the underlying
/// socket — shared by every clone of the fd — so writes can hit
/// `WouldBlock` too; this adapter waits for writability with bounded
/// patience so response lines stay whole.
struct PatientWriter {
    stream: TcpStream,
}

impl Write for PatientWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let give_up = Instant::now() + WRITE_PATIENCE;
        loop {
            match self.stream.write(buf) {
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    let left = give_up.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Err(e);
                    }
                    let _ = wait(&mut [PollFd::new(&self.stream, POLLOUT)], Some(left));
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
    /// Still open: its bytes are read up to the per-pass budget or to
    /// `WouldBlock`.
    Open,
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
                        return ConnEvent::Open;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return ConnEvent::Open,
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

/// One reactor shard: adopt the connections the acceptor hands over,
/// wait in `poll(2)` until one is readable, the shard is woken or the
/// earliest slow-loris deadline passes, then serve the readable ones
/// and reap the closed and the stalled.
fn reactor_shard<H: LineHandler>(handler: &H, reactor: &Reactor, index: usize, cfg: &ServerConfig) {
    let shard = &reactor.shards[index];
    let stall = Duration::from_millis(cfg.stall_timeout_ms.max(1));
    let max_line = cfg.max_line_bytes;
    let mut conns: Vec<Conn> = Vec::new();
    let mut waiting: Vec<PollFd> = Vec::new();
    let mut scratch = vec![0u8; 16 * 1024];
    loop {
        if handler.shutting_down() {
            return;
        }
        for stream in shard.inbox.lock().expect("inbox poisoned").drain(..) {
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
        // Only a partial line has a deadline: idle keep-alives are free.
        let stall_deadline = conns
            .iter()
            .filter(|c| !c.buf.is_empty())
            .map(|c| c.last_activity + stall)
            .min();
        waiting.clear();
        waiting.push(PollFd::new(&shard.wake.rx, POLLIN));
        waiting.extend(conns.iter().map(|c| PollFd::new(&c.stream, POLLIN)));
        let timeout = stall_deadline.map(|d| d.saturating_duration_since(Instant::now()));
        // Each `revents` starts at 0, and a failed wait (a signal)
        // sets none, so such a pass only reaps.
        let _ = wait(&mut waiting, timeout);
        if waiting[0].ready() {
            shard.wake.drain();
        }
        let mut readable = waiting[1..].iter().map(PollFd::ready);
        let mut shutdown = false;
        conns.retain_mut(|conn| {
            let event = if readable.next() == Some(true) {
                conn.service(handler, max_line, &mut scratch)
            } else {
                ConnEvent::Open
            };
            match event {
                ConnEvent::Open => {
                    // Slow-loris reaping: only a *partial* line on a
                    // silent socket is abuse.
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
            }
        });
        if shutdown {
            reactor.wake_all();
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LONG: Duration = Duration::from_secs(10);

    #[test]
    fn wait_reports_a_socket_with_pending_bytes() {
        let (writer, pending) = UnixStream::pair().unwrap();
        let (_peer, silent) = UnixStream::pair().unwrap();
        (&writer).write_all(b"{}\n").unwrap();
        let mut fds = [PollFd::new(&silent, POLLIN), PollFd::new(&pending, POLLIN)];
        assert_eq!(wait(&mut fds, Some(LONG)).unwrap(), 1);
        assert!(!fds[0].ready());
        assert!(fds[1].ready());
    }

    #[test]
    fn wait_reports_a_peer_that_hung_up() {
        let (peer, conn) = UnixStream::pair().unwrap();
        drop(peer);
        let mut fds = [PollFd::new(&conn, POLLIN)];
        assert_eq!(wait(&mut fds, Some(LONG)).unwrap(), 1);
        assert!(fds[0].ready());
        // So the shard's next read sees the end of stream and drops
        // the connection, instead of waiting on it again at once.
        conn.set_nonblocking(true).unwrap();
        assert_eq!((&conn).read(&mut [0u8; 8]).unwrap(), 0);
    }

    #[test]
    fn wait_returns_when_a_wake_byte_arrives() {
        let wake = Arc::new(WakeSocket::new().unwrap());
        let waiter = {
            let wake = Arc::clone(&wake);
            std::thread::spawn(move || {
                let (_peer, silent) = UnixStream::pair().unwrap();
                let mut fds = [PollFd::new(&silent, POLLIN), PollFd::new(&wake.rx, POLLIN)];
                let ready = wait(&mut fds, Some(LONG)).unwrap();
                (ready, fds[0].ready(), fds[1].ready())
            })
        };
        // Whether the byte lands before or during the waiter's wait,
        // it must end that wait, not the timeout.
        wake.wake();
        assert_eq!(waiter.join().unwrap(), (1, false, true));
        // Drained, the wake socket goes quiet again.
        wake.drain();
        let mut fds = [PollFd::new(&wake.rx, POLLIN)];
        assert_eq!(wait(&mut fds, Some(Duration::ZERO)).unwrap(), 0);
    }

    #[test]
    fn wait_on_a_silent_socket_lasts_its_timeout() {
        let (_peer, silent) = UnixStream::pair().unwrap();
        // A sub-millisecond remainder rounds up, never down to a spin.
        for timeout in [Duration::from_micros(1_500), Duration::from_millis(30)] {
            let start = Instant::now();
            let mut fds = [PollFd::new(&silent, POLLIN)];
            assert_eq!(wait(&mut fds, Some(timeout)).unwrap(), 0);
            assert!(start.elapsed() >= timeout, "{timeout:?}");
            assert!(!fds[0].ready());
        }
    }
}
