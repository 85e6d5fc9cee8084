//! Protocol-robustness tests over real TCP sockets, run against both
//! front doors: the in-process `Server` exactly as `tadfa-serve
//! --listen` runs it, and the real `tadfa-fleet` binary with one
//! worker. Malformed or deeply nested JSON, oversized lines (complete
//! or partial), half-closed connections, slow-loris clients and floods
//! of idle connections must each produce clean, typed protocol errors
//! or cost nothing — and none of them may wedge the door for the
//! well-behaved connections sharing it. Two router-only cases follow:
//! running out of file descriptors, and the router's own line cap.

mod common;

use common::{kill_workers, mini_scenarios, FleetChild, TempDir};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use tadfa_serve::protocol::{kind, parse_response, ParsedResponse};
use tadfa_serve::{Fleet, FleetConfig, Router, RouterPolicy, Server, ServerConfig};

/// The server door's stall timeout, shortened so its slow-loris case
/// stays quick; the router has no such option and waits out the
/// default.
const SERVER_STALL_MS: u64 = 200;

/// A request-line cap far below the 1 MiB default, so a whole over-cap
/// line fits in one reactor read. The server door runs with it, and so
/// does the in-process router of the policy-cap case; `tadfa-fleet`
/// has no option for it and keeps the default.
const SMALL_MAX_LINE: usize = 1024;

/// The router's open-file limit in the descriptor-exhaustion case.
const FLEET_FD_LIMIT: usize = 64;

/// The two front doors every case runs against.
#[derive(Clone, Copy, Debug)]
enum Door {
    Server,
    Fleet,
}

/// A front door listening on an ephemeral port.
enum Running {
    Server {
        addr: SocketAddr,
        max_line: usize,
        handle: std::thread::JoinHandle<std::io::Result<()>>,
    },
    Fleet {
        addr: SocketAddr,
        child: FleetChild,
        _tmp: TempDir,
    },
}

impl Door {
    fn start(self, tag: &str) -> Running {
        self.start_with_line_cap(tag, SMALL_MAX_LINE)
    }

    /// Starts the door; the server door caps request lines at
    /// `server_max_line` bytes.
    fn start_with_line_cap(self, tag: &str, server_max_line: usize) -> Running {
        match self {
            Door::Server => {
                let server = Server::load(&ServerConfig {
                    scenario_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios"),
                    service_workers: 2,
                    stall_timeout_ms: SERVER_STALL_MS,
                    max_line_bytes: server_max_line,
                    ..ServerConfig::default()
                })
                .expect("committed scenarios load");
                let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral bind");
                let addr = listener.local_addr().expect("bound address");
                let handle = std::thread::spawn(move || server.serve_listener(listener));
                Running::Server {
                    addr,
                    max_line: server_max_line,
                    handle,
                }
            }
            Door::Fleet => Running::fleet(tag, None),
        }
    }
}

impl Running {
    /// A real one-worker `tadfa-fleet`, optionally under an open-file
    /// limit, once its worker is routable.
    fn fleet(tag: &str, fd_limit: Option<usize>) -> Running {
        let tmp = TempDir::new(&format!("robust-{tag}"));
        let scenarios = mini_scenarios(tmp.path());
        let (child, addr) = FleetChild::spawn(&scenarios, tmp.path(), 1, &[], fd_limit);
        let running = Running::Fleet {
            addr,
            child,
            _tmp: tmp,
        };
        running.await_healthy_worker();
        running
    }

    fn addr(&self) -> SocketAddr {
        match self {
            Running::Server { addr, .. } | Running::Fleet { addr, .. } => *addr,
        }
    }

    /// How long a partial line may stall before the door reaps it.
    fn stall(&self) -> Duration {
        Duration::from_millis(match self {
            Running::Server { .. } => SERVER_STALL_MS,
            Running::Fleet { .. } => ServerConfig::default().stall_timeout_ms,
        })
    }

    /// The door's request-line size cap.
    fn max_line(&self) -> usize {
        match self {
            Running::Server { max_line, .. } => *max_line,
            Running::Fleet { .. } => RouterPolicy::default().max_line_bytes,
        }
    }

    /// The router process's thread count. `None` for the in-process
    /// server, whose threads share one count with the test harness.
    fn router_threads(&self) -> Option<usize> {
        let Running::Fleet { child, .. } = self else {
            return None;
        };
        let status = std::fs::read_to_string(format!("/proc/{}/status", child.process.id()))
            .expect("router /proc status readable");
        status
            .lines()
            .find_map(|l| l.strip_prefix("Threads:"))
            .and_then(|n| n.trim().parse().ok())
    }

    /// How many file descriptors the router process has open.
    fn router_fds(&self) -> usize {
        let Running::Fleet { child, .. } = self else {
            unreachable!("only the fleet door runs in its own process");
        };
        std::fs::read_dir(format!("/proc/{}/fd", child.process.id()))
            .expect("router /proc fd table readable")
            .count()
    }

    /// Routes only reach a worker once a health probe vouches for it.
    fn await_healthy_worker(&self) {
        let started = Instant::now();
        let mut conn = Conn::open(self.addr());
        for id in 1.. {
            conn.send(&format!("{{\"id\": {id}, \"op\": \"stats\"}}"));
            let stats = conn.recv();
            let state = stats
                .doc
                .get("fleet")
                .and_then(|f| f.get("workers"))
                .and_then(|w| w.as_array())
                .and_then(|w| w.first())
                .and_then(|w| w.get("state"))
                .and_then(|s| s.as_str().map(str::to_string));
            if state.as_deref() == Some("healthy") {
                return;
            }
            assert!(
                started.elapsed() < Duration::from_secs(60),
                "worker never turned healthy (last state {state:?})"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Requests shutdown over a fresh connection and waits for the
    /// door to exit cleanly.
    fn stop(self) {
        let mut conn = Conn::open(self.addr());
        conn.send(r#"{"id": 9999, "op": "shutdown"}"#);
        assert!(conn.recv().ok, "shutdown acknowledged");
        match self {
            Running::Server { handle, .. } => handle
                .join()
                .expect("listener thread exits")
                .expect("listener exits cleanly"),
            Running::Fleet { mut child, .. } => child.assert_clean_exit(),
        }
    }
}

/// One client connection with line-oriented send/recv helpers.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clones"));
        Conn {
            writer: stream,
            reader,
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("line writes");
        self.writer.flush().expect("line flushes");
    }

    /// Sends `len` bytes of one request line without its newline. The
    /// door may close mid-line, so write errors are expected.
    fn send_partial(&mut self, len: usize) {
        let _ = self.writer.write_all("x".repeat(len).as_bytes());
        let _ = self.writer.flush();
    }

    /// The next response line; panics on EOF.
    fn recv(&mut self) -> ParsedResponse {
        let raw = self.recv_raw().expect("response before EOF");
        parse_response(&raw).unwrap_or_else(|e| panic!("unparseable response ({e}): {raw}"))
    }

    /// The next nonempty line, or `None` once the door closed the
    /// connection.
    fn recv_raw(&mut self) -> Option<String> {
        loop {
            let mut line = String::new();
            match self.reader.read_line(&mut line) {
                Ok(0) => return None,
                Ok(_) => {}
                // Closing on bytes it never read (an oversized line)
                // makes the door's kernel answer with a reset.
                Err(e) if e.kind() == ErrorKind::ConnectionReset => return None,
                Err(e) => panic!("socket unreadable: {e}"),
            }
            let line = line.trim_end_matches('\n');
            if !line.trim().is_empty() {
                return Some(line.to_string());
            }
        }
    }

    fn ping(&mut self, id: u64) {
        self.send(&format!("{{\"id\": {id}, \"op\": \"ping\"}}"));
        let resp = self.recv();
        assert!(resp.ok, "ping {id} answered");
        assert_eq!(resp.id, Some(id));
    }
}

fn malformed_json_gets_a_typed_error_and_the_connection_survives(door: Door) {
    let running = door.start("malformed");
    let mut conn = Conn::open(running.addr());

    // Garbage is answered (uncorrelated — there is no id to echo), and
    // the connection is still perfectly usable afterwards.
    conn.send("this is not json");
    let resp = conn.recv();
    assert!(!resp.ok);
    assert_eq!(resp.error.as_deref(), Some(kind::BAD_REQUEST));
    assert_eq!(resp.id, None);

    // Structured-but-wrong keeps its id.
    conn.send(r#"{"id": 7, "op": "run-scenario", "scenario": "solo_baseline", "bogus": 1}"#);
    let resp = conn.recv();
    assert_eq!(resp.error.as_deref(), Some(kind::BAD_REQUEST));
    assert_eq!(resp.id, Some(7));

    conn.ping(8);
    running.stop();
}

fn deeply_nested_json_is_refused_not_a_stack_overflow(door: Door) {
    let running = door.start_with_line_cap("nested", ServerConfig::default().max_line_bytes);
    let mut conn = Conn::open(running.addr());

    // 20 KB: far below the default line cap, far past a reader
    // thread's stack if the parser recursed without a bound.
    conn.send(&"[".repeat(20_000));
    let resp = conn.recv();
    assert!(!resp.ok);
    assert_eq!(resp.error.as_deref(), Some(kind::BAD_REQUEST));
    assert!(
        resp.message.as_deref().unwrap_or("").contains("nesting"),
        "{resp:?}"
    );

    conn.ping(2);
    running.stop();
}

fn oversized_requests_are_rejected_and_the_socket_closed(door: Door) {
    let running = door.start("oversize");

    // A complete line past the cap: a typed rejection, then the
    // connection is closed. Under the server door's small cap the
    // line, newline included, goes out in one write smaller than one
    // reactor read, so the cap is applied to a line that has already
    // ended.
    let mut fat = Conn::open(running.addr());
    let mut line = "x".repeat((running.max_line() + 1024).max(8 * 1024));
    line.push('\n');
    let _ = fat.writer.write_all(line.as_bytes());
    let resp = fat.recv();
    assert!(!resp.ok);
    assert_eq!(resp.error.as_deref(), Some(kind::REQUEST_TOO_LARGE));
    assert_eq!(fat.recv_raw(), None, "connection closed after rejection");

    // The door keeps serving everyone else.
    let mut healthy = Conn::open(running.addr());
    healthy.ping(1);
    running.stop();
}

fn oversized_partial_lines_are_rejected_before_the_newline(door: Door) {
    let running = door.start("partial");

    // The same line with no newline, ever: an unterminated line may
    // never buffer unboundedly while the door waits for its end.
    let mut fat = Conn::open(running.addr());
    fat.send_partial(running.max_line() + 1024);
    let resp = fat.recv();
    assert!(!resp.ok);
    assert_eq!(resp.error.as_deref(), Some(kind::REQUEST_TOO_LARGE));
    assert_eq!(fat.recv_raw(), None, "connection closed after rejection");

    let mut healthy = Conn::open(running.addr());
    healthy.ping(1);
    running.stop();
}

fn half_closed_connections_still_receive_their_responses(door: Door) {
    let running = door.start("half-close");
    let mut conn = Conn::open(running.addr());

    // Send one request and immediately close our write half — the
    // classic "fire then shutdown(WR)" client. The response must still
    // arrive on the intact read half.
    conn.send(r#"{"id": 3, "op": "run-scenario", "scenario": "solo_baseline"}"#);
    conn.writer
        .shutdown(Shutdown::Write)
        .expect("half-close succeeds");
    let resp = conn.recv();
    assert!(
        resp.ok,
        "half-closed client still gets its answer: {resp:?}"
    );
    assert_eq!(resp.id, Some(3));
    assert!(resp.fingerprint.is_some());
    assert_eq!(conn.recv_raw(), None, "then the door closes too");

    running.stop();
}

fn slow_loris_is_reaped_without_wedging_the_reactor(door: Door) {
    let running = door.start("loris");

    // A loris: half a request, then silence.
    let mut loris = Conn::open(running.addr());
    loris
        .writer
        .write_all(br#"{"id": 1, "op": "#)
        .expect("partial line writes");
    loris.writer.flush().expect("partial line flushes");

    // The door keeps serving a healthy neighbour while the loris
    // stalls...
    let mut healthy = Conn::open(running.addr());
    healthy.ping(1);
    std::thread::sleep(running.stall() + Duration::from_millis(500));
    healthy.ping(2);

    // ...and the loris is gone: its socket reads EOF (possibly after a
    // final typed error line) instead of holding its slot forever.
    let mut tail = Vec::new();
    loris
        .reader
        .read_to_end(&mut tail)
        .expect("loris socket drains to EOF");
    if !tail.is_empty() {
        let text = String::from_utf8_lossy(&tail);
        let line = text.lines().next().expect("a final line");
        let resp = parse_response(line).expect("final line is protocol");
        assert!(!resp.ok, "a stalled connection cannot succeed");
    }

    // Idle-but-quiet connections (no partial line) are NOT loris: the
    // healthy conn sat idle through the stall window and still works.
    healthy.ping(3);
    running.stop();
}

fn a_flood_of_idle_connections_costs_no_threads(door: Door) {
    let running = door.start("flood");
    let before = running.router_threads();

    let mut flood: Vec<Conn> = (0..256).map(|_| Conn::open(running.addr())).collect();
    // A fresh client queues behind the whole flood at the acceptor, so
    // its answer means every flood connection has been adopted...
    Conn::open(running.addr()).ping(1);
    // ...and flood connections are live connections, not just
    // accepted sockets.
    flood[0].ping(2);
    flood[255].ping(3);

    if let (Some(before), Some(after)) = (before, running.router_threads()) {
        assert!(
            after < before + 16,
            "256 idle connections grew the router from {before} to {after} threads"
        );
    }
    drop(flood);
    running.stop();
}

/// Runs every case against both front doors, one test each:
/// `server::<case>` and `fleet::<case>`.
macro_rules! both_doors {
    ($($case:ident),* $(,)?) => {
        mod server {
            $(#[test]
            fn $case() {
                super::$case(super::Door::Server)
            })*
        }
        mod fleet {
            $(#[test]
            fn $case() {
                super::$case(super::Door::Fleet)
            })*
        }
    };
}

/// Connections past the router's open-file limit make its `accept`
/// fail (EMFILE) until some of them close. The router must ride that
/// out, not exit and take the fleet down with it.
#[test]
fn fleet_router_survives_running_out_of_file_descriptors() {
    let running = Running::fleet("fds", Some(FLEET_FD_LIMIT));

    // Each adopted connection holds two descriptors, so this many
    // clients are more than the router can hold.
    let flood: Vec<TcpStream> = (0..FLEET_FD_LIMIT)
        .map(|_| TcpStream::connect(running.addr()).expect("connects"))
        .collect();
    let started = Instant::now();
    while running.router_fds() < FLEET_FD_LIMIT - 1 {
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "the router never ran out of descriptors ({} open)",
            running.router_fds()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(flood);

    // Once the flood's descriptors are free again, a fresh client is
    // served as if nothing happened.
    Conn::open(running.addr()).ping(1);
    running.stop();
}

/// Kills a fleet's workers if a test panics while it runs the fleet
/// in-process, so a failing assertion does not leave them running.
struct WorkerReaper<'a>(&'a Path);

impl Drop for WorkerReaper<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            kill_workers(self.0);
        }
    }
}

/// The router caps request lines at `RouterPolicy::max_line_bytes`,
/// not at the server's default. `tadfa-fleet` has no flag for the
/// cap, so this runs a `Router` in-process over a one-worker `Fleet`.
#[test]
fn router_caps_lines_at_its_policy_limit() {
    let tmp = TempDir::new("robust-router-cap");
    let state_dir = tmp.path().join("state");
    let fleet = Fleet::launch(FleetConfig {
        workers: 1,
        scenario_dir: mini_scenarios(tmp.path()),
        cache_root: tmp.path().join("cache"),
        state_dir: state_dir.clone(),
        serve_bin: PathBuf::from(env!("CARGO_BIN_EXE_tadfa-serve")),
        ..FleetConfig::default()
    })
    .expect("one worker launches");
    let _reaper = WorkerReaper(&state_dir);
    let router = Router::new(
        fleet.state(),
        RouterPolicy {
            max_line_bytes: SMALL_MAX_LINE,
            ..RouterPolicy::default()
        },
    );
    let fleet_threads = fleet.run_background();
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral bind");
    let addr = listener.local_addr().expect("bound address");
    let serving = std::thread::spawn(move || router.serve(listener));

    // Past the policy's cap, far below the default one, and in one
    // write smaller than one reactor read.
    let mut fat = Conn::open(addr);
    let mut line = "x".repeat(8 * 1024);
    line.push('\n');
    fat.writer.write_all(line.as_bytes()).expect("line writes");
    let resp = fat.recv();
    assert_eq!(resp.error.as_deref(), Some(kind::REQUEST_TOO_LARGE));

    let mut conn = Conn::open(addr);
    conn.send(r#"{"id": 1, "op": "shutdown"}"#);
    assert!(conn.recv().ok, "shutdown acknowledged");
    serving
        .join()
        .expect("router thread exits")
        .expect("router exits cleanly");
    for handle in fleet_threads {
        handle.join().expect("supervisor and health threads exit");
    }
}

both_doors!(
    malformed_json_gets_a_typed_error_and_the_connection_survives,
    deeply_nested_json_is_refused_not_a_stack_overflow,
    oversized_requests_are_rejected_and_the_socket_closed,
    oversized_partial_lines_are_rejected_before_the_newline,
    half_closed_connections_still_receive_their_responses,
    slow_loris_is_reaped_without_wedging_the_reactor,
    a_flood_of_idle_connections_costs_no_threads,
);
