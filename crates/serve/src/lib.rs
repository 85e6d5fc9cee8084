//! # tadfa-serve — the persistent analysis service
//!
//! Everything below this crate is batch-and-exit: the `tadfa` CLI
//! builds a fresh engine per invocation, so the solve cache and
//! compiled solver plans are thrown away between requests. This crate
//! is the first layer that makes the workspace a *server*: a
//! [`Server`] loads the scenario-spec environment once, holds a warm
//! [`PreparedScenario`](tadfa_sched::PreparedScenario) (engine +
//! sharded solve cache) per spec, and serves requests over a
//! JSON-lines protocol — TCP for deployment, stdin/stdout pipe mode
//! for CI — through a bounded admission queue that rejects on
//! overload instead of buffering without bound.
//!
//! * [`protocol`] — the wire format: `run-scenario` / `analyze` /
//!   `stats` / `ping` / `shutdown` requests, responses correlated by
//!   id (out-of-order under concurrency), machine-readable error
//!   kinds;
//! * [`queue`] — the [`AdmissionQueue`]: bounded, non-blocking
//!   admission with counted rejections (backpressure by `queue-full`
//!   error, never by hang);
//! * [`service`] — the [`Server`]: environment loading, the worker
//!   pool, per-request worker-count and deadline overrides, and the
//!   `stats` counters (including the solve cache's
//!   `rejected_stores` and `report_hits`);
//! * `reactor` (private) — the one connection layer both front doors
//!   serve through ([`Server::serve_listener`], [`Router::serve`]): the
//!   acceptor, reactor shards, line cap, stall reaping and [`Sink`]s;
//! * [`fleet`] / [`router`] / [`health`] — the self-healing multi-
//!   process layer: a supervisor that spawns and resurrects N
//!   `tadfa-serve` workers (each with its own cache slice for warm,
//!   golden-verified recovery), a sharding router front-end speaking
//!   the same protocol with bounded retry/backoff and primary→backup
//!   failover, and the typed worker health state machine
//!   (starting/healthy/degraded/dead) driven by `ping`/`stats`
//!   probes.
//!
//! Three binaries ship with the crate: `tadfa-serve` (the
//! single-process service), `tadfa-fleet` (the supervised worker
//! fleet behind one router socket), and `tadfa-load` (the replay
//! client / load generator / chaos harness that asserts every
//! response fingerprint equals the committed `scenarios/golden/`
//! reports — the service ≡ offline-CLI determinism gate CI runs on
//! every push, including while a worker is being killed under it).
//!
//! ## Example
//!
//! ```no_run
//! use tadfa_serve::{Server, ServerConfig};
//!
//! let server = Server::load(&ServerConfig::default())?;
//! server.run_pipe()?; // serve stdin/stdout until EOF or shutdown
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fleet;
pub mod health;
pub mod latency;
pub mod persist;
pub mod protocol;
pub mod queue;
mod reactor;
pub mod router;
pub mod service;

pub use fleet::{Fleet, FleetConfig, FleetError, FleetState, SlotSnapshot, WorkerSlot};
pub use health::{HealthState, HealthTracker, ProbeKind};
pub use latency::{LatencyHistogram, LatencySnapshot};
pub use persist::{CompactPlan, CompactReport, LoadReport, PersistStats, SegmentStore};
pub use protocol::{parse_request, parse_response, Op, ParsedResponse, Request, RequestError};
pub use queue::{AdmissionQueue, QueueStats, RejectReason};
pub use reactor::{sink, Sink};
pub use router::{shard_of, Router, RouterPolicy};
pub use service::{ServeError, Server, ServerConfig};
