//! parafile-net — a real networked I/O-node daemon and client library.
//!
//! This crate moves the paper's compute-node / I/O-node split from the
//! discrete-event simulator ([`clustersim`]/[`clusterfile`]) onto real
//! sockets. The division of labor is exactly the paper's:
//!
//! * the **compute node** (client [`Session`]) intersects its view with
//!   every subfile via [`parafile::redist::ViewPlan`], keeps `PROJ_V(V∩S)`
//!   locally and ships `PROJ_S(V∩S)` to the I/O node at view-set time;
//!   at access time it maps the interval extremities, gathers view bytes
//!   into per-node messages and fans them out concurrently;
//! * the **I/O node** (the [`serve`] daemon) stores subfiles behind the
//!   same [`clusterfile::StorageBackend`] the simulator uses, audits every
//!   incoming view pattern with `parafile-audit`, and scatters/gathers
//!   message buffers through the stored projection.
//!
//! The wire protocol ([`wire`]) is length-prefixed binary frames with a
//! versioned header and request ids; redistribution stays segment-granular
//! on the wire. See DESIGN.md §10 for the full specification.

// `deny` rather than `forbid`: the reactor's syscall shim
// (`reactor::sys`) carries the crate's only scoped `#[allow(unsafe_code)]`
// for its FFI readiness calls; everything else stays safe Rust.
#![deny(unsafe_code)]
#![warn(missing_docs)]
// A panic on a request path severs every connection the thread serves:
// code outside tests returns typed errors.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod backoff;
pub mod error;
pub mod fault;
pub mod mux;
pub mod proto;
pub mod reactor;
pub mod resilience;
pub mod server;
pub mod session;
pub mod wire;

pub use backoff::Backoff;
pub use error::{ErrCode, NetError, ProtocolError};
pub use fault::{
    chaos_proxy, ChaosOutcome, ChaosProxyHandle, FaultInjector, FaultPlan, TruncateFault,
};
pub use mux::{Mux, RetryPolicy, CHUNK_WINDOW};
pub use proto::{ChunkHeader, ChunkPlan, ChunkSender, ProtoViolation, WriteStream};
pub use reactor::{Clock, ManualClock, MonotonicClock, Reactor, TimerId, TimerWheel};
pub use resilience::{
    Admission, BreakerCore, BreakerState, CircuitBreaker, Deadline, LatencyTracker, RetryBudget,
};
pub use server::{serve, DaemonConfig, DaemonHandle, NetListener, DEFAULT_MAX_CHUNK};
pub use session::{
    spawn_loopback, BatchWrite, NodeHealth, RedistReport, ScrubReport, SegmentOutcome, Session,
};
pub use wire::{Reply, Request, StatInfo, DEFAULT_MAX_FRAME, PROTOCOL_VERSION};
