#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # allconcur-net — sockets-based TCP transport for AllConcur
//!
//! The paper's implementation runs each server as a libev event loop
//! over standard sockets-based TCP (and InfiniBand Verbs; §5). This
//! crate is the TCP half: it drives the *same*
//! [`allconcur_core::server::Server`] state machine as the simulator,
//! over real `std::net` sockets on an epoll-driven reactor pool, with
//! one OS process hosting one or more servers.
//!
//! There is one runtime model: everything a server does runs on its
//! reactor thread, so no module here blocks, sleeps, or locks.
//!
//! * [`codec`] — length-prefixed, CRC-checked framing of protocol
//!   messages and the connection handshake (the only module that knows
//!   either byte layout);
//! * [`event_loop`] — the epoll reactor pool: per-link readiness state
//!   machines, coalesced vectored writes, timer-driven reconnect
//!   backoff, heartbeat emission, FD sweeps, and injected link faults,
//!   all on O(cores) threads;
//! * [`runtime`] — per-server handle: registers a server with a
//!   reactor and owns its input channel (broadcasts, suspicions,
//!   faults), the delivery queue its reactor pushes finished rounds
//!   onto, the [`RuntimeOptions`](runtime::RuntimeOptions) knobs, and
//!   the one fault-injection call ([`LinkFault`]);
//! * [`heartbeat`] — the heartbeat datagram and the reactor-owned state
//!   of the timeout-based failure detector (`Δ_hb` / `Δ_to`, §3.2)
//!   with the §3.3.2 adaptive timeout; connection loss escalates to a
//!   suspicion only after the link-grace budget expires without a
//!   reconnect;
//! * [`link`] — per-link resilience primitives: capped-backoff-with-
//!   jitter reconnect policy, bounded watermarked frame queues, the
//!   coalescing write buffer, and the resilience counters;
//! * [`cluster`] — [`cluster::LocalCluster`]: spin up a full deployment
//!   on loopback (sharing one reactor pool and one delivery queue) for
//!   tests, examples, and benches.
//!
//! The integration tests in `tests/` run multi-server agreement,
//! including crash-failure and link-flap runs, over real TCP on
//! 127.0.0.1.

pub mod cluster;
pub mod codec;
pub mod event_loop;
pub mod heartbeat;
pub mod link;
pub mod runtime;

pub use cluster::LocalCluster;
pub use runtime::LinkFault;
