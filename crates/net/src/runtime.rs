//! Per-server TCP runtime on the shared epoll event loop.
//!
//! Each [`NodeRuntime`] registers its server — listener, UDP heartbeat
//! socket, outbound links, protocol state machine — with an
//! [`EventLoopPool`] reactor (see [`crate::event_loop`]). The reactor
//! owns all of it: accepting, handshakes, frame decoding, coalesced
//! vectored writes, reconnect backoff, heartbeats, FD sweeps, and the
//! grace/gate timers all run as readiness and timer callbacks on one
//! thread, so the state machine needs no locking at all — the paper's
//! libev deployment (§5), not a thread per socket.
//!
//! A standalone [`NodeRuntime::start`] owns a single-reactor pool (one
//! event-loop thread per server process, as deployed in the paper);
//! [`crate::cluster::LocalCluster`] shares one pool across every
//! in-process node via [`NodeRuntime::start_on`], keeping the whole
//! cluster at O(cores) threads. Each pool has one delivery queue
//! ([`delivery_queue`]) that its reactors push finished rounds onto.
//!
//! Message flow direction matches the overlay: a server *connects out*
//! to its successors (it sends to them) and *accepts in* from its
//! predecessors.
//!
//! # Link resilience
//!
//! Transient link faults are healed below the protocol (they are not
//! process failures — §3, §4.2.2). Each outbound link runs a small
//! state machine (diagrammed in [`crate::event_loop`]): while
//! Degraded, outbound frames buffer in a bounded
//! [`crate::link::FrameQueue`] (high/low watermark hysteresis; frames
//! above the high watermark are shed and counted, never stored), and a
//! timer-driven [`crate::link::BackoffPolicy`] reconnect replays the
//! buffered tail in order. Inbound (reader) disconnects get the same
//! grace: suspicion is deferred `link_grace`, and a predecessor
//! reconnecting under the budget cancels it and feeds
//! [`crate::heartbeat::AdaptiveTimeout::report_false_suspicion`] so the
//! FD's timeout adapts — an under-budget link flap causes zero
//! membership removals. Only an outage exceeding the budget escalates
//! to the ◇P suspicion path.

use crate::event_loop::{EventLoopPool, NodeSpec, NodeToken};
use crate::heartbeat::FdParams;
use crate::link::{LinkStats, LinkStatsSnapshot};
use allconcur_core::config::Config;
use allconcur_core::message::Message;
use allconcur_core::ServerId;
use bytes::Bytes;
use std::net::{SocketAddr, TcpListener, UdpSocket};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// One completed round, as seen by the application.
///
/// Re-exported from `allconcur-core` so every transport shares one
/// outcome type.
pub use allconcur_core::delivery::Delivery;

/// A fault injected on one directed outbound link `from → to`, applied
/// by `from`'s reactor in its writer path and per-link state machine.
/// One vocabulary from [`crate::cluster::LocalCluster::inject_fault`]
/// down to the reactor: nothing in between re-spells it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFault {
    /// Drop outgoing protocol frames with probability `ppm / 1e6` (`0`
    /// clears the fault). The frame is simply never written, so the TCP
    /// connection stays up and UDP heartbeats keep flowing: this is
    /// *message loss*, not a disconnect, and the deployment survives it
    /// through the overlay's redundant dissemination paths.
    Drop {
        /// Drop probability in parts-per-million.
        ppm: u32,
    },
    /// Flip one bit of a copy of each sampled outgoing frame with
    /// probability `ppm / 1e6` (`0` clears the fault). The receiver's
    /// CRC check must reject the frame and heal the link — the flip
    /// must never surface as a delivered payload (the
    /// `SilentCorruption` nemesis property).
    Flip {
        /// Corruption probability in parts-per-million.
        ppm: u32,
    },
    /// Sever the link and hold it down until [`LinkFault::Up`]. Pending
    /// writes are flushed first (TCP delivers them with the FIN), then
    /// outbound frames buffer in the bounded Degraded queue for replay
    /// on heal.
    Down,
    /// Like [`LinkFault::Down`], but the link auto-heals after
    /// `down_for`.
    Flap {
        /// Outage duration before the auto-heal.
        down_for: Duration,
    },
    /// Heal a held-down link and start reconnecting immediately.
    Up,
    /// Remove every injected fault from the link: drop and flip rates
    /// reset to zero, a hold heals.
    Clear,
}

/// Inputs multiplexed into a node's reactor. Network frames do not
/// travel through here — the reactor decodes them in place; this
/// channel carries only application- and fault-injection-side inputs.
pub(crate) enum NodeInput {
    Broadcast(Bytes),
    Suspect(ServerId),
    SetWindow(usize),
    Fault { to: ServerId, fault: LinkFault },
}

/// Drop rates are parts-per-million, matching the simulator's fault
/// layer.
pub(crate) const DROP_PPM_SCALE: u64 = 1_000_000;

/// Capacity of a node's input channel. [`NodeRuntime::broadcast`] fails
/// fast when it fills, surfacing saturation to the application as a
/// typed `Busy` upstream.
const INPUT_QUEUE_DEPTH: usize = 4096;

/// Runtime tuning knobs — the ones some caller or test sets to a
/// non-default value (see `DESIGN.md` § "Transport resilience" for why
/// each varies). Everything else about the runtime is a constant next
/// to the code that uses it.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeOptions {
    /// FD timing.
    pub fd: FdParams,
    /// Retry budget while establishing successor connections.
    pub connect_attempts: u32,
    /// Base delay of the capped-exponential connect/reconnect backoff
    /// (see [`crate::link::BackoffPolicy`]).
    pub connect_backoff: Duration,
    /// How long a disconnected link (either direction) may stay in its
    /// grace period before escalating: a Degraded writer drops to Down
    /// and a predecessor's TCP disconnect becomes a suspicion (sound
    /// under fail-stop because healthy overlay connections are never
    /// closed for long; much faster than waiting `Δ_to` for genuinely
    /// dead peers). Under-budget flaps heal with zero protocol impact.
    pub link_grace: Duration,
    /// High watermark of each Degraded link's bounded frame queue:
    /// above it, new frames are shed (counted) instead of buffered.
    pub link_queue_high: usize,
    /// Low watermark: a saturated queue resumes accepting only after
    /// draining below this (hysteresis).
    pub link_queue_low: usize,
    /// Round-pipelining window `W` (default 1 — sequential rounds): how
    /// many consecutive rounds each server keeps in flight. Larger
    /// windows let dissemination of round `r + 1` proceed while round
    /// `r` completes, amortising the network round-trip — rounds/sec
    /// scales with `W` until CPU-bound (see the `tcp_rounds` bench).
    pub round_window: usize,
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        RuntimeOptions {
            fd: FdParams::fast(),
            connect_attempts: 100,
            connect_backoff: Duration::from_millis(10),
            link_grace: Duration::from_millis(400),
            link_queue_high: 1024,
            link_queue_low: 256,
            round_window: 1,
        }
    }
}

/// Backoff applied to a listener whose `accept` failed with a real
/// error (typically fd exhaustion): capped exponential in the number of
/// consecutive failures, so a starved node re-arms its listener at
/// 10 ms and degrades toward one attempt per second instead of spinning
/// hot on an error that will keep failing until fds free up.
pub fn accept_retry_delay(consecutive_failures: u32) -> Duration {
    const BASE: Duration = Duration::from_millis(10);
    const CAP: Duration = Duration::from_secs(1);
    let exp = consecutive_failures.saturating_sub(1).min(10);
    BASE.checked_mul(1u32 << exp).map(|d| d.min(CAP)).unwrap_or(CAP)
}

/// Rounds one reactor iteration finished, each tagged with the server
/// that finished it; one server's rounds appear in the order it
/// finished them.
pub type DeliveryBatch = Vec<(ServerId, Delivery)>;

/// Sending end of a pool's delivery queue (held by its reactors).
pub type DeliverySender = mpsc::Sender<DeliveryBatch>;

/// Receiving end of a pool's delivery queue: batches in the order the
/// reactors published them, so rounds are FIFO per server and in
/// arrival order across servers.
pub type DeliveryReceiver = mpsc::Receiver<DeliveryBatch>;

/// A fresh delivery queue. Unbounded: deliveries are consumed by the
/// application at its own pace and must never stall a reactor mid-round.
pub fn delivery_queue() -> (DeliverySender, DeliveryReceiver) {
    // lint:allow(bounded_queues): delivery backlog is bounded upstream by rsm admission control; blocking the protocol thread on a slow application consumer would deadlock rounds cluster-wide
    mpsc::channel()
}

/// Handle to a running AllConcur server on real sockets.
///
/// The server itself lives on an [`EventLoopPool`] reactor; this handle
/// owns the channel into it (and, for a standalone
/// [`NodeRuntime::start`], the private pool). Its finished rounds leave
/// on the pool's delivery queue.
pub struct NodeRuntime {
    id: ServerId,
    input_tx: mpsc::SyncSender<NodeInput>,
    stats: Arc<LinkStats>,
    pool: Arc<EventLoopPool>,
    token: NodeToken,
}

impl NodeRuntime {
    /// Start server `id` on its own private event loop (the paper's
    /// one-process-per-server deployment). `listener`/`udp` must
    /// already be bound; `tcp_addrs`/`udp_addrs` give every server's
    /// addresses (index = server id). Returns the handle and the
    /// receiving end of the server's delivery queue.
    pub fn start(
        id: ServerId,
        cfg: Config,
        listener: TcpListener,
        udp: UdpSocket,
        tcp_addrs: Vec<SocketAddr>,
        udp_addrs: Vec<SocketAddr>,
        opts: RuntimeOptions,
    ) -> std::io::Result<(NodeRuntime, DeliveryReceiver)> {
        let (deliveries, delivered) = delivery_queue();
        let pool = EventLoopPool::new(1, deliveries)?;
        let node =
            NodeRuntime::start_on(&pool, id, cfg, listener, udp, tcp_addrs, udp_addrs, opts)?;
        Ok((node, delivered))
    }

    /// Start server `id` on a shared reactor pool; its finished rounds
    /// go onto the pool's delivery queue. Used by
    /// [`crate::cluster::LocalCluster`] to run a whole in-process
    /// cluster on O(cores) threads and one delivery queue.
    #[allow(clippy::too_many_arguments)]
    pub fn start_on(
        pool: &Arc<EventLoopPool>,
        id: ServerId,
        cfg: Config,
        listener: TcpListener,
        udp: UdpSocket,
        tcp_addrs: Vec<SocketAddr>,
        udp_addrs: Vec<SocketAddr>,
        opts: RuntimeOptions,
    ) -> std::io::Result<NodeRuntime> {
        let (input_tx, input_rx) = mpsc::sync_channel::<NodeInput>(INPUT_QUEUE_DEPTH);
        let stats = Arc::new(LinkStats::default());
        let token = pool.register(NodeSpec {
            id,
            cfg,
            listener,
            udp,
            tcp_addrs,
            udp_addrs,
            opts,
            input_rx,
            stats: stats.clone(),
        })?;
        Ok(NodeRuntime { id, input_tx, stats, pool: pool.clone(), token })
    }

    /// This server's id.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// Queue an input for the reactor and wake it.
    fn send_input(&self, input: NodeInput) {
        if self.input_tx.send(input).is_ok() {
            self.pool.wake(self.token);
        }
    }

    /// Submit this round's payload for A-broadcast. Never blocks: returns
    /// `false` at once when the protocol input queue is full (end-to-end
    /// backpressure) or the reactor is gone — the caller should back off
    /// and retry; the payload was **not** accepted.
    #[must_use = "a false return means the payload was shed, not submitted"]
    pub fn broadcast(&self, payload: Bytes) -> bool {
        let ok = self.input_tx.try_send(NodeInput::Broadcast(payload)).is_ok();
        if ok {
            self.pool.wake(self.token);
        }
        ok
    }

    /// Inject a failure suspicion, as if the local FD had raised it.
    /// Used by the `Cluster` facade's lifecycle API and by `◇P` tests.
    pub fn inject_suspicion(&self, suspect: ServerId) {
        self.send_input(NodeInput::Suspect(suspect));
    }

    /// Adjust the round-pipelining window at runtime (applied by the
    /// reactor before its next input).
    pub fn set_round_window(&self, window: usize) {
        self.send_input(NodeInput::SetWindow(window));
    }

    /// Inject `fault` on the outbound link to successor `to` (applied
    /// by the reactor before its next input).
    pub fn inject_fault(&self, to: ServerId, fault: LinkFault) {
        self.send_input(NodeInput::Fault { to, fault });
    }

    /// Point-in-time copy of this runtime's resilience counters.
    pub fn link_stats(&self) -> LinkStatsSnapshot {
        self.stats.snapshot()
    }

    /// Remove the node from its reactor and close its sockets — a
    /// graceful shutdown and an emulated crash are the same thing (peers
    /// detect via disconnect/FD). Returns once the reactor has torn the
    /// node down, so every round it finished is already on the delivery
    /// queue, where it stays readable.
    pub fn shutdown(self) {
        self.pool.remove(self.token);
    }
}

/// Jitter seed for the `id → to` link's backoff stream: unique per
/// directed link so reconnect storms de-phase.
pub(crate) fn link_seed(id: ServerId, to: ServerId) -> u64 {
    (u64::from(id) << 32) ^ u64::from(to) ^ 0xA5A5_5A5A_D00D_F00D
}

/// Whether two messages are the *same* fan-out message, cheaply: field
/// equality, with `Bcast` payloads compared by buffer identity instead
/// of contents. The state machine fans a message out by cloning it per
/// successor (refcounted payload), so identity captures exactly those
/// runs; a false negative merely costs one re-encode.
pub(crate) fn same_message(a: &Message, b: &Message) -> bool {
    match (a, b) {
        (
            Message::Bcast { round: r1, origin: o1, payload: p1 },
            Message::Bcast { round: r2, origin: o2, payload: p2 },
        ) => {
            r1 == r2
                && o1 == o2
                && p1.len() == p2.len()
                && (p1.is_empty() || p1.as_ptr() == p2.as_ptr())
        }
        _ => a == b,
    }
}

#[cfg(test)]
mod tests {
    use super::accept_retry_delay;
    use std::time::Duration;

    #[test]
    fn accept_backoff_grows_and_caps() {
        assert_eq!(accept_retry_delay(0), Duration::from_millis(10));
        assert_eq!(accept_retry_delay(1), Duration::from_millis(10));
        assert_eq!(accept_retry_delay(2), Duration::from_millis(20));
        assert_eq!(accept_retry_delay(3), Duration::from_millis(40));
        // Monotone non-decreasing, capped at 1 s.
        let mut prev = Duration::ZERO;
        for n in 0..64 {
            let d = accept_retry_delay(n);
            assert!(d >= prev, "backoff must not shrink (n={n})");
            assert!(d <= Duration::from_secs(1), "backoff must cap (n={n})");
            prev = d;
        }
        assert_eq!(accept_retry_delay(u32::MAX), Duration::from_secs(1));
    }
}
