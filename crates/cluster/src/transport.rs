//! The [`Transport`] abstraction: one driving contract implemented by
//! the discrete-event simulator and the TCP runtime.
//!
//! A transport owns a full deployment (`n` protocol state machines plus
//! whatever carries their messages) and exposes exactly the operations
//! the facade needs: submit a payload, pull the next delivery, and the
//! lifecycle controls (crash, suspect, reconfigure, shutdown). Scenario
//! code never touches a transport directly — it drives a
//! [`crate::Cluster`], which works identically over either
//! implementation; that is the paper's central "same algorithm,
//! analytically / simulated / deployed" claim turned into an API.

use crate::error::ClusterError;
use allconcur_core::delivery::Delivery;
use allconcur_core::ServerId;
use allconcur_graph::Digraph;
use bytes::Bytes;
use std::any::Any;
use std::time::Duration;

/// A runtime fault-injection command — the nemesis surface of the
/// facade.
///
/// The simulated backend supports every command; the TCP backend
/// supports per-link send-drop ([`FaultCommand::Drop`], applied in the
/// runtime's writer path) and the blanket clears, and reports the rest
/// as [`ClusterError::Unsupported`]. Crashes and restarts are not fault
/// commands: crash through [`crate::Cluster::crash`], restart/rejoin
/// through the reconfiguration path (snapshot catch-up in the `Service`
/// layer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultCommand {
    /// Symmetric partition: block both directions of every link between
    /// servers of *different* groups. Blocked links hold messages and
    /// release them, per-link FIFO, at [`FaultCommand::HealPartitions`]
    /// — a partition delays, it does not destroy (sim only).
    Partition {
        /// The connectivity groups (list every member for a tight
        /// partition; unlisted servers are unaffected).
        groups: Vec<Vec<ServerId>>,
    },
    /// Asymmetric partition: block the single directed link `from → to`
    /// (sim only).
    Isolate {
        /// Sending side of the blocked link.
        from: ServerId,
        /// Receiving side of the blocked link.
        to: ServerId,
    },
    /// Unblock every blocked link and release held messages. A no-op on
    /// backends that cannot partition, so scenario teardown can heal
    /// unconditionally.
    HealPartitions,
    /// Drop each message on `from → to` independently with probability
    /// `ppm / 1e6`; `ppm = 0` clears the fault. Supported by both
    /// backends — loss is genuinely loss (no retransmission in the
    /// protocol); survivability comes from the overlay's redundant
    /// dissemination paths.
    Drop {
        /// Sending side.
        from: ServerId,
        /// Receiving side.
        to: ServerId,
        /// Drop probability in parts-per-million (≤ 1 000 000).
        ppm: u32,
    },
    /// Flip one bit per sampled message on `from → to` with probability
    /// `ppm / 1e6`; `ppm = 0` clears the fault. Supported by both
    /// backends, with end-to-end integrity as the contract: a flip is
    /// **detected, never delivered**. On TCP the sender's writer
    /// corrupts a copy of the sampled frame (header bytes included) and
    /// the receiver's CRC32 rejects it as a counted link fault; on sim
    /// the typed message collapses to that post-detection outcome — it
    /// is destroyed and counted, exactly as the CRC-discarded frame
    /// would be. Survivability comes from the overlay's redundant
    /// dissemination paths, as for [`FaultCommand::Drop`].
    BitFlip {
        /// Sending side.
        from: ServerId,
        /// Receiving side.
        to: ServerId,
        /// Corruption probability in parts-per-million (≤ 1 000 000).
        ppm: u32,
    },
    /// Add `extra` latency to every message on `from → to` — a delay
    /// spike (sim only).
    Delay {
        /// Sending side.
        from: ServerId,
        /// Receiving side.
        to: ServerId,
        /// Additional per-message latency.
        extra: Duration,
    },
    /// Hold the next `burst` messages on `from → to` and release them
    /// in reverse order (sim only).
    Reorder {
        /// Sending side.
        from: ServerId,
        /// Receiving side.
        to: ServerId,
        /// Messages to collect before the reversed release.
        burst: usize,
    },
    /// Sever the directed link `from → to` and hold it down until
    /// [`FaultCommand::LinkUp`]. On TCP the sender's writer closes (a
    /// flush first makes an under-grace outage lossless) and outbound
    /// frames buffer in the bounded Degraded queue; on sim the link
    /// blocks and holds messages like an [`FaultCommand::Isolate`].
    LinkDown {
        /// Sending side of the severed link.
        from: ServerId,
        /// Receiving side of the severed link.
        to: ServerId,
    },
    /// Sever `from → to` for `down_for`, then auto-heal: the transient
    /// link-flap fault of the resilience layer. An outage shorter than
    /// the TCP runtime's `link_grace` heals with zero membership
    /// removals and zero protocol-visible loss (the Degraded queue
    /// replays on reconnect).
    LinkFlap {
        /// Sending side of the flapped link.
        from: ServerId,
        /// Receiving side of the flapped link.
        to: ServerId,
        /// Outage duration before the auto-heal.
        down_for: Duration,
    },
    /// Heal a link severed by [`FaultCommand::LinkDown`] (or an
    /// in-progress flap) and release/replay everything held on it.
    LinkUp {
        /// Sending side of the healed link.
        from: ServerId,
        /// Receiving side of the healed link.
        to: ServerId,
    },
    /// Remove every link fault and release everything held. Supported by
    /// both backends (on TCP every server's reactor zeroes its links'
    /// drop and flip rates and heals its held-down or flapping links).
    ClearLinkFaults,
}

/// A backend able to run an AllConcur deployment.
///
/// Implementations must preserve the protocol's per-server delivery
/// order: successive deliveries reported for one server are exactly that
/// server's A-delivery sequence. The interleaving *between* servers is
/// unspecified (the simulator orders by virtual time, TCP by arrival).
pub trait Transport {
    /// Human-readable backend name (`"sim"`, `"tcp"`, ...).
    fn name(&self) -> &'static str;

    /// Number of configured servers (alive or not).
    fn n(&self) -> usize;

    /// Whether `id` is currently live (transport-level knowledge).
    fn is_live(&self, id: ServerId) -> bool;

    /// Queue `payload` as `origin`'s message for its next open round.
    ///
    /// Submissions beyond the current round are buffered and ride in
    /// later rounds — the paper's request-batching flow (§5). Submitting
    /// to a dead server is an error.
    fn submit(&mut self, origin: ServerId, payload: Bytes) -> Result<(), ClusterError>;

    /// Drive the deployment until some server A-delivers a round, and
    /// return that delivery. `Ok(None)` when no delivery arrived within
    /// `timeout` — simulated time for the sim backend, wall-clock for
    /// TCP.
    fn poll_delivery(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<(ServerId, Delivery)>, ClusterError>;

    /// Fail-stop `id` right now. Peers detect the crash through the
    /// backend's failure detector.
    fn crash(&mut self, id: ServerId) -> Result<(), ClusterError>;

    /// Inject a (possibly false) failure suspicion at server `at`
    /// against `suspected`, as if `at`'s local FD had raised it.
    fn suspect(&mut self, at: ServerId, suspected: ServerId) -> Result<(), ClusterError>;

    /// Inject a link-level fault (partition, loss, delay, reorder) or
    /// heal/clear one. Unsupported commands return
    /// [`ClusterError::Unsupported`] and leave the deployment untouched.
    ///
    /// Backend support matrix:
    ///
    /// | [`FaultCommand`]   | sim | tcp |
    /// |--------------------|-----|-----|
    /// | `Partition`        | yes | `Unsupported` |
    /// | `Isolate`          | yes | `Unsupported` |
    /// | `HealPartitions`   | yes | yes (no-op)   |
    /// | `Drop`             | yes | yes           |
    /// | `BitFlip`          | yes | yes           |
    /// | `Delay`            | yes | `Unsupported` |
    /// | `Reorder`          | yes | `Unsupported` |
    /// | `LinkDown`         | yes | yes           |
    /// | `LinkFlap`         | yes | yes           |
    /// | `LinkUp`           | yes | yes           |
    /// | `ClearLinkFaults`  | yes | yes           |
    ///
    /// The sim backend owns virtual time and every queued message, so it
    /// implements the full vocabulary. TCP can only decide per send
    /// whether to hand a frame to the kernel — probabilistic `Drop`,
    /// the link-lifecycle commands (`LinkDown` / `LinkFlap` / `LinkUp`,
    /// applied in the runtime's per-link state machine), and the
    /// blanket clears (`HealPartitions` heals no partitions but
    /// succeeds, so scenario teardown works unchanged on both
    /// backends). Anything that would require holding or re-timing
    /// in-flight kernel buffers reports `Unsupported` rather than
    /// pretending.
    fn inject_fault(&mut self, fault: &FaultCommand) -> Result<(), ClusterError>;

    /// Set every server's round-pipelining window: how many consecutive
    /// rounds may be in flight concurrently (clamped to ≥ 1; 1 =
    /// sequential rounds). Survives [`Transport::reconfigure`].
    fn set_round_window(&mut self, window: usize) -> Result<(), ClusterError>;

    /// Move the deployment to a fresh overlay — the agreed
    /// reconfiguration of §3 ("dynamic membership"): surviving members
    /// plus joiners restart on `graph`, with server ids renumbered to its
    /// vertices and rounds restarting from zero.
    fn reconfigure(&mut self, graph: Digraph) -> Result<(), ClusterError>;

    /// Graceful shutdown of every remaining server. Idempotent.
    fn shutdown(&mut self) -> Result<(), ClusterError>;

    /// Escape hatch for backend-specific instrumentation (e.g. the
    /// simulator's latency and traffic counters).
    fn as_any_mut(&mut self) -> &mut dyn Any;
}
