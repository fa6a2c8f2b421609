//! [`TcpTransport`] — the real-sockets backend of the
//! [`crate::Transport`] contract.
//!
//! Wraps an [`allconcur_net::LocalCluster`] (every server a node on a
//! shared pool of `min(cores, n)` epoll reactor threads, loopback TCP
//! for protocol messages, UDP heartbeats for the FD). Submission
//! buffering lives in each node's runtime, so `submit` just forwards;
//! `poll_delivery` round-robins the nodes' delivery channels.

use crate::error::ClusterError;
use crate::transport::{FaultCommand, Transport};
use allconcur_core::delivery::Delivery;
use allconcur_core::ServerId;
use allconcur_graph::Digraph;
use allconcur_net::runtime::{LinkFault, RuntimeOptions};
use allconcur_net::LocalCluster;
use bytes::Bytes;
use std::time::{Duration, Instant};

/// Backoff bounds for `poll_delivery`'s scans of the nodes' delivery
/// channels: start responsive, decay towards the cap while idle so a
/// long quiet wait does not pin a core.
const POLL_MIN: Duration = Duration::from_micros(50);
const POLL_MAX: Duration = Duration::from_millis(2);

/// Suggested retry pause reported with [`ClusterError::Busy`] when a
/// node's bounded input queue sheds a submission. One millisecond is a
/// few round-trips of loopback protocol work — long enough for the
/// node's reactor to drain real backlog, short enough that a
/// closed-loop client barely notices.
const SUBMIT_RETRY_AFTER: Duration = Duration::from_millis(1);

/// The TCP backend of the `Cluster` facade.
pub struct TcpTransport {
    cluster: Option<LocalCluster>,
    opts: RuntimeOptions,
    /// Configured size, kept stable across shutdown (so a shut-down
    /// transport reports `ShutDown` rather than phantom `UnknownServer`
    /// errors, matching the sim backend).
    n: usize,
    /// Round-robin cursor so one chatty server cannot starve the others'
    /// delivery reporting.
    cursor: usize,
    /// Deliveries rescued from a node's channel just before [`Transport::crash`]
    /// tears the node down — matching the simulator, where a victim's
    /// pre-crash deliveries stay observable.
    parked: std::collections::VecDeque<(ServerId, Delivery)>,
}

impl TcpTransport {
    /// Spawn one server per overlay vertex on ephemeral loopback ports.
    pub fn spawn(graph: Digraph, opts: RuntimeOptions) -> Result<TcpTransport, ClusterError> {
        let cluster = LocalCluster::spawn(graph, opts)?;
        Ok(TcpTransport {
            n: cluster.n(),
            cluster: Some(cluster),
            opts,
            cursor: 0,
            parked: std::collections::VecDeque::new(),
        })
    }

    /// The wrapped loopback deployment.
    pub fn cluster(&self) -> Option<&LocalCluster> {
        self.cluster.as_ref()
    }

    fn live_cluster(&self) -> Result<&LocalCluster, ClusterError> {
        self.cluster.as_ref().ok_or(ClusterError::ShutDown)
    }

    fn check_id(&self, id: ServerId) -> Result<(), ClusterError> {
        if (id as usize) >= self.live_cluster()?.n() {
            return Err(ClusterError::UnknownServer(id));
        }
        Ok(())
    }
}

impl Transport for TcpTransport {
    fn name(&self) -> &'static str {
        "tcp"
    }

    fn n(&self) -> usize {
        self.n
    }

    fn is_live(&self, id: ServerId) -> bool {
        self.cluster.as_ref().is_some_and(|c| (id as usize) < c.n() && c.is_running(id))
    }

    fn submit(&mut self, origin: ServerId, payload: Bytes) -> Result<(), ClusterError> {
        self.check_id(origin)?;
        let cluster = self.live_cluster()?;
        if !cluster.is_running(origin) {
            return Err(ClusterError::ServerDown(origin));
        }
        if !cluster.broadcast(origin, payload) {
            // The node's bounded input queue stayed full past its
            // patience window: the submission was shed with no effect.
            return Err(ClusterError::Busy { retry_after: SUBMIT_RETRY_AFTER });
        }
        Ok(())
    }

    fn poll_delivery(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<(ServerId, Delivery)>, ClusterError> {
        if let Some(next) = self.parked.pop_front() {
            return Ok(Some(next));
        }
        let n = self.live_cluster()?.n();
        let now = Instant::now();
        // Saturate: Duration::MAX must not overflow the deadline.
        let deadline = now
            .checked_add(timeout)
            .unwrap_or_else(|| now + Duration::from_secs(60 * 60 * 24 * 365));
        let mut backoff = POLL_MIN;
        loop {
            for offset in 0..n {
                let id = ((self.cursor + offset) % n) as ServerId;
                let next = self.live_cluster()?.try_recv_delivery(id);
                if let Some(delivery) = next {
                    self.cursor = (id as usize + 1) % n;
                    return Ok(Some((id, delivery)));
                }
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            std::thread::sleep(backoff.min(deadline - now));
            backoff = (backoff * 2).min(POLL_MAX);
        }
    }

    fn crash(&mut self, id: ServerId) -> Result<(), ClusterError> {
        self.check_id(id)?;
        let cluster = self.cluster.as_mut().ok_or(ClusterError::ShutDown)?;
        if !cluster.is_running(id) {
            return Err(ClusterError::ServerDown(id));
        }
        // Rescue deliveries the victim already produced: killing the node
        // drops its channel, and the simulator keeps these observable.
        // The drain happens after the reactor tore the node down, so a
        // round completing during teardown cannot slip away.
        for delivery in cluster.kill(id) {
            self.parked.push_back((id, delivery));
        }
        Ok(())
    }

    fn suspect(&mut self, at: ServerId, suspected: ServerId) -> Result<(), ClusterError> {
        self.check_id(at)?;
        self.check_id(suspected)?;
        let cluster = self.live_cluster()?;
        if !cluster.is_running(at) {
            return Err(ClusterError::ServerDown(at));
        }
        cluster.suspect(at, suspected);
        Ok(())
    }

    fn inject_fault(&mut self, fault: &FaultCommand) -> Result<(), ClusterError> {
        // Rates clamp to 100%, matching the sim backend's contract.
        let clamp = |ppm: u32| ppm.min(allconcur_sim::fault::PPM);
        let (from, to, link_fault) = match *fault {
            FaultCommand::Drop { from, to, ppm } => (from, to, LinkFault::Drop { ppm: clamp(ppm) }),
            FaultCommand::BitFlip { from, to, ppm } => {
                (from, to, LinkFault::Flip { ppm: clamp(ppm) })
            }
            FaultCommand::LinkDown { from, to } => (from, to, LinkFault::Down),
            FaultCommand::LinkFlap { from, to, down_for } => {
                (from, to, LinkFault::Flap { down_for })
            }
            FaultCommand::LinkUp { from, to } => (from, to, LinkFault::Up),
            FaultCommand::ClearLinkFaults => {
                // Every node's reactor owns its links' fault state and
                // clears it itself; a fault-free link ignores the clear.
                let cluster = self.live_cluster()?;
                for from in 0..cluster.n() as ServerId {
                    for &to in cluster.config().graph.successors(from) {
                        cluster.inject_fault(from, to, LinkFault::Clear);
                    }
                }
                return Ok(());
            }
            // Nothing to heal: TCP cannot partition, so blanket scenario
            // teardown heals harmlessly.
            FaultCommand::HealPartitions => return self.live_cluster().map(|_| ()),
            FaultCommand::Partition { .. } => {
                return Err(ClusterError::Unsupported("partitions on the TCP transport"))
            }
            FaultCommand::Isolate { .. } => {
                return Err(ClusterError::Unsupported("link isolation on the TCP transport"))
            }
            FaultCommand::Delay { .. } => {
                return Err(ClusterError::Unsupported("delay spikes on the TCP transport"))
            }
            FaultCommand::Reorder { .. } => {
                return Err(ClusterError::Unsupported("reorder bursts on the TCP transport"))
            }
        };
        self.check_id(from)?;
        self.check_id(to)?;
        self.live_cluster()?.inject_fault(from, to, link_fault);
        Ok(())
    }

    fn set_round_window(&mut self, window: usize) -> Result<(), ClusterError> {
        // Remembered in the options so reconfiguration keeps the window.
        self.opts.round_window = window.max(1);
        self.live_cluster()?.set_round_window(window.max(1));
        Ok(())
    }

    fn reconfigure(&mut self, graph: Digraph) -> Result<(), ClusterError> {
        let old = self.cluster.take().ok_or(ClusterError::ShutDown)?;
        old.shutdown();
        // Rescued pre-crash deliveries belong to the old configuration;
        // carrying them across would replay old server ids and round
        // numbers into the new one (and diverge from the sim backend).
        self.parked.clear();
        let fresh = LocalCluster::spawn(graph, self.opts)?;
        self.n = fresh.n();
        self.cluster = Some(fresh);
        self.cursor = 0;
        Ok(())
    }

    fn shutdown(&mut self) -> Result<(), ClusterError> {
        self.parked.clear();
        if let Some(cluster) = self.cluster.take() {
            cluster.shutdown();
        }
        Ok(())
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
