//! [`TcpTransport`] — the real-sockets backend of the
//! [`crate::Transport`] contract.
//!
//! Wraps an [`allconcur_net::LocalCluster`] (every server a node on a
//! shared pool of `min(cores, n)` epoll reactor threads, loopback TCP
//! for protocol messages, UDP heartbeats for the FD). Submission
//! buffering lives in each node's runtime, so `submit` just forwards.
//! Every reactor pushes the rounds its nodes finish onto the cluster's
//! one arrival queue (a loop iteration's first round at once, the rest
//! as one batch at its end), so `poll_delivery` is a single blocking
//! receive that wakes as soon as any server finishes a round; a crashed
//! node's finished rounds stay on that queue and are reported like any
//! other.

use crate::error::ClusterError;
use crate::transport::{FaultCommand, Transport};
use allconcur_core::delivery::Delivery;
use allconcur_core::ServerId;
use allconcur_graph::Digraph;
use allconcur_net::runtime::{LinkFault, RuntimeOptions};
use allconcur_net::LocalCluster;
use bytes::Bytes;
use std::time::Duration;

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
}

impl TcpTransport {
    /// Spawn one server per overlay vertex on ephemeral loopback ports.
    pub fn spawn(graph: Digraph, opts: RuntimeOptions) -> Result<TcpTransport, ClusterError> {
        let cluster = LocalCluster::spawn(graph, opts)?;
        Ok(TcpTransport { n: cluster.n(), cluster: Some(cluster), opts })
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
            // The node's bounded input queue was full: the submission
            // was shed with no effect.
            return Err(ClusterError::Busy { retry_after: SUBMIT_RETRY_AFTER });
        }
        Ok(())
    }

    fn poll_delivery(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<(ServerId, Delivery)>, ClusterError> {
        Ok(self.live_cluster()?.next_delivery(timeout))
    }

    fn crash(&mut self, id: ServerId) -> Result<(), ClusterError> {
        self.check_id(id)?;
        let cluster = self.cluster.as_mut().ok_or(ClusterError::ShutDown)?;
        if !cluster.is_running(id) {
            return Err(ClusterError::ServerDown(id));
        }
        // The victim's finished rounds stay on the arrival queue, as the
        // simulator keeps a crashed server's pre-crash deliveries.
        cluster.kill(id);
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
        // Undelivered rounds leave with the old deployment's queue:
        // carrying them across would replay old server ids and round
        // numbers into the new configuration (and diverge from the sim
        // backend).
        let old = self.cluster.take().ok_or(ClusterError::ShutDown)?;
        old.shutdown();
        let fresh = LocalCluster::spawn(graph, self.opts)?;
        self.n = fresh.n();
        self.cluster = Some(fresh);
        Ok(())
    }

    fn shutdown(&mut self) -> Result<(), ClusterError> {
        if let Some(cluster) = self.cluster.take() {
            cluster.shutdown();
        }
        Ok(())
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
