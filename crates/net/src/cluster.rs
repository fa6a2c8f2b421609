//! A full AllConcur deployment on loopback — every server a
//! [`crate::runtime::NodeRuntime`] in the current process, wired over
//! real TCP/UDP sockets on 127.0.0.1.
//!
//! This is the harness behind the TCP integration tests, the
//! `quickstart` example, and the TCP rows of the benchmark tables.

use crate::event_loop::EventLoopPool;
use crate::link::LinkStatsSnapshot;
use crate::runtime::{Delivery, LinkFault, NodeRuntime, RuntimeOptions};
use allconcur_core::config::{Config, FdMode};
use allconcur_core::ServerId;
use allconcur_graph::Digraph;
use bytes::Bytes;
use std::net::{SocketAddr, TcpListener, UdpSocket};
use std::sync::Arc;
use std::time::Duration;

/// A local multi-server deployment.
///
/// Every node shares one [`EventLoopPool`] sized `min(cores, n)`, so
/// the whole cluster runs on O(cores) threads — a thread per socket
/// would need O(n·d), which collapses pipelined rounds at `n = 16` on
/// small machines.
pub struct LocalCluster {
    nodes: Vec<Option<NodeRuntime>>,
    cfg: Config,
    pool: Arc<EventLoopPool>,
}

impl LocalCluster {
    /// Spawn one server per overlay vertex on ephemeral loopback ports.
    pub fn spawn(graph: Digraph, opts: RuntimeOptions) -> std::io::Result<LocalCluster> {
        let n = graph.order();
        let k = allconcur_graph::connectivity::vertex_connectivity(&graph);
        let cfg = Config {
            graph: Arc::new(graph),
            resilience: k.saturating_sub(1),
            fd_mode: FdMode::Perfect,
            round_window: opts.round_window.max(1),
        };

        // Bind every socket before starting any runtime, so successor
        // connections find listening peers immediately.
        let mut listeners = Vec::with_capacity(n);
        let mut udps = Vec::with_capacity(n);
        let mut tcp_addrs: Vec<SocketAddr> = Vec::with_capacity(n);
        let mut udp_addrs: Vec<SocketAddr> = Vec::with_capacity(n);
        for _ in 0..n {
            let l = TcpListener::bind("127.0.0.1:0")?;
            tcp_addrs.push(l.local_addr()?);
            listeners.push(l);
            let u = UdpSocket::bind("127.0.0.1:0")?;
            udp_addrs.push(u.local_addr()?);
            udps.push(u);
        }

        // One reactor per core (never more than one per node): the
        // event loops multiplex every node's sockets and timers, so
        // thread count stays O(cores) regardless of n and d.
        let cores = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
        let pool = EventLoopPool::new(cores.min(n))?;

        let mut nodes = Vec::with_capacity(n);
        // Connections are non-blocking and retried under backoff, so
        // registration order is cosmetic — every listener is already
        // bound above.
        for (i, (listener, udp)) in listeners.into_iter().zip(udps).enumerate() {
            let node = NodeRuntime::start_on(
                &pool,
                i as ServerId,
                cfg.clone(),
                listener,
                udp,
                tcp_addrs.clone(),
                udp_addrs.clone(),
                opts,
            )?;
            nodes.push(Some(node));
        }
        Ok(LocalCluster { nodes, cfg, pool })
    }

    /// Number of configured servers.
    pub fn n(&self) -> usize {
        self.nodes.len()
    }

    /// Number of reactor threads the shared event-loop pool runs on.
    pub fn loop_threads(&self) -> usize {
        self.pool.threads()
    }

    /// The shared configuration.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// Submit `payload` as server `id`'s message for its current round.
    /// Returns `false` when the server is dead or its protocol input
    /// queue is saturated (backpressure) — the payload was not
    /// accepted.
    #[must_use = "a false return means the payload was shed, not submitted"]
    pub fn broadcast(&self, id: ServerId, payload: Bytes) -> bool {
        match &self.nodes[id as usize] {
            Some(node) => node.broadcast(payload),
            None => false,
        }
    }

    /// Wait up to `timeout` for the next delivery at `id` — this
    /// layer's blocking receive (`None` on a timeout or a dead server;
    /// `allconcur_cluster::Cluster::recv_delivery` tells the two apart).
    pub fn recv_delivery(&self, id: ServerId, timeout: Duration) -> Option<Delivery> {
        self.nodes[id as usize].as_ref()?.recv_delivery(timeout)
    }

    /// Non-blocking receive of the next delivery at `id`.
    pub fn try_recv_delivery(&self, id: ServerId) -> Option<Delivery> {
        self.nodes[id as usize].as_ref()?.try_recv_delivery()
    }

    /// Inject a failure suspicion at server `at`, as if its local FD had
    /// suspected `suspected`.
    pub fn suspect(&self, at: ServerId, suspected: ServerId) {
        if let Some(node) = &self.nodes[at as usize] {
            node.inject_suspicion(suspected);
        }
    }

    /// Adjust every running server's round-pipelining window.
    pub fn set_round_window(&self, window: usize) {
        for node in self.nodes.iter().flatten() {
            node.set_round_window(window);
        }
    }

    /// Inject `fault` on the directed link `from → to`; it is applied
    /// in `from`'s writer path (see [`LinkFault`]). A dead `from` has no
    /// links left to fault.
    pub fn inject_fault(&self, from: ServerId, to: ServerId, fault: LinkFault) {
        if let Some(node) = &self.nodes[from as usize] {
            node.inject_fault(to, fault);
        }
    }

    /// Resilience counters of server `id` (zeros for a dead server).
    pub fn link_stats(&self, id: ServerId) -> LinkStatsSnapshot {
        self.nodes[id as usize].as_ref().map(|n| n.link_stats()).unwrap_or_default()
    }

    /// Emulate a fail-stop crash of `id`: its reactor drops the node,
    /// sockets close, heartbeats cease; peers detect via disconnect/FD.
    /// Returns the deliveries `id` produced that the application had
    /// not yet received (drained after the teardown, so none are lost).
    pub fn kill(&mut self, id: ServerId) -> Vec<Delivery> {
        self.nodes[id as usize].take().map(NodeRuntime::shutdown).unwrap_or_default()
    }

    /// Whether `id` is still running.
    pub fn is_running(&self, id: ServerId) -> bool {
        self.nodes[id as usize].is_some()
    }

    /// Graceful shutdown of every remaining server (what dropping the
    /// cluster does; spelled out for call sites that want it visible).
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for LocalCluster {
    fn drop(&mut self) {
        for node in self.nodes.iter_mut() {
            if let Some(n) = node.take() {
                n.shutdown();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use allconcur_graph::gs::gs_digraph;
    use allconcur_graph::standard::complete_digraph;

    const TIMEOUT: Duration = Duration::from_secs(20);

    /// Broadcast one payload per running server, collect one delivery
    /// from each, and assert they all carry `round` and the same message
    /// list (total order). Returns that list.
    fn run_checked_round(cluster: &LocalCluster, round: u64) -> Vec<(ServerId, Bytes)> {
        let running: Vec<ServerId> =
            (0..cluster.n() as ServerId).filter(|&i| cluster.is_running(i)).collect();
        for &i in &running {
            let payload = Bytes::from(vec![i as u8; 32]);
            assert!(cluster.broadcast(i, payload), "server {i} shed round {round}");
        }
        let mut reference: Option<Vec<(ServerId, Bytes)>> = None;
        for &i in &running {
            let d = cluster
                .recv_delivery(i, TIMEOUT)
                .unwrap_or_else(|| panic!("server {i} timed out in round {round}"));
            assert_eq!(d.round, round, "server {i}");
            match &reference {
                None => reference = Some(d.messages),
                Some(r) => assert_eq!(&d.messages, r, "total order violated at server {i}"),
            }
        }
        reference.expect("at least one server is running")
    }

    #[test]
    fn tcp_round_on_complete_digraph() {
        let cluster = LocalCluster::spawn(complete_digraph(4), RuntimeOptions::default()).unwrap();
        assert_eq!(run_checked_round(&cluster, 0).len(), 4);
        cluster.shutdown();
    }

    #[test]
    fn tcp_multiple_rounds_gs83() {
        let cluster =
            LocalCluster::spawn(gs_digraph(8, 3).unwrap(), RuntimeOptions::default()).unwrap();
        for round in 0..3u64 {
            assert_eq!(run_checked_round(&cluster, round).len(), 8, "round {round}");
        }
        cluster.shutdown();
    }

    #[test]
    fn tcp_survives_crash() {
        let mut cluster =
            LocalCluster::spawn(gs_digraph(8, 3).unwrap(), RuntimeOptions::default()).unwrap();
        // Round 0: all alive.
        assert_eq!(run_checked_round(&cluster, 0).len(), 8);
        // Kill server 6 (it had nothing undelivered), then run a round
        // without it: the survivors agree on a set that excludes it.
        assert!(cluster.kill(6).is_empty());
        let messages = run_checked_round(&cluster, 1);
        assert!(messages.iter().all(|&(origin, _)| origin != 6), "dead server's message delivered");
        cluster.shutdown();
    }
}
