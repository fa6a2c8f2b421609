//! A full AllConcur deployment on loopback — every server a
//! [`crate::runtime::NodeRuntime`] in the current process, wired over
//! real TCP/UDP sockets on 127.0.0.1.
//!
//! This is the harness behind the TCP integration tests, the
//! `quickstart` example, and the TCP rows of the benchmark tables.

use crate::event_loop::EventLoopPool;
use crate::link::LinkStatsSnapshot;
use crate::runtime::{
    delivery_queue, Delivery, DeliveryBatch, DeliveryReceiver, LinkFault, NodeRuntime,
    RuntimeOptions,
};
use allconcur_core::config::{Config, FdMode};
use allconcur_core::ServerId;
use allconcur_graph::Digraph;
use bytes::Bytes;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, UdpSocket};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A local multi-server deployment.
///
/// Every node shares one [`EventLoopPool`] sized `min(cores, n)`, so
/// the whole cluster runs on O(cores) threads — a thread per socket
/// would need O(n·d), which collapses pipelined rounds at `n = 16` on
/// small machines.
///
/// The pool's reactors push every finished round onto one shared
/// arrival queue, so a consumer waiting for *any* server parks on a
/// single receive and wakes when the first round finishes
/// ([`LocalCluster::next_delivery`]). The per-server receives pull from
/// the same queue and leave other servers' rounds, in arrival order,
/// for whoever asks next. The cluster has one consumer: the receives
/// take `&self`, but it is not `Sync`.
pub struct LocalCluster {
    nodes: Vec<Option<NodeRuntime>>,
    cfg: Config,
    pool: Arc<EventLoopPool>,
    deliveries: DeliveryReceiver,
    /// Rounds taken off the queue but not yet read, in arrival order.
    arrived: RefCell<VecDeque<(ServerId, Delivery)>>,
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
        let (tx, deliveries) = delivery_queue();
        let pool = EventLoopPool::new(cores.min(n), tx)?;

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
        Ok(LocalCluster { nodes, cfg, pool, deliveries, arrived: RefCell::new(VecDeque::new()) })
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

    /// Wait up to `timeout` for the next delivery at any server, in the
    /// order the servers finished their rounds (`None` on a timeout).
    pub fn next_delivery(&self, timeout: Duration) -> Option<(ServerId, Delivery)> {
        let mut arrived = self.arrived.borrow_mut();
        if arrived.is_empty() {
            arrived.extend(self.dequeue(timeout)?);
        }
        arrived.pop_front()
    }

    /// Wait up to `timeout` for the next delivery at `id` — this
    /// layer's blocking receive (`None` on a timeout, or when `id` is
    /// dead and every round it finished has been read;
    /// `allconcur_cluster::Cluster::recv_delivery` tells the two apart).
    pub fn recv_delivery(&self, id: ServerId, timeout: Duration) -> Option<Delivery> {
        let mut arrived = self.arrived.borrow_mut();
        let started = Instant::now();
        let mut searched = 0;
        loop {
            if let Some(at) = arrived.range(searched..).position(|&(from, _)| from == id) {
                return arrived.remove(searched + at).map(|(_, delivery)| delivery);
            }
            searched = arrived.len();
            // A dead server finishes nothing more: only rounds already
            // queued can still be its own.
            let wait = if self.is_running(id) {
                timeout.saturating_sub(started.elapsed())
            } else {
                Duration::ZERO
            };
            arrived.extend(self.dequeue(wait)?);
        }
    }

    /// Non-blocking receive of the next delivery at `id`.
    pub fn try_recv_delivery(&self, id: ServerId) -> Option<Delivery> {
        self.recv_delivery(id, Duration::ZERO)
    }

    /// One batch off the queue. A zero wait is a plain `try_recv`: a
    /// timed receive spins and yields before it looks at its deadline.
    fn dequeue(&self, wait: Duration) -> Option<DeliveryBatch> {
        if wait.is_zero() {
            self.deliveries.try_recv().ok()
        } else {
            self.deliveries.recv_timeout(wait).ok()
        }
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
    /// Every round `id` finished is on the delivery queue by the time
    /// this returns and stays readable, by id or in arrival order.
    pub fn kill(&mut self, id: ServerId) {
        if let Some(node) = self.nodes[id as usize].take() {
            node.shutdown();
        }
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
        cluster.kill(6);
        assert!(cluster.try_recv_delivery(6).is_none());
        let messages = run_checked_round(&cluster, 1);
        assert!(messages.iter().all(|&(origin, _)| origin != 6), "dead server's message delivered");
        cluster.shutdown();
    }

    /// Submit rounds `rounds` through every server in `servers`.
    fn submit_rounds(cluster: &LocalCluster, servers: &[ServerId], rounds: std::ops::Range<u64>) {
        for round in rounds {
            for &i in servers {
                let payload = Bytes::from(format!("{i}/{round}").into_bytes());
                assert!(cluster.broadcast(i, payload), "server {i} shed round {round}");
            }
        }
    }

    /// Drain deliveries until every server in `targets` has yielded
    /// `upto` rounds, rotating through the receives: a blocking
    /// `recv_delivery` for the server furthest behind, a
    /// `try_recv_delivery` sweep over `targets`, and — with `any` — the
    /// shared queue's `next_delivery`, which may yield any server.
    fn drain(
        cluster: &LocalCluster,
        seen: &mut [Vec<u64>],
        targets: &[ServerId],
        upto: usize,
        any: bool,
    ) {
        let behind = |seen: &[Vec<u64>]| {
            targets
                .iter()
                .copied()
                .filter(|&i| seen[i as usize].len() < upto)
                .min_by_key(|&i| seen[i as usize].len())
        };
        let mut step = 0;
        while let Some(laggard) = behind(seen) {
            match step % 3 {
                0 => {
                    let d = cluster.recv_delivery(laggard, TIMEOUT).expect("laggard delivers");
                    seen[laggard as usize].push(d.round);
                }
                1 => {
                    for &i in targets {
                        if let Some(d) = cluster.try_recv_delivery(i) {
                            seen[i as usize].push(d.round);
                        }
                    }
                }
                _ if any => {
                    let (at, d) = cluster.next_delivery(TIMEOUT).expect("a round finishes");
                    seen[at as usize].push(d.round);
                }
                _ => {}
            }
            step += 1;
        }
    }

    #[test]
    fn shared_queue_loses_and_duplicates_nothing() {
        let opts = RuntimeOptions { round_window: 4, ..RuntimeOptions::default() };
        let mut cluster = LocalCluster::spawn(complete_digraph(4), opts).unwrap();
        let (all, survivors): ([ServerId; 4], [ServerId; 3]) = ([0, 1, 2, 3], [0, 1, 2]);
        let victim = all[3];
        let mut seen: Vec<Vec<u64>> = vec![Vec::new(); 4];
        // Rounds 0..8 everywhere: nothing opens round 8 before it is
        // submitted. Read two of the victim's rounds and all eight of
        // every survivor's, leaving the victim's others unread.
        submit_rounds(&cluster, &all, 0..8);
        drain(&cluster, &mut seen, &[victim], 2, false);
        drain(&cluster, &mut seen, &survivors, 8, false);
        cluster.kill(victim);
        // The survivors finished round 7, which needs the victim's
        // round-7 broadcast; with a window of 4 the victim sends that
        // only after finishing round 3. So rounds 2 and 3 at least were
        // on the queue, unread, when it died: they stay readable, through
        // the shared queue and by id alike, exactly once each.
        if let Some((at, d)) = cluster.next_delivery(Duration::ZERO) {
            seen[at as usize].push(d.round);
        }
        while let Some(d) = cluster.recv_delivery(victim, TIMEOUT) {
            seen[victim as usize].push(d.round);
        }
        let finished = seen[victim as usize].len() as u64;
        assert!(finished >= 4, "the victim finished rounds 0..=3, read {finished}");
        assert_eq!(seen[victim as usize], (0..finished).collect::<Vec<_>>(), "victim");
        // The survivors carry on without it to round 16.
        submit_rounds(&cluster, &survivors, 8..16);
        drain(&cluster, &mut seen, &survivors, 16, true);
        for i in survivors {
            assert_eq!(seen[i as usize], (0..16).collect::<Vec<_>>(), "server {i}");
        }
        // Nothing is left over, and the victim never reappears.
        assert!(cluster.next_delivery(Duration::from_millis(50)).is_none());
        assert_eq!(seen[victim as usize].len() as u64, finished);
        cluster.shutdown();
    }

    #[test]
    fn huge_timeouts_do_not_overflow() {
        let cluster = LocalCluster::spawn(complete_digraph(4), RuntimeOptions::default()).unwrap();
        submit_rounds(&cluster, &[0, 1, 2, 3], 0..1);
        let d = cluster.recv_delivery(2, Duration::MAX).expect("round 0 at server 2");
        assert_eq!(d.round, 0);
        let (_, d) = cluster.next_delivery(Duration::MAX).expect("round 0 elsewhere");
        assert_eq!(d.round, 0);
        cluster.shutdown();
    }
}
