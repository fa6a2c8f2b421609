//! Integration tests over the real TCP transport, driven through the
//! unified `Cluster` facade: the same protocol state machine as the
//! simulator, but on 127.0.0.1 sockets with OS threads, UDP heartbeats,
//! and disconnect detection.

use allconcur::prelude::*;
use allconcur_core::config::{Config, FdMode};
use allconcur_graph::binomial::binomial_graph;
use allconcur_graph::connectivity::vertex_connectivity;
use allconcur_graph::gs::gs_digraph;
use allconcur_graph::standard::{complete_digraph, ring_digraph};
use allconcur_net::codec::write_handshake;
use allconcur_net::link::LinkStatsSnapshot;
use allconcur_net::runtime::{NodeRuntime, RuntimeOptions};
use bytes::Bytes;
use std::net::{TcpListener, TcpStream, UdpSocket};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn payloads(n: usize) -> Vec<Bytes> {
    (0..n).map(|i| Bytes::from(format!("payload-{i}").into_bytes())).collect()
}

const ROUND_TIMEOUT: Duration = Duration::from_secs(20);

#[test]
fn tcp_agreement_on_three_topologies() {
    for (name, graph) in [
        ("complete(5)", complete_digraph(5)),
        ("gs(8,3)", gs_digraph(8, 3).unwrap()),
        ("binomial(9)", binomial_graph(9)),
    ] {
        let n = graph.order();
        let mut cluster =
            Cluster::tcp(graph).unwrap_or_else(|e| panic!("{name}: spawn failed: {e}"));
        let round = cluster
            .run_round(&payloads(n), ROUND_TIMEOUT)
            .unwrap_or_else(|e| panic!("{name}: round failed: {e}"));
        let first = &round[&0];
        assert_eq!(first.messages.len(), n, "{name}");
        for (i, d) in &round {
            assert_eq!(d.messages, first.messages, "{name}: total order violated at {i}");
        }
        cluster.shutdown().unwrap();
    }
}

#[test]
fn tcp_and_simulator_agree_on_delivery_sequence() {
    // The deterministic delivery order (ascending origin id) means the
    // simulator and the TCP stack must produce byte-identical sequences
    // for the same inputs — and the facade runs the identical scenario
    // code on both.
    let n = 8;
    let graph = gs_digraph(n, 3).unwrap();
    let ps = payloads(n);

    let mut sim = Cluster::sim(graph.clone());
    let sim_round = sim.run_round(&ps, ROUND_TIMEOUT).unwrap();

    let mut tcp = Cluster::tcp(graph).unwrap();
    let tcp_round = tcp.run_round(&ps, ROUND_TIMEOUT).unwrap();

    assert_eq!(
        sim_round[&0].messages, tcp_round[&0].messages,
        "simulated and real transports must agree"
    );
    tcp.shutdown().unwrap();
}

#[test]
fn tcp_ten_rounds_sustained() {
    let n = 6;
    let mut cluster = Cluster::tcp(gs_digraph(n, 3).unwrap()).unwrap();
    for round in 0..10u64 {
        let deliveries = cluster.run_round(&payloads(n), ROUND_TIMEOUT).unwrap();
        for (i, d) in &deliveries {
            assert_eq!(d.round, round, "server {i}");
            assert_eq!(d.messages.len(), n, "server {i} round {round}");
        }
    }
    cluster.shutdown().unwrap();
}

#[test]
fn tcp_crash_mid_deployment_recovers() {
    let n = 9;
    let mut cluster = Cluster::tcp(binomial_graph(n)).unwrap();
    // Healthy round.
    let d0 = cluster.run_round(&payloads(n), ROUND_TIMEOUT).unwrap();
    assert_eq!(d0.len(), n);

    // Kill two servers (binomial(9) has k = 6: plenty of margin).
    cluster.crash(7).unwrap();
    cluster.crash(8).unwrap();
    assert_eq!(cluster.live_servers().len(), 7);

    let round = cluster.run_round(&payloads(n), ROUND_TIMEOUT).unwrap();
    assert_eq!(round.len(), 7);
    let reference = &round[&1];
    for (i, d) in &round {
        let origins = d.origins();
        assert!(!origins.contains(&7) && !origins.contains(&8), "dead messages at {i}");
        assert_eq!(d.messages, reference.messages, "set agreement violated at {i}");
    }

    // The system keeps running with 7 members.
    let next = cluster.run_round(&payloads(n), ROUND_TIMEOUT).unwrap();
    assert_eq!(next.len(), 7);
    for d in next.values() {
        assert_eq!(d.messages.len(), 7);
    }
    cluster.shutdown().unwrap();
}

#[test]
fn tcp_empty_payload_round() {
    // Servers with nothing to say still participate with empty messages.
    let n = 5;
    let mut cluster = Cluster::tcp(complete_digraph(n)).unwrap();
    let empties: Vec<Bytes> = vec![Bytes::new(); n];
    let round = cluster.run_round(&empties, ROUND_TIMEOUT).unwrap();
    for d in round.values() {
        assert_eq!(d.messages.len(), n);
        assert!(d.messages.iter().all(|(_, b)| b.is_empty()));
    }
    cluster.shutdown().unwrap();
}

#[test]
fn tcp_large_batched_payloads() {
    // Fig. 10-sized batches over real sockets: 2¹² × 8-byte requests.
    let n = 4;
    let mut cluster = Cluster::tcp(complete_digraph(n)).unwrap();
    let batch = allconcur_core::batch::encode_fixed(1 << 12, 8, 0x5A);
    let ps: Vec<Bytes> = vec![batch.clone(); n];
    let round = cluster.run_round(&ps, ROUND_TIMEOUT).unwrap();
    for d in round.values() {
        assert_eq!(d.messages.len(), n);
        for (_, payload) in &d.messages {
            assert_eq!(payload.len(), (1 << 12) * 8);
        }
    }
    cluster.shutdown().unwrap();
}

#[test]
fn tcp_streaming_submit_and_handles() {
    // The streaming half of the facade on real sockets: submit through
    // handles, await the tracked payload, stream deliveries.
    let n = 5;
    let mut cluster = Cluster::tcp(complete_digraph(n)).unwrap();
    let handle = cluster.submit(2, Bytes::from_static(b"tracked-write")).unwrap();
    for id in 0..n as u32 {
        if id != 2 {
            cluster.submit(id, Bytes::new()).unwrap();
        }
    }
    let delivery = cluster.wait_delivered(&handle, ROUND_TIMEOUT).unwrap();
    assert_eq!(delivery.payload_of(2), Some(&Bytes::from_static(b"tracked-write")));
    // wait_delivered does not consume: the origin's stream still has it.
    let streamed = cluster.recv_delivery(2, ROUND_TIMEOUT).unwrap();
    assert_eq!(streamed, delivery);
    cluster.shutdown().unwrap();
}

fn link_stats(cluster: &mut Cluster, id: u32) -> LinkStatsSnapshot {
    let transport = cluster.tcp_transport_mut().expect("tcp backend");
    transport.cluster().expect("running").link_stats(id)
}

/// Poll server `id`'s link counters until `pred` holds.
fn wait_link_stats(
    cluster: &mut Cluster,
    id: u32,
    what: &str,
    pred: impl Fn(&LinkStatsSnapshot) -> bool,
) {
    let deadline = Instant::now() + ROUND_TIMEOUT;
    loop {
        let stats = link_stats(cluster, id);
        if pred(&stats) {
            return;
        }
        assert!(Instant::now() < deadline, "server {id} never reached `{what}`: {stats:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn clear_link_faults_heals_a_drop_a_flip_and_a_hold() {
    // On the directed ring every link is the only path, so a fault left
    // behind on any of the three would stall the last round forever.
    // The transport keeps no record of which links it faulted: each
    // reactor clears the fault state it owns.
    let n = 3;
    let opts = RuntimeOptions { link_grace: Duration::from_secs(60), ..RuntimeOptions::default() };
    let mut cluster = Cluster::tcp_with(ring_digraph(n), opts).unwrap();
    cluster.run_round(&payloads(n), ROUND_TIMEOUT).unwrap();

    cluster.inject_fault(&FaultCommand::Drop { from: 0, to: 1, ppm: 1_000_000 }).unwrap();
    cluster.inject_fault(&FaultCommand::BitFlip { from: 1, to: 2, ppm: 1_000_000 }).unwrap();
    cluster.inject_fault(&FaultCommand::LinkDown { from: 2, to: 0 }).unwrap();
    wait_link_stats(&mut cluster, 2, "held link degraded", |s| s.degraded >= 1);

    cluster.inject_fault(&FaultCommand::ClearLinkFaults).unwrap();
    wait_link_stats(&mut cluster, 2, "held link reconnected", |s| s.reconnects >= 1);
    let round = cluster.run_round(&payloads(n), ROUND_TIMEOUT).unwrap();
    for (id, delivery) in &round {
        assert_eq!(delivery.messages.len(), n, "server {id} lost a message after the clear");
    }
    // The faults were set and cleared between rounds: nothing was
    // dropped or corrupted, and the under-grace hold cost no suspicion.
    for id in 0..n as u32 {
        let stats = link_stats(&mut cluster, id);
        assert_eq!((stats.corrupt_frames, stats.suspicions), (0, 0), "server {id}: {stats:?}");
    }
    cluster.shutdown().unwrap();
}

#[test]
fn forged_handshakes_are_rejected_without_a_suspicion() {
    // Every server on its own standalone runtime, as `allconcur_node`
    // deploys them. A stranger connects to server 0 twice, claiming an
    // id outside the deployment and then an in-range server that is not
    // one of 0's predecessors, and hangs up. Inbound links only ever
    // come from predecessors, so both are closed at the handshake: they
    // start no disconnect grace and never reach the protocol core.
    let n = 8;
    let graph = gs_digraph(n, 3).unwrap();
    let stranger = (1..n as u32).find(|p| !graph.predecessors(0).contains(p)).unwrap();
    let cfg = Config {
        resilience: vertex_connectivity(&graph) - 1,
        graph: Arc::new(graph),
        fd_mode: FdMode::Perfect,
        round_window: 1,
    };
    let opts = RuntimeOptions::default();
    let listeners: Vec<TcpListener> =
        (0..n).map(|_| TcpListener::bind("127.0.0.1:0").unwrap()).collect();
    let udps: Vec<UdpSocket> = (0..n).map(|_| UdpSocket::bind("127.0.0.1:0").unwrap()).collect();
    let tcp_addrs: Vec<_> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
    let udp_addrs: Vec<_> = udps.iter().map(|u| u.local_addr().unwrap()).collect();
    let nodes: Vec<_> = listeners
        .into_iter()
        .zip(udps)
        .enumerate()
        .map(|(id, (listener, udp))| {
            let (cfg, tcp, udp_addrs) = (cfg.clone(), tcp_addrs.clone(), udp_addrs.clone());
            NodeRuntime::start(id as u32, cfg, listener, udp, tcp, udp_addrs, opts).unwrap()
        })
        .collect();

    for claimed in [999, stranger] {
        let mut forged = TcpStream::connect(tcp_addrs[0]).unwrap();
        write_handshake(&mut forged, claimed).unwrap();
    }
    std::thread::sleep(2 * opts.link_grace);

    let ps = payloads(n);
    for ((node, _), p) in nodes.iter().zip(&ps) {
        assert!(node.broadcast(p.clone()));
    }
    for (id, (_, delivered)) in nodes.iter().enumerate() {
        let batch = delivered.recv_timeout(ROUND_TIMEOUT).unwrap_or_else(|_| {
            panic!("server {id} delivered nothing after the forged handshakes")
        });
        let (_, delivery) = &batch[0];
        assert_eq!(delivery.messages.len(), n, "server {id}");
    }
    for (id, (node, _)) in nodes.into_iter().enumerate() {
        assert_eq!(node.link_stats().suspicions, 0, "server {id}");
        node.shutdown();
    }
}
