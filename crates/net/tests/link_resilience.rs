//! Scripted transport-resilience tests over real loopback TCP: link
//! flaps under and over the grace budget and watermark-bounded Degraded
//! queues.
//!
//! These are the end-to-end counterparts of the unit tests in
//! `crates/net/src/link.rs` — the link state machine is driven through
//! a full deployment, and the assertions read the runtimes'
//! [`LinkStatsSnapshot`] counters plus protocol-visible delivery order.

use allconcur_graph::standard::complete_digraph;
use allconcur_net::link::LinkStatsSnapshot;
use allconcur_net::runtime::{LinkFault, RuntimeOptions};
use allconcur_net::LocalCluster;
use bytes::Bytes;
use std::time::{Duration, Instant};

const N: usize = 4;
const ROUND_TIMEOUT: Duration = Duration::from_secs(20);

fn payloads(round: u64) -> Vec<Bytes> {
    (0..N).map(|i| Bytes::from(vec![round as u8, i as u8, 0x5a])).collect()
}

/// Drive one full round and assert every server delivers the same
/// message set (total order across the deployment).
fn run_checked_round(cluster: &LocalCluster, round: u64) {
    for (i, p) in payloads(round).iter().enumerate() {
        assert!(cluster.broadcast(i as u32, p.clone()), "server {i} shed round {round}");
    }
    let mut reference = None;
    for i in 0..N as u32 {
        let d = cluster
            .recv_delivery(i, ROUND_TIMEOUT)
            .unwrap_or_else(|| panic!("server {i} timed out in round {round}"));
        assert_eq!(d.round, round, "server {i}");
        assert_eq!(d.messages.len(), N, "server {i} lost a message in round {round}");
        match &reference {
            None => reference = Some(d.messages),
            Some(r) => assert_eq!(&d.messages, r, "total order violated at server {i}"),
        }
    }
}

/// Poll server `id`'s counters until `pred` holds or `deadline` passes.
fn wait_stats(
    cluster: &LocalCluster,
    id: u32,
    what: &str,
    pred: impl Fn(&LinkStatsSnapshot) -> bool,
) -> LinkStatsSnapshot {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let s = cluster.link_stats(id);
        if pred(&s) {
            return s;
        }
        assert!(Instant::now() < deadline, "server {id} never reached `{what}`: {s:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn flap_under_grace_heals_without_suspicion() {
    let opts = RuntimeOptions { link_grace: Duration::from_secs(10), ..RuntimeOptions::default() };
    let cluster = LocalCluster::spawn(complete_digraph(N), opts).unwrap();
    run_checked_round(&cluster, 0);

    // Sever 0 → 1 for 100 ms — far under the grace budget — and submit
    // a round while it is down, so frames buffer in the Degraded queue.
    cluster.inject_fault(0, 1, LinkFault::Flap { down_for: Duration::from_millis(100) });
    run_checked_round(&cluster, 1);

    // The flap heals: the writer reconnects and replays its buffered
    // tail, the reader's pending disconnect grace is cancelled.
    let s0 = wait_stats(&cluster, 0, "reconnect with replay", |s| {
        s.reconnects >= 1 && s.replayed_frames >= 1
    });
    assert!(s0.degraded >= 1, "{s0:?}");
    assert_eq!(s0.grace_expired, 0, "under-grace flap must never exhaust the grace: {s0:?}");
    wait_stats(&cluster, 1, "healed reader grace", |s| s.healed >= 1);

    // Zero protocol-visible damage: no suspicions anywhere, no
    // membership change, and the next round totally ordered as usual
    // (replayed frames arrived in order — an out-of-order or lost frame
    // would have stalled or forked the streams above).
    run_checked_round(&cluster, 2);
    for id in 0..N as u32 {
        let s = cluster.link_stats(id);
        assert_eq!(s.suspicions, 0, "server {id} suspected during an under-grace flap: {s:?}");
    }
    cluster.shutdown();
}

#[test]
fn flap_over_grace_escalates_to_exactly_one_suspicion() {
    let opts =
        RuntimeOptions { link_grace: Duration::from_millis(50), ..RuntimeOptions::default() };
    let cluster = LocalCluster::spawn(complete_digraph(N), opts).unwrap();
    run_checked_round(&cluster, 0);

    // Hold 0 → 1 down well past the 50 ms grace: server 1's deferred
    // disconnect grace expires and escalates through the ◇P path.
    cluster.inject_fault(0, 1, LinkFault::Flap { down_for: Duration::from_millis(400) });
    wait_stats(&cluster, 1, "suspicion after grace expiry", |s| s.suspicions >= 1);

    // Exactly one: the single expired grace produces a single
    // suspicion, and no other server observed a disconnect at all.
    std::thread::sleep(Duration::from_millis(600)); // outlives the flap + reconnect
    let total: u64 = (0..N as u32).map(|id| cluster.link_stats(id).suspicions).sum();
    assert_eq!(total, 1, "an over-grace flap must cost exactly one suspicion");
    cluster.shutdown();
}

#[test]
fn watermark_saturation_bounds_degraded_queues() {
    let opts = RuntimeOptions {
        link_grace: Duration::from_secs(30),
        link_queue_high: 4,
        link_queue_low: 1,
        ..RuntimeOptions::default()
    };
    let cluster = LocalCluster::spawn(complete_digraph(N), opts).unwrap();
    run_checked_round(&cluster, 0);

    // Hold 0 → 1 down and keep round traffic flowing: the overlay's
    // redundant paths keep agreement alive, while 0's frames for 1 pile
    // into the bounded Degraded queue until the high watermark sheds.
    cluster.inject_fault(0, 1, LinkFault::Down);
    let mut round = 1u64;
    let deadline = Instant::now() + Duration::from_secs(15);
    while cluster.link_stats(0).shed_frames == 0 {
        assert!(Instant::now() < deadline, "high watermark never reached: queue unbounded?");
        run_checked_round(&cluster, round);
        round += 1;
    }
    let s0 = cluster.link_stats(0);
    assert!(s0.degraded >= 1 && s0.shed_frames >= 1, "{s0:?}");

    // Heal: the (bounded) tail replays, and the deployment keeps its
    // order with zero suspicions — shed frames on one link are routed
    // around by vertex connectivity, exactly like transient loss.
    cluster.inject_fault(0, 1, LinkFault::Up);
    wait_stats(&cluster, 0, "reconnect after heal", |s| s.reconnects >= 1);
    run_checked_round(&cluster, round);
    for id in 0..N as u32 {
        assert_eq!(cluster.link_stats(id).suspicions, 0, "server {id}");
    }
    cluster.shutdown();
}
