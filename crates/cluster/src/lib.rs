#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # allconcur-cluster — one submit/deliver API over every transport
//!
//! The paper's central claim is that the *same* leaderless round
//! protocol runs unchanged whether analysed, simulated, or deployed over
//! real sockets (§4–§5). This crate turns that claim into an API: a
//! [`Transport`] contract implemented by the discrete-event simulator
//! ([`sim::SimTransport`]) and the TCP runtime ([`tcp::TcpTransport`]),
//! and a [`Cluster`] facade that scenario code drives without knowing
//! which backend is underneath.
//!
//! * submit: [`Cluster::submit`] queues a payload through one server and
//!   returns a [`SubmitHandle`]; payloads ride one per server per round,
//!   extras batch into later rounds (§5);
//! * deliver: [`Cluster::recv_delivery`] / [`Cluster::next_delivery`] /
//!   [`Cluster::deliveries`] pull [`Delivery`] values — the per-server
//!   A-delivery sequences every correct server agrees on;
//! * lifecycle: [`Cluster::crash`], [`Cluster::suspect`],
//!   [`Cluster::reconfigure`], [`Cluster::shutdown`];
//! * errors: every failure is a typed [`ClusterError`] instead of the
//!   old mix of `Option`, `io::Result`, and `SimError`.
//!
//! Because both transports preserve per-server delivery order and the
//! protocol's delivery order is deterministic, a scripted scenario
//! produces byte-identical delivery sequences on both backends — the
//! cross-backend parity test in the umbrella crate pins this down.

pub mod error;
pub mod facade;
pub mod sim;
pub mod tcp;
pub mod transport;

pub use allconcur_core::delivery::Delivery;
pub use error::ClusterError;
pub use facade::{deadline_after, Cluster, Deliveries, SubmitHandle};
pub use sim::{SimOptions, SimTransport};
pub use tcp::TcpTransport;
pub use transport::{FaultCommand, Transport};

#[cfg(test)]
mod tests {
    use super::*;
    use allconcur_graph::gs::gs_digraph;
    use allconcur_graph::standard::complete_digraph;
    use bytes::Bytes;
    use std::time::Duration;

    const TIMEOUT: Duration = Duration::from_secs(20);

    fn payloads(n: usize) -> Vec<Bytes> {
        (0..n).map(|i| Bytes::from(format!("msg-{i}").into_bytes())).collect()
    }

    fn drive_round(mut cluster: Cluster) {
        let n = cluster.n();
        let round = cluster.run_round(&payloads(n), TIMEOUT).unwrap();
        assert_eq!(round.len(), n);
        let reference = &round[&0];
        assert_eq!(reference.messages.len(), n);
        for (id, delivery) in &round {
            assert_eq!(delivery.round, 0);
            assert_eq!(
                delivery.messages, reference.messages,
                "total order violated at server {id}"
            );
        }
        cluster.shutdown().unwrap();
    }

    #[test]
    fn sim_round_through_facade() {
        drive_round(Cluster::sim(gs_digraph(8, 3).unwrap()));
    }

    #[test]
    fn tcp_round_through_facade() {
        drive_round(Cluster::tcp(complete_digraph(4)).unwrap());
    }

    #[test]
    fn submit_handles_resolve() {
        let mut cluster = Cluster::sim(gs_digraph(8, 3).unwrap());
        let handle = cluster.submit(3, Bytes::from_static(b"tracked")).unwrap();
        assert_eq!(handle.origin(), 3);
        for id in 0..8 {
            if id != 3 {
                cluster.submit(id, Bytes::new()).unwrap();
            }
        }
        let delivery = cluster.wait_delivered(&handle, TIMEOUT).unwrap();
        assert_eq!(delivery.payload_of(3), Some(&Bytes::from_static(b"tracked")));
        // Not consumed: the origin's stream still yields the delivery.
        let again = cluster.recv_delivery(3, TIMEOUT).unwrap();
        assert_eq!(again, delivery);
    }

    #[test]
    fn pipelined_submissions_batch_into_later_rounds() {
        let mut cluster = Cluster::sim(gs_digraph(8, 3).unwrap());
        // Three payloads through server 0 up front: they must arrive in
        // rounds 0, 1, 2 in submission order.
        for tag in [b"first".as_slice(), b"second", b"third"] {
            cluster.submit(0, Bytes::copy_from_slice(tag)).unwrap();
        }
        for round in 0..3u64 {
            for id in 1..8 {
                cluster.submit(id, Bytes::new()).unwrap();
            }
            let delivery = cluster.recv_delivery(0, TIMEOUT).unwrap();
            assert_eq!(delivery.round, round);
            let expected: &[u8] = [b"first".as_slice(), b"second", b"third"][round as usize];
            assert_eq!(delivery.payload_of(0).unwrap().as_ref(), expected);
        }
    }

    #[test]
    fn crash_is_detected_and_excluded() {
        let mut cluster = Cluster::sim_with(
            gs_digraph(8, 3).unwrap(),
            SimOptions { fd_delay: allconcur_sim::SimTime::from_us(50), ..SimOptions::default() },
        );
        cluster.crash(5).unwrap();
        assert!(!cluster.is_live(5));
        assert_eq!(cluster.live_servers().len(), 7);
        let round = cluster.run_round(&payloads(8), TIMEOUT).unwrap();
        assert_eq!(round.len(), 7);
        for delivery in round.values() {
            assert!(!delivery.origins().contains(&5), "dead server's message delivered");
        }
        // Submitting through the dead server is a typed error.
        match cluster.submit(5, Bytes::new()) {
            Err(ClusterError::ServerDown(5)) => {}
            other => panic!("expected ServerDown(5), got {other:?}"),
        }
    }

    #[test]
    fn unknown_server_is_a_typed_error() {
        let mut cluster = Cluster::sim(gs_digraph(8, 3).unwrap());
        match cluster.submit(99, Bytes::new()) {
            Err(ClusterError::UnknownServer(99)) => {}
            other => panic!("expected UnknownServer(99), got {other:?}"),
        }
    }

    #[test]
    fn timeout_when_nothing_submitted() {
        let mut cluster = Cluster::sim(gs_digraph(8, 3).unwrap());
        match cluster.recv_delivery(0, Duration::from_millis(5)) {
            Err(ClusterError::Timeout { .. }) => {}
            other => panic!("expected Timeout, got {other:?}"),
        }
    }

    #[test]
    fn reconfigure_restarts_on_fresh_overlay() {
        let mut cluster = Cluster::sim(gs_digraph(8, 3).unwrap());
        let round = cluster.run_round(&payloads(8), TIMEOUT).unwrap();
        assert_eq!(round.len(), 8);
        cluster.reconfigure(gs_digraph(10, 3).unwrap()).unwrap();
        assert_eq!(cluster.n(), 10);
        let round = cluster.run_round(&payloads(10), TIMEOUT).unwrap();
        assert_eq!(round.len(), 10);
        for delivery in round.values() {
            assert_eq!(delivery.round, 0, "rounds restart on the new configuration");
            assert_eq!(delivery.messages.len(), 10);
        }
    }

    #[test]
    fn deliveries_iterator_streams_rounds() {
        let mut cluster = Cluster::sim(gs_digraph(8, 3).unwrap());
        for _ in 0..3 {
            for id in 0..8 {
                cluster.submit(id, Bytes::from_static(b"x")).unwrap();
            }
        }
        let rounds: Vec<u64> =
            cluster.deliveries(2, Duration::from_millis(50)).map(|d| d.round).collect();
        assert_eq!(rounds, vec![0, 1, 2]);
    }

    #[test]
    fn waiting_on_dead_server_fails_fast() {
        let mut cluster = Cluster::sim(gs_digraph(8, 3).unwrap());
        cluster.crash(2).unwrap();
        let t0 = std::time::Instant::now();
        match cluster.recv_delivery(2, Duration::from_secs(30)) {
            Err(ClusterError::ServerDown(2)) => {}
            other => panic!("expected ServerDown(2), got {other:?}"),
        }
        assert!(t0.elapsed() < Duration::from_secs(5), "must not burn the 30s budget");
        // Same through a submit handle (submitted before the crash, but
        // the round can no longer complete).
        let mut cluster = Cluster::sim(gs_digraph(8, 3).unwrap());
        let handle = cluster.submit(2, Bytes::from_static(b"doomed")).unwrap();
        cluster.crash(2).unwrap();
        match cluster.wait_delivered(&handle, Duration::from_secs(30)) {
            Err(ClusterError::ServerDown(2)) => {}
            other => panic!("expected ServerDown(2), got {other:?}"),
        }
    }

    #[test]
    fn lost_liveness_reports_stalled() {
        // A ring has k = 1: one crash disconnects the overlay, so the
        // survivors' round can never complete. The facade must say
        // Stalled (with diagnostics), not a fabricated Timeout.
        let mut cluster = Cluster::sim(allconcur_graph::standard::ring_digraph(4));
        cluster.crash(2).unwrap();
        for id in [0u32, 1, 3] {
            cluster.submit(id, Bytes::from_static(b"doomed-round")).unwrap();
        }
        match cluster.recv_delivery(0, Duration::from_secs(60)) {
            Err(ClusterError::Stalled { round: Some(0), missing }) => {
                assert!(!missing.is_empty());
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
    }

    #[test]
    fn inbox_cap_bounds_buffered_deliveries() {
        let mut cluster = Cluster::sim(gs_digraph(8, 3).unwrap());
        cluster.set_inbox_cap(Some(2));
        for _ in 0..5 {
            for id in 0..8 {
                cluster.submit(id, Bytes::from_static(b"r")).unwrap();
            }
        }
        // Stream only server 0; the other servers' buffers stay capped.
        let got: Vec<u64> =
            cluster.deliveries(0, Duration::from_millis(50)).map(|d| d.round).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert!(cluster.dropped_deliveries(5) >= 3, "5 rounds - cap 2 dropped");
        // The capped server still serves its newest buffered rounds.
        let d = cluster.recv_delivery(5, Duration::from_millis(50)).unwrap();
        assert_eq!(d.round, 3);
    }

    #[test]
    fn stream_error_surfaces_abnormal_end() {
        let mut cluster = Cluster::sim(gs_digraph(8, 3).unwrap());
        cluster.transport_mut().shutdown().unwrap();
        let drained: Vec<Delivery> = cluster.deliveries(0, Duration::from_millis(5)).collect();
        assert!(drained.is_empty());
        match cluster.take_stream_error() {
            Some(ClusterError::ShutDown) => {}
            other => panic!("expected ShutDown stream error, got {other:?}"),
        }
        // Taken once: subsequent reads see nothing.
        assert!(cluster.take_stream_error().is_none());
    }

    #[test]
    fn parked_consumer_never_sleeps_through_its_wakeup() {
        // A receive that waited out its whole timeout, or slept past the
        // round's arrival, would blow the 250 ms budget per call (the
        // reactor's idle poll) by orders of magnitude.
        let mut cluster = Cluster::tcp(complete_digraph(4)).unwrap();
        cluster.run_round(&payloads(4), TIMEOUT).unwrap(); // connections up
        for round in 1..=20u64 {
            for id in 0..4 {
                cluster.submit(id, Bytes::from(format!("{id}/{round}"))).unwrap();
            }
            for _ in 0..4 {
                let started = std::time::Instant::now();
                let (_, delivery) = cluster.next_delivery(Duration::from_secs(30)).unwrap();
                let waited = started.elapsed();
                assert_eq!(delivery.round, round);
                assert!(waited < Duration::from_millis(250), "round {round} took {waited:?}");
            }
        }
        cluster.shutdown().unwrap();
    }

    #[test]
    fn huge_timeout_returns_a_pending_delivery() {
        let mut cluster = Cluster::tcp(complete_digraph(4)).unwrap();
        for id in 0..4 {
            cluster.submit(id, Bytes::from_static(b"forever")).unwrap();
        }
        let (first, delivery) = cluster.next_delivery(Duration::MAX).unwrap();
        assert_eq!(delivery.round, 0);
        let delivery = cluster.recv_delivery((first + 1) % 4, Duration::MAX).unwrap();
        assert_eq!(delivery.round, 0);
        cluster.shutdown().unwrap();
    }

    #[test]
    fn tcp_crash_through_facade() {
        let mut cluster = Cluster::tcp(gs_digraph(8, 3).unwrap()).unwrap();
        let r0 = cluster.run_round(&payloads(8), TIMEOUT).unwrap();
        assert_eq!(r0.len(), 8);
        cluster.crash(6).unwrap();
        assert!(!cluster.is_live(6));
        let r1 = cluster.run_round(&payloads(8), TIMEOUT).unwrap();
        assert_eq!(r1.len(), 7);
        let reference = &r1[&0];
        for (id, delivery) in &r1 {
            assert!(!delivery.origins().contains(&6), "dead origin at {id}");
            assert_eq!(&delivery.messages, &reference.messages);
        }
        cluster.shutdown().unwrap();
    }
}
