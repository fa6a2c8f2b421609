//! Leader-based atomic broadcast — the Libpaxos stand-in (§4.5, Fig. 1a,
//! Fig. 10c).
//!
//! Deployment shape, straight from §4.5: agreement among `n` servers goes
//! through a leader-based replication group whose size depends only on
//! the group's *own* reliability (5 members for 6-nines — §5), not on
//! `n`. One update flows through three stages (Fig. 1a):
//!
//! 1. **send** — each server sends its update to the leader;
//! 2. **replicate** — the leader runs a Paxos phase-2 exchange: accept
//!    messages to the 4 followers, acks back, majority (3/5) commits;
//! 3. **disseminate** — the leader sends every committed update to every
//!    server.
//!
//! The leader therefore does `O(n²)` work per round against AllConcur's
//! `O(n·d)` per server, and the leader's NIC serialises all of it — the
//! bottleneck the paper's 17× headline comes from.
//!
//! Two implementations live here:
//!
//! * [`LeaderCluster`] — event-driven simulation over the same
//!   [`allconcur_sim::network`] primitives AllConcur uses, with a
//!   configurable per-message software overhead at the group members
//!   (Libpaxos processes every value through a full protocol stack;
//!   `software_overhead` defaults to a Libpaxos-class 35 µs/message);
//! * [`InMemoryLeader`] — a zero-latency functional model used by the
//!   correctness tests to check ordering semantics (total order follows
//!   from the leader sequencing updates).

use allconcur_core::ServerId;
use allconcur_sim::network::{NetworkModel, NicState};
use allconcur_sim::time::SimTime;
use bytes::Bytes;

/// Paxos-style replication group configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeaderConfig {
    /// Servers reaching agreement (Paxos "clients" in §4.5).
    pub n: usize,
    /// Replication group size (5 in the paper's evaluation).
    pub group_size: usize,
    /// Per-message software overhead at group members, modelling the
    /// Paxos implementation's per-value protocol cost on top of the raw
    /// network `o`.
    pub software_overhead: SimTime,
    /// Per-byte software cost (ns/B) at group members: Libpaxos copies
    /// every value through its single-threaded protocol stack, which
    /// processes on the order of 1 GB/s. Calibrated so the n = 8 peak
    /// lands on Fig. 10c's ≈0.45 Gbps.
    pub software_gap_per_byte_ns: f64,
}

impl LeaderConfig {
    /// The paper's setting: group of five, Libpaxos-class software stack.
    pub fn paper_default(n: usize) -> Self {
        LeaderConfig {
            n,
            group_size: 5,
            software_overhead: SimTime::from_us(35),
            software_gap_per_byte_ns: 1.0,
        }
    }
}

/// Outcome of one leader-based agreement round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeaderRoundOutcome {
    /// Time from the servers' sends to the last server holding all
    /// updates.
    pub round_time: SimTime,
    /// Messages placed on the wire.
    pub messages_sent: u64,
    /// Wire bytes.
    pub bytes_sent: u64,
}

/// Event-driven simulation of the leader-based deployment over LogGP.
///
/// The three stages pipeline at the leader's NIC exactly as they would in
/// a real single-leader system: receives serialise, replication
/// round-trips overlap with further receives, dissemination serialises
/// on the send side.
#[derive(Debug, Clone)]
pub struct LeaderCluster {
    cfg: LeaderConfig,
    model: NetworkModel,
    clock: SimTime,
}

impl LeaderCluster {
    /// New cluster over the given network model.
    pub fn new(cfg: LeaderConfig, model: NetworkModel) -> Self {
        assert!(cfg.n >= 1);
        assert!(cfg.group_size >= 1, "need at least a leader");
        LeaderCluster { cfg, model, clock: SimTime::ZERO }
    }

    /// Current simulated clock (advances across rounds).
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// Run one round in which each of the `n` servers contributes one
    /// `batch_bytes`-byte update.
    ///
    /// The stages are simulated with explicit NIC serialisation:
    ///
    /// * `n` updates arrive at the leader (recv side serialises at
    ///   `o + s·G` each, plus the software overhead per value);
    /// * for each update, the leader sends `group − 1` accepts and
    ///   receives a majority of acks (pipelined: the leader keeps
    ///   receiving while accepts of earlier values are in flight);
    /// * each committed update is sent to all `n` servers (send side
    ///   serialises; `n·n` messages total).
    pub fn run_round(&mut self, batch_bytes: usize) -> LeaderRoundOutcome {
        let LeaderConfig { n, group_size, software_overhead, software_gap_per_byte_ns } = self.cfg;
        let followers = group_size - 1;
        let majority_acks = group_size / 2; // leader + these acks = majority
        let start = self.clock;

        // Group members pay the protocol stack's per-byte cost on top of
        // the wire gap: their NICs are modelled with the inflated gap.
        let sw_model =
            self.model.with_gap_per_byte_ns(self.model.gap_per_byte_ns + software_gap_per_byte_ns);
        let mut leader_nic = NicState::default();
        let mut follower_nics = vec![NicState::default(); followers];
        let mut messages = 0u64;
        let mut bytes = 0u64;

        // Stage 1: n servers send their update to the leader. Departures
        // are parallel across servers (each has its own NIC), so arrivals
        // are simultaneous up to per-server o; the leader's receive side
        // is the serialisation point.
        let mut commit_times = Vec::with_capacity(n);
        for _ in 0..n {
            let arrival = start + self.model.occupancy(batch_bytes) + self.model.latency;
            let recvd =
                leader_nic.schedule_recv(arrival, batch_bytes, &sw_model) + software_overhead;
            messages += 1;
            bytes += batch_bytes as u64;

            // Stage 2: replication (Paxos phase 2) for this value.
            let mut ack_times = Vec::with_capacity(followers);
            for fnic in follower_nics.iter_mut() {
                let depart = leader_nic.schedule_send(recvd, batch_bytes, &sw_model);
                let f_recv =
                    fnic.schedule_recv(depart + self.model.latency, batch_bytes, &sw_model)
                        + software_overhead;
                // Ack (tiny message) back to the leader.
                let ack_arrival = f_recv + self.model.occupancy(16) + self.model.latency;
                let acked = leader_nic.schedule_recv(ack_arrival, 16, &sw_model);
                ack_times.push(acked);
                messages += 2;
                bytes += batch_bytes as u64 + 16;
            }
            ack_times.sort_unstable();
            let committed =
                if majority_acks == 0 { recvd } else { ack_times[majority_acks - 1].max(recvd) };
            commit_times.push(committed);
        }

        // Stage 3: dissemination — every committed update to every
        // server, serialised at the leader's send NIC.
        let mut last_delivery = start;
        for &commit in &commit_times {
            for _ in 0..n {
                let depart =
                    leader_nic.schedule_send(commit + software_overhead, batch_bytes, &sw_model);
                let delivered = depart + self.model.latency + self.model.occupancy(batch_bytes);
                last_delivery = last_delivery.max(delivered);
                messages += 1;
                bytes += batch_bytes as u64;
            }
        }

        self.clock = last_delivery;
        LeaderRoundOutcome {
            round_time: last_delivery - start,
            messages_sent: messages,
            bytes_sent: bytes,
        }
    }

    /// §4.5's failure analysis: cost of a leader failure = detection +
    /// election among the group + `n` reconnections, serialised at the
    /// new leader.
    pub fn leader_failover_time(&self, fd_timeout: SimTime) -> SimTime {
        let election = self.model.message_time() + self.model.message_time(); // one round-trip in the group
        let reconnect_each = self.model.message_time() + self.model.overhead;
        let reconnects = SimTime::from_ns(reconnect_each.as_ns() * self.cfg.n as u64);
        fd_timeout + election + reconnects
    }
}

/// Zero-latency functional model: the leader sequences updates in arrival
/// order; everyone delivers the same sequence. Used to pin down the
/// ordering semantics the simulation abstracts away.
#[derive(Debug, Default)]
pub struct InMemoryLeader {
    log: Vec<(ServerId, Bytes)>,
}

impl InMemoryLeader {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// A server submits an update; the leader assigns the next slot.
    pub fn submit(&mut self, from: ServerId, update: Bytes) -> usize {
        self.log.push((from, update));
        self.log.len() - 1
    }

    /// What every server delivers: the leader's log, in slot order.
    pub fn delivery_sequence(&self) -> &[(ServerId, Bytes)] {
        &self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> NetworkModel {
        NetworkModel::tcp_cluster()
    }

    #[test]
    fn round_produces_n_squared_dissemination() {
        let n = 8;
        let mut c = LeaderCluster::new(LeaderConfig::paper_default(n), model());
        let out = c.run_round(1024);
        // n sends in + n·(group−1) accepts + acks + n² disseminations.
        let expected = n as u64 + (n * 4 * 2) as u64 + (n * n) as u64;
        assert_eq!(out.messages_sent, expected);
        assert!(out.round_time > SimTime::ZERO);
    }

    #[test]
    fn leader_work_scales_quadratically() {
        let mut c8 = LeaderCluster::new(LeaderConfig::paper_default(8), model());
        let mut c32 = LeaderCluster::new(LeaderConfig::paper_default(32), model());
        let t8 = c8.run_round(4096).round_time;
        let t32 = c32.run_round(4096).round_time;
        // 4× the servers → ≳4× the round time (dissemination n² vs n,
        // but per-round data also grows n, so time per agreed byte grows).
        assert!(t32.as_ns() > 3 * t8.as_ns(), "t8={t8} t32={t32}");
    }

    fn raw_config(n: usize, group_size: usize, software_overhead: SimTime) -> LeaderConfig {
        LeaderConfig { n, group_size, software_overhead, software_gap_per_byte_ns: 0.0 }
    }

    #[test]
    fn group_size_one_is_unreplicated_sequencer() {
        let cfg = raw_config(4, 1, SimTime::ZERO);
        let mut c = LeaderCluster::new(cfg, model());
        let out = c.run_round(64);
        assert_eq!(out.messages_sent, 4 + 16);
    }

    #[test]
    fn software_overhead_dominates_when_large() {
        let fast = raw_config(8, 5, SimTime::ZERO);
        let slow = raw_config(8, 5, SimTime::from_ms(1));
        let t_fast = LeaderCluster::new(fast, model()).run_round(64).round_time;
        let t_slow = LeaderCluster::new(slow, model()).run_round(64).round_time;
        assert!(t_slow.as_ns() > t_fast.as_ns() + 8_000_000, "per-value ms must show up");
    }

    #[test]
    fn software_byte_cost_throttles_large_values() {
        let lean = raw_config(8, 5, SimTime::ZERO);
        let heavy = LeaderConfig { software_gap_per_byte_ns: 2.0, ..lean };
        let t_lean = LeaderCluster::new(lean, model()).run_round(1 << 18).round_time;
        let t_heavy = LeaderCluster::new(heavy, model()).run_round(1 << 18).round_time;
        assert!(
            t_heavy.as_ns() > 2 * t_lean.as_ns(),
            "per-byte stack cost must dominate at 256 KiB values: {t_lean} vs {t_heavy}"
        );
    }

    #[test]
    fn failover_cost_scales_with_n() {
        let c8 = LeaderCluster::new(LeaderConfig::paper_default(8), model());
        let c512 = LeaderCluster::new(LeaderConfig::paper_default(512), model());
        let to = SimTime::from_ms(100);
        assert!(c512.leader_failover_time(to) > c8.leader_failover_time(to));
        assert!(c8.leader_failover_time(to) > to);
    }

    #[test]
    fn in_memory_leader_total_order() {
        let mut l = InMemoryLeader::new();
        let s0 = l.submit(3, Bytes::from_static(b"c"));
        let s1 = l.submit(1, Bytes::from_static(b"a"));
        let s2 = l.submit(2, Bytes::from_static(b"b"));
        assert_eq!((s0, s1, s2), (0, 1, 2));
        let seq = l.delivery_sequence();
        assert_eq!(seq.len(), 3);
        assert_eq!(seq[0].0, 3);
        assert_eq!(seq[1].0, 1);
        // Every "server" reads the same slice — total order is trivial
        // with a sequencer; the cost is the bottleneck, not the ordering.
    }

    #[test]
    fn clock_advances_across_rounds() {
        let mut c = LeaderCluster::new(LeaderConfig::paper_default(4), model());
        let t0 = c.clock();
        c.run_round(128);
        let t1 = c.clock();
        c.run_round(128);
        let t2 = c.clock();
        assert!(t0 < t1 && t1 < t2);
    }
}
