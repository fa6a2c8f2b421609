//! Unreliable agreement — the `MPI_Allgather` stand-in (§5, Fig. 10a).
//!
//! The paper measures AllConcur's fault-tolerance overhead against an
//! MPI_Allgather dissemination: every server contributes one message and
//! ends up with all `n`, with **no** redundancy and no failure handling.
//! Open MPI picks among several allgather algorithms by message size; the
//! two that matter at the paper's sizes are both here:
//!
//! * **recursive doubling** (power-of-two `n`): `log₂ n` steps, step `k`
//!   exchanging `2^k` blocks pairwise;
//! * **ring**: `n − 1` steps, each server forwarding one block to its
//!   neighbour per step — bandwidth-optimal for large messages.
//!
//! Both are simulated over the same LogGP parameters as AllConcur, and
//! also implemented as in-memory block exchanges so tests can verify the
//! communication schedule actually gathers everything.

use allconcur_sim::network::NetworkModel;
use allconcur_sim::time::SimTime;

/// Which collective schedule to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllgatherAlgorithm {
    /// `log₂ n` pairwise exchange steps; requires power-of-two `n`.
    RecursiveDoubling,
    /// `n − 1` neighbour-forwarding steps.
    Ring,
}

/// Outcome of one allgather round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllgatherOutcome {
    /// Completion time of the collective.
    pub round_time: SimTime,
    /// Messages on the wire.
    pub messages_sent: u64,
    /// Wire bytes.
    pub bytes_sent: u64,
}

/// Simulate one allgather of `block_bytes` per server across `n` servers
/// at ideal efficiency (`efficiency = 1.0`).
///
/// Per step, every server sends and receives concurrently (full-duplex
/// NICs); a step costs `o + s·G` (occupancy) `+ L + o` and all servers
/// advance in lockstep — the barrier-synchronous behaviour of a blocking
/// MPI collective.
pub fn simulate_allgather(
    n: usize,
    block_bytes: usize,
    algo: AllgatherAlgorithm,
    model: &NetworkModel,
) -> AllgatherOutcome {
    simulate_allgather_eff(n, block_bytes, algo, model, 1.0)
}

/// [`simulate_allgather`] with an *efficiency* factor in `(0, 1]`: the
/// fraction of the ideal step rate a real MPI implementation sustains.
/// Blocking collectives over TCP lose time to step synchronisation
/// (slowest rank gates every step), protocol switch-over, and copy
/// overhead; Open MPI over IPoIB measures around 45% of line rate at the
/// paper's scale, which reproduces Fig. 10a's ≈12 Gbps peak.
pub fn simulate_allgather_eff(
    n: usize,
    block_bytes: usize,
    algo: AllgatherAlgorithm,
    model: &NetworkModel,
    efficiency: f64,
) -> AllgatherOutcome {
    assert!(n >= 1);
    assert!(efficiency > 0.0 && efficiency <= 1.0, "efficiency in (0, 1]");
    let mut ideal = SimTime::ZERO;
    let mut messages = 0u64;
    let mut bytes = 0u64;
    match algo {
        AllgatherAlgorithm::RecursiveDoubling => {
            assert!(n.is_power_of_two(), "recursive doubling needs power-of-two n");
            let steps = n.trailing_zeros();
            for k in 0..steps {
                let blocks = 1usize << k;
                let payload = blocks * block_bytes;
                // Pairwise exchange: send own half, receive peer's half.
                ideal += model.occupancy(payload) + model.latency + model.overhead;
                messages += n as u64;
                bytes += (n * payload) as u64;
            }
        }
        AllgatherAlgorithm::Ring => {
            for _ in 0..n.saturating_sub(1) {
                ideal += model.occupancy(block_bytes) + model.latency + model.overhead;
                messages += n as u64;
                bytes += (n * block_bytes) as u64;
            }
        }
    }
    let time = SimTime::from_ns((ideal.as_ns() as f64 / efficiency).round() as u64);
    AllgatherOutcome { round_time: time, messages_sent: messages, bytes_sent: bytes }
}

/// In-memory execution of the allgather *schedule*: verifies that the
/// simulated communication pattern really distributes every block to
/// every server (the correctness side of the baseline).
pub fn execute_allgather<T: Clone>(blocks: &[T], algo: AllgatherAlgorithm) -> Vec<Vec<Option<T>>> {
    let n = blocks.len();
    let mut state: Vec<Vec<Option<T>>> = (0..n)
        .map(|i| {
            let mut v = vec![None; n];
            v[i] = Some(blocks[i].clone());
            v
        })
        .collect();
    match algo {
        AllgatherAlgorithm::RecursiveDoubling => {
            assert!(n.is_power_of_two());
            let mut dist = 1usize;
            while dist < n {
                let snapshot = state.clone();
                for (i, row) in state.iter_mut().enumerate() {
                    let peer = i ^ dist;
                    for (slot, val) in row.iter_mut().zip(&snapshot[peer]) {
                        if slot.is_none() {
                            *slot = val.clone();
                        }
                    }
                }
                dist <<= 1;
            }
        }
        AllgatherAlgorithm::Ring => {
            // Step s: server i forwards block (i − s mod n) to i+1.
            for s in 0..n.saturating_sub(1) {
                let snapshot = state.clone();
                for (i, row) in state.iter_mut().enumerate() {
                    let from = (i + n - 1) % n;
                    let block = (from + n - s) % n;
                    if row[block].is_none() {
                        row[block] = snapshot[from][block].clone();
                    }
                }
            }
        }
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recursive_doubling_gathers_all() {
        let blocks: Vec<u32> = (0..16).collect();
        let state = execute_allgather(&blocks, AllgatherAlgorithm::RecursiveDoubling);
        for (i, row) in state.iter().enumerate() {
            for (j, v) in row.iter().enumerate() {
                assert_eq!(*v, Some(j as u32), "server {i} missing block {j}");
            }
        }
    }

    #[test]
    fn ring_gathers_all() {
        for n in [1usize, 2, 5, 9] {
            let blocks: Vec<u32> = (0..n as u32).collect();
            let state = execute_allgather(&blocks, AllgatherAlgorithm::Ring);
            for (i, row) in state.iter().enumerate() {
                for (j, v) in row.iter().enumerate() {
                    assert_eq!(*v, Some(j as u32), "n={n} server {i} missing block {j}");
                }
            }
        }
    }

    #[test]
    fn ring_time_linear_in_n() {
        let m = NetworkModel::tcp_cluster();
        let t8 = simulate_allgather(8, 1024, AllgatherAlgorithm::Ring, &m).round_time;
        let t32 = simulate_allgather(32, 1024, AllgatherAlgorithm::Ring, &m).round_time;
        let ratio = t32.as_ns() as f64 / t8.as_ns() as f64;
        assert!(ratio > 4.0 && ratio < 4.6, "ratio {ratio} should be ≈ 31/7");
    }

    #[test]
    fn recursive_doubling_log_steps_cheaper_for_small_messages() {
        let m = NetworkModel::tcp_cluster();
        let rd = simulate_allgather(64, 8, AllgatherAlgorithm::RecursiveDoubling, &m).round_time;
        let ring = simulate_allgather(64, 8, AllgatherAlgorithm::Ring, &m).round_time;
        assert!(rd < ring, "rd {rd} vs ring {ring}: latency-bound regime favours log steps");
    }

    #[test]
    fn bytes_equal_across_algorithms() {
        // Both move (n−1)·B per server; totals match.
        let m = NetworkModel::tcp_cluster();
        let rd = simulate_allgather(16, 512, AllgatherAlgorithm::RecursiveDoubling, &m);
        let ring = simulate_allgather(16, 512, AllgatherAlgorithm::Ring, &m);
        assert_eq!(rd.bytes_sent, ring.bytes_sent);
        assert_eq!(rd.bytes_sent, 16 * 15 * 512);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn recursive_doubling_rejects_odd_n() {
        simulate_allgather(
            6,
            8,
            AllgatherAlgorithm::RecursiveDoubling,
            &NetworkModel::tcp_cluster(),
        );
    }

    #[test]
    fn single_server_trivial() {
        let m = NetworkModel::tcp_cluster();
        let out = simulate_allgather(1, 64, AllgatherAlgorithm::Ring, &m);
        assert_eq!(out.round_time, SimTime::ZERO);
        assert_eq!(out.messages_sent, 0);
    }
}
