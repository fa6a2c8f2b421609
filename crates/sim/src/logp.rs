//! Closed-form LogP performance models (§4.1–4.2).
//!
//! These analytic curves appear alongside the measured data in Fig. 6
//! ("Work (LogP)" and "Depth (LogP)") and in the §4.2.2 probabilistic
//! depth analysis. The simulator should track them — the paper uses the
//! agreement between model and measurement as evidence the implementation
//! behaves as designed, and so do we (see `tests/early_termination.rs`
//! and `tests/paper_claims.rs`).

use crate::network::NetworkModel;
use crate::time::SimTime;

/// §4.1: lower bound on round time due to *work*. Each server must
/// receive at least `n − 1` messages and forward them to `d` successors;
/// estimating each send/receive by the overhead `o` gives
/// `2(n − 1)·d·o`.
pub fn work_bound(n: usize, d: usize, model: &NetworkModel) -> SimTime {
    let events = 2 * (n.saturating_sub(1)) as u64 * d as u64;
    SimTime::from_ns(events * model.overhead.as_ns())
}

/// §4.2.1: the *depth* model. R-broadcast traverses `D` hops; each hop
/// costs `L + o_s + o` where `o_s = o + (d−1)/2·o` accounts for expected
/// send contention while fanning out to `d` successors. The empty
/// messages travelling back to the sender cost the same (receive-side
/// contention cancels out in expectation — Fig. 4), so the full
/// A-broadcast depth is `2·D` hops.
pub fn depth_bound(diameter: usize, d: usize, model: &NetworkModel) -> SimTime {
    let o = model.overhead.as_ns() as f64;
    let os = o + (d as f64 - 1.0) / 2.0 * o;
    let per_hop = model.latency.as_ns() as f64 + os + o;
    SimTime::from_ns((2.0 * diameter as f64 * per_hop).round() as u64)
}

/// One-way R-broadcast time `T_D(m) = (L + o_s + o)·D` (§4.2.1).
pub fn rbroadcast_time(diameter: usize, d: usize, model: &NetworkModel) -> SimTime {
    let o = model.overhead.as_ns() as f64;
    let os = o + (d as f64 - 1.0) / 2.0 * o;
    let per_hop = model.latency.as_ns() as f64 + os + o;
    SimTime::from_ns((diameter as f64 * per_hop).round() as u64)
}

/// The combined LogP estimate for a failure-free round: agreement cannot
/// beat either bound, so take the max.
pub fn round_estimate(n: usize, d: usize, diameter: usize, model: &NetworkModel) -> SimTime {
    work_bound(n, d, model).max(depth_bound(diameter, d, model))
}

/// §4.2.2: probability that AllConcur's depth `D` stays within the fault
/// diameter, `Pr[D ≤ D ≤ D_f] = e^{−n·d·o / MTTF}` — the chance that no
/// sender dies mid-fan-out during the round. `o` and MTTF in the same
/// unit.
pub fn prob_depth_within_fault_diameter(n: usize, d: usize, o_secs: f64, mttf_secs: f64) -> f64 {
    (-((n * d) as f64) * o_secs / mttf_secs).exp()
}

/// Probability that `rounds` consecutive rounds all stay within the fault
/// diameter (independent rounds).
pub fn prob_rounds_within_fault_diameter(
    n: usize,
    d: usize,
    o_secs: f64,
    mttf_secs: f64,
    rounds: u64,
) -> f64 {
    prob_depth_within_fault_diameter(n, d, o_secs, mttf_secs).powf(rounds as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_bound_formula() {
        let m = NetworkModel::tcp_cluster();
        // n=8, d=3: 2·7·3·1.8µs = 75.6µs.
        assert_eq!(work_bound(8, 3, &m), SimTime::from_ns(2 * 7 * 3 * 1_800));
    }

    #[test]
    fn depth_bound_formula() {
        let m = NetworkModel::tcp_cluster();
        // D=2, d=3: o_s = 1.8 + 1.8 = 3.6µs; per hop = 12 + 3.6 + 1.8 =
        // 17.4µs; ×2D = 69.6µs.
        assert_eq!(depth_bound(2, 3, &m), SimTime::from_ns(69_600));
        assert_eq!(rbroadcast_time(2, 3, &m), SimTime::from_ns(34_800));
    }

    #[test]
    fn work_dominates_at_scale() {
        // §5: "with increasing the system size, work becomes dominant".
        // On the TCP profile the latency term keeps depth dominant at
        // n = 6 (Fig 6b's crossover); by n = 90 work rules either way.
        let m = NetworkModel::tcp_cluster();
        let small = (work_bound(6, 3, &m), depth_bound(2, 3, &m));
        let large = (work_bound(90, 5, &m), depth_bound(3, 5, &m));
        assert!(small.0 < small.1, "at n=6 depth dominates: {small:?}");
        assert!(large.0 > large.1, "at n=90 work dominates: {large:?}");
    }

    #[test]
    fn paper_section_422_example() {
        // "a system of 256 servers connected via a digraph of degree 7
        // would finish 1 million AllConcur rounds with D ≤ D_f with a
        // probability larger than 99.99%" — MTTF ≈ 2 years, o = 1.8 µs.
        let mttf_secs = 2.0 * 365.0 * 24.0 * 3600.0;
        let p = prob_rounds_within_fault_diameter(256, 7, 1.8e-6, mttf_secs, 1_000_000);
        assert!(p > 0.9999, "p = {p}");
    }

    #[test]
    fn probability_decreases_with_scale() {
        let mttf = 2.0 * 365.0 * 24.0 * 3600.0;
        let p_small = prob_depth_within_fault_diameter(8, 3, 1.8e-6, mttf);
        let p_large = prob_depth_within_fault_diameter(1024, 11, 1.8e-6, mttf);
        assert!(p_small > p_large);
        assert!(p_large > 0.0 && p_small < 1.0);
    }

    #[test]
    fn round_estimate_is_max() {
        let m = NetworkModel::tcp_cluster();
        let est = round_estimate(8, 3, 2, &m);
        assert_eq!(est, work_bound(8, 3, &m).max(depth_bound(2, 3, &m)));
    }
}
