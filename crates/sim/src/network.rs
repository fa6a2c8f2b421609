//! The LogP/LogGP network model (§4; reference 17 in the paper).
//!
//! A message transmission between two servers is `T(msg) = L + 2o`:
//! the sender spends `o` handing the message to its NIC, the wire adds
//! `L`, the receiver spends `o` pulling it in. Both the send-side and the
//! receive-side `o` serialise per server, which is how the paper's
//! contention terms (`o_s = o + (d−1)/2·o` while fanning out to `d`
//! successors, and the round-robin 2o-per-predecessor receive pattern of
//! Fig. 4) arise *emergently* in the simulator rather than by assumption.
//!
//! For the throughput experiments (Fig. 10) messages grow to hundreds of
//! kilobytes, where plain LogP's short-message assumption breaks; the
//! model adds the LogGP long-message term: a per-byte gap `G` so that
//! occupying cost of an `s`-byte message is `o + s·G`.

use crate::time::SimTime;
use rand::Rng;

/// Random perturbation applied to the wire latency of each message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Jitter {
    /// Fully deterministic delays.
    None,
    /// Exponentially distributed extra latency with the given mean (ns).
    /// Models OS/network queueing noise; used by the FD-accuracy
    /// experiments.
    Exponential {
        /// Mean of the added delay, in nanoseconds.
        mean_ns: f64,
    },
    /// Uniform extra latency in `[0, max_ns]`.
    Uniform {
        /// Upper bound of the added delay, in nanoseconds.
        max_ns: u64,
    },
}

impl Jitter {
    /// Sample one latency perturbation.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> SimTime {
        match *self {
            Jitter::None => SimTime::ZERO,
            Jitter::Exponential { mean_ns } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                SimTime::from_ns((-mean_ns * u.ln()).round() as u64)
            }
            Jitter::Uniform { max_ns } => SimTime::from_ns(rng.gen_range(0..=max_ns)),
        }
    }
}

/// LogGP parameters of the simulated interconnect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// Wire latency `L`.
    pub latency: SimTime,
    /// Per-message CPU/NIC overhead `o`, paid once at the sender and once
    /// at the receiver.
    pub overhead: SimTime,
    /// Long-message per-byte gap `G`, in nanoseconds per byte
    /// (`0.0` recovers plain LogP). `1 / G` is the link bandwidth.
    pub gap_per_byte_ns: f64,
    /// Wire-latency jitter.
    pub jitter: Jitter,
}

impl NetworkModel {
    /// The paper's InfiniBand Verbs measurements on the IB-hsw system:
    /// `L = 1.25 µs`, `o = 0.38 µs` (Fig. 6 caption); `G` set to the
    /// 40 Gbps QDR line rate.
    pub fn ib_verbs() -> Self {
        NetworkModel {
            latency: SimTime::from_ns(1_250),
            overhead: SimTime::from_ns(380),
            gap_per_byte_ns: 0.2, // 40 Gbps = 5 GB/s = 0.2 ns/B
            jitter: Jitter::None,
        }
    }

    /// The paper's TCP (IP-over-InfiniBand) measurements on the IB-hsw
    /// system: `L = 12 µs`, `o = 1.8 µs`. The per-byte gap is calibrated
    /// so that AllConcur's peak agreement throughput at n = 8 lands on
    /// the paper's measured 8.6 Gbps (Fig. 10b), which implies ≈27 Gbps
    /// of effective IPoIB bandwidth.
    pub fn tcp_cluster() -> Self {
        NetworkModel {
            latency: SimTime::from_us(12),
            overhead: SimTime::from_ns(1_800),
            gap_per_byte_ns: 0.3, // ≈ 27 Gbps effective IPoIB bandwidth
            jitter: Jitter::None,
        }
    }

    /// Override the per-byte gap (bandwidth calibration knob).
    pub fn with_gap_per_byte_ns(mut self, g: f64) -> Self {
        self.gap_per_byte_ns = g;
        self
    }

    /// Override the jitter model.
    pub fn with_jitter(mut self, jitter: Jitter) -> Self {
        self.jitter = jitter;
        self
    }

    /// Occupancy of one `payload_len`-byte message at a NIC: `o + s·G`.
    pub fn occupancy(&self, payload_len: usize) -> SimTime {
        self.overhead + SimTime::from_ns((payload_len as f64 * self.gap_per_byte_ns).round() as u64)
    }

    /// The short-message point-to-point time `T(msg) = L + 2o` (§4.2).
    pub fn message_time(&self) -> SimTime {
        self.latency + self.overhead + self.overhead
    }
}

/// Per-server NIC state: serialises sends and receives at the LogGP
/// occupancy. One instance per simulated server.
#[derive(Debug, Clone, Default)]
pub struct NicState {
    /// Earliest instant the send side is free.
    pub send_free: SimTime,
    /// Earliest instant the receive side is free.
    pub recv_free: SimTime,
    /// Messages sent (departures) — §2.3-style partial-broadcast failure
    /// injection counts these.
    pub sends: u64,
    /// Bytes handed to the wire.
    pub bytes_sent: u64,
}

impl NicState {
    /// Schedule a send initiated at `now` of a `len`-byte message;
    /// returns the departure time (when the wire segment begins).
    pub fn schedule_send(&mut self, now: SimTime, len: usize, model: &NetworkModel) -> SimTime {
        let start = now.max(self.send_free);
        let depart = start + model.occupancy(len);
        self.send_free = depart;
        self.sends += 1;
        self.bytes_sent += len as u64;
        depart
    }

    /// Schedule the receive of a message whose last bit hits the NIC at
    /// `arrival`; returns when the protocol layer actually sees it.
    pub fn schedule_recv(&mut self, arrival: SimTime, len: usize, model: &NetworkModel) -> SimTime {
        let start = arrival.max(self.recv_free);
        let done = start + model.occupancy(len);
        self.recv_free = done;
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn message_time_is_l_plus_2o() {
        let m = NetworkModel::tcp_cluster();
        assert_eq!(m.message_time(), SimTime::from_ns(12_000 + 2 * 1_800));
    }

    #[test]
    fn occupancy_scales_with_size() {
        let m = NetworkModel::ib_verbs();
        assert_eq!(m.occupancy(0), m.overhead);
        let big = m.occupancy(1_000_000);
        assert_eq!(big, m.overhead + SimTime::from_ns(200_000));
    }

    #[test]
    fn sender_serialises_fanout() {
        // Fanning out d messages at the same instant departs them o apart
        // — the source of the o_s contention term (§4.2.1).
        let m = NetworkModel::tcp_cluster().with_gap_per_byte_ns(0.0);
        let mut nic = NicState::default();
        let t0 = SimTime::from_us(100);
        let d1 = nic.schedule_send(t0, 64, &m);
        let d2 = nic.schedule_send(t0, 64, &m);
        let d3 = nic.schedule_send(t0, 64, &m);
        assert_eq!(d1, t0 + m.overhead);
        assert_eq!(d2, d1 + m.overhead);
        assert_eq!(d3, d2 + m.overhead);
        assert_eq!(nic.sends, 3);
    }

    #[test]
    fn receiver_serialises_bursts() {
        let m = NetworkModel::tcp_cluster().with_gap_per_byte_ns(0.0);
        let mut nic = NicState::default();
        let t = SimTime::from_us(50);
        let r1 = nic.schedule_recv(t, 64, &m);
        let r2 = nic.schedule_recv(t, 64, &m);
        assert_eq!(r1, t + m.overhead);
        assert_eq!(r2, r1 + m.overhead);
    }

    #[test]
    fn idle_nic_resets_to_now() {
        let m = NetworkModel::ib_verbs();
        let mut nic = NicState::default();
        nic.schedule_send(SimTime::from_us(1), 8, &m);
        // Long idle gap: next send starts at `now`, not at send_free.
        let depart = nic.schedule_send(SimTime::from_ms(5), 8, &m);
        assert_eq!(depart, SimTime::from_ms(5) + m.occupancy(8));
    }

    #[test]
    fn jitter_none_is_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(Jitter::None.sample(&mut rng), SimTime::ZERO);
    }

    #[test]
    fn jitter_exponential_positive_and_varied() {
        let mut rng = StdRng::seed_from_u64(7);
        let j = Jitter::Exponential { mean_ns: 1000.0 };
        let samples: Vec<u64> = (0..100).map(|_| j.sample(&mut rng).as_ns()).collect();
        let mean = samples.iter().sum::<u64>() as f64 / 100.0;
        assert!(mean > 300.0 && mean < 3000.0, "mean {mean}");
        assert!(samples.iter().any(|&s| s != samples[0]));
    }

    #[test]
    fn jitter_uniform_bounded() {
        let mut rng = StdRng::seed_from_u64(9);
        let j = Jitter::Uniform { max_ns: 500 };
        for _ in 0..100 {
            assert!(j.sample(&mut rng).as_ns() <= 500);
        }
    }
}
