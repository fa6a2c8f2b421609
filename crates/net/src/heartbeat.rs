//! UDP heartbeats and the timeout failure detector (§3.2).
//!
//! "The failure detector is implemented over unreliable datagrams" (§5).
//! Every server sends a heartbeat datagram to each overlay successor with
//! period `Δ_hb`; the node's reactor ([`crate::event_loop`]) tracks the
//! last heartbeat heard from each overlay predecessor and raises a
//! suspicion after `Δ_to` of silence — completeness by construction,
//! accuracy probabilistic (the model in [`allconcur_core::fd`]). This
//! module holds the datagram format and the two pieces of detector
//! state the reactor owns; emission and the expiry sweep are timer
//! entries on the loop.

use allconcur_core::ServerId;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Heartbeat datagram: magic + sender id.
const MAGIC: [u8; 4] = *b"ACHB";

/// Wire size of one heartbeat datagram.
pub const HEARTBEAT_LEN: usize = 8;

/// Encode the heartbeat datagram `id` sends to its successors.
pub fn encode_heartbeat(id: ServerId) -> [u8; HEARTBEAT_LEN] {
    let mut buf = [0u8; HEARTBEAT_LEN];
    buf[..4].copy_from_slice(&MAGIC);
    buf[4..].copy_from_slice(&id.to_le_bytes());
    buf
}

/// Decode a received datagram; `None` for anything malformed (wrong
/// length or magic), which callers drop silently — heartbeats are
/// unreliable by design.
pub fn decode_heartbeat(buf: &[u8]) -> Option<ServerId> {
    if buf.len() != HEARTBEAT_LEN || buf[..4] != MAGIC {
        return None;
    }
    Some(ServerId::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]))
}

/// Failure-detector timing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FdParams {
    /// Heartbeat period `Δ_hb`.
    pub heartbeat_period: Duration,
    /// Suspicion timeout `Δ_to`.
    pub timeout: Duration,
}

impl FdParams {
    /// The paper's Fig. 7 setting: `Δ_hb = 10 ms`, `Δ_to = 100 ms`.
    pub fn paper_default() -> Self {
        FdParams {
            heartbeat_period: Duration::from_millis(10),
            timeout: Duration::from_millis(100),
        }
    }

    /// A profile for loopback tests. The timeout is deliberately lax:
    /// on shared CI machines, scheduler hiccups of tens of milliseconds
    /// are routine and a tight `Δ_to` produces spurious suspicions of
    /// live servers. Loopback crash detection does not pay for the lax
    /// timeout because a dead peer's closed socket triggers the
    /// disconnect-based suspicion path after one `link_grace` (well
    /// under this `Δ_to` — see `RuntimeOptions::link_grace`).
    pub fn fast() -> Self {
        FdParams {
            heartbeat_period: Duration::from_millis(10),
            timeout: Duration::from_millis(1500),
        }
    }
}

/// Last-heard table of one node's overlay predecessors. Owned by the
/// node's reactor — the only thread that touches it — so every method
/// takes the loop iteration's timestamp instead of reading the clock.
#[derive(Debug, Default)]
pub struct HeartbeatTable {
    last_heard: HashMap<ServerId, Instant>,
}

impl HeartbeatTable {
    /// Fresh table; predecessors are considered "heard" at `now` so
    /// startup does not generate spurious suspicions.
    pub fn new(predecessors: &[ServerId], now: Instant) -> Self {
        HeartbeatTable { last_heard: predecessors.iter().map(|&p| (p, now)).collect() }
    }

    /// Record a heartbeat from `from`, heard at `now`.
    pub fn record(&mut self, from: ServerId, now: Instant) {
        if let Some(slot) = self.last_heard.get_mut(&from) {
            *slot = now;
        }
    }

    /// Predecessors silent for longer than `timeout` as of `now`. Each
    /// is reported once: expired entries are removed so the sweep does
    /// not re-fire.
    pub fn expired(&mut self, now: Instant, timeout: Duration) -> Vec<ServerId> {
        let dead: Vec<ServerId> = self
            .last_heard
            .iter()
            .filter(|(_, &t)| now.duration_since(t) > timeout)
            .map(|(&p, _)| p)
            .collect();
        for p in &dead {
            self.last_heard.remove(p);
        }
        dead
    }
}

/// Adaptive timeout — the §3.3.2 recipe for an eventually-perfect FD:
/// "When a server falsely suspects another server to have failed, it
/// increments the timeout period `Δ_to`; thus, eventually, non-faulty
/// servers are no longer suspected."
///
/// The runtime reports evidence of a false suspicion (a message arriving
/// from a server we suspected) via [`AdaptiveTimeout::report_false_suspicion`];
/// each report grows the timeout multiplicatively up to a cap.
#[derive(Debug)]
pub struct AdaptiveTimeout {
    current: Duration,
    growth_num: u32,
    growth_den: u32,
    max: Duration,
}

impl AdaptiveTimeout {
    /// Start at `initial`, growing by 3/2 per false suspicion, capped at
    /// `max`.
    pub fn new(initial: Duration, max: Duration) -> Self {
        assert!(initial <= max, "initial timeout above cap");
        AdaptiveTimeout { current: initial, growth_num: 3, growth_den: 2, max }
    }

    /// The timeout to use for the next suspicion decision.
    pub fn current(&self) -> Duration {
        self.current
    }

    /// Evidence of a false suspicion: grow the timeout. Returns the new
    /// value.
    pub fn report_false_suspicion(&mut self) -> Duration {
        let grown = self
            .current
            .checked_mul(self.growth_num)
            .map(|d| d / self.growth_den)
            .unwrap_or(self.max);
        self.current = grown.min(self.max);
        self.current
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn table_records_and_expires() {
        let t0 = Instant::now();
        let mut table = HeartbeatTable::new(&[1, 2], t0);
        table.record(1, t0);
        table.record(2, t0 + 30 * MS);
        let dead = table.expired(t0 + 30 * MS, 20 * MS);
        assert_eq!(dead, vec![1]);
        // Reported once only.
        assert!(table.expired(t0 + 30 * MS, 20 * MS).is_empty());
    }

    #[test]
    fn unknown_sender_ignored() {
        let t0 = Instant::now();
        let mut table = HeartbeatTable::new(&[1], t0);
        table.record(99, t0 + 5 * MS); // not a predecessor: no panic, no entry
        assert_eq!(table.expired(t0 + 5 * MS, MS), vec![1]);
    }

    #[test]
    fn grows_multiplicatively_to_cap() {
        let mut at = AdaptiveTimeout::new(Duration::from_millis(100), Duration::from_secs(2));
        assert_eq!(at.current(), Duration::from_millis(100));
        assert_eq!(at.report_false_suspicion(), Duration::from_millis(150));
        assert_eq!(at.report_false_suspicion(), Duration::from_millis(225));
        for _ in 0..20 {
            at.report_false_suspicion();
        }
        assert_eq!(at.current(), Duration::from_secs(2), "capped");
    }

    #[test]
    #[should_panic(expected = "initial timeout above cap")]
    fn rejects_inverted_bounds() {
        AdaptiveTimeout::new(Duration::from_secs(5), Duration::from_secs(1));
    }

    #[test]
    fn eventually_exceeds_any_bounded_delay() {
        // The ◇P property: for any (unknown) true message-delay bound,
        // enough false suspicions push Δ_to above it permanently.
        let mut at = AdaptiveTimeout::new(Duration::from_millis(10), Duration::from_secs(3600));
        let true_delay_bound = Duration::from_millis(750);
        let mut reports = 0;
        while at.current() <= true_delay_bound {
            at.report_false_suspicion();
            reports += 1;
            assert!(reports < 100, "must converge quickly");
        }
        assert!(at.current() > true_delay_bound);
    }
}
