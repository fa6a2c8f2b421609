//! UDP heartbeats and the timeout failure detector (§3.2).
//!
//! "The failure detector is implemented over unreliable datagrams" (§5).
//! Every server sends a heartbeat datagram to each overlay successor with
//! period `Δ_hb`, and suspects an overlay predecessor after `Δ_to` of
//! silence (or a lost TCP connection not restored within `link_grace`) —
//! completeness by construction, accuracy probabilistic (the model in
//! [`allconcur_core::fd`]). This module holds the datagram format and
//! the [`Detector`] that makes that decision. It never reads the clock:
//! the node's reactor ([`crate::event_loop`]) passes in the iteration's
//! timestamp and wakes at [`Detector::next_deadline`].

use allconcur_core::ServerId;
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

/// How far the Detector trusts one predecessor. `Doubtful`: its last
/// inbound connection dropped, and it is suspected at `until` unless it
/// reconnects first. `Suspected` is absorbing: servers crash for good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Trust {
    Trusted,
    Doubtful { until: Instant },
    Suspected,
}

/// The Detector's view of one predecessor.
#[derive(Debug, Clone)]
struct Watch {
    id: ServerId,
    trust: Trust,
    /// Live inbound connections (a reconnect can overlap the old one).
    inbound: u32,
    last_heartbeat: Instant,
}

impl Watch {
    /// When this predecessor is suspected if nothing else is heard.
    fn deadline(&self, timeout: Duration) -> Option<Instant> {
        let silent = self.last_heartbeat.checked_add(timeout);
        match self.trust {
            Trust::Trusted => silent,
            Trust::Doubtful { until } => Some(silent.map_or(until, |s| s.min(until))),
            Trust::Suspected => None,
        }
    }
}

/// One node's failure detector: a `Trusted → Doubtful → Suspected`
/// machine per overlay predecessor, suspecting it on its own evidence
/// (`Δ_to` of heartbeat silence, or a disconnect grace that ran out),
/// and the node's single ◇P timeout. A predecessor reconnecting under
/// its grace is evidence of a false suspicion, so `Δ_to` grows by 3/2,
/// capped at 8× its initial value so dead peers are still caught
/// (§3.3.2).
#[derive(Debug, Clone)]
pub struct Detector {
    /// In predecessor order.
    watches: Vec<Watch>,
    /// The current `Δ_to`.
    timeout: Duration,
    max_timeout: Duration,
    grace: Duration,
}

impl Detector {
    /// Watch predecessors `preds`, all heard at `now` so startup raises no
    /// suspicion, with initial timeout `timeout` (`Δ_to`) and disconnect
    /// grace `grace`.
    pub fn new(preds: &[ServerId], timeout: Duration, grace: Duration, now: Instant) -> Self {
        let watches = preds
            .iter()
            .map(|&id| Watch { id, trust: Trust::Trusted, inbound: 0, last_heartbeat: now })
            .collect();
        let max_timeout = timeout.checked_mul(8).unwrap_or(timeout);
        Detector { watches, timeout, max_timeout, grace }
    }

    fn watch(&mut self, p: ServerId) -> Option<&mut Watch> {
        self.watches.iter_mut().find(|w| w.id == p)
    }

    /// Whether `p` is a predecessor — the only servers that connect in.
    pub fn monitors(&self, p: ServerId) -> bool {
        self.watches.iter().any(|w| w.id == p)
    }

    /// A heartbeat from `p` arrived at `now`.
    pub fn heartbeat(&mut self, p: ServerId, now: Instant) {
        if let Some(w) = self.watch(p) {
            w.last_heartbeat = now;
        }
    }

    /// An inbound connection from `p` completed its handshake. Returns
    /// whether it healed a pending grace (and so grew `Δ_to`).
    pub fn inbound_up(&mut self, p: ServerId) -> bool {
        let Some(w) = self.watch(p) else { return false };
        w.inbound += 1;
        if !matches!(w.trust, Trust::Doubtful { .. }) {
            return false;
        }
        w.trust = Trust::Trusted;
        let cap = self.max_timeout;
        self.timeout = self.timeout.checked_mul(3).map_or(cap, |d| d / 2).min(cap);
        true
    }

    /// An inbound connection from `p` closed at `now`. When it was the
    /// last one, `p` is suspected after the grace unless it reconnects.
    pub fn inbound_down(&mut self, p: ServerId, now: Instant) {
        let grace = self.grace;
        let Some(w) = self.watch(p) else { return };
        w.inbound = w.inbound.saturating_sub(1);
        if w.inbound == 0 && w.trust == Trust::Trusted {
            w.trust = Trust::Doubtful { until: now + grace };
        }
    }

    /// The application suspects `p`. Returns whether to pass that on:
    /// `p` is a predecessor not already suspected.
    pub fn injected(&mut self, p: ServerId) -> bool {
        let Some(w) = self.watch(p).filter(|w| w.trust != Trust::Suspected) else { return false };
        w.trust = Trust::Suspected;
        true
    }

    /// The earliest instant at which [`Detector::expired`] reports a
    /// predecessor; `None` while nothing is pending.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.watches.iter().filter_map(|w| w.deadline(self.timeout)).min()
    }

    /// The first predecessor, in predecessor order, whose deadline is
    /// at or before `now`, now suspected. Call until `None` to collect
    /// every suspicion due; each is reported once.
    pub fn expired(&mut self, now: Instant) -> Option<ServerId> {
        let timeout = self.timeout;
        let w = self.watches.iter_mut().find(|w| w.deadline(timeout).is_some_and(|d| d <= now))?;
        w.trust = Trust::Suspected;
        Some(w.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    /// One input to the Detector, at a time in ms after the row's start.
    enum Step {
        Heartbeat(ServerId, u64),
        /// `inbound_up`, and whether it healed a grace.
        Up(ServerId, bool),
        Down(ServerId, u64),
        /// `injected`, and whether it is passed on.
        Inject(ServerId, bool),
        /// This many disconnects at 0 ms, each healed by a reconnect.
        Flaps(ServerId, u32),
        /// Every predecessor `expired` reports at this time, in order.
        Expire(u64, &'static [ServerId]),
        /// `next_deadline`, in ms after the start.
        Deadline(Option<u64>),
        /// The current `Δ_to`.
        Timeout(Duration),
    }
    use Step::*;

    struct Row {
        name: &'static str,
        predecessors: &'static [ServerId],
        timeout: Duration,
        grace: Duration,
        steps: &'static [Step],
    }

    /// A Δ_to whose 8× cap would overflow `Duration`.
    const HUGE: Duration = Duration::from_secs(u64::MAX / 4);

    const ROWS: &[Row] = &[
        Row {
            name: "silence expires once",
            predecessors: &[1, 2],
            timeout: ms(20),
            grace: ms(400),
            steps: &[Heartbeat(1, 0), Heartbeat(2, 30), Expire(30, &[1]), Expire(30, &[])],
        },
        Row {
            name: "unknown sender is ignored",
            predecessors: &[1],
            timeout: ms(1),
            grace: ms(400),
            steps: &[
                Heartbeat(99, 5),
                Up(99, false),
                Down(99, 5),
                Inject(99, false),
                Deadline(Some(1)),
                Expire(5, &[1]),
            ],
        },
        Row {
            name: "heals grow Δ_to by 3/2 up to 8·Δ_to",
            predecessors: &[1],
            timeout: ms(100),
            grace: ms(400),
            steps: &[
                Flaps(1, 1),
                Timeout(ms(150)),
                Flaps(1, 1),
                Timeout(ms(225)),
                Flaps(1, 20),
                Timeout(ms(800)),
            ],
        },
        Row {
            name: "the cap never falls below Δ_to",
            predecessors: &[1],
            timeout: HUGE,
            grace: ms(400),
            steps: &[Flaps(1, 3), Timeout(HUGE), Down(1, 0), Deadline(Some(400))],
        },
        Row {
            name: "heals eventually exceed any delay bound below the cap",
            predecessors: &[1],
            timeout: ms(100),
            grace: ms(400),
            steps: &[
                Flaps(1, 5),
                Timeout(Duration::from_micros(759_375)),
                Expire(750, &[]),
                Expire(760, &[1]),
            ],
        },
        Row {
            name: "flap under grace: healed, no suspicion, Δ_to grows",
            predecessors: &[1],
            timeout: ms(100),
            grace: ms(400),
            steps: &[
                Up(1, false),
                Down(1, 10),
                Deadline(Some(100)),
                Heartbeat(1, 90),
                Deadline(Some(190)),
                Up(1, true),
                Timeout(ms(150)),
                Deadline(Some(240)),
                Expire(200, &[]),
            ],
        },
        Row {
            name: "silent but connected: suspected at Δ_to",
            predecessors: &[1],
            timeout: ms(100),
            grace: ms(400),
            steps: &[
                Up(1, false),
                Heartbeat(1, 0),
                Deadline(Some(100)),
                Expire(99, &[]),
                Expire(100, &[1]),
                Deadline(None),
            ],
        },
        Row {
            name: "over-grace disconnect: suspected once at the grace deadline",
            predecessors: &[1],
            timeout: ms(1500),
            grace: ms(400),
            steps: &[
                Up(1, false),
                Down(1, 100),
                Deadline(Some(500)),
                Expire(499, &[]),
                Expire(500, &[1]),
                Expire(2000, &[]),
                Deadline(None),
            ],
        },
        Row {
            name: "nothing after suspicion is reported again",
            predecessors: &[1],
            timeout: ms(100),
            grace: ms(400),
            steps: &[
                Expire(100, &[1]),
                Heartbeat(1, 150),
                Up(1, false),
                Down(1, 200),
                Up(1, false),
                Inject(1, false),
                Deadline(None),
                Expire(10_000, &[]),
                Timeout(ms(100)),
            ],
        },
        Row {
            name: "an injected suspicion is absorbing and reported nowhere",
            predecessors: &[1, 2],
            timeout: ms(100),
            grace: ms(400),
            steps: &[
                Inject(2, true),
                Inject(2, false),
                Heartbeat(1, 50),
                Deadline(Some(150)),
                Expire(1000, &[1]),
            ],
        },
        Row {
            name: "overlapping inbound connections: no grace while one is live",
            predecessors: &[1],
            timeout: ms(1500),
            grace: ms(400),
            steps: &[
                Up(1, false),
                Up(1, false),
                Down(1, 100),
                Deadline(Some(1500)),
                Expire(600, &[]),
                Down(1, 700),
                Deadline(Some(1100)),
            ],
        },
        Row {
            name: "two expiries in one pass come in predecessor order",
            predecessors: &[5, 2, 7],
            timeout: ms(100),
            grace: ms(400),
            steps: &[
                Heartbeat(5, 20),
                Heartbeat(7, 10),
                Heartbeat(2, 200),
                Deadline(Some(110)),
                Expire(150, &[5, 7]),
                Deadline(Some(300)),
            ],
        },
    ];

    fn drain(d: &mut Detector, now: Instant) -> Vec<ServerId> {
        std::iter::from_fn(|| d.expired(now)).collect()
    }

    #[test]
    fn detector_transitions() {
        let t0 = Instant::now();
        let at = |v: u64| t0 + ms(v);
        for row in ROWS {
            let name = row.name;
            let mut d = Detector::new(row.predecessors, row.timeout, row.grace, t0);
            for (i, step) in row.steps.iter().enumerate() {
                match *step {
                    Heartbeat(p, t) => d.heartbeat(p, at(t)),
                    Up(p, healed) => assert_eq!(d.inbound_up(p), healed, "{name}: step {i}"),
                    Down(p, t) => d.inbound_down(p, at(t)),
                    Inject(p, news) => assert_eq!(d.injected(p), news, "{name}: step {i}"),
                    Flaps(p, k) => {
                        for _ in 0..k {
                            d.inbound_down(p, t0);
                            assert!(d.inbound_up(p), "{name}: step {i}");
                        }
                    }
                    Expire(t, want) => assert_eq!(drain(&mut d, at(t)), want, "{name}: step {i}"),
                    Deadline(want) => {
                        assert_eq!(d.next_deadline(), want.map(at), "{name}: step {i}")
                    }
                    Timeout(want) => assert_eq!(d.timeout, want, "{name}: step {i}"),
                }
                // The reactor sleeps until `next_deadline`: waking there
                // must find a suspicion due, and not a moment earlier.
                if let Some(due) = d.next_deadline() {
                    let mut probe = d.clone();
                    if let Some(before) = due.checked_sub(Duration::from_nanos(1)) {
                        assert_eq!(probe.expired(before), None, "{name}: step {i}");
                    }
                    assert!(probe.expired(due).is_some(), "{name}: step {i}");
                }
            }
        }
    }
}
