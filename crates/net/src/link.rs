//! Per-link transport resilience primitives.
//!
//! AllConcur's failure model (§3, §4.2.2) distinguishes *process*
//! failures — the ◇P detector's job — from *transient link* faults,
//! which should be healed below the protocol so they never surface as
//! suspicions. This module holds the pieces the TCP runtime composes
//! into its per-link state machine (Connected → Degraded → Down):
//!
//! * [`BackoffPolicy`] — capped exponential backoff with deterministic
//!   seeded jitter, shared by initial connects and reconnects;
//! * [`FrameQueue`] — the bounded per-link outbound buffer with
//!   high/low watermark hysteresis that keeps Degraded memory-safe;
//! * [`WriteBuf`] — the Connected-side outbound buffer of the event
//!   loop: refcounted frames coalesced into one vectored write
//!   (`writev`) per ready link, resumable at any byte offset after a
//!   partial write or `EAGAIN`;
//! * [`LinkStats`] — atomic counters read by tests, the nemesis
//!   harness, and CI failure dumps.
//!
//! See `DESIGN.md` § "Transport resilience & admission control" for the
//! state-machine diagram and parameter rationale.

use bytes::Bytes;
use std::collections::VecDeque;
use std::io::{self, IoSlice, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// xorshift64* step: advance `state` and return the scrambled output.
/// The one generator behind backoff jitter and the reactor's injected
/// drop and bit-flip samplers, so transport code adds no dependency on
/// `rand`. A zero state (xorshift's fixed point) restarts from a fixed
/// constant; a nonzero state never steps to zero.
pub(crate) fn xorshift_star(state: &mut u64) -> u64 {
    if *state == 0 {
        *state = 0x9e37_79b9_7f4a_7c15;
    }
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// Capped exponential backoff with deterministic seeded jitter.
///
/// Attempt `k` (0-based) waits `min(base · 2ᵏ, cap)` plus a jitter in
/// `[0, delay/2]` drawn from an xorshift64* stream keyed by
/// `(seed, k)`. The jitter is a pure function of the seed and attempt
/// number — scripted tests replay byte-for-byte — yet seeds differ per
/// link, so a cluster-wide outage does not produce synchronized
/// reconnect stampedes.
#[derive(Debug, Clone, Copy)]
pub struct BackoffPolicy {
    /// First-attempt delay (the exponential base).
    pub base: Duration,
    /// Upper bound on the exponential component; with jitter the total
    /// delay never exceeds `1.5 × cap`.
    pub cap: Duration,
    /// Jitter stream seed. Key it per link (e.g. `id ⊕ peer`) so links
    /// de-phase.
    pub seed: u64,
}

impl BackoffPolicy {
    /// Policy with the given base/cap and jitter seed.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> BackoffPolicy {
        BackoffPolicy { base, cap, seed }
    }

    /// Delay before retry attempt `attempt` (0-based).
    pub fn delay(&self, attempt: u32) -> Duration {
        let mult = 1u64 << attempt.min(16);
        let base = u64::try_from(self.base.as_nanos()).unwrap_or(u64::MAX);
        let cap = u64::try_from(self.cap.as_nanos()).unwrap_or(u64::MAX);
        let exp = base.saturating_mul(mult).min(cap);
        let mut state = self.seed ^ u64::from(attempt).wrapping_add(1);
        let jitter = xorshift_star(&mut state) % (exp / 2 + 1);
        Duration::from_nanos(exp.saturating_add(jitter))
    }
}

/// Bounded per-link outbound frame buffer with high/low watermark
/// hysteresis.
///
/// While a link is Degraded, outbound frames queue here for replay on
/// reconnect. Crossing the *high* watermark enters saturation: new
/// frames are shed (counted, never stored) until the queue drains below
/// the *low* watermark — hysteresis, so a queue hovering at the
/// boundary does not flap between accepting and shedding. Shedding a
/// protocol frame is equivalent to a transient message-loss fault,
/// which the overlay's vertex-connectivity already tolerates; the point
/// is that Degraded links hold **bounded** memory no matter how long
/// the outage lasts.
#[derive(Debug)]
pub struct FrameQueue {
    frames: VecDeque<Bytes>,
    high: usize,
    low: usize,
    saturated: bool,
    shed: u64,
    /// Put-back bytes accepted since the queue last drained empty (one
    /// replay episode); see [`FrameQueue::push_front`].
    putback_spent: usize,
    /// Byte budget for put-backs per episode.
    putback_budget: usize,
}

/// Default per-episode byte budget for [`FrameQueue::push_front`]: a
/// full high watermark of [`allconcur_core::wire::MAX_FRAME`]-adjacent
/// frames never comes near it, while a link flapping every few
/// milliseconds re-spends the budget instead of growing the queue past
/// the high watermark without bound.
pub const PUTBACK_BUDGET_BYTES: usize = 8 * 1024 * 1024;

/// How many frames above the high watermark a put-back may occupy: a
/// dying connection returns at most the frames the watermark admitted
/// plus whatever was in flight, so a small fixed slack suffices.
const PUTBACK_SLACK_FRAMES: usize = 32;

impl FrameQueue {
    /// Queue with the given watermarks. `high` is clamped to ≥ 1 and
    /// `low` to below `high`, so the hysteresis band always exists.
    pub fn new(high: usize, low: usize) -> FrameQueue {
        FrameQueue::with_putback_budget(high, low, PUTBACK_BUDGET_BYTES)
    }

    /// [`FrameQueue::new`] with an explicit put-back byte budget (tests
    /// exercise the bound without allocating megabytes).
    pub fn with_putback_budget(high: usize, low: usize, putback_budget: usize) -> FrameQueue {
        let high = high.max(1);
        FrameQueue {
            frames: VecDeque::new(),
            high,
            low: low.min(high - 1),
            saturated: false,
            shed: 0,
            putback_spent: 0,
            putback_budget,
        }
    }

    /// Enqueue a frame for replay. Returns `false` (and counts a shed)
    /// when the queue is saturated.
    pub fn push(&mut self, frame: Bytes) -> bool {
        if self.saturated || self.frames.len() >= self.high {
            self.saturated = true;
            self.shed += 1;
            return false;
        }
        self.frames.push_back(frame);
        true
    }

    /// Return a frame to the front of the queue — the replay path puts
    /// back what a dying reconnect failed to write, preserving FIFO
    /// order ahead of frames queued since.
    ///
    /// Put-backs ride *above* the high watermark (the frames were
    /// already admitted once), but not unboundedly: occupancy may
    /// exceed `high` by at most a small fixed slack, and each
    /// drain-to-empty episode accepts at most a fixed byte budget of
    /// put-backs. A link flapping faster than it replays therefore
    /// sheds (returns `false`, counted) instead of growing the Degraded
    /// buffer without bound; shedding is equivalent to the transient
    /// message loss the overlay's redundant paths already tolerate.
    #[must_use = "a false return means the frame was shed, not requeued"]
    pub fn push_front(&mut self, frame: Bytes) -> bool {
        if self.frames.len() >= self.high + PUTBACK_SLACK_FRAMES
            || self.putback_spent.saturating_add(frame.len()) > self.putback_budget
        {
            self.shed += 1;
            return false;
        }
        self.putback_spent += frame.len();
        self.frames.push_front(frame);
        true
    }

    /// Dequeue the oldest frame. Dropping below the low watermark exits
    /// saturation; draining empty refunds the put-back budget (the
    /// episode's replay completed).
    pub fn pop(&mut self) -> Option<Bytes> {
        let f = self.frames.pop_front();
        if self.saturated && self.frames.len() <= self.low {
            self.saturated = false;
        }
        if self.frames.is_empty() {
            self.putback_spent = 0;
        }
        f
    }

    /// Frames currently buffered.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the queue holds no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Whether the queue is shedding (above high, not yet drained below
    /// low).
    pub fn is_saturated(&self) -> bool {
        self.saturated
    }

    /// Frames shed since creation.
    pub fn shed(&self) -> u64 {
        self.shed
    }
}

/// Maximum buffers handed to one vectored write. Linux caps `writev`
/// at `IOV_MAX` (1024); far fewer already amortises the syscall.
const MAX_IOVECS: usize = 64;

/// Outbound buffer of a *Connected* link under the non-blocking event
/// loop: frames pushed during a reactor iteration coalesce into one
/// vectored write (`writev` via [`Write::write_vectored`]) when the
/// link is flushed, instead of one syscall per frame per successor.
///
/// The buffer is resumable at any byte offset: a partial write or
/// `EAGAIN` mid-frame keeps the unwritten tail (including the
/// partially-written head frame's remainder) for the next readiness
/// event. On a write *error* the link degrades and
/// [`WriteBuf::take_frames`] returns the unwritten frames — the head
/// frame whole, from byte 0, because the peer discards the partial
/// tail along with the dead socket — for put-back into the Degraded
/// [`FrameQueue`].
#[derive(Debug, Default)]
pub struct WriteBuf {
    frames: VecDeque<Bytes>,
    /// Bytes of the head frame already written to the socket.
    head_off: usize,
    /// Total unwritten bytes across all frames.
    bytes: usize,
}

impl WriteBuf {
    /// Empty buffer.
    pub fn new() -> WriteBuf {
        WriteBuf::default()
    }

    /// Queue one encoded frame for the next flush.
    pub fn push(&mut self, frame: Bytes) {
        if frame.is_empty() {
            return;
        }
        self.bytes += frame.len();
        self.frames.push_back(frame);
    }

    /// Whether everything queued has been written.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Unwritten bytes currently buffered.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Frames with at least one unwritten byte.
    pub fn frames(&self) -> usize {
        self.frames.len()
    }

    /// Write as much as the socket accepts, in as few vectored writes
    /// as possible. `Ok(true)` when the buffer drained, `Ok(false)`
    /// when the socket would block (re-arm write interest and retry on
    /// the next readiness event), `Err` on a real transport error
    /// (degrade the link; the unwritten frames are still buffered for
    /// [`WriteBuf::take_frames`]).
    pub fn flush<W: Write>(&mut self, w: &mut W) -> io::Result<bool> {
        while !self.frames.is_empty() {
            let mut slices: Vec<IoSlice<'_>> =
                Vec::with_capacity(self.frames.len().min(MAX_IOVECS));
            for (i, f) in self.frames.iter().take(MAX_IOVECS).enumerate() {
                let start = if i == 0 { self.head_off } else { 0 };
                // head_off < head.len() is an invariant of consume();
                // a frame is popped the moment it completes.
                slices.push(IoSlice::new(&f[start.min(f.len())..]));
            }
            match w.write_vectored(&slices) {
                Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "socket wrote 0")),
                Ok(n) => self.consume(n),
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Advance past `n` written bytes.
    fn consume(&mut self, mut n: usize) {
        self.bytes = self.bytes.saturating_sub(n);
        while n > 0 {
            let Some(head) = self.frames.front() else {
                self.head_off = 0;
                return;
            };
            let left = head.len() - self.head_off.min(head.len());
            if n < left {
                self.head_off += n;
                return;
            }
            n -= left;
            self.head_off = 0;
            self.frames.pop_front();
        }
    }

    /// Drain the unwritten frames for put-back after a write error. The
    /// head frame is returned whole (its already-written prefix replays
    /// from byte 0 on the fresh connection — the peer discarded the
    /// partial tail with the dead socket).
    pub fn take_frames(&mut self) -> Vec<Bytes> {
        self.head_off = 0;
        self.bytes = 0;
        self.frames.drain(..).collect()
    }
}

/// Atomic resilience counters for one runtime, shared between the
/// node's reactor (writes) and observers (tests, nemesis reports, CI
/// failure dumps).
#[derive(Debug, Default)]
pub struct LinkStats {
    degraded: AtomicU64,
    reconnects: AtomicU64,
    replayed_frames: AtomicU64,
    grace_expired: AtomicU64,
    shed_frames: AtomicU64,
    reader_disconnects: AtomicU64,
    healed: AtomicU64,
    suspicions: AtomicU64,
    corrupt_frames: AtomicU64,
    accept_failures: AtomicU64,
}

impl LinkStats {
    /// A writer link entered Degraded.
    pub fn on_degraded(&self) {
        self.degraded.fetch_add(1, Ordering::Relaxed);
    }

    /// A Degraded writer link reconnected.
    pub fn on_reconnect(&self) {
        self.reconnects.fetch_add(1, Ordering::Relaxed);
    }

    /// `n` buffered frames were replayed after a reconnect.
    pub fn on_replayed(&self, n: u64) {
        self.replayed_frames.fetch_add(n, Ordering::Relaxed);
    }

    /// A Degraded link exhausted its grace budget (→ Down).
    pub fn on_grace_expired(&self) {
        self.grace_expired.fetch_add(1, Ordering::Relaxed);
    }

    /// `n` outbound frames were shed by watermark saturation or a Down
    /// link.
    pub fn on_shed(&self, n: u64) {
        self.shed_frames.fetch_add(n, Ordering::Relaxed);
    }

    /// An inbound (reader) connection dropped.
    pub fn on_reader_disconnect(&self) {
        self.reader_disconnects.fetch_add(1, Ordering::Relaxed);
    }

    /// A predecessor reconnected while its disconnect grace was still
    /// pending — the flap healed without a suspicion.
    pub fn on_healed(&self) {
        self.healed.fetch_add(1, Ordering::Relaxed);
    }

    /// The failure detector suspected a predecessor (heartbeat silence
    /// or an expired disconnect grace); injected suspicions do not count.
    pub fn on_suspicion(&self) {
        self.suspicions.fetch_add(1, Ordering::Relaxed);
    }

    /// An inbound frame failed its CRC (or decode) check. The
    /// connection is dropped and healed like any other link fault; the
    /// corrupted payload is never delivered.
    pub fn on_corrupt_frame(&self) {
        self.corrupt_frames.fetch_add(1, Ordering::Relaxed);
    }

    /// The listener's `accept` failed with a real error (fd exhaustion,
    /// ENOBUFS, …). The runtime mutes the accept source under a capped
    /// backoff instead of spinning; this counter is how a degraded —
    /// rather than failed — node surfaces in tests and CI dumps.
    pub fn on_accept_failure(&self) {
        self.accept_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Consistent-enough point-in-time copy (individual counters are
    /// each read atomically).
    pub fn snapshot(&self) -> LinkStatsSnapshot {
        LinkStatsSnapshot {
            degraded: self.degraded.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            replayed_frames: self.replayed_frames.load(Ordering::Relaxed),
            grace_expired: self.grace_expired.load(Ordering::Relaxed),
            shed_frames: self.shed_frames.load(Ordering::Relaxed),
            reader_disconnects: self.reader_disconnects.load(Ordering::Relaxed),
            healed: self.healed.load(Ordering::Relaxed),
            suspicions: self.suspicions.load(Ordering::Relaxed),
            corrupt_frames: self.corrupt_frames.load(Ordering::Relaxed),
            accept_failures: self.accept_failures.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value copy of [`LinkStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStatsSnapshot {
    /// Times any writer link entered Degraded.
    pub degraded: u64,
    /// Successful writer reconnections.
    pub reconnects: u64,
    /// Frames replayed from Degraded queues after reconnects.
    pub replayed_frames: u64,
    /// Writer links whose grace budget expired (→ Down).
    pub grace_expired: u64,
    /// Outbound frames shed (watermark saturation or Down links).
    pub shed_frames: u64,
    /// Inbound (reader) connection drops observed.
    pub reader_disconnects: u64,
    /// Disconnect graces cancelled by a predecessor reconnecting.
    pub healed: u64,
    /// Predecessors the failure detector suspected, each at most once.
    pub suspicions: u64,
    /// Inbound frames rejected by the CRC/decode check (each dropped
    /// the connection, which then healed through reader grace).
    pub corrupt_frames: u64,
    /// Real (non-`WouldBlock`) accept errors; each mutes the listener
    /// under a capped backoff rather than spinning or killing the node.
    pub accept_failures: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_capped() {
        let p = BackoffPolicy::new(Duration::from_millis(5), Duration::from_millis(80), 42);
        let q = BackoffPolicy::new(Duration::from_millis(5), Duration::from_millis(80), 42);
        for k in 0..30 {
            assert_eq!(p.delay(k), q.delay(k), "same seed+attempt must replay");
            assert!(p.delay(k) <= Duration::from_millis(120), "cap × 1.5 bound at attempt {k}");
        }
        // Exponential growth below the cap: attempt 3's floor is 8× base.
        assert!(p.delay(3) >= Duration::from_millis(40));
        // Different seeds de-phase.
        let r = BackoffPolicy::new(Duration::from_millis(5), Duration::from_millis(80), 43);
        assert!((0..8).any(|k| r.delay(k) != p.delay(k)), "jitter must depend on the seed");
    }

    /// The shared step replays the streams the transport has always
    /// drawn: expected values come from the inline xorshift64* the drop
    /// sampler and backoff used before they shared [`xorshift_star`].
    #[test]
    fn xorshift_streams_are_pinned() {
        // Server 0's drop sampler (`NodeState::drop_rng`'s seed).
        let mut drop_rng = 0x9e37_79b9_7f4a_7c15 ^ 1;
        let drawn: Vec<u64> = (0..8).map(|_| xorshift_star(&mut drop_rng)).collect();
        assert_eq!(
            drawn,
            [
                0x80de_0d51_ab4e_2fbc,
                0xcec2_9323_da27_a53b,
                0x3775_578f_8eff_d183,
                0xff70_4c37_51a6_922d,
                0x3e80_d780_a67e_cc85,
                0x6ca8_a75b_aea0_5c98,
                0x03d4_25cc_33b5_5786,
                0xfba6_5b24_8ebe_2a2b,
            ]
        );
        let p = BackoffPolicy::new(Duration::from_millis(5), Duration::from_millis(80), 42);
        let nanos: Vec<u128> = (0..6).map(|k| p.delay(k).as_nanos()).collect();
        assert_eq!(
            nanos,
            [7_476_664, 10_562_951, 25_385_077, 54_149_860, 111_722_723, 116_333_449]
        );
    }

    #[test]
    fn backoff_huge_attempt_does_not_overflow() {
        let p = BackoffPolicy::new(Duration::from_secs(1), Duration::from_secs(2), 7);
        assert!(p.delay(u32::MAX) <= Duration::from_secs(3));
    }

    #[test]
    fn frame_queue_watermark_hysteresis() {
        let mut q = FrameQueue::new(4, 2);
        for i in 0..4u8 {
            assert!(q.push(Bytes::from(vec![i])), "below high watermark");
        }
        // At the high watermark: saturation begins, frames shed.
        assert!(!q.push(Bytes::from_static(b"x")));
        assert!(q.is_saturated());
        assert_eq!(q.shed(), 1);
        // Draining to 3 (> low) keeps shedding — hysteresis.
        assert!(q.pop().is_some());
        assert!(q.is_saturated());
        assert!(!q.push(Bytes::from_static(b"y")));
        assert_eq!(q.shed(), 2);
        // Draining to the low watermark reopens the queue.
        assert!(q.pop().is_some());
        assert!(!q.is_saturated());
        assert!(q.push(Bytes::from_static(b"z")));
        // FIFO order preserved across the episode.
        assert_eq!(q.pop(), Some(Bytes::from(vec![2u8])));
    }

    #[test]
    fn frame_queue_degenerate_watermarks_clamped() {
        let mut q = FrameQueue::new(0, 9); // high→1, low→0
        assert!(q.push(Bytes::from_static(b"a")));
        assert!(!q.push(Bytes::from_static(b"b")));
        assert!(q.pop().is_some());
        assert!(q.push(Bytes::from_static(b"c")));
    }

    #[test]
    fn push_front_is_bounded_per_episode() {
        // Tiny byte budget: two 4-byte put-backs fit, the third sheds.
        let mut q = FrameQueue::with_putback_budget(4, 2, 8);
        assert!(q.push_front(Bytes::from_static(b"aaaa")));
        assert!(q.push_front(Bytes::from_static(b"bbbb")));
        assert!(!q.push_front(Bytes::from_static(b"cccc")), "byte budget exhausted");
        assert_eq!(q.shed(), 1);
        assert_eq!(q.len(), 2);
        // Draining the queue empty refunds the budget (episode over).
        assert!(q.pop().is_some());
        assert!(q.pop().is_some());
        assert!(q.push_front(Bytes::from_static(b"dddd")), "budget refunds on full drain");
    }

    #[test]
    fn push_front_respects_frame_slack_above_high() {
        let mut q = FrameQueue::with_putback_budget(1, 0, usize::MAX);
        // 1 (high) + 32 (slack) single-byte put-backs fit; the next sheds.
        for _ in 0..33 {
            assert!(q.push_front(Bytes::from_static(b"x")));
        }
        assert!(!q.push_front(Bytes::from_static(b"x")), "slack above high is fixed");
        assert_eq!(q.shed(), 1);
    }

    #[test]
    fn push_front_keeps_fifo_ahead_of_push() {
        let mut q = FrameQueue::new(8, 4);
        assert!(q.push(Bytes::from_static(b"new")));
        assert!(q.push_front(Bytes::from_static(b"replayed")));
        assert_eq!(q.pop(), Some(Bytes::from_static(b"replayed")));
        assert_eq!(q.pop(), Some(Bytes::from_static(b"new")));
    }

    /// A writer accepting `grant` bytes per call, then `WouldBlock`.
    struct Choppy {
        written: Vec<u8>,
        grants: Vec<usize>,
    }

    impl Write for Choppy {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            match self.grants.pop() {
                Some(0) | None => Err(io::Error::new(io::ErrorKind::WouldBlock, "full")),
                Some(g) => {
                    let k = g.min(buf.len());
                    self.written.extend_from_slice(&buf[..k]);
                    Ok(k)
                }
            }
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_buf_resumes_at_any_byte_offset() {
        let frames = [Bytes::from_static(b"hello "), Bytes::from_static(b"event loop")];
        let total: Vec<u8> = frames.iter().flat_map(|f| f.iter().copied()).collect();
        // Every possible first-write split point, including 0 and all.
        for split in 0..=total.len() {
            let mut wb = WriteBuf::new();
            for f in &frames {
                wb.push(f.clone());
            }
            assert_eq!(wb.bytes(), total.len());
            let mut w = Choppy { written: Vec::new(), grants: vec![split] };
            assert!(!wb.flush(&mut w).unwrap() || split == total.len());
            // Default `write_vectored` consumes one buffer per call:
            // one generous grant per remaining frame drains everything.
            let mut w2 = Choppy { written: w.written, grants: vec![usize::MAX; 4] };
            assert!(wb.flush(&mut w2).unwrap(), "second grant drains");
            assert_eq!(w2.written, total, "split at {split} must not corrupt the stream");
            assert!(wb.is_empty());
            assert_eq!(wb.bytes(), 0);
        }
    }

    #[test]
    fn write_buf_take_frames_restores_head_from_byte_zero() {
        let mut wb = WriteBuf::new();
        wb.push(Bytes::from_static(b"abcdef"));
        wb.push(Bytes::from_static(b"ghi"));
        // Write 2 bytes of the head, then stall.
        let mut w = Choppy { written: Vec::new(), grants: vec![2] };
        assert!(!wb.flush(&mut w).unwrap());
        let frames = wb.take_frames();
        assert_eq!(frames, vec![Bytes::from_static(b"abcdef"), Bytes::from_static(b"ghi")]);
        assert!(wb.is_empty());
    }

    #[test]
    fn stats_snapshot_roundtrip() {
        let s = LinkStats::default();
        s.on_degraded();
        s.on_reconnect();
        s.on_replayed(3);
        s.on_shed(2);
        s.on_healed();
        let snap = s.snapshot();
        assert_eq!(snap.degraded, 1);
        assert_eq!(snap.replayed_frames, 3);
        assert_eq!(snap.shed_frames, 2);
        assert_eq!(snap.healed, 1);
        assert_eq!(snap.suspicions, 0);
    }
}
