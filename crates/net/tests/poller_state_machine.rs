//! Property tests of the event-loop readiness state machines, plus two
//! end-to-end pins:
//!
//! * the write path ([`WriteBuf`]) survives partial writes at **every
//!   byte offset mid-frame** and arbitrary EAGAIN storms, emitting a
//!   byte-identical stream;
//! * the read path ([`FrameReader`]) survives spurious wakeups (reads
//!   that immediately would-block) and one-byte drips without ever
//!   desynchronising;
//! * the delivery stream of an event-loop cluster is byte-identical to
//!   a committed golden hash (transport refactors must not perturb
//!   agreement output);
//! * a whole in-process cluster runs on O(cores) reactor threads, not
//!   the O(n·d) the thread-per-socket runtime needed;
//! * a reactor never sleeps through a wake-up: cluster shutdown is
//!   prompt every time.

use allconcur_core::message::Message;
use allconcur_net::codec::{encode_frame, FrameReader};
use allconcur_net::link::WriteBuf;
use allconcur_net::runtime::RuntimeOptions;
use allconcur_net::LocalCluster;
use bytes::Bytes;
use proptest::prelude::*;
use std::io::{self, Read, Write};
use std::time::Duration;

// --- scripted I/O fakes ---------------------------------------------------

/// One step of a readiness script: `0` models EAGAIN (the syscall
/// would block — exactly what a spurious epoll wakeup produces), any
/// other value grants that many bytes of socket capacity.
type Grant = usize;

/// A `Write` whose capacity follows a script; models a non-blocking
/// socket under an EAGAIN storm. Once the script runs out, capacity is
/// unlimited (the storm passed).
struct StormWriter {
    script: Vec<Grant>,
    next: usize,
    sink: Vec<u8>,
}

impl StormWriter {
    fn new(script: Vec<Grant>) -> StormWriter {
        StormWriter { script, next: 0, sink: Vec::new() }
    }
}

impl StormWriter {
    fn next_grant(&mut self) -> io::Result<usize> {
        let grant = match self.script.get(self.next) {
            Some(&g) => {
                self.next += 1;
                g
            }
            None => usize::MAX,
        };
        if grant == 0 {
            return Err(io::Error::from(io::ErrorKind::WouldBlock));
        }
        Ok(grant)
    }
}

impl Write for StormWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.next_grant()?.min(buf.len());
        self.sink.extend_from_slice(&buf[..n]);
        Ok(n)
    }
    // `WriteBuf::flush` goes through `write_vectored` (one writev per
    // ready link), so the capacity model must span iovecs like a real
    // socket buffer does.
    fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
        let mut left = self.next_grant()?;
        let mut written = 0;
        for b in bufs {
            if left == 0 {
                break;
            }
            let n = left.min(b.len());
            self.sink.extend_from_slice(&b[..n]);
            written += n;
            left -= n;
        }
        Ok(written)
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A `Read` feeding a fixed wire through the same kind of script.
struct StormReader {
    wire: Vec<u8>,
    pos: usize,
    script: Vec<Grant>,
    next: usize,
}

impl Read for StormReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let grant = match self.script.get(self.next) {
            Some(&g) => {
                self.next += 1;
                g
            }
            None => usize::MAX,
        };
        if grant == 0 {
            return Err(io::Error::from(io::ErrorKind::WouldBlock));
        }
        let n = grant.min(buf.len()).min(self.wire.len() - self.pos);
        if n == 0 {
            return Ok(0); // wire exhausted: EOF
        }
        buf[..n].copy_from_slice(&self.wire[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

fn build_messages(payload_lens: &[usize]) -> Vec<Message> {
    payload_lens
        .iter()
        .enumerate()
        .map(|(i, &len)| match i % 3 {
            0 => Message::Bcast {
                round: i as u64,
                origin: (i % 5) as u32,
                payload: Bytes::from(vec![(i as u8).wrapping_mul(61); len]),
            },
            1 => Message::Fail { round: i as u64, failed: (i % 4) as u32, detector: 1 },
            _ => Message::Fwd { round: i as u64, origin: (i % 3) as u32 },
        })
        .collect()
}

fn frames_of(msgs: &[Message]) -> Vec<Bytes> {
    msgs.iter().map(|m| encode_frame(m).expect("encode")).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The write state machine under an arbitrary readiness script:
    /// whatever mix of one-byte grants, mid-frame stalls, and EAGAIN
    /// bursts the kernel serves, the socket ends up with the exact
    /// concatenation of the pushed frames.
    #[test]
    fn write_buf_emits_identical_bytes_under_eagain_storms(
        payload_lens in proptest::collection::vec(0usize..48, 1..6),
        script in proptest::collection::vec(0usize..9, 0..96),
    ) {
        let frames = frames_of(&build_messages(&payload_lens));
        let expected: Vec<u8> = frames.iter().flat_map(|f| f.iter().copied()).collect();
        let mut wb = WriteBuf::new();
        for f in &frames {
            wb.push(f.clone());
        }
        let mut w = StormWriter::new(script);
        // The reactor re-calls flush on every writability event; a
        // would-block (`Ok(false)`) just waits for the next one. The
        // script is finite, so the loop terminates.
        let mut spins = 0;
        loop {
            match wb.flush(&mut w) {
                Ok(true) => break,
                Ok(false) => {
                    spins += 1;
                    prop_assert!(spins < 10_000, "flush never completed");
                }
                Err(e) => return Err(TestCaseError::fail(format!("real error: {e}"))),
            }
        }
        prop_assert!(wb.is_empty());
        prop_assert_eq!(wb.bytes(), 0);
        prop_assert_eq!(w.sink, expected);
    }

    /// Interrupting the flush at an arbitrary mid-frame byte offset and
    /// taking the unwritten tail (the degrade path) must hand back
    /// frames that resume exactly at the last **frame boundary** at or
    /// before the interruption — the partial head replays whole from
    /// byte 0, because the peer discards the cut-off tail along with
    /// the dead socket.
    #[test]
    fn take_frames_resumes_at_frame_boundary_for_every_offset(
        payload_lens in proptest::collection::vec(0usize..32, 1..5),
        cut in 0usize..1024,
    ) {
        let frames = frames_of(&build_messages(&payload_lens));
        let expected: Vec<u8> = frames.iter().flat_map(|f| f.iter().copied()).collect();
        let cut = cut % expected.len().max(1);
        let mut wb = WriteBuf::new();
        for f in &frames {
            wb.push(f.clone());
        }
        let mut w = StormWriter::new(vec![cut, 0]);
        let progressed = wb.flush(&mut w);
        prop_assert!(matches!(progressed, Ok(false)), "cut mid-stream must report not-drained");
        let taken = wb.take_frames();
        // The boundary of the frame containing byte `cut`.
        let mut boundary = 0;
        for f in &frames {
            if boundary + f.len() > cut {
                break;
            }
            boundary += f.len();
        }
        let replay: Vec<u8> = taken.iter().flat_map(|f| f.iter().copied()).collect();
        prop_assert_eq!(&replay[..], &expected[boundary..], "tail must restart at a frame boundary");
        // Socket got a clean prefix; replay covers everything at risk.
        prop_assert_eq!(&w.sink[..], &expected[..cut]);
        prop_assert!(cut >= boundary, "boundary beyond the cut");
    }

    /// The read state machine under spurious wakeups and byte-drip
    /// grants: every message decodes, in order, no matter how the
    /// stream is sliced or how many immediate would-blocks interleave.
    #[test]
    fn frame_reader_survives_spurious_wakeups_and_drips(
        payload_lens in proptest::collection::vec(0usize..48, 1..6),
        script in proptest::collection::vec(0usize..5, 0..128),
    ) {
        let msgs = build_messages(&payload_lens);
        let wire: Vec<u8> =
            frames_of(&msgs).iter().flat_map(|f| f.iter().copied()).collect();
        let mut r = StormReader { wire, pos: 0, script, next: 0 };
        let mut reader = FrameReader::new();
        let mut out = Vec::new();
        let mut spins = 0;
        while out.len() < msgs.len() {
            match reader.read_frame(&mut r) {
                Ok(Some(m)) => out.push(m),
                Ok(None) => {
                    // Spurious wakeup resume path: no data was ready;
                    // the reactor would simply return to the poll.
                    spins += 1;
                    prop_assert!(spins < 10_000, "reader never completed");
                }
                Err(e) => return Err(TestCaseError::fail(format!("decode error: {e}"))),
            }
        }
        prop_assert_eq!(out, msgs);
    }
}

// --- end-to-end pins ------------------------------------------------------

const GOLDEN_N: usize = 4;
const GOLDEN_ROUNDS: u64 = 8;

/// FNV-1a over a delivery stream, framing every field so streams with
/// different shapes cannot collide by concatenation.
fn fnv_delivery_stream(deliveries: &[allconcur_net::runtime::Delivery]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for d in deliveries {
        eat(&d.round.to_le_bytes());
        eat(&(d.messages.len() as u64).to_le_bytes());
        for (origin, payload) in &d.messages {
            eat(&origin.to_le_bytes());
            eat(&(payload.len() as u64).to_le_bytes());
            eat(payload);
        }
    }
    h
}

/// The delivery stream an event-loop cluster produces for a fixed
/// scripted workload, pinned by hash. Agreement makes the stream a
/// pure function of the submissions, so any transport change that
/// perturbs it (reordering, loss, duplication, corruption) fails here
/// byte-for-byte.
#[test]
fn event_loop_delivery_stream_matches_golden_hash() {
    const GOLDEN: u64 = 0x7747_6963_a427_c835;
    let cluster = LocalCluster::spawn(
        allconcur_graph::standard::complete_digraph(GOLDEN_N),
        RuntimeOptions::default(),
    )
    .expect("spawn");
    let mut streams: Vec<Vec<allconcur_net::runtime::Delivery>> = vec![Vec::new(); GOLDEN_N];
    for round in 0..GOLDEN_ROUNDS {
        for i in 0..GOLDEN_N {
            let payload = Bytes::from(vec![round as u8, i as u8, 0xA7, (round as u8) ^ 0x55]);
            assert!(cluster.broadcast(i as u32, payload), "server {i} shed round {round}");
        }
        for (i, stream) in streams.iter_mut().enumerate() {
            let d = cluster
                .recv_delivery(i as u32, Duration::from_secs(20))
                .unwrap_or_else(|| panic!("server {i} timed out in round {round}"));
            assert_eq!(d.round, round);
            stream.push(d);
        }
    }
    cluster.shutdown();
    let h0 = fnv_delivery_stream(&streams[0]);
    for (i, s) in streams.iter().enumerate() {
        assert_eq!(fnv_delivery_stream(s), h0, "server {i} delivered a divergent stream");
    }
    assert_eq!(
        h0, GOLDEN,
        "delivery stream hash changed: 0x{h0:016x} — a transport change perturbed agreement output"
    );
}

fn os_thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map(|d| d.count()).unwrap_or(0)
}

/// The n = 16 collapse regression: a whole in-process cluster must run
/// on O(cores) reactor threads, not O(n·d). The old runtime spawned
/// ~4·n·d ≈ 200 threads for GS(16,3); the pool spawns min(cores, n).
#[test]
fn cluster_thread_count_is_bounded_by_cores_not_topology() {
    let n = 16usize;
    let graph = allconcur_graph::gs::gs_digraph(n, 3).expect("GS(16,3)");
    let cores = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    let expected_pool = cores.min(n).max(1);

    let before = os_thread_count();
    assert!(before > 0, "/proc/self/task must be readable on linux");
    let cluster = LocalCluster::spawn(graph, RuntimeOptions::default()).expect("spawn");
    assert_eq!(cluster.loop_threads(), expected_pool, "pool must size to min(cores, n)");
    let during = os_thread_count();
    let delta = during.saturating_sub(before);
    // Slack of 2 covers test-harness helpers racing the measurement.
    assert!(
        delta <= expected_pool + 2,
        "cluster spawned {delta} threads for n={n} (pool={expected_pool}, cores={cores}) — \
         thread budget must be O(cores), not O(n·d)"
    );

    // And the budget-constrained cluster still reaches agreement.
    for i in 0..n {
        assert!(cluster.broadcast(i as u32, Bytes::from(vec![i as u8; 8])), "server {i} shed");
    }
    let mut reference = None;
    for i in 0..n as u32 {
        let d = cluster
            .recv_delivery(i, Duration::from_secs(30))
            .unwrap_or_else(|| panic!("server {i} timed out"));
        assert_eq!(d.round, 0);
        assert_eq!(d.messages.len(), n);
        match &reference {
            None => reference = Some(d.messages),
            Some(r) => assert_eq!(&d.messages, r, "total order violated at server {i}"),
        }
    }
    cluster.shutdown();
}

/// The lost wake-up regression: a reactor that drains its waker *after*
/// reading the stop flag and control channel swallows a `wake()` issued
/// in between — which is exactly when the pool's stop follows the last
/// node removal — and then sleeps its full 250 ms idle poll. That hit
/// about one shutdown in four; twenty in a row must all be prompt.
#[test]
fn shutdown_never_sleeps_through_a_wakeup() {
    use std::time::Instant;
    for cycle in 0..20 {
        let cluster = LocalCluster::spawn(
            allconcur_graph::standard::complete_digraph(4),
            RuntimeOptions::default(),
        )
        .expect("spawn");
        for i in 0..4u32 {
            assert!(cluster.broadcast(i, Bytes::from(vec![i as u8; 8])), "server {i} shed");
        }
        for i in 0..4u32 {
            let d = cluster.recv_delivery(i, Duration::from_secs(20)).expect("round 0 agreed");
            assert_eq!((d.round, d.messages.len()), (0, 4), "server {i}");
        }
        let started = Instant::now();
        cluster.shutdown();
        let took = started.elapsed();
        assert!(
            took < Duration::from_millis(150),
            "shutdown {cycle} took {took:?}: a reactor slept through its wake-up"
        );
    }
}
