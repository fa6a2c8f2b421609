//! Epoll-driven reactor pool — the event-loop runtime behind
//! [`crate::runtime::NodeRuntime`].
//!
//! The paper's implementation runs each server as a single libev event
//! loop (§5), and this is the crate's only runtime model. Translating
//! it to blocking threads — accept + per-connection readers, a protocol
//! thread, transient reconnectors, heartbeat/FD threads — costs
//! ~`4·n·d` threads for an in-process cluster and collapses under round
//! pipelining at `n = 16` on small machines: the kernel round-robins
//! hundreds of runnable threads and every in-window round pays
//! scheduling latency instead of overlapping it.
//!
//! Hence the paper's shape: a small pool of reactor threads (one per
//! core by default, shared by every node of a
//! [`crate::cluster::LocalCluster`]), each running an epoll loop over
//! the nodes assigned to it. Everything one node does — accepting,
//! handshakes, frame reads, coalesced vectored writes, non-blocking
//! connects, reconnect backoff, heartbeat emission, failure-detector
//! checks, grace/gate timers, injected link faults — happens on its one
//! assigned reactor, so the per-node state needs no locking at all.
//!
//! Per-link readiness state machines stand where helper threads would:
//!
//! ```text
//!             writable + SO_ERROR=0
//!  Connecting ────────────────────▶ Connected ──▶ (frames go to a
//!      │  ▲                          │   ▲         WriteBuf; one writev
//!      │  └── backoff timer ──┐      │   │         per ready link)
//!      │     (attempt capped) │ write error,      │
//!      ▼                      │ LinkDown/Flap     │ reconnect: replay
//!     Down ◀── link_grace ── Degraded ────────────┘ queued tail in order
//!            exhausted        (bounded FrameQueue)
//! ```
//!
//! Inbound connections run `InHandshake → In`, feeding a
//! [`crate::codec::FrameReader`] — a read that would block simply
//! returns to the loop instead of parking a thread. Heartbeats leave on
//! a `Δ_hb` timer; received heartbeats and inbound connections coming
//! and going feed the node's [`crate::heartbeat::Detector`], stamped
//! with the iteration's timestamp, and its next deadline is one more
//! timer on the loop.

use crate::codec::{
    encode_frame, is_corrupt_frame, parse_handshake, write_handshake, FrameReader, HANDSHAKE_LEN,
};
use crate::heartbeat::{self, Detector};
use crate::link::{xorshift_star, BackoffPolicy, FrameQueue, LinkStats, WriteBuf};
use crate::runtime::{
    accept_retry_delay, link_seed, same_message, Delivery, DeliveryBatch, DeliverySender,
    LinkFault, NodeInput, RuntimeOptions, DROP_PPM_SCALE,
};
use allconcur_core::config::Config;
use allconcur_core::message::Message;
use allconcur_core::server::{Action, Event, Server};
use allconcur_core::ServerId;
use bytes::Bytes;
use mio::{Events, Interest, Poll, Token, Waker};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Token reserved for each reactor's eventfd waker.
const WAKER_TOKEN: Token = Token(usize::MAX);

/// Upper bound on one poll's idle wait: the loop re-checks the stop
/// flag and control channel at least this often.
const IDLE_POLL: Duration = Duration::from_millis(250);

/// Inputs coalesced into one handle-then-flush batch per node per loop
/// iteration, so a firehose of submissions cannot starve the flush (and
/// with it, downstream progress) or the other nodes on the reactor.
const MAX_BATCH_DRAIN: usize = 256;

/// Frames decoded from one inbound connection before the node state is
/// given a chance to act on them (the read resumes immediately after —
/// this bounds working-set, not throughput).
const READ_BATCH: usize = 256;

/// Events pulled per `epoll_wait`.
const EVENTS_CAP: usize = 256;

/// Deadline on one non-blocking connect attempt before it is torn down
/// and retried under backoff.
const CONNECT_ATTEMPT_TIMEOUT: Duration = Duration::from_millis(100);

/// Cap on the exponential component of the connect/reconnect backoff
/// (see [`BackoffPolicy`]; with jitter a retry waits at most 1.5× this).
const CONNECT_BACKOFF_CAP: Duration = Duration::from_millis(160);

/// How long the protocol holds back peers' `BCAST`s for a round the
/// application has not submitted a payload for yet.
///
/// Without the gate, a peer's round-`r` broadcast racing ahead of the
/// local `broadcast()` call makes Algorithm 1 line 15 answer with an
/// *empty* message and silently defers the application's payload to
/// round `r+1`. Submitting before or promptly after a round opens (as
/// the `Cluster` facade does) never hits the deadline; a server left
/// without a submission falls back to the empty broadcast after the
/// grace, so liveness is preserved.
///
/// The gate is **round-aware**: a `BCAST` is held back only while its
/// round is genuinely unsubmitted — at or past
/// [`Server::next_unsubmitted_round`], i.e. the application has
/// neither broadcast nor queued a payload covering it. Rounds the
/// application already submitted ahead for (pipelined submissions
/// under a `round_window > 1`) flow through undelayed, so the grace
/// costs pipelined workloads nothing.
const APP_GRACE: Duration = Duration::from_millis(400);

/// A shared pool of reactor threads. One per core by default
/// ([`crate::cluster::LocalCluster`] sizes it `min(cores, n)`); a
/// standalone [`crate::runtime::NodeRuntime::start`] owns a one-thread
/// pool, matching the paper's one-event-loop-per-server deployment.
pub struct EventLoopPool {
    reactors: Vec<ReactorHandle>,
    /// Round-robin cursor for node → reactor assignment.
    next: AtomicUsize,
    /// Node key allocator (keys are never reused).
    next_key: AtomicU64,
    stop: Arc<AtomicBool>,
}

/// Where a registered node lives, for wakes and removal.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeToken {
    reactor: usize,
    key: u64,
}

/// Everything a reactor needs to run one node. Built by
/// [`crate::runtime::NodeRuntime`] and shipped through the control
/// channel.
pub(crate) struct NodeSpec {
    pub id: ServerId,
    pub cfg: Config,
    pub listener: TcpListener,
    pub udp: UdpSocket,
    pub tcp_addrs: Vec<SocketAddr>,
    pub udp_addrs: Vec<SocketAddr>,
    pub opts: RuntimeOptions,
    pub input_rx: mpsc::Receiver<NodeInput>,
    pub stats: Arc<LinkStats>,
}

enum Ctrl {
    /// Install a node; the ack carries registration errors (bad
    /// sockets, epoll exhaustion) back to the caller.
    Register(u64, Box<NodeSpec>, mpsc::SyncSender<io::Result<()>>),
    /// Tear a node down (close its sockets, drop its state), then ack.
    Remove(u64, mpsc::SyncSender<()>),
}

struct ReactorHandle {
    ctrl_tx: mpsc::SyncSender<Ctrl>,
    waker: Arc<Waker>,
    /// Joined when the pool drops.
    thread: Option<std::thread::JoinHandle<()>>,
}

impl EventLoopPool {
    /// Spawn a pool of `threads` reactors (clamped to ≥ 1). Every round
    /// a node of the pool finishes goes onto `deliveries`, tagged with
    /// the node's server id: each reactor pushes a loop iteration's
    /// first finished round the moment it is delivered, and the rest as
    /// one batch when the iteration ends.
    pub fn new(threads: usize, deliveries: DeliverySender) -> io::Result<Arc<EventLoopPool>> {
        let stop = Arc::new(AtomicBool::new(false));
        let mut pool = EventLoopPool {
            reactors: Vec::new(),
            next: AtomicUsize::new(0),
            next_key: AtomicU64::new(0),
            stop: stop.clone(),
        };
        for i in 0..threads.max(1) {
            // On failure the partial pool drops, joining the reactors
            // already spawned.
            pool.reactors.push(ReactorHandle::spawn(i, stop.clone(), deliveries.clone())?);
        }
        Ok(Arc::new(pool))
    }

    /// Number of reactor threads.
    pub fn threads(&self) -> usize {
        self.reactors.len()
    }

    /// Register a node on the next reactor (round-robin) and wait for
    /// the installation to complete.
    pub(crate) fn register(&self, spec: NodeSpec) -> io::Result<NodeToken> {
        let reactor = self.next.fetch_add(1, Ordering::Relaxed) % self.reactors.len().max(1);
        let key = self.next_key.fetch_add(1, Ordering::Relaxed);
        let Some(h) = self.reactors.get(reactor) else {
            return Err(io::Error::other("event-loop pool has no reactors"));
        };
        let (ack_tx, ack_rx) = mpsc::sync_channel(1);
        h.ctrl_tx
            .send(Ctrl::Register(key, Box::new(spec), ack_tx))
            .map_err(|_| io::Error::other("reactor thread is gone"))?;
        let _ = h.waker.wake();
        match ack_rx.recv_timeout(Duration::from_secs(10)) {
            Ok(Ok(())) => Ok(NodeToken { reactor, key }),
            Ok(Err(e)) => Err(e),
            Err(_) => Err(io::Error::new(io::ErrorKind::TimedOut, "reactor did not ack")),
        }
    }

    /// Remove a node: its sockets close (peers observe a disconnect,
    /// exactly like a crash) and its state drops. Blocks until the
    /// reactor has finished the node's final processing; a reactor
    /// pushes everything an iteration finished before it reads the next
    /// control message, so every round the node finished is on the
    /// delivery queue when this returns.
    pub(crate) fn remove(&self, token: NodeToken) {
        let Some(h) = self.reactors.get(token.reactor) else { return };
        let (ack_tx, ack_rx) = mpsc::sync_channel(1);
        if h.ctrl_tx.send(Ctrl::Remove(token.key, ack_tx)).is_ok() {
            let _ = h.waker.wake();
            let _ = ack_rx.recv_timeout(Duration::from_secs(5));
        }
    }

    /// Wake the reactor a node lives on (after queueing it input).
    pub(crate) fn wake(&self, token: NodeToken) {
        if let Some(h) = self.reactors.get(token.reactor) {
            let _ = h.waker.wake();
        }
    }
}

/// Stop every reactor and join its thread. Nodes still registered are
/// torn down by their reactor on the way out.
impl Drop for EventLoopPool {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for h in &self.reactors {
            let _ = h.waker.wake();
        }
        for h in &mut self.reactors {
            if let Some(t) = h.thread.take() {
                let _ = t.join();
            }
        }
    }
}

impl ReactorHandle {
    fn spawn(
        index: usize,
        stop: Arc<AtomicBool>,
        deliveries: DeliverySender,
    ) -> io::Result<ReactorHandle> {
        let poll = Poll::new()?;
        let waker = Arc::new(Waker::new(&poll, WAKER_TOKEN)?);
        // Control messages are rare (node lifecycle only); a small
        // bounded channel is plenty and keeps the queue story uniform.
        let (ctrl_tx, ctrl_rx) = mpsc::sync_channel::<Ctrl>(64);
        let reactor = Reactor {
            poll,
            waker: waker.clone(),
            ctrl_rx,
            stop,
            out: Publisher { tx: deliveries, held: Vec::new(), pushed: false, hung_up: false },
            nodes: HashMap::new(),
            sources: HashMap::new(),
            next_token: 0,
        };
        let thread = std::thread::Builder::new()
            .name(format!("ac-loop-{index}"))
            .spawn(move || reactor.run())?;
        Ok(ReactorHandle { ctrl_tx, waker, thread: Some(thread) })
    }
}

/// What a registered fd token refers to. Tokens are allocated from a
/// never-reused counter, so a stale event for a closed source simply
/// misses the map.
#[derive(Debug, Clone, Copy)]
enum Source {
    Listener { node: u64 },
    Udp { node: u64 },
    Conn { node: u64 },
}

impl Source {
    fn node(self) -> u64 {
        match self {
            Source::Listener { node } | Source::Udp { node } | Source::Conn { node } => node,
        }
    }
}

/// The per-iteration view a node gets of its reactor: registration
/// surface, the iteration's timestamp, and where finished rounds go.
/// Split from [`Reactor`] so a mutably-borrowed node can still
/// register/deregister sources.
struct Cx<'a> {
    poll: &'a Poll,
    sources: &'a mut HashMap<usize, Source>,
    next_token: &'a mut usize,
    out: &'a mut Publisher,
    now: Instant,
}

impl Cx<'_> {
    fn alloc_token(&mut self) -> usize {
        let t = *self.next_token;
        *self.next_token += 1;
        t
    }
}

struct Reactor {
    poll: Poll,
    waker: Arc<Waker>,
    ctrl_rx: mpsc::Receiver<Ctrl>,
    stop: Arc<AtomicBool>,
    out: Publisher,
    nodes: HashMap<u64, NodeState>,
    sources: HashMap<usize, Source>,
    next_token: usize,
}

/// A reactor's end of its pool's delivery queue.
///
/// The first round a loop iteration finishes is pushed the moment the
/// node delivers it: a parked consumer wakes on it, and for the rsm
/// `Service` a round's first delivery is the one that answers its
/// clients. Rounds finished later in the same iteration are held and
/// pushed as one batch when the iteration ends, so a consumer is woken
/// at most twice per iteration rather than once per round — woken per
/// round, it takes the core from the reactors (4 → 17 context switches
/// per round at `n = 16` on two cores).
struct Publisher {
    tx: DeliverySender,
    held: DeliveryBatch,
    /// Something was pushed this iteration.
    pushed: bool,
    /// The application dropped the receiving end.
    hung_up: bool,
}

impl Publisher {
    /// Server `id` finished a round.
    fn deliver(&mut self, id: ServerId, delivery: Delivery) {
        self.held.push((id, delivery));
        if !self.pushed {
            self.push();
        }
    }

    /// Push what is held and re-arm for the next iteration.
    fn end_iteration(&mut self) {
        self.push();
        self.pushed = false;
    }

    fn push(&mut self) {
        if self.held.is_empty() {
            return;
        }
        self.pushed = true;
        self.hung_up |= self.tx.send(std::mem::take(&mut self.held)).is_err();
    }
}

impl Reactor {
    fn run(mut self) {
        let mut events = Events::with_capacity(EVENTS_CAP);
        // `true` when some node drained a full input batch last pass:
        // poll with a zero timeout so the backlog continues immediately.
        let mut backlog = false;
        loop {
            let timeout = if backlog { Duration::ZERO } else { self.next_timeout() };
            let _ = self.poll.poll(&mut events, Some(timeout));
            // Drain the waker before reading anything a wake announces
            // (stop flag, control channel, node inputs): a wake issued
            // after this point leaves the eventfd readable and cuts the
            // next poll short. Drained after those reads, a wake landing
            // in between would be swallowed and the reactor would sleep
            // a full IDLE_POLL on work already queued.
            if events.iter().any(|ev| ev.token() == WAKER_TOKEN) {
                self.waker.drain();
            }
            if self.stop.load(Ordering::Relaxed) {
                break;
            }
            self.drain_ctrl();
            let now = Instant::now();
            for ev in events.iter().filter(|ev| ev.token() != WAKER_TOKEN) {
                self.dispatch(ev.token().0, ev.is_readable(), ev.is_writable(), ev.is_error(), now);
            }
            backlog = self.service_nodes(now);
            self.out.end_iteration();
            if self.out.hung_up {
                // The application dropped the delivery queue.
                for node in self.nodes.values_mut() {
                    node.dead = true;
                }
            }
            self.reap_dead();
        }
        self.teardown();
    }

    /// Earliest deadline across every node, capped at [`IDLE_POLL`].
    fn next_timeout(&self) -> Duration {
        let now = Instant::now();
        let mut timeout = IDLE_POLL;
        for node in self.nodes.values() {
            if let Some(d) = node.next_deadline() {
                timeout = timeout.min(d.saturating_duration_since(now));
            }
        }
        timeout
    }

    fn drain_ctrl(&mut self) {
        while let Ok(ctrl) = self.ctrl_rx.try_recv() {
            match ctrl {
                Ctrl::Register(key, spec, ack) => {
                    let mut cx = Cx {
                        poll: &self.poll,
                        sources: &mut self.sources,
                        next_token: &mut self.next_token,
                        out: &mut self.out,
                        now: Instant::now(),
                    };
                    let res = match NodeState::install(&mut cx, key, *spec) {
                        Ok(state) => {
                            self.nodes.insert(key, state);
                            Ok(())
                        }
                        Err(e) => Err(e),
                    };
                    let _ = ack.send(res);
                }
                Ctrl::Remove(key, ack) => {
                    self.remove_node(key);
                    let _ = ack.send(());
                }
            }
        }
    }

    fn dispatch(
        &mut self,
        token: usize,
        readable: bool,
        writable: bool,
        error: bool,
        now: Instant,
    ) {
        let Some(&src) = self.sources.get(&token) else { return };
        let Some(node) = self.nodes.get_mut(&src.node()) else { return };
        let mut cx = Cx {
            poll: &self.poll,
            sources: &mut self.sources,
            next_token: &mut self.next_token,
            out: &mut self.out,
            now,
        };
        match src {
            Source::Listener { .. } => node.on_accept_ready(&mut cx),
            Source::Udp { .. } => node.on_udp_ready(now),
            Source::Conn { .. } => node.on_conn_ready(&mut cx, token, readable, writable, error),
        }
    }

    /// Per-iteration node servicing: drain queued inputs, fire due
    /// timers, flush links that buffered frames. Returns whether any
    /// node still has input backlogged.
    fn service_nodes(&mut self, now: Instant) -> bool {
        let mut cx = Cx {
            poll: &self.poll,
            sources: &mut self.sources,
            next_token: &mut self.next_token,
            out: &mut self.out,
            now,
        };
        let mut backlog = false;
        for node in self.nodes.values_mut() {
            backlog |= node.drain_inputs(&mut cx);
            node.on_tick(&mut cx);
            node.flush_dirty(&mut cx);
        }
        backlog
    }

    fn reap_dead(&mut self) {
        let dead: Vec<u64> = self.nodes.iter().filter(|(_, n)| n.dead).map(|(&k, _)| k).collect();
        for key in dead {
            self.remove_node(key);
        }
    }

    fn remove_node(&mut self, key: u64) {
        if let Some(mut node) = self.nodes.remove(&key) {
            let mut cx = Cx {
                poll: &self.poll,
                sources: &mut self.sources,
                next_token: &mut self.next_token,
                out: &mut self.out,
                now: Instant::now(),
            };
            node.teardown(&mut cx);
        }
    }

    fn teardown(&mut self) {
        let keys: Vec<u64> = self.nodes.keys().copied().collect();
        for key in keys {
            self.remove_node(key);
        }
    }
}

/// Outbound-link writer states (see the module diagram).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OutState {
    /// Initial non-blocking connect in progress (attempt-capped).
    Connecting,
    /// Healthy: frames go to the connection's [`WriteBuf`].
    Connected,
    /// Disconnected within grace (or fault-held): frames buffer in the
    /// bounded [`FrameQueue`] for replay on reconnect.
    Degraded,
    /// Grace/attempts exhausted: frames are shed; the FD owns the
    /// peer's fate (only fault-injection heal revives the link).
    Down,
}

/// Fault-injection hold on a link.
enum Hold {
    /// Held until an explicit `LinkUp`.
    Manual,
    /// Held until the instant passes (a flap's auto-heal).
    Until(Instant),
}

/// One outbound link's state machine plus timers. The reconnect
/// backoff is the (`next_attempt`, `attempt_deadline`, `attempt`)
/// triple driven by the loop's timer sweep.
struct OutLink {
    state: OutState,
    /// Token of the connection carrying this link (connecting or
    /// connected), if any.
    conn: Option<usize>,
    /// Degraded-side buffer, replayed in order on reconnect. Empty
    /// while Connected (frames go to the conn's `WriteBuf` instead).
    queue: FrameQueue,
    /// Degraded grace deadline (`None` while fault-held: held links
    /// heal, they do not expire).
    grace_deadline: Option<Instant>,
    /// When to launch the next connect attempt.
    next_attempt: Option<Instant>,
    /// Deadline on the in-flight connect attempt.
    attempt_deadline: Option<Instant>,
    /// Consecutive failed attempts (drives backoff; caps the initial
    /// Connecting phase at `RuntimeOptions::connect_attempts`).
    attempt: u32,
    hold: Option<Hold>,
    policy: BackoffPolicy,
    addr: SocketAddr,
}

/// What one registered connection is doing.
enum ConnKind {
    /// Outbound connect in flight; writability resolves it via
    /// `SO_ERROR`.
    OutConnecting { to: ServerId },
    /// Established outbound link: frames coalesce in the `WriteBuf`
    /// and leave in vectored writes on writability.
    Out { to: ServerId, wb: WriteBuf },
    /// Inbound connection reading its handshake.
    InHandshake { buf: [u8; HANDSHAKE_LEN], got: usize },
    /// Established inbound link from predecessor `from`.
    In { from: ServerId, reader: FrameReader },
}

struct Conn {
    stream: TcpStream,
    interest: Interest,
    kind: ConnKind,
}

/// One node's complete state, owned by exactly one reactor thread:
/// the protocol core plus its socket state machines and timers.
struct NodeState {
    id: ServerId,
    key: u64,
    server: Server,
    input_rx: mpsc::Receiver<NodeInput>,
    actions: Vec<Action>,
    /// Links whose `WriteBuf` gained frames this batch; flushed once
    /// per loop iteration (one `writev` per ready link per batch).
    dirty: Vec<ServerId>,
    /// Peer `BCAST`s held back while their round awaits the
    /// application's submission (see [`APP_GRACE`]).
    deferred: VecDeque<(ServerId, Message)>,
    gate_deadline: Option<Instant>,
    opts: RuntimeOptions,
    drop_ppm: HashMap<ServerId, u32>,
    drop_rng: u64,
    flip_ppm: HashMap<ServerId, u32>,
    flip_rng: u64,
    stats: Arc<LinkStats>,
    /// Decides when a predecessor is suspected.
    detector: Detector,
    links: HashMap<ServerId, OutLink>,
    conns: HashMap<usize, Conn>,
    listener: TcpListener,
    listener_token: usize,
    /// Accept muted after a real accept error (fd exhaustion): the
    /// listener is deregistered and re-armed after a capped backoff
    /// instead of spinning hot.
    listener_muted: bool,
    accept_failures: u32,
    accept_resume: Option<Instant>,
    udp: UdpSocket,
    udp_token: usize,
    hb_frame: [u8; heartbeat::HEARTBEAT_LEN],
    succ_udp: Vec<SocketAddr>,
    next_hb_send: Instant,
    /// Application hung up or the node was shut down: the reactor reaps
    /// it (closing every socket) at the end of the iteration.
    dead: bool,
}

impl NodeState {
    fn install(cx: &mut Cx<'_>, key: u64, spec: NodeSpec) -> io::Result<NodeState> {
        let NodeSpec { id, cfg, listener, udp, tcp_addrs, udp_addrs, opts, input_rx, stats } = spec;
        listener.set_nonblocking(true)?;
        udp.set_nonblocking(true)?;

        let graph = cfg.graph.clone();
        let successors: Vec<ServerId> = graph.successors(id).to_vec();
        let predecessors: Vec<ServerId> = graph.predecessors(id).to_vec();

        let listener_token = cx.alloc_token();
        cx.poll.register(&listener, Token(listener_token), Interest::READABLE)?;
        cx.sources.insert(listener_token, Source::Listener { node: key });
        let udp_token = cx.alloc_token();
        if let Err(e) = cx.poll.register(&udp, Token(udp_token), Interest::READABLE) {
            let _ = cx.poll.deregister(&listener);
            cx.sources.remove(&listener_token);
            return Err(e);
        }
        cx.sources.insert(udp_token, Source::Udp { node: key });

        let mut links = HashMap::new();
        for &succ in &successors {
            let Some(&addr) = tcp_addrs.get(succ as usize) else {
                continue; // mis-sized address table: the link never forms
            };
            links.insert(
                succ,
                OutLink {
                    state: OutState::Connecting,
                    conn: None,
                    queue: FrameQueue::new(opts.link_queue_high, opts.link_queue_low),
                    grace_deadline: None,
                    // First attempt fires on this iteration's tick.
                    next_attempt: Some(cx.now),
                    attempt_deadline: None,
                    attempt: 0,
                    hold: None,
                    policy: BackoffPolicy::new(
                        opts.connect_backoff,
                        CONNECT_BACKOFF_CAP,
                        link_seed(id, succ),
                    ),
                    addr,
                },
            );
        }

        let succ_udp: Vec<SocketAddr> =
            successors.iter().filter_map(|&s| udp_addrs.get(s as usize).copied()).collect();

        Ok(NodeState {
            id,
            key,
            server: Server::new(cfg, id),
            input_rx,
            actions: Vec::new(),
            dirty: Vec::new(),
            deferred: VecDeque::new(),
            gate_deadline: None,
            opts,
            drop_ppm: HashMap::new(),
            drop_rng: 0x9e37_79b9_7f4a_7c15 ^ (id as u64 + 1),
            flip_ppm: HashMap::new(),
            flip_rng: 0x6c62_272e_07bb_0142 ^ (id as u64 + 1),
            stats,
            detector: Detector::new(&predecessors, opts.fd.timeout, opts.link_grace, cx.now),
            links,
            conns: HashMap::new(),
            listener,
            listener_token,
            listener_muted: false,
            accept_failures: 0,
            accept_resume: None,
            udp,
            udp_token,
            hb_frame: heartbeat::encode_heartbeat(id),
            succ_udp,
            next_hb_send: cx.now,
            dead: false,
        })
    }

    // --- protocol core --------------------------------------------------

    /// Feed one event and act on the outputs. (Payloads submitted
    /// beyond the current round queue inside the state machine and open
    /// later rounds by themselves — the §5 batching flow.)
    fn process(&mut self, cx: &mut Cx<'_>, event: Event) {
        if self.dead {
            return;
        }
        self.actions.clear();
        self.server.handle_into(event, &mut self.actions);
        self.write_actions(cx);
    }

    /// Route sends (encoding each distinct message **once** and fanning
    /// the same refcounted frame to every destination) and forward
    /// deliveries. Links are only marked dirty here; the reactor
    /// flushes them per iteration.
    fn write_actions(&mut self, cx: &mut Cx<'_>) {
        // The state machine emits fan-outs as consecutive `Send`s that
        // clone one message, so a one-entry frame cache captures the
        // whole run; a miss just re-encodes.
        let mut frame: Option<(Message, Bytes)> = None;
        let mut actions = std::mem::take(&mut self.actions);
        for action in actions.drain(..) {
            match action {
                Action::Send { to, msg } => {
                    // Injected send-loss: the frame never leaves the
                    // writer path.
                    if let Some(&ppm) = self.drop_ppm.get(&to) {
                        if xorshift_star(&mut self.drop_rng) % DROP_PPM_SCALE < ppm as u64 {
                            continue;
                        }
                    }
                    if !self.links.contains_key(&to) {
                        continue;
                    }
                    let cached = match &frame {
                        Some((m, f)) if same_message(m, &msg) => f.clone(),
                        _ => match encode_frame(&msg) {
                            Ok(f) => {
                                frame = Some((msg, f.clone()));
                                f
                            }
                            Err(_) => continue, // oversized: drop, FD handles the peer
                        },
                    };
                    let outgoing = self.maybe_flip(&to, cached);
                    self.send_frame(to, outgoing);
                }
                Action::Deliver { round, messages } => {
                    cx.out.deliver(self.id, Delivery { round, messages });
                }
            }
        }
        self.actions = actions; // reuse the allocation
    }

    /// Injected wire corruption: with probability `flip_ppm[to] / 1e6`,
    /// copy the frame and flip one bit at an rng-chosen offset (header
    /// bytes included). The shared fan-out frame is never mutated in
    /// place; only this destination sees the damage.
    fn maybe_flip(&mut self, to: &ServerId, frame: Bytes) -> Bytes {
        let Some(&ppm) = self.flip_ppm.get(to) else { return frame };
        let sample = xorshift_star(&mut self.flip_rng);
        if sample % DROP_PPM_SCALE >= ppm as u64 || frame.is_empty() {
            return frame;
        }
        let bit = (sample >> 24) as usize % (frame.len() * 8);
        let mut corrupted = frame.to_vec();
        corrupted[bit / 8] ^= 1 << (bit % 8);
        Bytes::from(corrupted)
    }

    /// Route one encoded frame through the link's state machine.
    fn send_frame(&mut self, to: ServerId, frame: Bytes) {
        let (state, conn_tok) = match self.links.get(&to) {
            Some(l) => (l.state, l.conn),
            None => return,
        };
        match state {
            OutState::Connected => {
                if let Some(tok) = conn_tok {
                    if let Some(conn) = self.conns.get_mut(&tok) {
                        if let ConnKind::Out { wb, .. } = &mut conn.kind {
                            wb.push(frame);
                            if !self.dirty.contains(&to) {
                                self.dirty.push(to);
                            }
                            return;
                        }
                    }
                }
                self.stats.on_shed(1);
            }
            OutState::Connecting | OutState::Degraded => {
                let mut shed = false;
                if let Some(link) = self.links.get_mut(&to) {
                    shed = !link.queue.push(frame);
                }
                if shed {
                    self.stats.on_shed(1);
                }
            }
            OutState::Down => self.stats.on_shed(1),
        }
    }

    /// Whether `msg` must wait for the application: a `BCAST` belonging
    /// to a round the application has neither broadcast in nor queued a
    /// payload for.
    fn gated(&self, msg: &Message) -> bool {
        matches!(msg, Message::Bcast { .. }) && msg.round() >= self.server.next_unsubmitted_round()
    }

    /// One message decoded off predecessor `from`'s link. Defers a
    /// gated BCAST — and, to preserve **per-link FIFO**, any message
    /// arriving behind a deferred one from the same sender: a `FAIL`
    /// must never overtake a gated `BCAST` it arrived behind (the
    /// tracking digraphs' edge refutation depends on that order).
    fn input_net(&mut self, cx: &mut Cx<'_>, from: ServerId, msg: Message) {
        if self.dead {
            return;
        }
        if self.deferred.iter().any(|&(f, _)| f == from) || self.gated(&msg) {
            if self.gate_deadline.is_none() {
                self.gate_deadline = Some(Instant::now() + APP_GRACE);
            }
            self.deferred.push_back((from, msg));
        } else {
            self.process(cx, Event::Receive { from, msg });
        }
        self.release_deferred(cx, false);
    }

    /// Process every deferred peer message that may be released,
    /// preserving per-link FIFO. `force` releases the oldest
    /// still-gated message unconditionally — the grace expired, so the
    /// state machine answers with an empty broadcast (Algorithm 1 line
    /// 15) rather than stalling the cluster.
    fn release_deferred(&mut self, cx: &mut Cx<'_>, mut force: bool) {
        if self.dead {
            return;
        }
        let mut i = 0;
        while i < self.deferred.len() {
            let from = self.deferred[i].0;
            // Per-link FIFO: an earlier deferred message from the same
            // sender must go first. (The head, i == 0, is never blocked.)
            if self.deferred.iter().take(i).any(|&(f, _)| f == from) {
                i += 1;
                continue;
            }
            if force || !self.gated(&self.deferred[i].1) {
                force = false; // the grace force-releases exactly one
                let Some((from, msg)) = self.deferred.remove(i) else { break };
                self.process(cx, Event::Receive { from, msg });
                if self.dead {
                    return;
                }
                // Processing can open rounds / advance the frontier and
                // ungate earlier-queued messages: re-scan from the front.
                i = 0;
            } else {
                i += 1;
            }
        }
        if self.deferred.is_empty() {
            self.gate_deadline = None;
        } else if self.gate_deadline.is_none() {
            self.gate_deadline = Some(Instant::now() + APP_GRACE);
        }
    }

    // --- input channel -------------------------------------------------

    /// Drain up to [`MAX_BATCH_DRAIN`] queued inputs. Returns whether
    /// the cap was hit (more input is waiting).
    fn drain_inputs(&mut self, cx: &mut Cx<'_>) -> bool {
        if self.dead {
            return false;
        }
        let mut n = 0;
        while n < MAX_BATCH_DRAIN {
            match self.input_rx.try_recv() {
                Ok(input) => {
                    n += 1;
                    self.handle_input(cx, input);
                    if self.dead {
                        return false;
                    }
                }
                Err(_) => return false,
            }
        }
        true
    }

    fn handle_input(&mut self, cx: &mut Cx<'_>, input: NodeInput) {
        match input {
            NodeInput::Broadcast(payload) => self.process(cx, Event::ABroadcast(payload)),
            NodeInput::Suspect(s) => {
                if self.detector.injected(s) {
                    self.process(cx, Event::Suspect { suspect: s })
                }
            }
            NodeInput::SetWindow(w) => self.server.set_round_window(w),
            NodeInput::Fault { to, fault } => self.apply_fault(cx, to, fault),
        }
        self.release_deferred(cx, false);
    }

    /// Apply one injected fault to the outbound link to `to`.
    fn apply_fault(&mut self, cx: &mut Cx<'_>, to: ServerId, fault: LinkFault) {
        // A zero rate removes the entry, so a cleared link skips the
        // sampler entirely.
        fn set_rate(table: &mut HashMap<ServerId, u32>, to: ServerId, ppm: u32) {
            if ppm == 0 {
                table.remove(&to);
            } else {
                table.insert(to, ppm);
            }
        }
        match fault {
            LinkFault::Drop { ppm } => set_rate(&mut self.drop_ppm, to, ppm),
            LinkFault::Flip { ppm } => set_rate(&mut self.flip_ppm, to, ppm),
            LinkFault::Down => self.fault_hold(cx, to, Hold::Manual),
            LinkFault::Flap { down_for } => self.fault_hold(cx, to, Hold::Until(cx.now + down_for)),
            LinkFault::Up => self.heal_link(cx, to),
            LinkFault::Clear => {
                set_rate(&mut self.drop_ppm, to, 0);
                set_rate(&mut self.flip_ppm, to, 0);
                self.heal_link(cx, to);
            }
        }
    }

    // --- readiness handlers --------------------------------------------

    fn on_accept_ready(&mut self, cx: &mut Cx<'_>) {
        if self.listener_muted {
            return;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.accept_failures = 0;
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let tok = cx.alloc_token();
                    if cx.poll.register(&stream, Token(tok), Interest::READABLE).is_err() {
                        continue;
                    }
                    cx.sources.insert(tok, Source::Conn { node: self.key });
                    self.conns.insert(
                        tok,
                        Conn {
                            stream,
                            interest: Interest::READABLE,
                            kind: ConnKind::InHandshake { buf: [0; HANDSHAKE_LEN], got: 0 },
                        },
                    );
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // A real accept error (typically fd exhaustion):
                    // count it, mute the listener, and re-arm after a
                    // capped backoff — the node degrades instead of
                    // spinning hot on a failing accept.
                    self.stats.on_accept_failure();
                    self.accept_failures = self.accept_failures.saturating_add(1);
                    let _ = cx.poll.deregister(&self.listener);
                    cx.sources.remove(&self.listener_token);
                    self.listener_muted = true;
                    self.accept_resume = Some(cx.now + accept_retry_delay(self.accept_failures));
                    break;
                }
            }
        }
    }

    fn on_udp_ready(&mut self, now: Instant) {
        let mut buf = [0u8; 16];
        loop {
            match self.udp.recv_from(&mut buf) {
                Ok((n, _)) => {
                    if let Some(from) = heartbeat::decode_heartbeat(&buf[..n]) {
                        self.detector.heartbeat(from, now);
                    }
                    // else: malformed datagram, drop
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    }

    fn on_conn_ready(
        &mut self,
        cx: &mut Cx<'_>,
        tok: usize,
        readable: bool,
        writable: bool,
        error: bool,
    ) {
        enum K {
            Connecting(ServerId),
            Out(ServerId),
            Handshake,
            In(ServerId),
        }
        let kind = match self.conns.get(&tok) {
            Some(c) => match &c.kind {
                ConnKind::OutConnecting { to } => K::Connecting(*to),
                ConnKind::Out { to, .. } => K::Out(*to),
                ConnKind::InHandshake { .. } => K::Handshake,
                ConnKind::In { from, .. } => K::In(*from),
            },
            None => return, // stale event for a closed conn
        };
        match kind {
            K::Connecting(to) => self.on_connect_ready(cx, tok, to, error),
            K::Out(to) => self.on_out_ready(cx, tok, to, readable, writable, error),
            K::Handshake => {
                if readable || error {
                    self.on_handshake_ready(cx, tok);
                }
            }
            K::In(from) => {
                if readable || error {
                    self.on_in_ready(cx, tok, from);
                }
            }
        }
    }

    /// A non-blocking connect resolved: writability with a clear
    /// `SO_ERROR` means established; anything else is a failed attempt.
    fn on_connect_ready(&mut self, cx: &mut Cx<'_>, tok: usize, to: ServerId, error: bool) {
        let ok = match self.conns.get_mut(&tok) {
            Some(conn) => !error && matches!(conn.stream.take_error(), Ok(None)),
            None => return,
        };
        if ok {
            self.establish_out(cx, tok, to);
        } else {
            self.close_conn(cx, tok);
            if let Some(link) = self.links.get_mut(&to) {
                if link.conn == Some(tok) {
                    link.conn = None;
                    link.attempt_deadline = None;
                }
            }
            self.schedule_retry(cx, to);
        }
    }

    /// Promote a completed connect into the Connected state: handshake
    /// first, then the buffered tail in order, all through the
    /// coalescing `WriteBuf`.
    fn establish_out(&mut self, cx: &mut Cx<'_>, tok: usize, to: ServerId) {
        let was_degraded = match self.links.get(&to) {
            Some(l) => l.state == OutState::Degraded,
            None => {
                self.close_conn(cx, tok);
                return;
            }
        };
        let mut wb = WriteBuf::new();
        let mut hs = Vec::with_capacity(HANDSHAKE_LEN);
        let _ = write_handshake(&mut hs, self.id); // Vec write: infallible
        wb.push(Bytes::from(hs));
        let mut replayed = 0u64;
        if let Some(link) = self.links.get_mut(&to) {
            while let Some(f) = link.queue.pop() {
                wb.push(f);
                replayed += 1;
            }
            link.state = OutState::Connected;
            link.conn = Some(tok);
            link.grace_deadline = None;
            link.next_attempt = None;
            link.attempt_deadline = None;
            link.attempt = 0;
        }
        if let Some(conn) = self.conns.get_mut(&tok) {
            conn.stream.set_nodelay(true).ok();
            conn.kind = ConnKind::Out { to, wb };
        }
        if was_degraded {
            // Initial-connect establishment is not a "reconnect": only
            // a Degraded→Connected transition heals a prior failure.
            self.stats.on_reconnect();
            if replayed > 0 {
                self.stats.on_replayed(replayed);
            }
        }
        self.set_interest(cx, tok, Interest::READABLE | Interest::WRITABLE);
        if !self.dirty.contains(&to) {
            self.dirty.push(to);
        }
    }

    /// Readiness on an established outbound link. The peer never sends
    /// protocol data on this direction, so readability is purely a
    /// disconnect probe (EOF/RST show up here long before a write
    /// fails).
    fn on_out_ready(
        &mut self,
        cx: &mut Cx<'_>,
        tok: usize,
        to: ServerId,
        readable: bool,
        writable: bool,
        error: bool,
    ) {
        if error {
            self.degrade(cx, to);
            return;
        }
        if readable {
            let mut dead = false;
            if let Some(conn) = self.conns.get_mut(&tok) {
                let mut scratch = [0u8; 1024];
                loop {
                    match conn.stream.read(&mut scratch) {
                        Ok(0) => {
                            dead = true;
                            break;
                        }
                        Ok(_) => {} // stray bytes on a write-only link: ignore
                        Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            dead = true;
                            break;
                        }
                    }
                }
            }
            if dead {
                self.degrade(cx, to);
                return;
            }
        }
        if writable {
            self.flush_link(cx, to);
        }
    }

    fn on_handshake_ready(&mut self, cx: &mut Cx<'_>, tok: usize) {
        // `Some(None)`: close the conn; `Some(Some(id))`: handshake done.
        let mut result: Option<Option<ServerId>> = None;
        if let Some(conn) = self.conns.get_mut(&tok) {
            if let ConnKind::InHandshake { buf, got } = &mut conn.kind {
                while *got < HANDSHAKE_LEN {
                    match conn.stream.read(&mut buf[*got..]) {
                        Ok(0) => {
                            result = Some(None);
                            break;
                        }
                        Ok(k) => *got += k,
                        Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            result = Some(None);
                            break;
                        }
                    }
                }
                if result.is_none() && *got == HANDSHAKE_LEN {
                    // Bad magic/version: drop the conn.
                    result = Some(parse_handshake(buf).ok());
                }
            }
        }
        match result {
            None => {} // handshake still partial: wait for more bytes
            // Only predecessors connect in: any other claimed id is a
            // stray or forged connection.
            Some(Some(from)) if self.detector.monitors(from) => {
                if let Some(conn) = self.conns.get_mut(&tok) {
                    conn.kind = ConnKind::In { from, reader: FrameReader::new() };
                }
                if self.detector.inbound_up(from) {
                    self.stats.on_healed();
                }
                // Frames behind the handshake are still in the socket
                // buffer; level-triggered epoll re-reports them.
            }
            Some(_) => {
                self.close_conn(cx, tok);
            }
        }
    }

    fn on_in_ready(&mut self, cx: &mut Cx<'_>, tok: usize, from: ServerId) {
        loop {
            let mut msgs: Vec<Message> = Vec::new();
            let mut closed = false;
            let mut corrupt = false;
            match self.conns.get_mut(&tok) {
                Some(conn) => {
                    if let ConnKind::In { reader, .. } = &mut conn.kind {
                        while msgs.len() < READ_BATCH {
                            match reader.read_frame(&mut conn.stream) {
                                Ok(Some(msg)) => msgs.push(msg),
                                Ok(None) => break, // would block
                                Err(e) => {
                                    // A corrupt frame (CRC/decode) is a
                                    // *link* fault: count it, then drop
                                    // the connection exactly like an EOF
                                    // — the stream past a bad frame
                                    // cannot be trusted to be framed.
                                    corrupt = is_corrupt_frame(&e);
                                    closed = true;
                                    break;
                                }
                            }
                        }
                    }
                }
                None => return,
            }
            let full_batch = msgs.len() == READ_BATCH;
            for msg in msgs {
                self.input_net(cx, from, msg);
                if self.dead {
                    return;
                }
            }
            if closed {
                if corrupt {
                    self.stats.on_corrupt_frame();
                }
                self.close_conn(cx, tok);
                self.stats.on_reader_disconnect();
                self.detector.inbound_down(from, cx.now);
                return;
            }
            if !full_batch {
                // The reader drained to a would-block: nothing buffered
                // in the FrameReader either (it only stops mid-frame),
                // so level-triggered epoll owns the resume.
                return;
            }
        }
    }

    // --- outbound link management --------------------------------------

    /// Launch a non-blocking connect attempt for `to`.
    fn start_connect(&mut self, cx: &mut Cx<'_>, to: ServerId) {
        let addr = match self.links.get_mut(&to) {
            Some(link) => {
                if link.hold.is_some() || link.conn.is_some() {
                    link.next_attempt = None;
                    return;
                }
                link.next_attempt = None;
                link.addr
            }
            None => return,
        };
        match mio::net::connect_nonblocking(addr) {
            Ok(stream) => {
                let tok = cx.alloc_token();
                if cx.poll.register(&stream, Token(tok), Interest::WRITABLE).is_err() {
                    self.schedule_retry(cx, to);
                    return;
                }
                cx.sources.insert(tok, Source::Conn { node: self.key });
                self.conns.insert(
                    tok,
                    Conn {
                        stream,
                        interest: Interest::WRITABLE,
                        kind: ConnKind::OutConnecting { to },
                    },
                );
                if let Some(link) = self.links.get_mut(&to) {
                    link.conn = Some(tok);
                    link.attempt_deadline = Some(cx.now + CONNECT_ATTEMPT_TIMEOUT);
                }
            }
            Err(_) => self.schedule_retry(cx, to),
        }
    }

    /// A connect attempt failed: back off (deterministic per-link
    /// jitter, so reconnect storms de-phase) or, for an initial connect
    /// that exhausted its attempt budget, drop the link to Down.
    fn schedule_retry(&mut self, cx: &mut Cx<'_>, to: ServerId) {
        let cap = self.opts.connect_attempts.max(1);
        let now = cx.now;
        let mut exhausted = false;
        if let Some(link) = self.links.get_mut(&to) {
            link.attempt = link.attempt.saturating_add(1);
            if link.state == OutState::Connecting && link.attempt >= cap {
                exhausted = true;
            } else {
                link.next_attempt = Some(now + link.policy.delay(link.attempt));
            }
        }
        if exhausted {
            self.link_to_down(cx, to, false);
        }
    }

    /// Write/connect failure on a Connected link: close the conn,
    /// recover its unwritten frames into the Degraded queue (bounded by
    /// the put-back budget), and start the grace clock + reconnect
    /// timer.
    fn degrade(&mut self, cx: &mut Cx<'_>, to: ServerId) {
        match self.links.get(&to) {
            Some(l) if l.state == OutState::Connected => {}
            _ => return, // duplicate events race: only one degrade per episode
        }
        let mut leftover = Vec::new();
        if let Some(tok) = self.links.get(&to).and_then(|l| l.conn) {
            if let Some(mut conn) = self.close_conn(cx, tok) {
                if let ConnKind::Out { wb, .. } = &mut conn.kind {
                    // The head frame replays whole from byte 0 on the
                    // fresh connection — the peer discarded the partial
                    // tail along with the dead socket.
                    leftover = wb.take_frames();
                }
            }
        }
        self.dirty.retain(|&d| d != to);
        let now = cx.now;
        let grace = self.opts.link_grace;
        let mut shed = 0u64;
        if let Some(link) = self.links.get_mut(&to) {
            link.conn = None;
            for f in leftover.into_iter().rev() {
                if !link.queue.push_front(f) {
                    shed += 1;
                }
            }
            link.state = OutState::Degraded;
            let held = link.hold.is_some();
            link.grace_deadline = if held { None } else { Some(now + grace) };
            link.next_attempt = if held { None } else { Some(now) };
            link.attempt = 0;
            link.attempt_deadline = None;
        }
        if shed > 0 {
            self.stats.on_shed(shed);
        }
        self.stats.on_degraded();
    }

    /// Grace or attempt budget exhausted: the link drops to Down, its
    /// backlog is shed, and only a fault-injection heal revives it.
    fn link_to_down(&mut self, cx: &mut Cx<'_>, to: ServerId, grace_expired: bool) {
        if let Some(tok) = self.links.get(&to).and_then(|l| l.conn) {
            self.close_conn(cx, tok);
        }
        let mut backlog = 0u64;
        if let Some(link) = self.links.get_mut(&to) {
            link.conn = None;
            while link.queue.pop().is_some() {
                backlog += 1;
            }
            link.state = OutState::Down;
            link.grace_deadline = None;
            link.next_attempt = None;
            link.attempt_deadline = None;
        }
        self.dirty.retain(|&d| d != to);
        if grace_expired {
            self.stats.on_grace_expired();
        }
        if backlog > 0 {
            self.stats.on_shed(backlog);
        }
    }

    /// Fault injection: hold the link to `to` down. Flushes what the
    /// socket will take first so already-queued bytes ride out with the
    /// FIN — an under-grace hold is lossless end to end.
    fn fault_hold(&mut self, cx: &mut Cx<'_>, to: ServerId, hold: Hold) {
        let Some(state) = self.links.get(&to).map(|l| l.state) else { return };
        let (high, low) = (self.opts.link_queue_high, self.opts.link_queue_low);
        match state {
            OutState::Connected => {
                if let Some(tok) = self.links.get(&to).and_then(|l| l.conn) {
                    let mut leftover = Vec::new();
                    if let Some(conn) = self.conns.get_mut(&tok) {
                        if let ConnKind::Out { wb, .. } = &mut conn.kind {
                            let _ = wb.flush(&mut conn.stream); // best-effort
                            leftover = wb.take_frames();
                        }
                    }
                    self.close_conn(cx, tok);
                    let mut shed = 0u64;
                    if let Some(link) = self.links.get_mut(&to) {
                        link.conn = None;
                        for f in leftover.into_iter().rev() {
                            if !link.queue.push_front(f) {
                                shed += 1;
                            }
                        }
                    }
                    if shed > 0 {
                        self.stats.on_shed(shed);
                    }
                }
                if let Some(link) = self.links.get_mut(&to) {
                    link.state = OutState::Degraded;
                }
                self.stats.on_degraded();
            }
            OutState::Down => {
                if let Some(link) = self.links.get_mut(&to) {
                    link.state = OutState::Degraded;
                    link.queue = FrameQueue::new(high, low);
                }
                self.stats.on_degraded();
            }
            OutState::Connecting => {
                // Cancel the in-flight attempt; the queue keeps
                // buffering while held.
                if let Some(tok) = self.links.get(&to).and_then(|l| l.conn) {
                    self.close_conn(cx, tok);
                }
                if let Some(link) = self.links.get_mut(&to) {
                    link.conn = None;
                    link.state = OutState::Degraded;
                }
                self.stats.on_degraded();
            }
            OutState::Degraded => {
                // Keep the buffered tail; cancel any in-flight attempt.
                if let Some(tok) = self.links.get(&to).and_then(|l| l.conn) {
                    self.close_conn(cx, tok);
                }
                if let Some(link) = self.links.get_mut(&to) {
                    link.conn = None;
                }
            }
        }
        if let Some(link) = self.links.get_mut(&to) {
            link.hold = Some(hold);
            // Held links heal, they do not expire or reconnect.
            link.grace_deadline = None;
            link.next_attempt = None;
            link.attempt_deadline = None;
        }
        self.dirty.retain(|&d| d != to);
    }

    /// Heal a fault-held link: resume the grace clock and reconnect.
    fn heal_link(&mut self, cx: &mut Cx<'_>, to: ServerId) {
        let now = cx.now;
        let grace = self.opts.link_grace;
        let (high, low) = (self.opts.link_queue_high, self.opts.link_queue_low);
        let mut degraded_stat = false;
        if let Some(link) = self.links.get_mut(&to) {
            if link.hold.is_none() {
                return;
            }
            link.hold = None;
            match link.state {
                OutState::Degraded => {
                    link.grace_deadline = Some(now + grace);
                    link.next_attempt = Some(now);
                    link.attempt = 0;
                }
                OutState::Down => {
                    link.state = OutState::Degraded;
                    link.queue = FrameQueue::new(high, low);
                    link.grace_deadline = Some(now + grace);
                    link.next_attempt = Some(now);
                    link.attempt = 0;
                    degraded_stat = true;
                }
                OutState::Connecting => {
                    link.next_attempt = Some(now);
                }
                OutState::Connected => {}
            }
        }
        if degraded_stat {
            self.stats.on_degraded();
        }
        let _ = cx;
    }

    /// Attempt to drain one Connected link's `WriteBuf` (one vectored
    /// write per call, more only if the socket keeps accepting). Write
    /// interest stays armed exactly while bytes remain buffered.
    fn flush_link(&mut self, cx: &mut Cx<'_>, to: ServerId) {
        let tok = match self.links.get(&to) {
            Some(l) if l.state == OutState::Connected => match l.conn {
                Some(t) => t,
                None => return,
            },
            _ => return,
        };
        let mut failed = false;
        let mut drained = false;
        if let Some(conn) = self.conns.get_mut(&tok) {
            if let ConnKind::Out { wb, .. } = &mut conn.kind {
                match wb.flush(&mut conn.stream) {
                    Ok(true) => drained = true,
                    Ok(false) => {} // socket full: wait for writability
                    Err(_) => failed = true,
                }
            }
        }
        if failed {
            self.degrade(cx, to);
            return;
        }
        let want =
            if drained { Interest::READABLE } else { Interest::READABLE | Interest::WRITABLE };
        self.set_interest(cx, tok, want);
    }

    /// Flush every link that buffered frames since the last batch.
    fn flush_dirty(&mut self, cx: &mut Cx<'_>) {
        let dirty = std::mem::take(&mut self.dirty);
        for to in dirty {
            self.flush_link(cx, to);
        }
    }

    fn set_interest(&mut self, cx: &mut Cx<'_>, tok: usize, want: Interest) {
        if let Some(conn) = self.conns.get_mut(&tok) {
            if conn.interest != want && cx.poll.reregister(&conn.stream, Token(tok), want).is_ok() {
                conn.interest = want;
            }
        }
    }

    /// Deregister + drop one connection. Returns it so callers can
    /// recover buffered frames before the socket closes.
    fn close_conn(&mut self, cx: &mut Cx<'_>, tok: usize) -> Option<Conn> {
        cx.sources.remove(&tok);
        let conn = self.conns.remove(&tok)?;
        let _ = cx.poll.deregister(&conn.stream);
        Some(conn)
    }

    // --- timers ---------------------------------------------------------

    /// Earliest pending deadline across all timed state: heartbeats,
    /// the failure detector, the app-grace gate, link graces and
    /// reconnect timers, flap auto-heals, and the accept-backoff resume.
    fn next_deadline(&self) -> Option<Instant> {
        let mut next: Option<Instant> = None;
        let mut fold = |d: Instant| {
            next = Some(match next {
                Some(n) if n <= d => n,
                _ => d,
            });
        };
        fold(self.next_hb_send);
        if let Some(d) = self.detector.next_deadline() {
            fold(d);
        }
        if let Some(d) = self.gate_deadline {
            fold(d);
        }
        if let Some(d) = self.accept_resume {
            fold(d);
        }
        for link in self.links.values() {
            if let Some(d) = link.grace_deadline {
                fold(d);
            }
            if let Some(d) = link.next_attempt {
                fold(d);
            }
            if let Some(d) = link.attempt_deadline {
                fold(d);
            }
            if let Some(Hold::Until(t)) = link.hold {
                fold(t);
            }
        }
        next
    }

    /// Fire every deadline that has passed.
    fn on_tick(&mut self, cx: &mut Cx<'_>) {
        if self.dead {
            return;
        }
        let now = cx.now;
        // Flap auto-heals first: a heal and an expiry racing the same
        // tick resolve in the link's favour.
        let heals: Vec<ServerId> = self
            .links
            .iter()
            .filter(|(_, l)| matches!(l.hold, Some(Hold::Until(t)) if t <= now))
            .map(|(&k, _)| k)
            .collect();
        for to in heals {
            self.heal_link(cx, to);
        }
        // Degraded links whose grace ran out drop to Down.
        let expired: Vec<ServerId> = self
            .links
            .iter()
            .filter(|(_, l)| l.grace_deadline.is_some_and(|d| d <= now))
            .map(|(&k, _)| k)
            .collect();
        for to in expired {
            self.link_to_down(cx, to, true);
        }
        // Predecessors the failure detector now suspects: heartbeat
        // silence or a reader grace that ran out.
        while let Some(p) = self.detector.expired(now) {
            self.stats.on_suspicion();
            self.process(cx, Event::Suspect { suspect: p });
            if self.dead {
                return;
            }
        }
        // App-grace gate expiry.
        if self.gate_deadline.is_some_and(|d| d <= now) {
            self.gate_deadline = None;
            self.release_deferred(cx, true);
            if self.dead {
                return;
            }
        }
        // Connect attempts that timed out.
        let timed_out: Vec<ServerId> = self
            .links
            .iter()
            .filter(|(_, l)| l.attempt_deadline.is_some_and(|d| d <= now))
            .map(|(&k, _)| k)
            .collect();
        for to in timed_out {
            if let Some(tok) = self.links.get(&to).and_then(|l| l.conn) {
                self.close_conn(cx, tok);
            }
            if let Some(link) = self.links.get_mut(&to) {
                link.conn = None;
                link.attempt_deadline = None;
            }
            self.schedule_retry(cx, to);
        }
        // Due connect attempts.
        let due: Vec<ServerId> = self
            .links
            .iter()
            .filter(|(_, l)| l.next_attempt.is_some_and(|d| d <= now))
            .map(|(&k, _)| k)
            .collect();
        for to in due {
            self.start_connect(cx, to);
        }
        // Accept backoff elapsed: re-arm the listener.
        if self.listener_muted && self.accept_resume.is_some_and(|t| t <= now) {
            self.accept_resume = None;
            let tok = self.listener_token;
            if cx.poll.register(&self.listener, Token(tok), Interest::READABLE).is_ok() {
                cx.sources.insert(tok, Source::Listener { node: self.key });
                self.listener_muted = false;
                // accept_failures resets on the next successful accept,
                // so repeated failures keep growing the backoff.
            } else {
                self.stats.on_accept_failure();
                self.accept_failures = self.accept_failures.saturating_add(1);
                self.accept_resume = Some(now + accept_retry_delay(self.accept_failures));
            }
        }
        // Heartbeat emission (Δ_hb), folded into the loop.
        if self.next_hb_send <= now {
            for addr in &self.succ_udp {
                // Best-effort: heartbeats are unreliable by design.
                let _ = self.udp.send_to(&self.hb_frame, addr);
            }
            self.next_hb_send = now + self.opts.fd.heartbeat_period;
        }
    }

    /// Deregister and close everything this node owns. Sockets close
    /// when the state drops — peers observe disconnects, exactly like a
    /// crash.
    fn teardown(&mut self, cx: &mut Cx<'_>) {
        let toks: Vec<usize> = self.conns.keys().copied().collect();
        for tok in toks {
            self.close_conn(cx, tok);
        }
        if !self.listener_muted {
            let _ = cx.poll.deregister(&self.listener);
        }
        cx.sources.remove(&self.listener_token);
        let _ = cx.poll.deregister(&self.udp);
        cx.sources.remove(&self.udp_token);
    }
}
