//! The [`Cluster`] facade: one submit/deliver API over any
//! [`Transport`].
//!
//! ```no_run
//! use allconcur_cluster::Cluster;
//! use allconcur_graph::gs::gs_digraph;
//! use bytes::Bytes;
//! use std::time::Duration;
//!
//! let mut cluster = Cluster::sim(gs_digraph(8, 3).unwrap());
//! let payloads: Vec<Bytes> = (0..8u8).map(|i| Bytes::from(vec![i; 64])).collect();
//! let round = cluster.run_round(&payloads, Duration::from_secs(10)).unwrap();
//! let reference = &round[&0];
//! for delivery in round.values() {
//!     assert_eq!(delivery.messages, reference.messages, "atomic broadcast");
//! }
//! ```

use crate::error::ClusterError;
use crate::sim::{SimOptions, SimTransport};
use crate::tcp::TcpTransport;
use crate::transport::{FaultCommand, Transport};
use allconcur_core::delivery::Delivery;
use allconcur_core::ServerId;
use allconcur_graph::Digraph;
use allconcur_net::runtime::RuntimeOptions;
use bytes::Bytes;
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

/// `Instant::now() + timeout` that survives `Duration::MAX`: a timeout
/// past what `Instant` can represent clamps to a year from now instead
/// of panicking on overflow. Every wall-clock wait budget above the
/// transports starts here.
pub fn deadline_after(timeout: Duration) -> Instant {
    let now = Instant::now();
    now.checked_add(timeout).unwrap_or_else(|| now + Duration::from_secs(60 * 60 * 24 * 365))
}

/// Receipt for one [`Cluster::submit`] call.
///
/// The handle records which server the payload was submitted through and
/// the payload itself; [`Cluster::wait_delivered`] turns it into the
/// delivery that carried the payload.
///
/// The `(origin, origin_seq)` pair is a correlation key: submissions
/// through one origin are carried in rounds in submission order, so the
/// `k`-th non-empty payload delivered for `origin` is the one with
/// `origin_seq == k` — no request ids on the wire needed. (The typed
/// `Service` layer in `allconcur-rsm` applies the same origin +
/// per-origin-sequence scheme one level down, at command granularity
/// within batched payloads.)
#[derive(Debug, Clone)]
pub struct SubmitHandle {
    origin: ServerId,
    seq: u64,
    origin_seq: u64,
    payload: Bytes,
}

impl SubmitHandle {
    /// The server the payload was submitted through.
    pub fn origin(&self) -> ServerId {
        self.origin
    }

    /// Facade-wide submission sequence number (submission order).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Per-origin submission sequence number: how many payloads were
    /// submitted through [`SubmitHandle::origin`] before this one (in
    /// the current configuration — reconfiguration restarts the count).
    pub fn origin_seq(&self) -> u64 {
        self.origin_seq
    }

    /// The submitted payload.
    pub fn payload(&self) -> &Bytes {
        &self.payload
    }
}

/// A running AllConcur deployment behind the unified submit/deliver API.
///
/// Construct over the simulator with [`Cluster::sim`] /
/// [`Cluster::sim_with`] or over real TCP sockets with [`Cluster::tcp`]
/// / [`Cluster::tcp_with`] — every other call is backend-agnostic, so
/// the same scenario runs unchanged on both (see the cross-backend
/// parity test in the umbrella crate).
pub struct Cluster {
    transport: Box<dyn Transport>,
    /// Per-server deliveries pulled from the transport but not yet
    /// consumed, in per-server A-delivery order.
    inbox: Vec<VecDeque<Delivery>>,
    next_seq: u64,
    /// Per-origin submission counters backing
    /// [`SubmitHandle::origin_seq`].
    next_origin_seq: Vec<u64>,
    /// The error that ended the last [`Cluster::deliveries`] stream, when
    /// it was something other than an ordinary timeout or a dead server.
    stream_error: Option<ClusterError>,
    /// Optional bound on each server's buffered-delivery queue; when
    /// exceeded, the oldest buffered delivery is dropped and counted.
    inbox_cap: Option<usize>,
    /// Deliveries dropped per server under [`Cluster::set_inbox_cap`].
    dropped: Vec<u64>,
}

impl Cluster {
    /// Wrap an arbitrary transport.
    pub fn new(transport: impl Transport + 'static) -> Cluster {
        let n = transport.n();
        Cluster {
            transport: Box::new(transport),
            inbox: vec![VecDeque::new(); n],
            next_seq: 0,
            next_origin_seq: vec![0; n],
            stream_error: None,
            inbox_cap: None,
            dropped: vec![0; n],
        }
    }

    /// Bound the per-server buffer of deliveries pulled while waiting
    /// for other servers (unbounded by default). Long-running consumers
    /// that stream only a few servers should set this: without a cap,
    /// every unread server's deliveries are retained forever. When the
    /// cap is exceeded the *oldest* buffered delivery for that server is
    /// dropped and counted in [`Cluster::dropped_deliveries`].
    pub fn set_inbox_cap(&mut self, cap: Option<usize>) {
        self.inbox_cap = cap;
    }

    /// Deliveries dropped at `id` because of [`Cluster::set_inbox_cap`].
    pub fn dropped_deliveries(&self, id: ServerId) -> u64 {
        self.dropped.get(id as usize).copied().unwrap_or(0)
    }

    /// Buffer a delivery pulled for a server nobody is currently waiting
    /// on, honouring the inbox cap.
    fn buffer(&mut self, at: ServerId, delivery: Delivery) {
        let queue = &mut self.inbox[at as usize];
        queue.push_back(delivery);
        if let Some(cap) = self.inbox_cap {
            while queue.len() > cap {
                queue.pop_front();
                self.dropped[at as usize] += 1;
            }
        }
    }

    /// A simulated deployment over `graph` with default [`SimOptions`]
    /// (the paper's TCP-cluster LogP profile).
    pub fn sim(graph: Digraph) -> Cluster {
        Cluster::sim_with(graph, SimOptions::default())
    }

    /// A simulated deployment with explicit options.
    pub fn sim_with(graph: Digraph, opts: SimOptions) -> Cluster {
        Cluster::new(SimTransport::new(graph, opts))
    }

    /// A real-sockets deployment on loopback with default
    /// [`RuntimeOptions`].
    pub fn tcp(graph: Digraph) -> Result<Cluster, ClusterError> {
        Cluster::tcp_with(graph, RuntimeOptions::default())
    }

    /// A real-sockets deployment with explicit options.
    pub fn tcp_with(graph: Digraph, opts: RuntimeOptions) -> Result<Cluster, ClusterError> {
        Ok(Cluster::new(TcpTransport::spawn(graph, opts)?))
    }

    /// Backend name (`"sim"` or `"tcp"` for the built-in transports).
    pub fn backend(&self) -> &'static str {
        self.transport.name()
    }

    /// Number of configured servers (alive or not).
    pub fn n(&self) -> usize {
        self.transport.n()
    }

    /// Whether `id` is live.
    pub fn is_live(&self, id: ServerId) -> bool {
        self.transport.is_live(id)
    }

    /// Servers currently live.
    pub fn live_servers(&self) -> Vec<ServerId> {
        (0..self.n() as ServerId).filter(|&id| self.transport.is_live(id)).collect()
    }

    /// Submit `payload` as `origin`'s message for its next open round.
    ///
    /// Under saturation the transport may shed the submission with
    /// [`ClusterError::Busy`] instead of queueing it unboundedly; the
    /// payload had no effect and can be retried after the suggested
    /// pause.
    ///
    /// Submissions queue: each server carries one payload per round, and
    /// extras ride in later rounds (the paper's request batching, §5).
    pub fn submit(
        &mut self,
        origin: ServerId,
        payload: Bytes,
    ) -> Result<SubmitHandle, ClusterError> {
        self.transport.submit(origin, payload.clone())?;
        let seq = self.next_seq;
        self.next_seq += 1;
        let origin_seq = self.next_origin_seq[origin as usize];
        self.next_origin_seq[origin as usize] += 1;
        Ok(SubmitHandle { origin, seq, origin_seq, payload })
    }

    /// Non-blocking variant of [`Cluster::next_delivery`]: the next
    /// delivery at any server if one is already available (buffered, or
    /// producible without waiting), else `Ok(None)`. The drain primitive
    /// for layered consumers that interleave submission and delivery
    /// handling (the `allconcur-rsm` `Service` uses it to resolve
    /// already-agreed responses without blocking).
    pub fn try_next_delivery(&mut self) -> Result<Option<(ServerId, Delivery)>, ClusterError> {
        match self.next_delivery(Duration::ZERO) {
            Ok(next) => Ok(Some(next)),
            Err(ClusterError::Timeout { .. }) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// The next delivery at any server, in backend order. Buffered
    /// deliveries (pulled while waiting for a specific server) are
    /// served first, lowest server id first.
    pub fn next_delivery(
        &mut self,
        timeout: Duration,
    ) -> Result<(ServerId, Delivery), ClusterError> {
        for (id, queue) in self.inbox.iter_mut().enumerate() {
            if let Some(delivery) = queue.pop_front() {
                return Ok((id as ServerId, delivery));
            }
        }
        match self.transport.poll_delivery(timeout)? {
            Some(next) => Ok(next),
            None => Err(ClusterError::Timeout { waited: timeout }),
        }
    }

    /// The next delivery at server `id`, pulling the transport (and
    /// buffering other servers' deliveries) until one arrives.
    ///
    /// `timeout` bounds the *total* wait, even while other servers keep
    /// delivering. Waiting on a crashed server with no buffered
    /// deliveries fails fast with [`ClusterError::ServerDown`].
    pub fn recv_delivery(
        &mut self,
        id: ServerId,
        timeout: Duration,
    ) -> Result<Delivery, ClusterError> {
        if (id as usize) >= self.n() {
            return Err(ClusterError::UnknownServer(id));
        }
        if let Some(delivery) = self.inbox[id as usize].pop_front() {
            return Ok(delivery);
        }
        let deadline = deadline_after(timeout);
        loop {
            if !self.transport.is_live(id) {
                // A dead server can still flush deliveries it produced
                // before the crash; drain those before giving up.
                match self.transport.poll_delivery(Duration::ZERO)? {
                    Some((at, delivery)) if at == id => return Ok(delivery),
                    Some((at, delivery)) => {
                        self.buffer(at, delivery);
                        continue;
                    }
                    None => return Err(ClusterError::ServerDown(id)),
                }
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(ClusterError::Timeout { waited: timeout });
            }
            match self.transport.poll_delivery(remaining)? {
                Some((at, delivery)) if at == id => return Ok(delivery),
                Some((at, delivery)) => self.buffer(at, delivery),
                None => return Err(ClusterError::Timeout { waited: timeout }),
            }
        }
    }

    /// Pull-based iterator over server `id`'s deliveries. The stream
    /// ends at the first `timeout` with nothing to report, or when the
    /// server is down and drained. Any *other* terminating error
    /// (lost liveness, I/O failure, shutdown) is retrievable afterwards
    /// via [`Cluster::take_stream_error`].
    pub fn deliveries(&mut self, id: ServerId, timeout: Duration) -> Deliveries<'_> {
        self.stream_error = None;
        Deliveries { cluster: self, id, timeout }
    }

    /// The abnormal error (anything except a timeout or a dead server)
    /// that ended the most recent [`Cluster::deliveries`] stream, if any.
    pub fn take_stream_error(&mut self) -> Option<ClusterError> {
        self.stream_error.take()
    }

    /// Block until the payload behind `handle` is A-delivered at its
    /// origin, and return that delivery. Deliveries scanned on the way
    /// stay buffered for [`Cluster::recv_delivery`], and the matching
    /// delivery itself is *not* consumed.
    ///
    /// Matching is by payload identity: the earliest delivery whose
    /// origin entry equals the submitted bytes resolves the handle.
    /// Pipelining *identical* payloads through one server therefore
    /// resolves every such handle to the first carrying round, and an
    /// *empty* payload also matches rounds the server joined with the
    /// reactive empty broadcast of Algorithm 1 line 15 — embed a request
    /// id in the payload (e.g. [`SubmitHandle::seq`]) when instances
    /// must be told apart.
    pub fn wait_delivered(
        &mut self,
        handle: &SubmitHandle,
        timeout: Duration,
    ) -> Result<Delivery, ClusterError> {
        let origin = handle.origin;
        if (origin as usize) >= self.n() {
            return Err(ClusterError::UnknownServer(origin));
        }
        let carries = |d: &Delivery| d.payload_of(origin) == Some(&handle.payload);
        if let Some(found) = self.inbox[origin as usize].iter().find(|d| carries(d)) {
            return Ok(found.clone());
        }
        let deadline = deadline_after(timeout);
        loop {
            if !self.transport.is_live(origin) {
                // Flush deliveries the origin produced before dying,
                // checking each for the match *before* buffering (the
                // inbox cap may evict what we are looking for).
                let mut found = self.inbox[origin as usize].iter().find(|d| carries(d)).cloned();
                while let Some((at, delivery)) = self.transport.poll_delivery(Duration::ZERO)? {
                    if found.is_none() && at == origin && carries(&delivery) {
                        found = Some(delivery.clone());
                    }
                    self.buffer(at, delivery);
                }
                return found.ok_or(ClusterError::ServerDown(origin));
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(ClusterError::Timeout { waited: timeout });
            }
            match self.transport.poll_delivery(remaining)? {
                Some((at, delivery)) => {
                    let hit = at == origin && carries(&delivery);
                    let result = hit.then(|| delivery.clone());
                    self.buffer(at, delivery);
                    if let Some(delivery) = result {
                        return Ok(delivery);
                    }
                }
                None => return Err(ClusterError::Timeout { waited: timeout }),
            }
        }
    }

    /// Run one lockstep round: submit `payloads[i]` for every live
    /// server `i`, then collect exactly one delivery per live server.
    ///
    /// `payloads` is indexed by server id and must cover the full
    /// configuration; entries of dead servers are ignored (pass
    /// anything, e.g. `Bytes::new()`).
    pub fn run_round(
        &mut self,
        payloads: &[Bytes],
        timeout: Duration,
    ) -> Result<BTreeMap<ServerId, Delivery>, ClusterError> {
        assert_eq!(payloads.len(), self.n(), "one payload per configured server");
        let live = self.live_servers();
        for &id in &live {
            self.transport.submit(id, payloads[id as usize].clone())?;
        }
        let mut round: BTreeMap<ServerId, Delivery> = BTreeMap::new();
        for &id in &live {
            let delivery = self.recv_delivery(id, timeout)?;
            round.insert(id, delivery);
        }
        Ok(round)
    }

    /// Fail-stop `id` right now; peers detect it via the backend's FD.
    /// Buffered deliveries already pulled from `id` remain readable.
    pub fn crash(&mut self, id: ServerId) -> Result<(), ClusterError> {
        self.transport.crash(id)
    }

    /// Inject a (possibly false) suspicion at `at` against `suspected`.
    pub fn suspect(&mut self, at: ServerId, suspected: ServerId) -> Result<(), ClusterError> {
        self.transport.suspect(at, suspected)
    }

    /// Inject a link-level fault (partition, loss, delay spike, reorder
    /// burst, link down/flap) or heal/clear one — the nemesis control
    /// surface.
    ///
    /// Support depends on the backend:
    ///
    /// | [`FaultCommand`]   | sim | tcp |
    /// |--------------------|-----|-----|
    /// | `Partition`        | yes | `Unsupported` |
    /// | `Isolate`          | yes | `Unsupported` |
    /// | `HealPartitions`   | yes | yes (no-op)   |
    /// | `Drop`             | yes | yes           |
    /// | `Delay`            | yes | `Unsupported` |
    /// | `Reorder`          | yes | `Unsupported` |
    /// | `LinkDown`         | yes | yes           |
    /// | `LinkFlap`         | yes | yes           |
    /// | `LinkUp`           | yes | yes           |
    /// | `ClearLinkFaults`  | yes | yes           |
    ///
    /// Unsupported commands return [`ClusterError::Unsupported`] and
    /// leave the deployment untouched, so callers can probe rather than
    /// special-case backends. See [`Transport::inject_fault`] for why the
    /// TCP column is sparse.
    pub fn inject_fault(&mut self, fault: &FaultCommand) -> Result<(), ClusterError> {
        self.transport.inject_fault(fault)
    }

    /// Set the round-pipelining window `W` (clamped to ≥ 1): how many
    /// consecutive agreement rounds every server keeps in flight.
    /// [`Cluster::submit`] already queues payloads ahead of the delivery
    /// frontier; the window controls how many of those queued rounds the
    /// protocol actually runs concurrently — `W` rounds in flight
    /// amortise the full network round-trip, so rounds/sec scales with
    /// `W` until CPU-bound. Deliveries stay strictly in round order per
    /// server. Survives [`Cluster::reconfigure`].
    pub fn set_round_window(&mut self, window: usize) -> Result<(), ClusterError> {
        self.transport.set_round_window(window)
    }

    /// Move the deployment to a fresh overlay (§3's agreed
    /// reconfiguration). Undelivered buffered deliveries are dropped;
    /// rounds restart from zero on the new configuration.
    pub fn reconfigure(&mut self, graph: Digraph) -> Result<(), ClusterError> {
        self.transport.reconfigure(graph)?;
        let n = self.transport.n();
        self.inbox = vec![VecDeque::new(); n];
        self.dropped = vec![0; n];
        self.next_origin_seq = vec![0; n];
        Ok(())
    }

    /// Graceful shutdown of every remaining server.
    pub fn shutdown(mut self) -> Result<(), ClusterError> {
        self.transport.shutdown()
    }

    /// The transport, for backend-specific instrumentation.
    pub fn transport_mut(&mut self) -> &mut dyn Transport {
        self.transport.as_mut()
    }

    /// The simulated backend, when this cluster runs on one — gives
    /// access to `SimCluster`'s latency/traffic/space instrumentation.
    pub fn sim_transport_mut(&mut self) -> Option<&mut SimTransport> {
        self.transport.as_any_mut().downcast_mut::<SimTransport>()
    }

    /// The TCP backend, when this cluster runs on one.
    pub fn tcp_transport_mut(&mut self) -> Option<&mut TcpTransport> {
        self.transport.as_any_mut().downcast_mut::<TcpTransport>()
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        let _ = self.transport.shutdown();
    }
}

/// Iterator returned by [`Cluster::deliveries`].
pub struct Deliveries<'a> {
    cluster: &'a mut Cluster,
    id: ServerId,
    timeout: Duration,
}

impl Iterator for Deliveries<'_> {
    type Item = Delivery;

    fn next(&mut self) -> Option<Delivery> {
        match self.cluster.recv_delivery(self.id, self.timeout) {
            Ok(delivery) => Some(delivery),
            // Ordinary ends of stream: nothing more in the window, or
            // the server is gone.
            Err(ClusterError::Timeout { .. } | ClusterError::ServerDown(_)) => None,
            // Abnormal end: remember it so the caller can distinguish a
            // quiet stream from a broken cluster.
            Err(e) => {
                self.cluster.stream_error = Some(e);
                None
            }
        }
    }
}
