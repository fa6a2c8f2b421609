//! [`Service`] — the typed replicated-state-machine engine.
//!
//! A `Service<S>` owns a [`Cluster`] (the whole deployment, simulated
//! or TCP) plus one [`Replica<S>`] per server, and pumps deliveries
//! internally: clients submit *typed* commands and get typed responses
//! back, never touching payload bytes, batches, or `Delivery` values.
//!
//! ```text
//!   submit(origin, cmd) ──► per-origin queue ──► batch ──► A-broadcast
//!                                                              │
//!        CommandHandle ◄── (origin, seq) ◄──────── agreed round │
//!              │                                                ▼
//!        wait(handle) ◄── typed response ◄── Replica::apply_round
//! ```
//!
//! Correlation is by **origin + per-origin sequence**: commands
//! submitted through one server are carried in rounds in submission
//! order (the transports preserve per-origin order, and batches unpack
//! in push order), so the `k`-th command applied from `origin` is the
//! one with sequence `k` — batching-aware, no request ids on the wire.

use crate::error::{FailReason, ServiceError};
use allconcur_cluster::{deadline_after, Cluster, ClusterError};
use allconcur_core::delivery::Delivery;
use allconcur_core::replica::{Codec, Replica, StateMachine};
use allconcur_core::{Round, ServerId};
use allconcur_durability::{
    CatchupSink, CatchupSource, DurabilityConfig, DurabilityStore, MidLogRot, RecoverOutcome,
    Recovered, ScrubReport, TornTail, VirtualDisk, Wal,
};
use allconcur_graph::Digraph;
use bytes::Bytes;
use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::marker::PhantomData;
use std::time::{Duration, Instant};

/// Commands pending at one origin, already encoded into the round
/// payload's batch framing (length-prefixed requests — the format
/// `allconcur_core::batch` speaks), plus their correlation sequences.
///
/// Encoding happens once, at [`Service::submit`], straight into this
/// buffer: flushing a round is a single copy-freeze of the accumulated
/// bytes instead of a per-command re-pack, and the buffer's capacity is
/// reused round over round.
#[derive(Debug, Default)]
struct PendingBatch {
    buf: Vec<u8>,
    seqs: Vec<u64>,
}

impl PendingBatch {
    fn is_empty(&self) -> bool {
        self.seqs.is_empty()
    }

    /// Freeze the accumulated batch into a round payload and reset for
    /// the next round, keeping both buffers' capacity.
    fn take_payload(&mut self) -> (Bytes, Vec<u64>) {
        let payload =
            if self.buf.is_empty() { Bytes::new() } else { Bytes::copy_from_slice(&self.buf) };
        self.buf.clear();
        (payload, std::mem::take(&mut self.seqs))
    }
}

/// The durable-acknowledgment engine of a [`Service`]: one write-ahead
/// log per server plus the harvested responses withheld until their
/// round can no longer be lost to a whole-cluster power failure.
///
/// A round is *durably acknowledged* once it is below the fsync
/// watermark of **at least one** server's WAL: uniform agreement makes
/// every server's durable log a prefix of the one agreed history, and
/// [`Service::recover`] rebuilds from the longest durable prefix across
/// all disks — so one durable copy is enough for the acknowledgment to
/// survive even a kill-everyone crash.
struct Durability<R> {
    cfg: DurabilityConfig,
    /// Configuration epoch: bumped at every recovery/reconfiguration,
    /// tagged into every WAL frame (rounds restart at zero per epoch).
    epoch: u64,
    /// One WAL per server, indexed by [`ServerId`].
    wals: Vec<Wal>,
    /// Harvested typed responses awaiting durability, per round in
    /// round order.
    pending: VecDeque<WithheldRound<R>>,
}

/// One round's harvested responses withheld until the round is durable:
/// `(round, [(origin, seq, response)])`.
type WithheldRound<R> = (Round, Vec<(ServerId, u64, R)>);

impl<R> Durability<R> {
    /// Highest round durable on at least one server.
    fn durable_tip(&self) -> Round {
        self.wals.iter().map(Wal::durable_rounds).max().unwrap_or(0)
    }
}

/// What [`Service::recover`] reconstructed and how — returned alongside
/// the recovered service so operators (and the nemesis harness) can
/// verify the crash was absorbed as designed.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// The fresh configuration epoch the recovered deployment runs in.
    pub epoch: u64,
    /// Agreed rounds reconstructed from the most advanced durable log.
    pub recovered_rounds: Round,
    /// Torn tail writes found (and trimmed) per server.
    pub torn: Vec<(ServerId, TornTail)>,
    /// Servers whose own log already reached the reference snapshot, so
    /// they caught up from log frames alone — no state copy.
    pub frames_only: Vec<ServerId>,
    /// Servers that needed the reference snapshot streamed (their log
    /// did not cover it: older epoch, torn too far back, or fresh disk).
    pub snapshot_catchup: Vec<ServerId>,
    /// Total bounded chunks streamed across all catch-up transfers.
    pub catchup_chunks: usize,
    /// Servers whose log had **mid-log rot** — a checksum failure on an
    /// acknowledged round that cannot be a torn tail. Their own history
    /// was refused (trimming it would silently unacknowledge durable
    /// rounds); they were rebuilt from the reference server's chunked
    /// catch-up instead.
    pub rotted: Vec<(ServerId, MidLogRot)>,
}

fn dur_err(e: io::Error) -> ServiceError {
    ServiceError::Durability(e)
}

/// Divergence-audit counters of a [`Service`] — the replica-integrity
/// observability surface, mirroring what `LinkStatsSnapshot` exposes at
/// the transport layer ([`Service::integrity_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntegrityStats {
    /// Audit rounds fully cross-checked (every expected digest arrived
    /// and was compared).
    pub audits: u64,
    /// Audit rounds where at least two replicas' digests disagreed.
    pub divergences: u64,
    /// Replicas quarantined because their digest dissented from a
    /// strict majority.
    pub quarantines: u64,
    /// Quarantined replicas healed back in via snapshot catch-up.
    pub rejoins: u64,
}

/// FNV-1a offset basis / prime for the replica state digest. FNV-1a
/// over the applied `(round, origin, payload)` tuples is deterministic
/// across replicas and platforms, and byte-at-a-time folding keeps the
/// apply path allocation-free.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Default divergence-audit cadence in rounds
/// ([`Service::set_audit_interval`]).
const DEFAULT_AUDIT_INTERVAL: u64 = 32;

/// Fold one applied `(round, origin, payload)` tuple into a replica's
/// incremental state digest. Every replica folds the same agreed
/// tuples in the same order, so equal digests ⇔ equal applied history
/// (up to hash collision) — without ever serializing the state.
// lint:hot_path — folded on every applied message of every round
fn fold_digest(mut digest: u64, round: Round, origin: ServerId, payload: &[u8]) -> u64 {
    for &byte in round.to_le_bytes().iter().chain(origin.to_le_bytes().iter()) {
        digest = (digest ^ byte as u64).wrapping_mul(FNV_PRIME);
    }
    for &byte in payload {
        digest = (digest ^ byte as u64).wrapping_mul(FNV_PRIME);
    }
    digest
}

/// A wait budget that only touches the wall clock on wall-clock
/// backends.
///
/// On the sim backend every `pump` is event-driven: the transport
/// advances virtual time and returns `false` the moment its event
/// queue drains, so `wait`/`sync` loops terminate without ever reading
/// `Instant::now()`. Keeping the wall clock out of sim runs means a
/// seeded replay (nemesis, golden transcripts) can never be perturbed
/// by host scheduling — the timeout argument still bounds each pump's
/// virtual-time budget, and a zero timeout still times out immediately.
enum Deadline {
    /// TCP and other wall-clock backends: a real deadline.
    Wall(Instant),
    /// Sim backend: no wall deadline; each iteration re-offers the full
    /// timeout as the virtual-time pump budget.
    Virtual(Duration),
}

impl Deadline {
    /// Budget for a backend: virtual for sim, wall otherwise.
    fn start(backend: &str, timeout: Duration) -> Self {
        if backend == "sim" {
            Deadline::Virtual(timeout)
        } else {
            Deadline::Wall(deadline_after(timeout))
        }
    }

    /// Time left to offer the next pump; `zero` means give up now.
    fn remaining(&self) -> Duration {
        match self {
            Deadline::Wall(at) => at.saturating_duration_since(Instant::now()),
            Deadline::Virtual(timeout) => *timeout,
        }
    }
}

/// Admission-control policy of a [`Service`]: when to shed a
/// [`Service::submit`] with [`ServiceError::Busy`] instead of queueing
/// it.
///
/// The service stays healthy under open-loop overload by bounding the
/// two places submissions can pile up: the per-origin pending batch
/// (commands encoded but not yet carried by a round) and the
/// write-ahead log's group-commit backlog (rounds appended but not yet
/// fsynced). A shed command has **no effect** — the client backs off
/// [`AdmissionConfig::retry_after`] and resubmits. Shedding only
/// engages once the round pipeline is saturated, so closed-loop
/// clients under the knee never see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Shed once an origin's pending batch holds this many commands
    /// while the pipeline window is full (default 8192 — roughly two
    /// deep rounds of batched commands).
    pub max_queued_per_origin: usize,
    /// With durability on: shed while any server's WAL has more than
    /// this many appended-but-unsynced rounds (default 64). A disk
    /// that cannot keep up must slow admissions, not grow the withheld
    /// acknowledgment queue without bound.
    pub max_wal_backlog_rounds: u64,
    /// Suggested client back-off reported in [`ServiceError::Busy`]
    /// (default 1 ms).
    pub retry_after: Duration,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_queued_per_origin: 8192,
            max_wal_backlog_rounds: 64,
            retry_after: Duration::from_millis(1),
        }
    }
}

/// Receipt for one [`Service::submit`] call, resolving to the typed
/// response of *this* command once its round delivers.
///
/// Redeem it with [`Service::wait`] (blocking) or
/// [`Service::try_response`] (non-blocking). The phantom type parameter
/// carries the response type, so redeeming a handle against a service
/// of a different state machine is a compile error.
pub struct CommandHandle<R> {
    origin: ServerId,
    seq: u64,
    _resp: PhantomData<fn() -> R>,
}

impl<R> CommandHandle<R> {
    /// The server the command was submitted through.
    pub fn origin(&self) -> ServerId {
        self.origin
    }

    /// Per-origin command sequence number (submission order through
    /// [`CommandHandle::origin`]).
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

impl<R> Clone for CommandHandle<R> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<R> Copy for CommandHandle<R> {}

impl<R> std::fmt::Debug for CommandHandle<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommandHandle")
            .field("origin", &self.origin)
            .field("seq", &self.seq)
            .finish()
    }
}

/// A replicated state machine service: every server of the wrapped
/// [`Cluster`] runs a [`Replica<S>`], commands go in typed, responses
/// come out typed.
///
/// Reads come in two consistencies, matching §1's discussion:
///
/// * [`Service::query_local`] — read any server's replica directly; no
///   coordination, stale by at most one round ("a server's view of the
///   shared state cannot fall behind more than one round");
/// * [`Service::query_linearizable`] — the query rides atomic broadcast
///   as a command and is answered at the agreed point.
pub struct Service<S: StateMachine> {
    cluster: Cluster,
    codec: S::Codec,
    replicas: Vec<Replica<S>>,
    /// Per-origin encoded-but-unflushed commands, in submission order.
    queues: Vec<PendingBatch>,
    /// Per-origin in-flight correlation: for each flushed round, the
    /// sequence numbers packed into that origin's payload.
    flights: Vec<VecDeque<(Round, Vec<u64>)>>,
    /// Per-origin next command sequence number. Monotone across
    /// reconfigurations so correlation keys never collide.
    next_seq: Vec<u64>,
    /// Rounds flushed (submitted to every live origin) this epoch.
    flushed: u64,
    /// Rounds whose responses were harvested (from the first replica to
    /// apply them) this epoch.
    harvested: u64,
    /// How many rounds may be in flight before [`Service::submit`]ted
    /// commands wait in the queue (≥ 1).
    pipeline: u64,
    /// When to shed submissions with [`ServiceError::Busy`] instead of
    /// queueing them (see [`AdmissionConfig`]).
    admission: AdmissionConfig,
    /// Submissions shed by admission control since construction.
    shed: u64,
    /// Per-origin resolved responses awaiting redemption, ascending by
    /// sequence (responses resolve in per-origin submission order, so a
    /// ring buffer + binary search beats a map: redemption is usually a
    /// front pop). Unclaimed responses accumulate, as they did under the
    /// previous map representation — redeem or drop handles promptly.
    resolved: Vec<VecDeque<(u64, S::Response)>>,
    failed: BTreeMap<(ServerId, u64), FailReason>,
    /// Per-round decoded commands, shared across replicas: the first
    /// delivery of a round decodes it once
    /// (`Replica::decode_round`), every later replica applies the
    /// cached commands (`Replica::apply_decoded`) instead of
    /// re-decoding the same agreed bytes n times. Bounded by
    /// [`Service::decoded_cache_rounds`]; a replica straggling past the
    /// window re-decodes — correctness is unaffected (codecs are
    /// deterministic).
    decoded: BTreeMap<Round, Vec<(ServerId, S::Command)>>,
    /// When enabled ([`Service::record_deliveries`]), every delivery
    /// ingested is appended here in ingestion order — the raw per-server
    /// A-delivery streams an external property checker (the nemesis
    /// harness) verifies the atomic-broadcast properties against.
    delivery_log: Option<Vec<(ServerId, Delivery)>>,
    /// Durable acknowledgment, when constructed with
    /// [`Service::with_durability`] / [`Service::recover`]: per-server
    /// WALs plus responses withheld until their round is fsynced
    /// somewhere. `None` keeps the original memory-only semantics.
    durability: Option<Durability<S::Response>>,
    /// Per-replica incremental FNV-1a state digest over applied
    /// `(round, origin, payload)` tuples — the divergence-audit input.
    digests: Vec<u64>,
    /// Published digests awaiting cross-check, per server:
    /// `(audit round, digest)` ascending by round.
    audit_log: Vec<VecDeque<(Round, u64)>>,
    /// First audit round each server is expected to vote on (moves
    /// past the snapshot point when a server rejoins after quarantine:
    /// it cannot vouch for rounds it restored rather than applied).
    audit_floor: Vec<Round>,
    /// Digest cross-check cadence in rounds; 0 disables the audit.
    audit_interval: u64,
    /// `Some(audit round)` while a server is quarantined: the digest
    /// cross-check at that round proved its replica diverged, so it
    /// answers no queries ([`ServiceError::Diverged`]) until healed.
    quarantined: Vec<Option<Round>>,
    /// After a rejoin, rounds at or below this are already covered by
    /// the rejoin snapshot: logged but not re-applied.
    resume_after: Vec<Option<Round>>,
    /// Divergence-audit counters.
    integrity: IntegrityStats,
}

/// Minimum rounds of decoded commands kept in [`Service`]'s share cache;
/// the effective bound scales with the pipeline depth (see
/// [`Service::decoded_cache_rounds`]).
const DECODED_CACHE_MIN_ROUNDS: usize = 16;

impl<S: StateMachine> Service<S> {
    /// Start a replicated `initial` state on `cluster`: every server's
    /// replica is seeded from `initial.snapshot()` — the same hand-off a
    /// joining server uses, so the snapshot path is exercised from round
    /// zero.
    pub fn new(cluster: Cluster, initial: &S) -> Result<Self, ServiceError> {
        let n = cluster.n();
        let snap = initial.snapshot();
        let replicas =
            (0..n).map(|_| Replica::from_snapshot(&snap)).collect::<Result<Vec<_>, _>>()?;
        Ok(Service::assemble(cluster, replicas, None))
    }

    /// The one place a `Service` is put together: `replicas` (one per
    /// server of `cluster`) at their starting state, everything else at
    /// its round-zero value.
    fn assemble(
        cluster: Cluster,
        replicas: Vec<Replica<S>>,
        durability: Option<Durability<S::Response>>,
    ) -> Self {
        let n = replicas.len();
        Service {
            cluster,
            codec: S::Codec::default(),
            replicas,
            queues: (0..n).map(|_| PendingBatch::default()).collect(),
            flights: vec![VecDeque::new(); n],
            next_seq: vec![0; n],
            flushed: 0,
            harvested: 0,
            pipeline: 1,
            admission: AdmissionConfig::default(),
            shed: 0,
            resolved: (0..n).map(|_| VecDeque::new()).collect(),
            failed: BTreeMap::new(),
            decoded: BTreeMap::new(),
            delivery_log: None,
            durability,
            digests: vec![FNV_OFFSET; n],
            audit_log: vec![VecDeque::new(); n],
            audit_floor: vec![0; n],
            audit_interval: DEFAULT_AUDIT_INTERVAL,
            quarantined: vec![None; n],
            resume_after: vec![None; n],
            integrity: IntegrityStats::default(),
        }
    }

    /// Start a replicated `initial` state with durable acknowledgment:
    /// one write-ahead log per server on the matching disk of `store`,
    /// group-committed per `cfg`. Every agreed round is logged *before*
    /// it is applied, and a command's typed response is withheld until
    /// its round is fsynced on at least one server — after which it
    /// survives even a whole-cluster power failure (see
    /// [`Service::recover`]).
    pub fn with_durability(
        cluster: Cluster,
        initial: &S,
        store: DurabilityStore,
        cfg: DurabilityConfig,
    ) -> Result<Self, ServiceError> {
        let n = cluster.n();
        if store.len() != n {
            return Err(dur_err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("store has {} disks for {n} servers", store.len()),
            )));
        }
        let mut service = Service::new(cluster, initial)?;
        let snap = initial.snapshot();
        let mut wals = Vec::with_capacity(n);
        for disk in store.into_disks() {
            wals.push(Wal::create(disk, cfg.clone(), &snap).map_err(dur_err)?);
        }
        service.durability = Some(Durability { cfg, epoch: 0, wals, pending: VecDeque::new() });
        Ok(service)
    }

    /// Rebuild a deployment from its per-server disks after a crash —
    /// even of every server at once.
    ///
    /// Each disk is recovered independently ([`Wal::recover`]): newest
    /// valid snapshot plus the longest checksummed contiguous log
    /// suffix, torn tail writes trimmed. The server with the highest
    /// epoch and most durable rounds defines the authoritative history
    /// (uniform agreement makes every durable log a prefix of it); all
    /// other servers catch up **incrementally** — a server whose own
    /// log reaches the reference snapshot point streams only the log
    /// frames it lacks, everyone else streams `snapshot + suffix` — in
    /// bounded chunks ([`DurabilityConfig::catchup_chunk_bytes`]).
    /// Finally every WAL starts a fresh epoch at the settled state, and
    /// the returned service agrees rounds from zero again.
    ///
    /// `initial` is only consulted for never-initialised disks (a
    /// first-boot recovery); `cluster` must be a freshly built
    /// deployment of the same `n` as `store`.
    pub fn recover(
        cluster: Cluster,
        initial: &S,
        store: DurabilityStore,
        cfg: DurabilityConfig,
    ) -> Result<(Self, RecoveryReport), ServiceError> {
        let n = cluster.n();
        if store.len() != n {
            return Err(dur_err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("store has {} disks for {n} servers", store.len()),
            )));
        }
        let initial_snap = initial.snapshot();
        let mut report = RecoveryReport::default();
        let mut wals = Vec::with_capacity(n);
        let mut recs = Vec::with_capacity(n);
        for (s, disk) in store.into_disks().into_iter().enumerate() {
            match Wal::recover_or_rot(disk, cfg.clone()).map_err(dur_err)? {
                RecoverOutcome::Intact(wal, rec) => {
                    wals.push(wal);
                    recs.push(rec);
                }
                RecoverOutcome::Rotted { disk, rot } => {
                    // Mid-log rot: an *acknowledged* round on this disk
                    // is damaged. Trimming it (the torn-tail action)
                    // would silently unacknowledge durable history, so
                    // this server's log is refused wholesale — it is
                    // treated as a fresh disk and rebuilt below from
                    // the reference server's chunked catch-up. Its
                    // rotted files are swept when the new epoch begins.
                    report.rotted.push((s as ServerId, rot));
                    wals.push(Wal::create(disk, cfg.clone(), &initial_snap).map_err(dur_err)?);
                    recs.push(Recovered {
                        epoch: 0,
                        snapshot: None,
                        snapshot_covers: 0,
                        suffix: Vec::new(),
                        torn: None,
                    });
                }
            }
        }
        for (s, rec) in recs.iter().enumerate() {
            if let Some(torn) = rec.torn.clone() {
                report.torn.push((s as ServerId, torn));
            }
        }

        // The authoritative durable history: highest epoch, then most
        // durable rounds. Every other durable log is a prefix of it.
        let top_epoch = recs.iter().map(|r| r.epoch).max().unwrap_or(0);
        let Some(reference) =
            (0..n).filter(|&s| recs[s].epoch == top_epoch).max_by_key(|&s| recs[s].tip())
        else {
            return Err(dur_err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "recovery needs at least one server",
            )));
        };
        let base = recs[reference].snapshot_covers;
        let tip = recs[reference].tip();
        report.recovered_rounds = tip;
        let reference_snapshot: &[u8] = match &recs[reference].snapshot {
            Some(bytes) => bytes,
            None => &initial_snap, // never-initialised disks: first boot
        };

        // Rebuild every server's state at `tip` via the chunked
        // catch-up protocol, transferring only what its own log does
        // not cover.
        let mut states: Vec<Bytes> = Vec::with_capacity(n);
        for s in 0..n {
            let own_tip = recs[s].tip();
            let frames_only = s == reference
                || (recs[s].epoch == top_epoch && recs[s].snapshot.is_some() && own_tip >= base);
            let (snap, from, suffix): (Option<&[u8]>, Round, &[Delivery]) = if frames_only {
                // The server's own log reaches the reference snapshot
                // point: stream just the rounds past its tip.
                (None, own_tip, &recs[reference].suffix[(own_tip - base) as usize..])
            } else {
                report.snapshot_catchup.push(s as ServerId);
                (Some(reference_snapshot), base, &recs[reference].suffix[..])
            };
            if frames_only && s != reference {
                report.frames_only.push(s as ServerId);
            }
            let mut sink = CatchupSink::new();
            for chunk in CatchupSource::new(snap, from, suffix, cfg.catchup_chunk_bytes) {
                report.catchup_chunks += 1;
                sink.accept(&chunk).map_err(dur_err)?;
            }
            let payload = sink.finish().map_err(dur_err)?;

            let mut replica: Replica<S> = if frames_only {
                // Start from the server's own durable state...
                let own_snapshot: &[u8] = match &recs[s].snapshot {
                    Some(bytes) => bytes,
                    None => &initial_snap,
                };
                let mut replica = Replica::from_snapshot(own_snapshot)?;
                for delivery in &recs[s].suffix {
                    replica.apply_round(delivery.round, &delivery.messages, true)?;
                }
                replica
            } else {
                let snapshot = payload.snapshot.as_deref().unwrap_or(&initial_snap);
                Replica::from_snapshot(snapshot)?
            };
            // ...then replay the streamed suffix on top.
            for delivery in &payload.suffix {
                replica.apply_round(delivery.round, &delivery.messages, true)?;
            }
            states.push(replica.snapshot());
        }

        // Settle the disks: fresh epoch, fresh snapshot, logs truncated.
        let new_epoch = top_epoch + 1;
        report.epoch = new_epoch;
        for (s, wal) in wals.iter_mut().enumerate() {
            wal.begin_epoch(new_epoch, &states[s]).map_err(dur_err)?;
        }

        let replicas = states
            .iter()
            .map(|snap| Replica::from_snapshot(snap))
            .collect::<Result<Vec<_>, _>>()?;
        let durability = Durability { cfg, epoch: new_epoch, wals, pending: VecDeque::new() };
        let service = Service::assemble(cluster, replicas, Some(durability));
        Ok((service, report))
    }

    /// Record every ingested delivery for external inspection (off by
    /// default — recording clones each delivery's refcounted payload
    /// list). The log survives [`Service::reconfigure`]; a consumer
    /// tracking configuration epochs should [`Service::take_delivery_log`]
    /// before reconfiguring, since rounds restart at zero afterwards.
    pub fn record_deliveries(&mut self, on: bool) {
        match (on, self.delivery_log.is_some()) {
            (true, false) => self.delivery_log = Some(Vec::new()),
            (false, true) => self.delivery_log = None,
            _ => {}
        }
    }

    /// Drain the recorded `(server, delivery)` stream (ingestion order;
    /// per-server subsequences are exactly each server's A-delivery
    /// order). Empty unless [`Service::record_deliveries`] is enabled.
    pub fn take_delivery_log(&mut self) -> Vec<(ServerId, Delivery)> {
        self.delivery_log.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Allow up to `depth` rounds in flight before further submissions
    /// queue (default 1). Deeper pipelines trade per-command latency for
    /// throughput — Fig. 8's rate/latency trade-off.
    ///
    /// The depth maps straight onto the transport's round-pipelining
    /// window: the deployment actually runs `depth` agreement rounds
    /// concurrently, instead of the service merely queueing ahead of
    /// one-round-at-a-time agreement. (Best-effort on the transport —
    /// a shut-down cluster keeps the service-side depth only.)
    pub fn set_pipeline(&mut self, depth: usize) {
        self.pipeline = depth.max(1) as u64;
        let _ = self.cluster.set_round_window(depth.max(1));
    }

    /// Rounds of decoded commands worth caching: the pipeline depth
    /// (every in-flight round can have deliveries outstanding) plus the
    /// same again for replica skew within rounds, floored at
    /// [`DECODED_CACHE_MIN_ROUNDS`]. Deep windows on TCP genuinely keep
    /// `depth` rounds of deliveries in flight, so a fixed constant would
    /// silently degrade to per-replica re-decoding.
    fn decoded_cache_rounds(&self) -> usize {
        DECODED_CACHE_MIN_ROUNDS.max(2 * self.pipeline as usize)
    }

    /// Rounds currently in flight: flushed to the transport but not yet
    /// harvested. Submissions keep flowing while this is below the
    /// pipeline depth.
    pub fn in_flight_rounds(&self) -> u64 {
        self.flushed - self.harvested
    }

    /// Replace the admission-control policy (defaults:
    /// [`AdmissionConfig::default`]).
    pub fn set_admission(&mut self, cfg: AdmissionConfig) {
        self.admission = cfg;
    }

    /// The active admission-control policy.
    pub fn admission(&self) -> &AdmissionConfig {
        &self.admission
    }

    /// Submissions shed with [`ServiceError::Busy`] since construction
    /// — the no-silent-shed counter: every refused command is visible
    /// here (and was reported typed to its caller).
    pub fn shed_count(&self) -> u64 {
        self.shed
    }

    /// Flush queued commands into the next round now, if the pipeline
    /// window allows — the explicit form of the flush [`Service::pump`]
    /// performs, for callers that interleave submission batches with
    /// round boundaries themselves (benchmarks, load generators).
    pub fn flush(&mut self) -> Result<(), ServiceError> {
        self.flush_if_ready()
    }

    /// Number of configured servers.
    pub fn n(&self) -> usize {
        self.cluster.n()
    }

    /// Backend name of the wrapped cluster (`"sim"` or `"tcp"`).
    pub fn backend(&self) -> &'static str {
        self.cluster.backend()
    }

    /// Servers currently live.
    pub fn live_servers(&self) -> Vec<ServerId> {
        self.cluster.live_servers()
    }

    /// The wrapped cluster, for instrumentation (e.g. the simulator's
    /// clock and traffic counters).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Mutable access to the wrapped cluster. Driving rounds manually
    /// while commands are in flight voids the correlation warranty.
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    /// Server `at`'s replica (bounded staleness: at most one round
    /// behind the freshest agreed state, §1).
    pub fn replica(&self, at: ServerId) -> Result<&Replica<S>, ServiceError> {
        self.replicas.get(at as usize).ok_or(ServiceError::Cluster(ClusterError::UnknownServer(at)))
    }

    /// Local read of server `at`'s state — no coordination, stale by at
    /// most one round. Drive the service ([`Service::pump`],
    /// [`Service::sync`], [`Service::wait`]) to keep replicas current.
    ///
    /// A quarantined replica answers [`ServiceError::Diverged`] instead
    /// of serving state the divergence audit proved wrong.
    pub fn query_local(&self, at: ServerId) -> Result<&S, ServiceError> {
        let replica = self.replica(at)?;
        if let Some(round) = self.quarantined_at(at) {
            return Err(ServiceError::Diverged { server: at, round });
        }
        Ok(replica.query())
    }

    /// Submit a typed command through `origin`. The command is encoded,
    /// queued, and packed with any other commands pending at `origin`
    /// into its next round payload (§5's request batching). The handle
    /// resolves with the command's typed response once its round
    /// delivers.
    pub fn submit(
        &mut self,
        origin: ServerId,
        command: &S::Command,
    ) -> Result<CommandHandle<S::Response>, ServiceError> {
        if (origin as usize) >= self.cluster.n() {
            return Err(ServiceError::Cluster(ClusterError::UnknownServer(origin)));
        }
        if !self.cluster.is_live(origin) {
            return Err(ServiceError::OriginDown(origin));
        }
        // Admission control: once the round pipeline is saturated, a
        // full pending batch or a lagging group commit sheds the
        // command instead of queueing it unboundedly. The checks run
        // before encoding, so a shed command touches no buffer.
        let pipeline_full = self.in_flight_rounds() >= self.pipeline;
        let origin_full =
            self.queues[origin as usize].seqs.len() >= self.admission.max_queued_per_origin;
        let wal_behind = self.durability.as_ref().is_some_and(|d| {
            d.wals.iter().any(|w| w.unsynced_rounds() > self.admission.max_wal_backlog_rounds)
        });
        if (pipeline_full && origin_full) || wal_behind {
            self.shed += 1;
            return Err(ServiceError::Busy { retry_after: self.admission.retry_after });
        }
        // Encode straight into the origin's pending batch buffer under
        // the batch framing (u32-le length prefix, backfilled after the
        // codec has written), skipping the intermediate `Bytes`.
        let queue = &mut self.queues[origin as usize];
        let start = queue.buf.len();
        queue.buf.extend_from_slice(&[0u8; 4]);
        self.codec.encode_into(command, &mut queue.buf);
        let len = (queue.buf.len() - start - 4) as u32;
        queue.buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
        let seq = self.next_seq[origin as usize];
        self.next_seq[origin as usize] += 1;
        queue.seqs.push(seq);
        Ok(CommandHandle { origin, seq, _resp: PhantomData })
    }

    /// Submit and wait: the typed response once the command's round is
    /// agreed and applied.
    pub fn execute(
        &mut self,
        origin: ServerId,
        command: &S::Command,
        timeout: Duration,
    ) -> Result<S::Response, ServiceError> {
        let handle = self.submit(origin, command)?;
        self.wait(&handle, timeout)
    }

    /// Linearizable read: the query rides atomic broadcast like any
    /// write and is answered at the agreed point (§1's strongly
    /// consistent read). Alias of [`Service::execute`] named for call
    /// sites where the command is a pure read.
    pub fn query_linearizable(
        &mut self,
        origin: ServerId,
        query: &S::Command,
        timeout: Duration,
    ) -> Result<S::Response, ServiceError> {
        self.execute(origin, query, timeout)
    }

    /// Block until `handle`'s command is agreed and applied, and return
    /// its typed response. Each handle redeems once; waiting again (or
    /// after [`Service::try_response`] returned the value) times out.
    pub fn wait(
        &mut self,
        handle: &CommandHandle<S::Response>,
        timeout: Duration,
    ) -> Result<S::Response, ServiceError> {
        let key = (handle.origin, handle.seq);
        // Fast path: already agreed and applied — no clock reads.
        if let Some(response) = self.take_resolved(handle.origin, handle.seq) {
            return Ok(response);
        }
        let deadline = Deadline::start(self.cluster.backend(), timeout);
        loop {
            if let Some(response) = self.take_resolved(handle.origin, handle.seq) {
                return Ok(response);
            }
            if let Some(reason) = self.failed.remove(&key) {
                return Err(reason.into());
            }
            // Commit wait: the response is harvested but withheld for
            // durability — force the group commit early rather than
            // stall a blocked client behind the fsync batching window.
            if self.durable_ack_withheld(handle.origin, handle.seq) {
                self.flush_durability()?;
                if let Some(response) = self.take_resolved(handle.origin, handle.seq) {
                    return Ok(response);
                }
                // Not released (disk-slow fault everywhere): fall
                // through and keep pumping until the budget runs out.
            }
            let remaining = deadline.remaining();
            if remaining.is_zero() {
                return Err(ServiceError::Timeout { waited: timeout });
            }
            if !self.pump(remaining)? {
                // Nothing arrived in the whole window. If the origin is
                // dead and the command never reached the transport, it
                // can no longer make progress — report that. A command
                // already *in flight* may still be carried (crash after
                // propagation), so its outcome is genuinely unknown:
                // report a timeout, not a resubmittable failure.
                let in_flight = self.flights[handle.origin as usize]
                    .iter()
                    .any(|(_, seqs)| seqs.contains(&handle.seq));
                if !self.cluster.is_live(handle.origin) && !in_flight {
                    return Err(ServiceError::OriginDown(handle.origin));
                }
                return Err(ServiceError::Timeout { waited: timeout });
            }
        }
    }

    /// Non-blocking redeem: `Some(response)` if `handle`'s command has
    /// already been applied. Deliveries the transport has ready are
    /// drained first (without waiting), so a response that has already
    /// been agreed is found even if nothing else pumps the service.
    pub fn try_response(
        &mut self,
        handle: &CommandHandle<S::Response>,
    ) -> Result<Option<S::Response>, ServiceError> {
        self.fail_dead_queued();
        self.flush_if_ready()?;
        while let Some((at, delivery)) = self.cluster.try_next_delivery()? {
            self.ingest(at, delivery)?;
        }
        let key = (handle.origin, handle.seq);
        if let Some(reason) = self.failed.remove(&key) {
            return Err(reason.into());
        }
        Ok(self.take_resolved(handle.origin, handle.seq))
    }

    /// One engine step: flush queued commands into a round if the
    /// pipeline window allows, then wait up to `timeout` for the next
    /// delivery and apply it. Returns whether a delivery was applied.
    // lint:hot_path — the RSM engine step, called once per delivery
    pub fn pump(&mut self, timeout: Duration) -> Result<bool, ServiceError> {
        self.fail_dead_queued();
        self.flush_if_ready()?;
        match self.cluster.next_delivery(timeout) {
            Ok((at, delivery)) => {
                self.ingest(at, delivery)?;
                Ok(true)
            }
            Err(ClusterError::Timeout { .. }) => Ok(false),
            Err(e) => Err(e.into()),
        }
    }

    /// Drive until quiescent: every queued command flushed, every
    /// in-flight round agreed, and every live replica caught up on all
    /// flushed rounds. The barrier to call before comparing replicas or
    /// reconfiguring.
    pub fn sync(&mut self, timeout: Duration) -> Result<(), ServiceError> {
        let deadline = Deadline::start(self.cluster.backend(), timeout);
        loop {
            self.fail_dead_queued();
            self.flush_if_ready()?;
            // A barrier settles durability too: force the group commit
            // so withheld acknowledgments release (no-op when every
            // pending round is already durable somewhere).
            if self.durability.as_ref().is_some_and(|d| !d.pending.is_empty()) {
                self.flush_durability()?;
            }
            if self.is_quiescent() {
                return Ok(());
            }
            let remaining = deadline.remaining();
            if remaining.is_zero() {
                return Err(ServiceError::Timeout { waited: timeout });
            }
            if !self.pump(remaining)? && !self.is_quiescent() {
                return Err(ServiceError::Timeout { waited: timeout });
            }
        }
    }

    /// Fail-stop `id` right now. Its queued-but-unflushed commands fail
    /// with [`ServiceError::OriginDown`]; commands already handed to the
    /// transport either ride their round (crash after propagation) or
    /// fail with [`ServiceError::CommandLost`] (round agreed without
    /// the origin's message).
    pub fn crash(&mut self, id: ServerId) -> Result<(), ServiceError> {
        self.cluster.crash(id)?;
        self.fail_dead_queued();
        Ok(())
    }

    /// Inject a (possibly false) suspicion at `at` against `suspected`.
    pub fn suspect(&mut self, at: ServerId, suspected: ServerId) -> Result<(), ServiceError> {
        self.cluster.suspect(at, suspected)?;
        Ok(())
    }

    /// Move the deployment to a fresh overlay (§3's agreed
    /// reconfiguration), carrying the replicated state across via
    /// snapshot: outstanding work is settled ([`Service::sync`]), the
    /// most advanced live replica is snapshotted, and every server of
    /// the new configuration — surviving or joining — restores from
    /// that snapshot, so joiners catch up without replaying history.
    /// Rounds and correlation restart from zero on the new overlay.
    pub fn reconfigure(&mut self, graph: Digraph, timeout: Duration) -> Result<(), ServiceError> {
        self.sync(timeout)?;
        // Never seed the new configuration from a quarantined replica.
        let source = self
            .cluster
            .live_servers()
            .into_iter()
            .find(|&id| self.quarantined[id as usize].is_none())
            .ok_or(ServiceError::Cluster(ClusterError::ShutDown))?;
        let snap = self.replicas[source as usize].snapshot();
        self.cluster.reconfigure(graph)?;
        let n = self.cluster.n();
        if let Some(d) = &self.durability {
            if d.wals.len() != n {
                return Err(dur_err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    format!(
                        "reconfiguring {} durable servers to {n}: provision disks and recover \
                         instead (membership size changes need one disk per server)",
                        d.wals.len()
                    ),
                )));
            }
            // Rejoining servers receive the settled state through the
            // chunked catch-up protocol — bounded chunks, one sink per
            // server — instead of one whole-snapshot hand-off.
            let chunk_bytes = d.cfg.catchup_chunk_bytes;
            let chunks: Vec<Vec<u8>> =
                CatchupSource::new(Some(&snap), self.harvested, &[], chunk_bytes).collect();
            let mut replicas = Vec::with_capacity(n);
            for _ in 0..n {
                let mut sink = CatchupSink::new();
                for chunk in &chunks {
                    sink.accept(chunk).map_err(dur_err)?;
                }
                let payload = sink.finish().map_err(dur_err)?;
                let state = payload.snapshot.unwrap_or_default();
                replicas.push(Replica::from_snapshot(&state)?);
            }
            self.replicas = replicas;
        } else {
            self.replicas =
                (0..n).map(|_| Replica::from_snapshot(&snap)).collect::<Result<Vec<_>, _>>()?;
        }
        // Settle every WAL at the new configuration: fresh epoch, fresh
        // snapshot of the agreed state, old segments truncated. Rounds
        // restart at zero on disk exactly as they do in flight.
        if let Some(d) = self.durability.as_mut() {
            let new_epoch = d.epoch + 1;
            for wal in &mut d.wals {
                wal.begin_epoch(new_epoch, &snap).map_err(dur_err)?;
            }
            d.epoch = new_epoch;
        }
        // Defensive: anything still unflushed or in flight (sync can
        // only leave residue behind a dead origin) fails typed.
        for origin in 0..self.queues.len() {
            self.queues[origin].buf.clear();
            for seq in std::mem::take(&mut self.queues[origin].seqs) {
                self.failed.insert((origin as ServerId, seq), FailReason::Reconfigured);
            }
            for (_, seqs) in std::mem::take(&mut self.flights[origin]) {
                for seq in seqs {
                    self.failed.insert((origin as ServerId, seq), FailReason::Reconfigured);
                }
            }
        }
        self.queues = (0..n).map(|_| PendingBatch::default()).collect();
        self.flights = vec![VecDeque::new(); n];
        // Sequence numbers restart above every previously issued number
        // so old unclaimed correlation keys cannot collide with new ones
        // — even for server ids that leave and later reappear across
        // several reconfigurations.
        let floor = self.next_seq.iter().copied().max().unwrap_or(0);
        self.next_seq = vec![floor; n];
        // Unclaimed responses stay redeemable (sequence floors keep old
        // and new correlation keys disjoint) — grow for the new n but
        // never shrink: a shrinking reconfiguration must not drop
        // resolved responses of removed origins.
        while self.resolved.len() < n {
            self.resolved.push(VecDeque::new());
        }
        self.flushed = 0;
        self.harvested = 0;
        // Rounds restart from zero on the new overlay: cached decodes of
        // old-configuration rounds must not leak into the new numbering.
        self.decoded.clear();
        // Every replica of the new configuration restored from the same
        // settled snapshot: digests and audit state restart with the new
        // round numbering, and any quarantine is healed by the restore.
        self.digests = vec![FNV_OFFSET; n];
        self.audit_log = vec![VecDeque::new(); n];
        self.audit_floor = vec![0; n];
        self.quarantined = vec![None; n];
        self.resume_after = vec![None; n];
        Ok(())
    }

    /// Snapshot of the most advanced live replica's state. Quarantined
    /// replicas are never snapshot sources — their state is exactly
    /// what the divergence audit refused to trust.
    pub fn snapshot(&self) -> Result<Bytes, ServiceError> {
        let best = self
            .cluster
            .live_servers()
            .into_iter()
            .filter(|&id| self.quarantined[id as usize].is_none())
            .max_by_key(|&id| self.replicas[id as usize].applied_rounds())
            .ok_or(ServiceError::Cluster(ClusterError::ShutDown))?;
        Ok(self.replicas[best as usize].snapshot())
    }

    /// Graceful shutdown of the deployment.
    pub fn shutdown(self) -> Result<(), ServiceError> {
        self.cluster.shutdown()?;
        Ok(())
    }

    // ---- integrity surface ------------------------------------------------

    /// Set the divergence-audit cadence: every `interval` rounds each
    /// replica publishes its incremental state digest, and once every
    /// expected replica's digest for an audit round is in they are
    /// cross-checked — a replica dissenting from a strict majority is
    /// quarantined ([`ServiceError::Diverged`]) and later healed back
    /// in via snapshot catch-up. `0` disables the audit (default: 32).
    pub fn set_audit_interval(&mut self, interval: u64) {
        self.audit_interval = interval;
    }

    /// The active divergence-audit cadence in rounds (0 = audits off).
    pub fn audit_interval(&self) -> u64 {
        self.audit_interval
    }

    /// Divergence-audit counters since construction.
    pub fn integrity_stats(&self) -> IntegrityStats {
        self.integrity
    }

    /// `Some(audit round)` while server `id`'s replica is quarantined.
    pub fn quarantined_at(&self, id: ServerId) -> Option<Round> {
        self.quarantined.get(id as usize).copied().flatten()
    }

    /// Fault injection: silently corrupt server `at`'s replica by
    /// applying `command` **outside** agreement — state no agreed round
    /// carried, exactly what bit rot or a non-deterministic apply would
    /// produce. The corruption stays invisible (local queries answer
    /// from the poisoned state) until the next digest cross-check
    /// exposes and quarantines the replica. Test/nemesis surface.
    pub fn poison_replica(
        &mut self,
        at: ServerId,
        command: &S::Command,
    ) -> Result<(), ServiceError> {
        if (at as usize) >= self.cluster.n() {
            return Err(ServiceError::Cluster(ClusterError::UnknownServer(at)));
        }
        // Perturb state *and* digest, as a genuinely corrupt apply
        // would: the digest now attests to history no other replica
        // applied.
        let bytes = self.codec.encode(command);
        let round = self.replicas[at as usize].last_round().map_or(0, |r| r + 1);
        self.digests[at as usize] = fold_digest(self.digests[at as usize], round, at, &bytes);
        self.replicas[at as usize].apply_unchecked(at, command.clone());
        Ok(())
    }

    // ---- durability surface -----------------------------------------------

    /// The active durability policy, when durable acknowledgment is on.
    pub fn durability_config(&self) -> Option<&DurabilityConfig> {
        self.durability.as_ref().map(|d| &d.cfg)
    }

    /// Current configuration epoch of the durable logs (bumped at every
    /// recovery and reconfiguration), when durability is on.
    pub fn durability_epoch(&self) -> Option<u64> {
        self.durability.as_ref().map(|d| d.epoch)
    }

    /// Highest round durable on at least one server — the point a
    /// whole-cluster crash cannot roll acknowledgments behind. `None`
    /// without durability.
    pub fn durable_rounds(&self) -> Option<Round> {
        self.durability.as_ref().map(Durability::durable_tip)
    }

    /// Server `id`'s write-ahead log, when durability is on.
    pub fn wal(&self, id: ServerId) -> Option<&Wal> {
        self.durability.as_ref().and_then(|d| d.wals.get(id as usize))
    }

    /// Run a read-only integrity scrub over server `id`'s write-ahead
    /// log: every frame checksum, epoch tag, and round slot of the
    /// current epoch is re-verified in place, plus the newest snapshot.
    /// `None` without durability; mid-log rot surfaces as the typed
    /// [`allconcur_durability::MidLogRot`] inside the error. The online
    /// counterpart of recovery's classification — run it periodically
    /// so rot is found before the next crash depends on the log.
    pub fn scrub_wal(&mut self, id: ServerId) -> Option<Result<ScrubReport, ServiceError>> {
        self.durability
            .as_mut()
            .and_then(|d| d.wals.get_mut(id as usize))
            .map(|wal| wal.scrub().map_err(dur_err))
    }

    /// Server `id`'s disk, for fault injection and inspection (e.g.
    /// downcasting to [`allconcur_durability::MemDisk`] to inject a
    /// torn write or a disk-slow fsync spike).
    pub fn wal_disk_mut(&mut self, id: ServerId) -> Option<&mut dyn VirtualDisk> {
        self.durability.as_mut().and_then(|d| d.wals.get_mut(id as usize)).map(Wal::disk_mut)
    }

    /// Force the group commit now on every server whose WAL has
    /// unsynced rounds, then release any acknowledgments that became
    /// durable. No-op without durability; under a disk-slow fault the
    /// affected server's watermark simply does not advance.
    pub fn flush_durability(&mut self) -> Result<(), ServiceError> {
        if let Some(d) = self.durability.as_mut() {
            for wal in &mut d.wals {
                if wal.unsynced_rounds() > 0 {
                    wal.sync().map_err(dur_err)?;
                }
            }
        }
        self.release_durable();
        Ok(())
    }

    /// Tear the deployment down but keep the disks: what a crash leaves
    /// behind, handed back for [`Service::recover`]. Returns `None` if
    /// the service ran without durability. No final fsync is forced —
    /// unsynced tail rounds are genuinely at the disk model's mercy,
    /// exactly as in a real power loss.
    pub fn shutdown_into_store(self) -> Result<Option<DurabilityStore>, ServiceError> {
        self.cluster.shutdown()?;
        Ok(self
            .durability
            .map(|d| DurabilityStore::from_disks(d.wals.into_iter().map(Wal::into_disk).collect())))
    }

    // ---- engine internals -------------------------------------------------

    /// Remove and return the resolved response for `(origin, seq)`, if
    /// present. Responses resolve in ascending sequence order per
    /// origin, so this is a binary search over the origin's ring — and
    /// in the common redeem-in-order pattern, a front pop.
    fn take_resolved(&mut self, origin: ServerId, seq: u64) -> Option<S::Response> {
        let queue = self.resolved.get_mut(origin as usize)?;
        let idx = queue.binary_search_by_key(&seq, |&(s, _)| s).ok()?;
        queue.remove(idx).map(|(_, response)| response)
    }

    /// Commands queued behind a dead origin can never be carried; fail
    /// them typed.
    fn fail_dead_queued(&mut self) {
        for origin in 0..self.queues.len() {
            if !self.cluster.is_live(origin as ServerId) && !self.queues[origin].is_empty() {
                self.queues[origin].buf.clear();
                for seq in std::mem::take(&mut self.queues[origin].seqs) {
                    self.failed.insert(
                        (origin as ServerId, seq),
                        FailReason::OriginDown(origin as ServerId),
                    );
                }
            }
        }
    }

    /// Open the next round if any commands are queued and the pipeline
    /// window allows: one payload per live origin (empty for origins
    /// with nothing pending — every server participates in every round).
    // lint:hot_path — runs on every pump; idle calls must not allocate
    fn flush_if_ready(&mut self) -> Result<(), ServiceError> {
        if self.flushed - self.harvested >= self.pipeline {
            return Ok(());
        }
        // Allocation-free idle check first: `pump` calls this on every
        // delivery, and almost all of those calls have nothing to flush.
        let any_pending = self
            .queues
            .iter()
            .enumerate()
            .any(|(id, q)| !q.is_empty() && self.cluster.is_live(id as ServerId));
        if !any_pending {
            return Ok(());
        }
        let live = self.cluster.live_servers();
        let round = self.flushed;
        // The round is now considered open no matter what happens below:
        // a partial flush must never reuse this round number, or flight
        // entries would duplicate and correlation would wedge forever.
        self.flushed += 1;
        let mut fatal: Option<ClusterError> = None;
        for &id in &live {
            let (payload, seqs) = self.queues[id as usize].take_payload();
            match self.cluster.submit(id, payload) {
                Ok(_handle) => self.flights[id as usize].push_back((round, seqs)),
                // The origin died between live_servers() and submit: its
                // commands can never be carried; the round proceeds with
                // the remaining origins (early termination excludes it).
                Err(ClusterError::ServerDown(_) | ClusterError::UnknownServer(_)) => {
                    for seq in seqs {
                        self.failed.insert((id, seq), FailReason::OriginDown(id));
                    }
                }
                // Transport-level failure: keep the flight so round
                // accounting stays consistent (if the round never
                // delivers, the handles time out), and report it.
                Err(e) => {
                    self.flights[id as usize].push_back((round, seqs));
                    fatal.get_or_insert(e);
                }
            }
        }
        match fatal {
            Some(e) => Err(e.into()),
            None => Ok(()),
        }
    }

    /// Apply one delivery to its server's replica; if this is the first
    /// replica to apply the round, harvest the typed responses and
    /// resolve the round's in-flight correlation entries.
    ///
    /// The round's payloads are decoded once (first delivery seen) and
    /// the decoded commands shared across all replicas; only the
    /// harvesting replica collects typed responses.
    fn ingest(&mut self, at: ServerId, delivery: Delivery) -> Result<(), ServiceError> {
        if let Some(log) = &mut self.delivery_log {
            log.push((at, delivery.clone()));
        }
        // Durable A-delivery: the agreed round hits this server's WAL
        // *before* its replica applies it, so any state a crash
        // preserves is covered by the log (never the other way around).
        if let Some(d) = self.durability.as_mut() {
            d.wals[at as usize].append(&delivery).map_err(dur_err)?;
        }
        let round = delivery.round;
        // Quarantined replica: the agreed round is logged (the WAL
        // append above keeps its durable history contiguous) but never
        // applied to the untrusted state. First try to heal the replica
        // from a healthy peer's snapshot; while that is impossible the
        // round is skipped here and harvested by another replica.
        if self.quarantined[at as usize].is_some() {
            self.try_rejoin(at, round)?;
            if self.quarantined[at as usize].is_some() {
                self.release_durable();
                return Ok(());
            }
        }
        // Rounds the rejoin snapshot already covers are skipped, not
        // re-applied; past the snapshot point application resumes.
        if self.resume_after[at as usize].is_some_and(|covered| round <= covered) {
            self.release_durable();
            return Ok(());
        }
        let harvest = round == self.harvested;
        if !self.decoded.contains_key(&round) {
            let commands =
                self.replicas[at as usize].decode_round(round, &delivery.messages, true)?;
            self.decoded.insert(round, commands);
            while self.decoded.len() > self.decoded_cache_rounds() {
                self.decoded.pop_first();
            }
        }
        let outputs = match self.decoded.get(&round) {
            Some(commands) => self.replicas[at as usize].apply_decoded(round, commands, harvest)?,
            // Evicted (straggler far behind the cache window): decode
            // again just for this replica.
            None => self.replicas[at as usize].apply_round(round, &delivery.messages, true)?,
        };
        // Fold the applied round into this replica's state digest and,
        // at an audit boundary, publish it and cross-check.
        if self.audit_interval > 0 {
            let mut digest = self.digests[at as usize];
            for (origin, payload) in &delivery.messages {
                digest = fold_digest(digest, round, *origin, payload);
            }
            self.digests[at as usize] = digest;
            if (round + 1).is_multiple_of(self.audit_interval) {
                self.audit_log[at as usize].push_back((round, digest));
                self.check_audits();
            }
        }
        if self.quarantined[at as usize].is_some() {
            // The cross-check just quarantined this very replica: its
            // state is no longer trusted — never checkpoint it, never
            // harvest responses from it (another replica's delivery of
            // this round harvests instead, `harvested` did not move).
            self.release_durable();
            return Ok(());
        }
        self.maybe_checkpoint(at)?;
        if !harvest {
            self.release_durable();
            return Ok(()); // a later replica catching up on a harvested round
        }
        self.harvested += 1;
        // Responses arrive grouped by origin in ascending order (the
        // delivery is origin-ascending and batches unpack in push
        // order), so a single linear walk correlates them against the
        // per-origin flights — no intermediate grouping map.
        let mut round_acks: Vec<(ServerId, u64, S::Response)> = Vec::new();
        let mut outputs = outputs.into_iter().peekable();
        for origin in 0..self.flights.len() as ServerId {
            let this_round =
                self.flights[origin as usize].front().is_some_and(|&(r, _)| r == round);
            if !this_round {
                // No flight for this origin in this round: skip (and
                // drop) any stray responses attributed to it.
                while outputs.next_if(|&(o, _)| o == origin).is_some() {}
                continue;
            }
            let Some((_, seqs)) = self.flights[origin as usize].pop_front() else {
                continue; // front checked above; unreachable
            };
            let mut responses: Vec<S::Response> = Vec::with_capacity(seqs.len());
            while let Some((_, response)) = outputs.next_if(|&(o, _)| o == origin) {
                responses.push(response);
            }
            if responses.len() == seqs.len() {
                // Sequences are monotone per origin, so this stays the
                // ascending order `take_resolved`'s binary search needs.
                for (seq, response) in seqs.into_iter().zip(responses) {
                    round_acks.push((origin, seq, response));
                }
            } else {
                // The round was agreed without (or with a displaced
                // version of) the origin's payload — only possible when
                // the origin crashed mid-broadcast. Its commands of this
                // round are lost.
                for seq in seqs {
                    self.failed.insert((origin, seq), FailReason::CommandLost { origin, seq });
                }
            }
        }
        // Acknowledgment: immediate without durability; with it, typed
        // responses wait for their round's group commit somewhere.
        // (Failures above stay immediate — they are not acknowledgments
        // and carry no durability promise.)
        match self.durability.as_mut() {
            Some(d) if !round_acks.is_empty() => d.pending.push_back((round, round_acks)),
            _ => {
                for (origin, seq, response) in round_acks {
                    self.resolved[origin as usize].push_back((seq, response));
                }
            }
        }
        self.release_durable();
        Ok(())
    }

    /// Cross-check published digests: for every audit round all
    /// expected servers have voted on, compare — a strict-majority
    /// digest is taken as the agreed history, dissenters are
    /// quarantined. With no strict majority nobody can be blamed
    /// (the mismatch is still counted in
    /// [`IntegrityStats::divergences`]). Runs only at audit boundaries,
    /// never on the per-delivery hot path.
    fn check_audits(&mut self) {
        let n = self.cluster.n();
        loop {
            // The lowest audit round any server still has queued.
            let Some(r) = (0..n).filter_map(|s| self.audit_log[s].front().map(|&(r, _)| r)).min()
            else {
                return;
            };
            // Who must vote on `r`: live, unquarantined, and expected
            // to have applied it (audit floor at or below `r` — a
            // freshly rejoined server cannot vouch for rounds it
            // restored rather than applied).
            let mut votes: Vec<(ServerId, u64)> = Vec::new();
            let mut missing = false;
            for s in 0..n as ServerId {
                let expected = self.cluster.is_live(s)
                    && self.quarantined[s as usize].is_none()
                    && self.audit_floor[s as usize] <= r;
                if !expected {
                    continue;
                }
                match self.audit_log[s as usize].iter().find(|&&(round, _)| round == r) {
                    Some(&(_, digest)) => votes.push((s, digest)),
                    None => missing = true,
                }
            }
            if missing {
                return; // an expected voter has not reached `r` yet
            }
            if !votes.is_empty() {
                self.integrity.audits += 1;
                if votes.iter().any(|&(_, d)| d != votes[0].1) {
                    self.integrity.divergences += 1;
                    let majority = votes.iter().map(|&(_, d)| d).find(|&d| {
                        votes.iter().filter(|&&(_, v)| v == d).count() * 2 > votes.len()
                    });
                    if let Some(majority) = majority {
                        for &(s, d) in &votes {
                            if d != majority {
                                self.quarantine(s, r);
                            }
                        }
                    }
                }
            }
            self.drop_audits_through(r);
        }
    }

    /// Drop every queued audit vote at or below `r`.
    fn drop_audits_through(&mut self, r: Round) {
        for ring in &mut self.audit_log {
            while ring.front().is_some_and(|&(round, _)| round <= r) {
                ring.pop_front();
            }
        }
    }

    /// Quarantine server `s`: its digest dissented from the majority at
    /// audit round `r`, so its replica's state is no longer trusted. It
    /// stops answering queries and is excluded as a snapshot and audit
    /// source until a rejoin heals it.
    fn quarantine(&mut self, s: ServerId, r: Round) {
        if self.quarantined[s as usize].is_none() {
            self.quarantined[s as usize] = Some(r);
            self.integrity.quarantines += 1;
        }
    }

    /// Heal a quarantined replica: restore it from the healthiest live
    /// unquarantined peer's snapshot — streamed through the same
    /// bounded chunked catch-up a recovery uses — and resume applying
    /// agreed rounds past the snapshot point. `next_round` is the round
    /// about to be ingested: the snapshot must cover every round the
    /// quarantined replica already skipped, or applying `next_round` on
    /// top would leave a silent gap — a healer that lags behind defers
    /// the rejoin to a later delivery. No healthy live peer → stays
    /// quarantined (retried on the next delivery).
    fn try_rejoin(&mut self, at: ServerId, next_round: Round) -> Result<(), ServiceError> {
        let Some(healer) = self
            .cluster
            .live_servers()
            .into_iter()
            .filter(|&s| s != at && self.quarantined[s as usize].is_none())
            .max_by_key(|&s| self.replicas[s as usize].last_round())
        else {
            return Ok(());
        };
        let covered = self.replicas[healer as usize].last_round();
        if covered.map_or(0, |r| r + 1) < next_round {
            return Ok(()); // snapshot would not cover the skipped rounds
        }
        let snap = self.replicas[healer as usize].snapshot();
        let chunk_bytes = self.durability.as_ref().map_or_else(
            || DurabilityConfig::default().catchup_chunk_bytes,
            |d| d.cfg.catchup_chunk_bytes,
        );
        let mut sink = CatchupSink::new();
        for chunk in CatchupSource::new(Some(&snap), covered.map_or(0, |r| r + 1), &[], chunk_bytes)
        {
            sink.accept(&chunk).map_err(dur_err)?;
        }
        let payload = sink.finish().map_err(dur_err)?;
        let state: &[u8] = payload.snapshot.as_deref().unwrap_or(&snap);
        self.replicas[at as usize] = Replica::from_snapshot(state)?;
        // The healed replica adopts the healer's digest: identical
        // state, identical history as far as the audit is concerned.
        self.digests[at as usize] = self.digests[healer as usize];
        self.resume_after[at as usize] = covered;
        self.audit_floor[at as usize] = covered.map_or(0, |r| r + 1);
        self.audit_log[at as usize].clear();
        self.quarantined[at as usize] = None;
        self.integrity.rejoins += 1;
        Ok(())
    }

    /// Move every withheld acknowledgment whose round is durable on at
    /// least one server into the redeemable responses.
    fn release_durable(&mut self) {
        let Some(d) = self.durability.as_mut() else { return };
        let durable = d.durable_tip();
        loop {
            match d.pending.front() {
                Some(&(round, _)) if round < durable => {}
                _ => break,
            }
            let Some((_, acks)) = d.pending.pop_front() else { break };
            for (origin, seq, response) in acks {
                self.resolved[origin as usize].push_back((seq, response));
            }
        }
    }

    /// Whether `(origin, seq)`'s response is harvested but withheld
    /// pending durability.
    fn durable_ack_withheld(&self, origin: ServerId, seq: u64) -> bool {
        self.durability.as_ref().is_some_and(|d| {
            d.pending.iter().any(|(_, acks)| acks.iter().any(|&(o, s, _)| o == origin && s == seq))
        })
    }

    /// Checkpoint server `at`'s WAL when its turn comes: durable
    /// snapshot of the replica's state, fully-covered segments
    /// truncated. Abandoned harmlessly under a disk-slow fault.
    ///
    /// Checkpoints are staggered by server id so no round pays for more
    /// than one: with `every` =
    /// [`DurabilityConfig::checkpoint_every_rounds`], server `at` of `n`
    /// takes its first checkpoint of an epoch `every·(at+1)/n` rounds
    /// in, then one every `every` rounds — so no log grows past `every`
    /// rounds beyond its snapshot. The offset restarts with each epoch
    /// (a fresh epoch covers zero rounds), so recovery and
    /// reconfiguration stay staggered.
    fn maybe_checkpoint(&mut self, at: ServerId) -> Result<(), ServiceError> {
        let Some(d) = self.durability.as_mut() else { return Ok(()) };
        let n = d.wals.len() as u64;
        let wal = &mut d.wals[at as usize];
        let every = wal.config().checkpoint_every_rounds;
        let covers = wal.snapshot_covers();
        let due = match covers {
            0 => every.saturating_mul(u64::from(at) + 1) / n,
            _ => covers.saturating_add(every),
        };
        // `covers + 1`: with `every < n` a first offset can be 0, and a
        // checkpoint must cover at least one new round.
        if every > 0 && wal.appended_rounds() >= due.max(covers + 1) {
            let snap = self.replicas[at as usize].snapshot();
            wal.checkpoint(&snap).map_err(dur_err)?;
        }
        Ok(())
    }

    /// Whether nothing is queued, in flight, or unapplied.
    fn is_quiescent(&self) -> bool {
        let queues_empty = self.queues.iter().all(PendingBatch::is_empty);
        let flights_empty = self.flights.iter().all(VecDeque::is_empty);
        let expected_last = self.flushed.checked_sub(1);
        let replicas_current =
            (0..self.cluster.n() as ServerId).filter(|&id| self.cluster.is_live(id)).all(|id| {
                // A quarantined replica holds no currency promise (it
                // is healed by rejoin, not by catching up), and a
                // freshly rejoined one is current as soon as its rejoin
                // snapshot covers every flushed round.
                self.quarantined[id as usize].is_some()
                    || self.replicas[id as usize].last_round() == expected_last
                    || matches!(
                        (self.resume_after[id as usize], expected_last),
                        (Some(covered), Some(expected)) if covered >= expected
                    )
            });
        let acks_released = self.durability.as_ref().is_none_or(|d| d.pending.is_empty());
        queues_empty && flights_empty && replicas_current && acks_released
    }
}
