//! The load generator: one driver thread calling the `rsm::Service`
//! API over a loopback-TCP cluster, closed or open loop, with the
//! output checks every run performs.
//!
//! The same code runs traced and untraced; the [`Tracer`] it carries is
//! disabled in the untraced run that produces the end-to-end numbers.
//!
//! # Redeeming responses in the open loop
//!
//! Requests are timed from their scheduled *due* time and redeemed with
//! `Service::wait(oldest, min(time_to_next_due, 1 ms))`, never by
//! polling `Service::try_response`. With durability on, a response is
//! withheld until its round is fsynced, and only `wait` forces the
//! group commit early for a blocked client; `try_response` never does.
//! A generator that polls therefore never sees the acknowledgments of
//! the last rounds before a quiet period (no later append trips the
//! count or time trigger), and the run hangs. `wait` with a budget
//! bounded by the next due time keeps the schedule *and* drives the
//! commit.

use crate::affinity::unpinned;
use crate::procfs;
use crate::stats::{percentile, ratio};
use crate::trace::Tracer;
use crate::workload::{Expect, Generator, Load, Model, Op, Spec};
use allconcur_cluster::Cluster;
use allconcur_core::delivery::Delivery;
use allconcur_core::membership::build_overlay;
use allconcur_core::replica::{KvCommand, KvResponse, KvStore};
use allconcur_graph::{Digraph, ReliabilityModel};
use allconcur_net::link::LinkStatsSnapshot;
use allconcur_net::runtime::RuntimeOptions;
use allconcur_rsm::{CommandHandle, DurabilityConfig, DurabilityStore, Service, ServiceError};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Reliability target of the paper's overlays (Table 3): six nines.
const TARGET_NINES: f64 = 6.0;
/// Budget for one blocking call once issuing has stopped.
const SETTLE: Duration = Duration::from_secs(10);
/// No response for this long with requests outstanding: give up on them.
const STALL: Duration = Duration::from_secs(30);
/// Longest sleep between two looks for the first response of a set-up
/// cycle.
const SETUP_POLL: Duration = Duration::from_micros(50);
/// After a crash, requests due this much later count as post-crash
/// steady state (the failover gap is ≈ 0.4 s).
const POST_CRASH_SETTLE: Duration = Duration::from_secs(1);
/// Replay input cap: rounds and payload bytes captured from server 0.
const CAPTURE_ROUNDS: usize = 4096;
const CAPTURE_BYTES: usize = 48 << 20;

/// The overlay every layer of a workload runs on, and how long it took
/// to build (`graph.build_us`).
pub fn overlay(n: usize) -> (Digraph, Duration) {
    let started = Instant::now();
    let graph = build_overlay(n, &ReliabilityModel::paper_default(), TARGET_NINES);
    (graph, started.elapsed())
}

/// A fresh directory name under `out/` for one WAL store.
pub fn wal_dir(tag: &str) -> PathBuf {
    Path::new(crate::OUT).join(format!("wal-{}-{tag}", std::process::id()))
}

/// A loopback-TCP cluster with the default `RuntimeOptions` (no
/// injected delay). Its reactor threads may run on any processor; the
/// calling (driver) thread is pinned afterwards — see [`crate::affinity`].
pub fn tcp_cluster(n: usize) -> Result<Cluster, String> {
    let (graph, _) = overlay(n);
    unpinned(|| Cluster::tcp_with(graph, RuntimeOptions::default())).map_err(|e| e.to_string())
}

/// Spawn the workload's deployment: [`tcp_cluster`], one `KvStore`
/// replica per server, WALs under `wal` when the workload is durable.
pub fn spawn(spec: &Spec, wal: &Path) -> Result<Service<KvStore>, String> {
    let cluster = tcp_cluster(spec.n)?;
    let mut svc = if spec.durable {
        let store = DurabilityStore::on_disk(wal, spec.n).map_err(|e| e.to_string())?;
        Service::with_durability(cluster, &KvStore::default(), store, DurabilityConfig::default())
    } else {
        Service::new(cluster, &KvStore::default())
    }
    .map_err(|e| e.to_string())?;
    svc.set_pipeline(spec.pipeline);
    Ok(svc)
}

/// One cold set-up cycle: overlay → spawn (+ WALs) → first response.
///
/// The response is awaited in `pump`s of at most [`SETUP_POLL`], not
/// by one blocking `wait`: the facade's receive sleeps 50 µs, 100 µs,
/// … 2 ms between polls, which would round a 5 ms set-up up to the
/// next poll instant (5.15 or 7.15 ms) and make the metric flip between
/// the two. (Spinning without a sleep is no better: on two cores the
/// spinning driver takes a core from the reactors it waits for.)
///
/// The shutdown that follows is not timed: it is tear-down, not
/// set-up, and on this stack about one reactor shutdown in four waits
/// out the event loop's 250 ms idle poll, which would make the metric
/// bimodal.
pub fn setup_cycle(spec: &Spec, cycle: usize) -> Result<Duration, String> {
    let wal = wal_dir(&format!("setup{cycle}"));
    let started = Instant::now();
    let mut svc = spawn(spec, &wal)?;
    let put = KvCommand::Put { key: b"setup".to_vec().into(), value: b"1".to_vec().into() };
    let handle = svc.submit(0, &put).map_err(|e| format!("first request: {e}"))?;
    let elapsed = loop {
        svc.pump(SETUP_POLL).map_err(|e| format!("first response: {e}"))?;
        match svc.wait(&handle, Duration::ZERO) {
            Ok(_) => break started.elapsed(),
            Err(ServiceError::Timeout { .. }) if started.elapsed() < SETTLE => {}
            Err(e) => return Err(format!("first response: {e}")),
        }
    };
    unpinned(|| svc.shutdown()).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_dir_all(&wal);
    Ok(elapsed)
}

/// What one measured window produced.
#[derive(Debug, Clone, Default)]
pub struct Segment {
    pub seconds: f64,
    /// Commands answered inside the window.
    pub responded: u64,
    pub cpu_us: u64,
    /// Latency of every request *due* in the window, ns; ascending
    /// once the run has finished.
    pub latency_ns: Vec<u32>,
    /// In an episode with a crash: those of them due before the crash
    /// (the healthy phase).
    pub before_crash_ns: Vec<u32>,
}

impl Segment {
    pub fn cmds_per_s(&self) -> f64 {
        ratio(self.responded as f64, self.seconds)
    }

    pub fn cpu_us_per_cmd(&self) -> f64 {
        ratio(self.cpu_us as f64, self.responded as f64)
    }

    /// Nearest-rank latency percentile, µs.
    pub fn latency_us(&self, p: f64) -> f64 {
        percentile(&self.latency_ns, p) / 1e3
    }

    /// Median latency, µs. In an episode with a crash it is taken over
    /// the requests due before the crash: mixed with the requests the
    /// failover delays, a median says nothing about either. What the
    /// crash costs shows in `failover_gap` and in the episode's p99.
    pub fn latency_p50_us(&self, crash: bool) -> f64 {
        percentile(if crash { &self.before_crash_ns } else { &self.latency_ns }, 0.5) / 1e3
    }
}

/// What only an open-loop pass observes.
#[derive(Debug, Clone, Default)]
pub struct OpenStats {
    /// Crash → first response to a request due after the crash.
    pub failover_gap: Option<Duration>,
    /// Latency of requests due [`POST_CRASH_SETTLE`] or more after the
    /// crash, ns.
    pub post_crash_ns: Vec<u32>,
    /// Requests still unanswered when the last one was issued.
    pub backlog_at_end: usize,
}

/// Counter snapshot taken at the start and end of a traced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub links: LinkStatsSnapshot,
    pub loop_threads: u64,
    pub threads: procfs::Threads,
    pub shed: u64,
    pub audits: u64,
    pub divergences: u64,
    pub quarantines: u64,
    pub rounds: u64,
    pub wal_syncs: u64,
}

struct Pending {
    handle: CommandHandle<KvResponse>,
    /// Due time (open loop) or submit time (closed loop).
    since: Instant,
    expect: Expect,
}

/// A closed-loop round: every server's batch, flushed together.
struct RoundBatch {
    submitted: Instant,
    ops: Vec<(CommandHandle<KvResponse>, Expect)>,
}

/// One deployment under load, with its model of what the outputs must
/// be.
pub struct Run<'a> {
    pub spec: &'a Spec,
    pub svc: Service<KvStore>,
    pub model: Model,
    pub generator: Generator,
    pub tracer: Tracer,
    pub attempted: u64,
    pub failed: u64,
    /// Submissions admission control refused with `Busy`.
    pub shed: u64,
    responses: u64,
    /// First few failure descriptions, for the report.
    pub errors: Vec<String>,
    // Probes (sampled once per driver iteration when traced).
    in_flight_sum: u64,
    in_flight_samples: u64,
    pub unsynced_max: u64,
    pub outstanding_max: usize,
    /// How late each open-loop request was issued, ns.
    pub late_ns: Vec<u32>,
    /// Server 0's deliveries, for the replay.
    pub captured: Vec<Delivery>,
    captured_bytes: usize,
}

fn saturating_ns(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

impl<'a> Run<'a> {
    pub fn new(
        spec: &'a Spec,
        seed: u64,
        wal: &Path,
        traced: bool,
        measured_requests: u64,
    ) -> Result<Run<'a>, String> {
        let mut svc = spawn(spec, wal)?;
        svc.record_deliveries(traced);
        Ok(Run {
            spec,
            svc,
            model: Model::new(spec, seed),
            generator: Generator::new(spec, seed, measured_requests),
            tracer: Tracer::new(traced),
            attempted: 0,
            failed: 0,
            shed: 0,
            responses: 0,
            errors: Vec::new(),
            in_flight_sum: 0,
            in_flight_samples: 0,
            unsynced_max: 0,
            outstanding_max: 0,
            late_ns: Vec::new(),
            captured: Vec::new(),
            captured_bytes: 0,
        })
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    /// Submit `op`'s command (span id `id`). A refusal is counted —
    /// `Busy` as shed, anything else as failed — and yields `None`.
    fn submit(&mut self, op: Op, id: u64) -> Option<(CommandHandle<KvResponse>, Expect)> {
        let (cmd, expect) = self.model.command(op);
        self.attempted += 1;
        self.tracer.enter("rsm.submit", id);
        let handle = self.svc.submit(op.origin, &cmd);
        self.tracer.exit();
        match handle {
            Ok(handle) => {
                self.model.submitted(op);
                Some((handle, expect))
            }
            Err(ServiceError::Busy { .. }) => {
                self.shed += 1;
                None
            }
            Err(e) => {
                self.fail(format!("submit: {e}"));
                None
            }
        }
    }

    /// Check one response against what the model said it must be.
    fn check(&mut self, response: Result<KvResponse, ServiceError>, expect: Expect) {
        let ok = match (&response, expect) {
            (Ok(KvResponse::Ack), Expect::Ack) => true,
            (Ok(KvResponse::Value(got)), Expect::Value { origin, put_seq }) => {
                *got == put_seq.map(|seq| self.model.value(origin, seq))
            }
            _ => false,
        };
        if ok {
            self.responses += 1;
        } else {
            let got = match response {
                Ok(r) => format!("{r:?}"),
                Err(e) => e.to_string(),
            };
            self.fail(format!("expected {expect:?}, got {got}"));
        }
    }

    /// Per-iteration probes and replay capture (traced runs only).
    fn probe(&mut self, outstanding: usize) {
        self.outstanding_max = self.outstanding_max.max(outstanding);
        if !self.tracer.enabled() {
            return;
        }
        self.in_flight_sum += self.svc.in_flight_rounds();
        self.in_flight_samples += 1;
        if self.spec.durable {
            let unsynced = (0..self.spec.n as u32)
                .filter_map(|id| self.svc.wal(id))
                .map(|wal| wal.unsynced_rounds())
                .max();
            self.unsynced_max = self.unsynced_max.max(unsynced.unwrap_or(0));
        }
        for (server, delivery) in self.svc.take_delivery_log() {
            if server == 0 {
                self.captured_bytes += delivery.payload_bytes();
                self.captured.push(delivery);
            }
        }
        if self.captured.len() >= CAPTURE_ROUNDS || self.captured_bytes >= CAPTURE_BYTES {
            self.svc.record_deliveries(false);
        }
    }

    pub fn in_flight_mean(&self) -> f64 {
        ratio(self.in_flight_sum as f64, self.in_flight_samples as f64)
    }

    /// `pump(ZERO)`: ingest one delivery if one is already there. The
    /// span is filed by outcome, so `rsm.pump_ingest` is the cost of
    /// applying one ready delivery (`rsm.ingest_us_per_delivery`).
    fn pump_ready(&mut self, id: u64) -> Result<bool, String> {
        self.tracer.enter("rsm.pump_empty", id);
        let ingested = self.svc.pump(Duration::ZERO);
        let found = matches!(ingested, Ok(true));
        self.tracer.exit_as(if found { "rsm.pump_ingest" } else { "rsm.pump_empty" });
        ingested.map_err(|e| e.to_string())
    }

    /// A blocking `pump`, up to `budget`.
    fn pump_wait(&mut self, budget: Duration, id: u64) -> Result<(), String> {
        self.tracer.enter("rsm.pump_wait", id);
        let result = self.svc.pump(budget);
        self.tracer.exit();
        result.map(drop).map_err(|e| e.to_string())
    }

    /// Counter snapshot for the traced run.
    pub fn counters(&mut self) -> Counters {
        let n = self.spec.n as u32;
        let mut c = Counters {
            threads: procfs::Threads::snapshot(),
            shed: self.svc.shed_count(),
            ..Counters::default()
        };
        let integrity = self.svc.integrity_stats();
        (c.audits, c.divergences, c.quarantines) =
            (integrity.audits, integrity.divergences, integrity.quarantines);
        c.rounds = self
            .svc
            .live_servers()
            .first()
            .and_then(|&id| self.svc.replica(id).ok())
            .map_or(0, |r| r.applied_rounds());
        c.wal_syncs = (0..n).filter_map(|id| self.svc.wal(id)).map(|wal| wal.syncs()).sum();
        if let Some(cluster) = self.svc.cluster_mut().tcp_transport_mut().and_then(|t| t.cluster())
        {
            c.loop_threads = cluster.loop_threads() as u64;
            for id in 0..n {
                let s = cluster.link_stats(id);
                c.links.degraded += s.degraded;
                c.links.reconnects += s.reconnects;
                c.links.replayed_frames += s.replayed_frames;
                c.links.grace_expired += s.grace_expired;
                c.links.shed_frames += s.shed_frames;
                c.links.reader_disconnects += s.reader_disconnects;
                c.links.healed += s.healed;
                c.links.suspicions += s.suspicions;
                c.links.corrupt_frames += s.corrupt_frames;
                c.links.accept_failures += s.accept_failures;
            }
        }
        c
    }

    /// Closed loop: keep `pipeline` rounds in flight, every server
    /// submitting `batch` commands per round, for `warmup` (unmeasured)
    /// and then `window`. Latency runs from a round's submit to the
    /// moment its responses are redeemed.
    pub fn run_closed(
        &mut self,
        batch: usize,
        warmup: Duration,
        window: Duration,
    ) -> Result<Segment, String> {
        let (n, pipeline) = (self.spec.n as u32, self.spec.pipeline as u64);
        let mut clock = WindowClock::new(warmup, window);
        let mut rounds: VecDeque<RoundBatch> = VecDeque::new();
        let (mut flushed, mut redeemed) = (0u64, 0u64);
        let mut progress = Instant::now();
        loop {
            let now = Instant::now();
            clock.advance(now);
            if clock.ended() && rounds.is_empty() {
                break;
            }
            // Fill the pipeline: one round = every server's batch.
            while !clock.ended() && self.svc.in_flight_rounds() < pipeline {
                self.tracer.enter("client.fill", flushed);
                let submitted = Instant::now();
                let mut ops = Vec::with_capacity(n as usize * batch);
                for origin in 0..n {
                    for _ in 0..batch {
                        let op = self.generator.next_for(origin);
                        if let Some((handle, expect)) = self.submit(op, flushed) {
                            ops.push((handle, expect));
                        }
                    }
                }
                self.tracer.enter("rsm.flush", flushed);
                let result = self.svc.flush();
                self.tracer.exit();
                self.tracer.exit();
                result.map_err(|e| format!("flush: {e}"))?;
                rounds.push_back(RoundBatch { submitted, ops });
                flushed += 1;
            }
            self.probe(rounds.len() * n as usize * batch);
            // Take what is ready; block only when nothing is.
            if !self.pump_ready(redeemed)? {
                self.pump_wait(Duration::from_secs(1), redeemed)?;
            }
            // Rounds are harvested in order: everything before the
            // in-flight ones is answered (or, with durability, needs
            // only the group commit `wait` forces).
            let harvested = flushed - self.svc.in_flight_rounds();
            while redeemed < harvested {
                let round = rounds.pop_front().expect("a flushed round per harvested round");
                self.tracer.enter("client.redeem", redeemed);
                for (handle, expect) in round.ops {
                    self.tracer.enter("rsm.wait", redeemed);
                    let response = self.svc.wait(&handle, SETTLE);
                    self.tracer.exit();
                    self.check(response, expect);
                }
                self.tracer.exit();
                let answered = Instant::now();
                clock.advance(answered);
                clock.answered(round.submitted, answered, n as usize * batch);
                redeemed += 1;
                progress = answered;
            }
            if progress.elapsed() > STALL {
                let lost: usize = rounds.iter().map(|r| r.ops.len()).sum();
                self.failed += lost as u64;
                self.errors.push(format!("stalled: {lost} commands unanswered after {STALL:?}"));
                break;
            }
        }
        Ok(clock.finish())
    }

    /// Open loop: request `i` is due at `start + i / rate`, whatever is
    /// still outstanding. Latency runs from the due time to the typed
    /// response. With a crash plan, the victim is crashed at the
    /// planned request once its earlier requests are answered.
    pub fn run_open(
        &mut self,
        rate: f64,
        warmup: Duration,
        window: Duration,
    ) -> Result<(Segment, OpenStats), String> {
        let mut clock = WindowClock::new(warmup, window);
        let start = clock.start;
        let total = (clock.end.duration_since(start).as_secs_f64() * rate) as u64;
        self.generator.delay_crash((warmup.as_secs_f64() * rate) as u64);
        let due_of = |i: u64| start + Duration::from_secs_f64(i as f64 / rate);
        let mut outstanding: VecDeque<Pending> = VecDeque::new();
        let mut next = 0u64;
        let mut victim_outstanding = 0usize;
        let mut crashed_at: Option<Instant> = None;
        let mut open = OpenStats::default();
        let mut progress = Instant::now();
        loop {
            let now = Instant::now();
            clock.advance(now);
            if next == total && outstanding.is_empty() {
                break;
            }
            // Issue everything that is due.
            let mut issued = false;
            while next < total && due_of(next) <= now {
                let due = due_of(next);
                self.late_ns.push(saturating_ns(now - due));
                let op = self.generator.next_open();
                if let Some((handle, expect)) = self.submit(op, next) {
                    outstanding.push_back(Pending { handle, since: due, expect });
                    let is_victim = self.generator.crash.is_some_and(|p| p.victim == op.origin);
                    victim_outstanding += usize::from(is_victim);
                }
                next += 1;
                issued = true;
                if next == total {
                    open.backlog_at_end = outstanding.len();
                }
            }
            if issued {
                self.tracer.enter("rsm.flush", next);
                let result = self.svc.flush();
                self.tracer.exit();
                result.map_err(|e| format!("flush: {e}"))?;
            }
            if let Some(plan) = self.generator.crash {
                if crashed_at.is_none() && next > plan.at_request && victim_outstanding == 0 {
                    crashed_at = Some(Instant::now());
                    self.svc.crash(plan.victim).map_err(|e| format!("crash: {e}"))?;
                }
            }
            self.probe(outstanding.len());
            while self.pump_ready(next)? {}
            // Redeem the oldest request, or idle until the next is due.
            let until_due = if next < total {
                due_of(next).saturating_duration_since(Instant::now())
            } else {
                Duration::from_millis(1)
            };
            let budget = until_due.min(Duration::from_millis(1));
            if budget.is_zero() {
                continue;
            }
            let Some(oldest) = outstanding.front() else {
                self.pump_wait(budget, next)?;
                continue;
            };
            self.tracer.enter("rsm.wait", next);
            let response = self.svc.wait(&oldest.handle, budget);
            self.tracer.exit();
            if matches!(response, Err(ServiceError::Timeout { .. })) {
                if progress.elapsed() > STALL {
                    self.failed += outstanding.len() as u64;
                    self.errors.push(format!(
                        "stalled: {} requests unanswered after {STALL:?}",
                        outstanding.len()
                    ));
                    break;
                }
                continue;
            }
            let answered = Instant::now();
            let pending = outstanding.pop_front().expect("front was just borrowed");
            if self.generator.crash.is_some_and(|p| p.victim == pending.handle.origin()) {
                victim_outstanding -= 1;
            }
            self.check(response, pending.expect);
            clock.advance(answered);
            clock.answered(pending.since, answered, 1);
            if self.generator.crash.is_some()
                && crashed_at.is_none_or(|crash| pending.since < crash)
            {
                clock.answered_before_crash(pending.since, answered);
            }
            if let Some(crash) = crashed_at {
                if pending.since >= crash {
                    open.failover_gap.get_or_insert(answered - crash);
                }
                if pending.since >= crash + POST_CRASH_SETTLE {
                    let latency = answered.saturating_duration_since(pending.since);
                    open.post_crash_ns.push(saturating_ns(latency));
                }
            }
            progress = answered;
        }
        Ok((clock.finish(), open))
    }

    /// Run the workload's own loop shape.
    pub fn run_load(
        &mut self,
        warmup: Duration,
        window: Duration,
    ) -> Result<(Segment, OpenStats), String> {
        match self.spec.load {
            Load::Closed { batch } => {
                Ok((self.run_closed(batch, warmup, window)?, OpenStats::default()))
            }
            Load::Open { rate } => self.run_open(rate, warmup, window),
        }
    }

    /// Output checks shared by every workload, then shutdown:
    ///
    /// * after `Service::sync`, every live replica's snapshot is
    ///   byte-identical;
    /// * the replicated state holds the last submitted Put of every
    ///   key (on `crash_failover_n8`: the survivors hold it);
    /// * responses received = submitted − failed;
    /// * with durability, `shutdown_into_store` → `Service::recover`
    ///   on a fresh cluster still holds every acknowledged Put.
    ///
    /// Every violation is added to `failed`.
    pub fn verify_and_shutdown(mut self, wal: &Path) -> Result<Verdict, String> {
        self.svc.sync(SETTLE).map_err(|e| format!("final sync: {e}"))?;
        let live = self.svc.live_servers();
        self.check_state(&live)?;
        if self.responses + self.failed + self.shed != self.attempted {
            let (r, f, s, a) = (self.responses, self.failed, self.shed, self.attempted);
            self.fail(format!("{r} responses + {f} failed + {s} shed != {a} submitted"));
        }
        let mut recover_ms = None;
        if self.spec.durable {
            let store = unpinned(|| self.svc.shutdown_into_store())
                .map_err(|e| e.to_string())?
                .ok_or("durable workload ran without a store")?;
            let cluster = tcp_cluster(self.spec.n)?;
            let started = Instant::now();
            let (recovered, _report) =
                Service::recover(cluster, &KvStore::default(), store, DurabilityConfig::default())
                    .map_err(|e| format!("recover: {e}"))?;
            recover_ms = Some(started.elapsed().as_secs_f64() * 1e3);
            self.svc = recovered;
            let all: Vec<u32> = (0..self.spec.n as u32).collect();
            self.check_state(&all)?;
        }
        unpinned(|| self.svc.shutdown()).map_err(|e| e.to_string())?;
        let _ = std::fs::remove_dir_all(wal);
        Ok(Verdict {
            attempted: self.attempted,
            failed: self.failed,
            shed: self.shed,
            errors: self.errors,
            recover_ms,
        })
    }

    /// Every server in `servers` holds the model's state, byte for byte
    /// the same snapshot.
    fn check_state(&mut self, servers: &[u32]) -> Result<(), String> {
        let mut reference = None;
        for &id in servers {
            let snapshot = self.svc.replica(id).map_err(|e| e.to_string())?.snapshot();
            if *reference.get_or_insert_with(|| snapshot.clone()) != snapshot {
                self.fail(format!("replica {id}'s snapshot differs from replica {}", servers[0]));
            }
        }
        let Some(&first) = servers.first() else { return Err("no live server to check".into()) };
        let state = self.svc.query_local(first).map_err(|e| e.to_string())?;
        let wrong = self
            .model
            .expected_state()
            .filter(|(key, value)| state.get_local(key) != Some(&value[..]))
            .count();
        if wrong > 0 {
            self.failed += wrong as u64;
            self.errors.push(format!("{wrong} keys do not hold their last submitted Put"));
        }
        Ok(())
    }
}

/// Outcome of the output checks.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    pub attempted: u64,
    /// Wrong, missing or refused-for-another-reason operations, and
    /// keys that do not hold their last Put.
    pub failed: u64,
    /// Submissions refused with `Busy`.
    pub shed: u64,
    pub errors: Vec<String>,
    /// Time of `Service::recover` in the output check of a durable run.
    pub recover_ms: Option<f64>,
}

/// Wall clock of one pass: an unmeasured warm-up, then the measured
/// window, whose [`Segment`] it accumulates.
struct WindowClock {
    start: Instant,
    /// End of the warm-up.
    measure_from: Instant,
    end: Instant,
    /// When the window was seen to open, and the process CPU then.
    opened: Option<(Instant, u64)>,
    closed: bool,
    segment: Segment,
}

impl WindowClock {
    fn new(warmup: Duration, window: Duration) -> WindowClock {
        let start = Instant::now();
        WindowClock {
            start,
            measure_from: start + warmup,
            end: start + warmup + window,
            opened: None,
            closed: false,
            segment: Segment::default(),
        }
    }

    /// The window is over: stop offering load.
    fn ended(&self) -> bool {
        self.closed
    }

    /// Open or close the window if `now` has passed its start or end.
    fn advance(&mut self, now: Instant) {
        if self.opened.is_none() && now >= self.measure_from {
            self.opened = Some((now, procfs::process_cpu_us()));
        }
        if let (false, true, Some((at, cpu))) = (self.closed, now >= self.end, self.opened) {
            self.segment.seconds = (now - at).as_secs_f64();
            self.segment.cpu_us = procfs::process_cpu_us() - cpu;
            self.closed = true;
        }
    }

    /// `count` commands submitted (or due) at `since` were answered at
    /// `at`: they count towards the window's throughput if answered
    /// inside it, and towards its latencies if they were due inside it.
    fn answered(&mut self, since: Instant, at: Instant, count: usize) {
        if self.opened.is_some() && !self.closed {
            self.segment.responded += count as u64;
        }
        if since >= self.measure_from {
            let latency = saturating_ns(at.saturating_duration_since(since));
            self.segment.latency_ns.extend(std::iter::repeat_n(latency, count));
        }
    }

    /// A request of a crash episode due at `since`, before the crash.
    fn answered_before_crash(&mut self, since: Instant, at: Instant) {
        if since >= self.measure_from {
            let latency = saturating_ns(at.saturating_duration_since(since));
            self.segment.before_crash_ns.push(latency);
        }
    }

    /// Close the window if it is still open (an open loop answers its
    /// last request a moment before its window ends) and hand back the
    /// segment, latencies ascending.
    fn finish(mut self) -> Segment {
        self.advance(Instant::now().max(self.end));
        self.segment.latency_ns.sort_unstable();
        self.segment.before_crash_ns.sort_unstable();
        self.segment
    }
}
