//! The layer ladder (ROADMAP item 1's layer budget): one workload's
//! round shape — overlay, round window, per-origin payload — pushed in
//! a closed loop through each layer in turn,
//!
//! ```text
//! core::Server lockstep → Cluster::sim → net::LocalCluster
//!   → Cluster::tcp_with → Service::new → Service::with_durability
//! ```
//!
//! reporting `<layer>.us_per_round` and the delta each rung adds over
//! the one below it. The sim, net and cluster rungs share one window
//! loop ([`window_loop`]) and differ only in their [`Rung`]: the net
//! rung takes deliveries with the transport's blocking receive, the
//! cluster rung with the facade's polling one, so
//! `cluster.delta_us_per_round` is the facade and nothing else. The two open-loop workloads have no round shape of
//! their own; their ladder uses one Put per server per round on their
//! overlay and window.

use crate::affinity::unpinned;
use crate::driver::{overlay, wal_dir, Run};
use crate::stats::{percentile_of, ratio};
use crate::trace::Tracer;
use crate::workload::{Generator, Load, Model, Spec};
use allconcur_cluster::{Cluster, SimOptions};
use allconcur_core::batch::Batcher;
use allconcur_core::config::Config;
use allconcur_core::message::Message;
use allconcur_core::replica::{Codec, KvCodec};
use allconcur_core::server::{Action, Event, Server};
use allconcur_core::ServerId;
use allconcur_graph::connectivity::vertex_connectivity;
use allconcur_graph::Digraph;
use allconcur_net::runtime::RuntimeOptions;
use allconcur_net::LocalCluster;
use bytes::Bytes;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(30);
/// Rounds of the simulated rung: fixed, so its counts and simulated
/// time repeat exactly from run to run.
const SIM_ROUNDS: u64 = 512;
const SIM_WARMUP_ROUNDS: u64 = 32;

/// The closed-loop shape of `spec`'s rounds.
pub fn shape_of(spec: &Spec) -> Spec {
    match spec.load {
        Load::Closed { .. } => Spec { durable: false, ..*spec },
        Load::Open { .. } => Spec {
            load: Load::Closed { batch: 1 },
            durable: false,
            crash: false,
            get_pct: 0,
            ..*spec
        },
    }
}

/// One round's payload per origin, framed exactly as `Service` frames
/// a batch (length-prefixed encoded commands).
fn payloads(shape: &Spec, seed: u64) -> Vec<Bytes> {
    let Load::Closed { batch } = shape.load else { unreachable!("shape_of yields closed loops") };
    let model = Model::new(shape, seed);
    let mut generator = Generator::new(shape, seed, 0);
    (0..shape.n as u32)
        .map(|origin| {
            let mut batcher = Batcher::new();
            for _ in 0..batch {
                let (cmd, _) = model.command(generator.next_for(origin));
                batcher.push(KvCodec.encode(&cmd));
            }
            batcher.take_batch()
        })
        .collect()
}

/// Bare `core::Server` state machines driven lockstep over a FIFO
/// inbox: no clock, sockets or RSM — the protocol's own cost.
struct Lockstep {
    servers: Vec<Server>,
    inbox: VecDeque<(ServerId, ServerId, Message)>,
    scratch: Vec<Action>,
    /// A crashed server: its sends beyond the budget never leave, and
    /// nothing is delivered to it.
    victim: Option<(ServerId, usize)>,
    events: u64,
    sends: u64,
    deliveries: u64,
}

impl Lockstep {
    fn new(cfg: &Config) -> Lockstep {
        Lockstep {
            servers: (0..cfg.n() as ServerId).map(|i| Server::new(cfg.clone(), i)).collect(),
            inbox: VecDeque::new(),
            scratch: Vec::new(),
            victim: None,
            events: 0,
            sends: 0,
            deliveries: 0,
        }
    }

    fn feed(&mut self, id: ServerId, event: Event) {
        self.events += 1;
        self.scratch.clear();
        self.servers[id as usize].handle_into(event, &mut self.scratch);
        for action in self.scratch.drain(..) {
            match action {
                Action::Send { to, msg } => {
                    if let Some((victim, budget)) = &mut self.victim {
                        if *victim == to {
                            continue;
                        }
                        if *victim == id {
                            if *budget == 0 {
                                continue;
                            }
                            *budget -= 1;
                        }
                    }
                    self.sends += 1;
                    self.inbox.push_back((id, to, msg));
                }
                Action::Deliver { .. } => self.deliveries += 1,
            }
        }
    }

    fn drain(&mut self) {
        while let Some((from, to, msg)) = self.inbox.pop_front() {
            self.feed(to, Event::Receive { from, msg });
        }
    }

    fn round(&mut self, payloads: &[Bytes], skip: Option<ServerId>) {
        for (id, payload) in payloads.iter().enumerate() {
            if skip != Some(id as ServerId) {
                self.feed(id as ServerId, Event::ABroadcast(payload.clone()));
            }
        }
        self.drain();
    }
}

fn config(graph: &Digraph) -> Config {
    let resilience = vertex_connectivity(graph).saturating_sub(1);
    Config::new(Arc::new(graph.clone()), resilience)
}

fn us_per(elapsed: Duration, rounds: u64) -> f64 {
    ratio(elapsed.as_secs_f64() * 1e6, rounds as f64)
}

/// Failure-free lockstep rounds for `slot`.
fn core_rung(graph: &Digraph, payloads: &[Bytes], slot: Duration, out: &mut Metrics) -> f64 {
    let mut net = Lockstep::new(&config(graph));
    for _ in 0..16 {
        net.round(payloads, None);
    }
    let (events, sends, delivered) = (net.events, net.sends, net.deliveries);
    let started = Instant::now();
    let mut rounds = 0u64;
    while started.elapsed() < slot {
        for _ in 0..16 {
            net.round(payloads, None);
        }
        rounds += 16;
    }
    let elapsed = started.elapsed();
    assert_eq!(net.deliveries - delivered, rounds * payloads.len() as u64, "lockstep lost rounds");
    out.push(("core.events_per_round", ratio((net.events - events) as f64, rounds as f64)));
    out.push(("core.sends_per_round", ratio((net.sends - sends) as f64, rounds as f64)));
    us_per(elapsed, rounds)
}

/// One-crash rounds: the victim dies two sends into its round-0
/// broadcast, its successors suspect it, the survivors finish that
/// round and one more. Fresh servers per scenario; construction is not
/// timed.
fn core_f1_rung(graph: &Digraph, payloads: &[Bytes], slot: Duration, out: &mut Metrics) {
    let cfg = config(graph);
    let victim = (graph.order() / 2) as ServerId;
    let mut successors = graph.successors(victim).to_vec();
    successors.sort_unstable();
    let started = Instant::now();
    let (mut busy, mut rounds) = (Duration::ZERO, 0u64);
    while started.elapsed() < slot {
        let mut net = Lockstep::new(&cfg);
        net.victim = Some((victim, 2));
        let scenario = Instant::now();
        net.round(payloads, None);
        for &s in &successors {
            net.feed(s, Event::Suspect { suspect: victim });
        }
        net.drain();
        net.round(payloads, Some(victim));
        busy += scenario.elapsed();
        assert!(net.servers[0].round() >= 2, "survivors must finish both rounds");
        rounds += 2;
    }
    out.push(("core.us_per_round_f1", us_per(busy, rounds)));
}

/// One rung's way into and out of the system: hand a payload to a
/// server, and take the next delivery from whichever server has one.
trait Rung {
    fn submit(&mut self, round: u64, id: ServerId, payload: Bytes);
    /// Blocks until some server delivers a round; returns which.
    fn next_delivery(&mut self, floor: u64) -> ServerId;
}

/// Closed loop shared by the sim, net and cluster rungs: keep `window`
/// rounds outstanding — a round is every server's payload — until
/// `stop(rounds every server has delivered)`; returns that count once
/// the rounds in flight have drained.
fn window_loop(
    rung: &mut impl Rung,
    payloads: &[Bytes],
    window: u64,
    mut stop: impl FnMut(u64) -> bool,
) -> u64 {
    let mut counts = vec![0u64; payloads.len()];
    let (mut submitted, mut floor) = (0u64, 0u64);
    let mut stopping = false;
    while !stopping || floor < submitted {
        stopping = stopping || stop(floor);
        while !stopping && submitted < floor + window {
            for (id, payload) in payloads.iter().enumerate() {
                rung.submit(submitted, id as ServerId, payload.clone());
            }
            submitted += 1;
        }
        if floor == submitted {
            break;
        }
        counts[rung.next_delivery(floor) as usize] += 1;
        floor = counts.iter().copied().min().expect("n > 0");
    }
    floor
}

/// The `Cluster` facade (either backend). `tracer` spans its two calls.
struct Facade<'a> {
    cluster: &'a mut Cluster,
    tracer: Tracer,
    waits_ns: Vec<u32>,
}

impl<'a> Facade<'a> {
    fn new(cluster: &'a mut Cluster, traced: bool) -> Facade<'a> {
        Facade { cluster, tracer: Tracer::new(traced), waits_ns: Vec::new() }
    }
}

impl Rung for Facade<'_> {
    fn submit(&mut self, round: u64, id: ServerId, payload: Bytes) {
        self.tracer.enter("cluster.submit", round);
        let result = self.cluster.submit(id, payload);
        self.tracer.exit();
        result.expect("facade submit");
    }

    fn next_delivery(&mut self, floor: u64) -> ServerId {
        self.tracer.enter("cluster.next_delivery", floor);
        let next = self.cluster.next_delivery(TIMEOUT);
        let waited = self.tracer.exit();
        self.waits_ns.push(u32::try_from(waited).unwrap_or(u32::MAX));
        let (id, delivery) = next.expect("ladder round stalled");
        assert_eq!(delivery.messages.len(), self.cluster.n(), "full membership agrees each round");
        id
    }
}

/// `net::LocalCluster` driven directly. Deliveries are taken with the
/// transport's own blocking receive, server after server — every server
/// delivers every round, so that order never waits on the wrong one —
/// which leaves the `Cluster` facade's polling receive as what the next
/// rung adds.
struct Raw<'a> {
    cluster: &'a LocalCluster,
    cursor: usize,
}

impl Rung for Raw<'_> {
    fn submit(&mut self, _round: u64, id: ServerId, payload: Bytes) {
        assert!(self.cluster.broadcast(id, payload), "input queue full");
    }

    fn next_delivery(&mut self, _floor: u64) -> ServerId {
        let id = (self.cursor % self.cluster.n()) as ServerId;
        self.cursor += 1;
        // The facade's receive replaces this one for applications; the
        // rung below the facade has no other blocking receive.
        #[allow(deprecated)]
        let delivery = self.cluster.recv_delivery(id, TIMEOUT).expect("net rung stalled");
        assert_eq!(delivery.messages.len(), self.cluster.n());
        id
    }
}

/// `Cluster::sim`: a fixed number of rounds, so messages, bytes and
/// simulated time per round are exact and repeat.
fn sim_rung(graph: &Digraph, payloads: &[Bytes], window: usize, out: &mut Metrics) {
    let opts = SimOptions { seed: 1, round_window: window, ..SimOptions::default() };
    let mut cluster = Cluster::sim_with(graph.clone(), opts);
    let probe = |cluster: &mut Cluster| {
        let sim = cluster.sim_transport_mut().expect("sim backend").cluster();
        (sim.messages_sent(), sim.bytes_sent(), sim.clock())
    };
    let w = window as u64;
    window_loop(&mut Facade::new(&mut cluster, false), payloads, w, |r| r >= SIM_WARMUP_ROUNDS);
    let (msgs0, bytes0, clock0) = probe(&mut cluster);
    let started = Instant::now();
    let rounds =
        window_loop(&mut Facade::new(&mut cluster, false), payloads, w, |r| r >= SIM_ROUNDS);
    let elapsed = started.elapsed();
    let (msgs1, bytes1, clock1) = probe(&mut cluster);
    out.push(("sim.msgs_per_round", ratio((msgs1 - msgs0) as f64, rounds as f64)));
    out.push(("sim.bytes_per_round", ratio((bytes1 - bytes0) as f64, rounds as f64)));
    out.push(("sim.sim_us_per_round", ratio((clock1 - clock0).as_us_f64(), rounds as f64)));
    out.push(("sim.wall_us_per_round", us_per(elapsed, rounds)));
}

/// A warm-up of `slot / 10`, then `slot` measured: µs per round.
fn timed(rung: &mut impl Rung, payloads: &[Bytes], window: usize, slot: Duration) -> f64 {
    let warm_until = Instant::now() + slot / 10;
    window_loop(rung, payloads, window as u64, |_| Instant::now() >= warm_until);
    let started = Instant::now();
    let rounds = window_loop(rung, payloads, window as u64, |_| started.elapsed() >= slot);
    us_per(started.elapsed(), rounds)
}

/// `net::LocalCluster`. Also yields `net.connect_ms`: spawn → first
/// round agreed everywhere.
fn net_rung(graph: &Digraph, payloads: &[Bytes], window: usize, slot: Duration) -> (f64, f64) {
    let opts = RuntimeOptions { round_window: window, ..RuntimeOptions::default() };
    let spawned = Instant::now();
    let cluster = unpinned(|| LocalCluster::spawn(graph.clone(), opts)).expect("loopback cluster");
    let mut rung = Raw { cluster: &cluster, cursor: 0 };
    window_loop(&mut rung, payloads, window as u64, |floor| floor >= 1);
    let connect_ms = spawned.elapsed().as_secs_f64() * 1e3;
    let us = timed(&mut rung, payloads, window, slot);
    unpinned(|| cluster.shutdown());
    (us, connect_ms)
}

/// `Cluster::tcp_with`: the facade over the same transport.
fn cluster_rung(
    graph: &Digraph,
    payloads: &[Bytes],
    window: usize,
    slot: Duration,
    out: &mut Metrics,
) -> f64 {
    let opts = RuntimeOptions { round_window: window, ..RuntimeOptions::default() };
    let mut cluster =
        unpinned(|| Cluster::tcp_with(graph.clone(), opts)).expect("loopback cluster");
    // The spans cover the warm-up tenth as well.
    let mut rung = Facade::new(&mut cluster, true);
    let us = timed(&mut rung, payloads, window, slot);
    out.push(("cluster.submit_ns", rung.tracer.mean_ns("cluster.submit")));
    out.push(("cluster.delivery_wait_us_p50", percentile_of(&mut rung.waits_ns, 0.5) / 1e3));
    unpinned(|| cluster.shutdown()).expect("clean shutdown");
    us
}

/// `Service` over TCP, with or without a `FileDisk` WAL, driven by the
/// benchmark's own closed loop.
fn service_rung(shape: &Spec, durable: bool, seed: u64, slot: Duration) -> f64 {
    let Load::Closed { batch } = shape.load else { unreachable!("shape_of yields closed loops") };
    let spec = Spec { durable, ..*shape };
    let wal = wal_dir(if durable { "ladder-durable" } else { "ladder" });
    let mut run = Run::new(&spec, seed, &wal, false, 0).expect("ladder service");
    let segment = run.run_closed(batch, slot / 10, slot).expect("ladder service rounds");
    let rounds = segment.responded / (spec.n * batch) as u64;
    let us = ratio(segment.seconds * 1e6, rounds as f64);
    let verdict = run.verify_and_shutdown(&wal).expect("ladder service verification");
    assert_eq!(verdict.failed, 0, "ladder service rung failed operations: {:?}", verdict.errors);
    us
}

pub type Metrics = Vec<(&'static str, f64)>;

/// Run every rung for about `slot` each.
pub fn run(spec: &Spec, seed: u64, slot: Duration) -> Metrics {
    let shape = shape_of(spec);
    let payloads = payloads(&shape, seed);
    let (graph, build) = overlay(shape.n);
    let mut out: Metrics = vec![("graph.build_us", build.as_secs_f64() * 1e6)];

    let core_us = core_rung(&graph, &payloads, slot, &mut out);
    core_f1_rung(&graph, &payloads, slot / 2, &mut out);
    sim_rung(&graph, &payloads, shape.pipeline, &mut out);

    let (net_us, connect_ms) = net_rung(&graph, &payloads, shape.pipeline, slot);
    let cluster_us = cluster_rung(&graph, &payloads, shape.pipeline, slot, &mut out);
    let rsm_us = service_rung(&shape, false, seed, slot);
    let durability_us = service_rung(&shape, true, seed, slot);
    out.extend([
        ("core.us_per_round", core_us),
        ("net.us_per_round", net_us),
        ("net.delta_us_per_round", net_us - core_us),
        ("net.connect_ms", connect_ms),
        ("cluster.us_per_round", cluster_us),
        ("cluster.delta_us_per_round", cluster_us - net_us),
        ("rsm.us_per_round", rsm_us),
        ("rsm.delta_us_per_round", rsm_us - cluster_us),
        ("durability.us_per_round", durability_us),
        ("durability.delta_us_per_round", durability_us - rsm_us),
    ]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::find;

    #[test]
    fn lockstep_counts_are_exact_and_repeat() {
        let shape = shape_of(find("durable_open_n8").unwrap());
        assert_eq!(shape.load, Load::Closed { batch: 1 });
        let payloads = payloads(&shape, 1);
        let (graph, _) = overlay(shape.n);
        let count = || {
            let mut net = Lockstep::new(&config(&graph));
            for _ in 0..5 {
                net.round(&payloads, None);
            }
            (net.events, net.sends, net.deliveries)
        };
        let (events, sends, deliveries) = count();
        assert_eq!(count(), (events, sends, deliveries));
        assert_eq!(deliveries, 5 * 8);
        // GS(8,3): each of 8 messages is relayed by 8 servers to 3 successors.
        assert_eq!(sends, 5 * 8 * 8 * 3);
    }

    #[test]
    fn payloads_carry_the_workloads_batch() {
        let small = payloads(&shape_of(find("rounds_n16_small").unwrap()), 1);
        assert_eq!(small.len(), 16);
        assert!(small.iter().all(|p| p.len() == 4 + 64));
        let large = payloads(&shape_of(find("batch_n8_large").unwrap()), 1);
        assert_eq!(large.len(), 8);
        assert_eq!(large[0].len(), 256 * (4 + 3 + 12 + 48));
    }
}
