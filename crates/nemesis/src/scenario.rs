//! Seeded scenario generation and execution.
//!
//! A [`Scenario`] composes **topology × round window × nemesis plan**
//! deterministically from one `u64` seed: `Scenario::generate(seed)`
//! always yields the same overlay, the same fault schedule, and (on the
//! simulated backend) the same execution byte-for-byte — a CI failure
//! replays exactly from its printed seed.
//!
//! Execution drives a typed `Service<KvStore>` over the [`Cluster`]
//! facade: every tick submits one uniquely-keyed command through each
//! live server, applies the tick's scheduled nemesis actions, and pumps
//! the deployment. At every epoch boundary (each restart/rejoin, and the
//! end of the run) the executor settles outstanding work and hands the
//! recorded delivery streams to the [`PropertyChecker`] — the four
//! atomic-broadcast properties plus RSM snapshot convergence are
//! asserted after *every* scenario, not only the ones that look
//! suspicious.

use crate::checker::{uid_command, EpochRecord, PropertyChecker, PropertyViolation};
use crate::plan::{NemesisAction, NemesisPlan};
use allconcur_cluster::{Cluster, FaultCommand, SimOptions};
use allconcur_core::config::FdMode;
use allconcur_core::membership::plan_reconfiguration;
use allconcur_core::replica::{KvCommand, KvResponse, KvStore};
use allconcur_core::ServerId;
use allconcur_durability::{DurabilityConfig, DurabilityStore, MemDisk, VirtualDisk};
use allconcur_graph::gs::gs_digraph;
use allconcur_graph::standard::complete_digraph;
use allconcur_graph::{Digraph, ReliabilityModel};
use allconcur_rsm::{AdmissionConfig, CommandHandle, Service, ServiceError};
use allconcur_sim::network::{Jitter, NetworkModel};
use allconcur_sim::SimTime;
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::time::Duration;

/// Budget for the settle-everything barrier at epoch boundaries.
const SYNC_TIMEOUT: Duration = Duration::from_secs(60);

/// The five generated fault families, spanning the adversarial regimes
/// of the companion formal-spec paper's schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Symmetric two-group partition, healed mid-run.
    PartitionHeal,
    /// Fail-stop crash, then rejoin via snapshot catch-up.
    CrashRestart,
    /// Probabilistic loss on a couple of overlay links.
    MessageLoss,
    /// Per-link latency spikes.
    DelaySpike,
    /// Repeated crash + rejoin cycles.
    Churn,
    /// Whole-cluster power loss with torn tail writes and disk-slow
    /// fsync spikes, recovered from the write-ahead logs alone.
    /// Generated by [`Scenario::generate_durability`], never by
    /// [`Scenario::generate`] (whose seed → class mapping is pinned).
    KillAllRecover,
    /// Transient directed-link outages that stay within the transport's
    /// grace budget: the link heals through reconnection, frames replay,
    /// and **no server loses its membership**. Generated by
    /// [`Scenario::generate_resilience`], never by [`Scenario::generate`]
    /// (whose seed → class mapping is pinned).
    LinkFlap,
    /// Open-loop overload: submission bursts far beyond the round
    /// pipeline's capacity, with a tight admission cap, so the service
    /// **must** shed — and every shed must surface as a typed `Busy`.
    /// Generated by [`Scenario::generate_resilience`], never by
    /// [`Scenario::generate`].
    Overload,
    /// Wire corruption storm: probabilistic bit flips on a few overlay
    /// links, every one CRC-detected and discarded — the run must end
    /// with converged snapshots, zero replica divergences, and the flip
    /// counter proving the storm was real. Generated by
    /// [`Scenario::generate_integrity`], never by [`Scenario::generate`]
    /// (whose seed → class mapping is pinned).
    BitFlip,
    /// Silent replica corruption: one replica's state is poisoned
    /// outside agreement; the divergence audit must catch it at a
    /// digest cross-check, quarantine it typed, heal it from a peer
    /// snapshot, and reconverge
    /// ([`PropertyChecker::check_quarantine_converges`]). Generated by
    /// [`Scenario::generate_integrity`], never by [`Scenario::generate`].
    Divergence,
    /// Durable mid-log rot: one server's write-ahead log gets a bit
    /// flipped in acknowledged history, then the whole deployment
    /// power-fails. Recovery must detect the rot, refuse to trim, and
    /// rebuild the server from its peers — no acknowledged command lost
    /// ([`PropertyChecker::check_rot_detected`]). Generated by
    /// [`Scenario::generate_integrity`], never by [`Scenario::generate`].
    DiskRot,
}

impl std::fmt::Display for FaultClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            FaultClass::PartitionHeal => "partition+heal",
            FaultClass::CrashRestart => "crash-restart",
            FaultClass::MessageLoss => "message-loss",
            FaultClass::DelaySpike => "delay-spike",
            FaultClass::Churn => "churn",
            FaultClass::KillAllRecover => "kill-all-recover",
            FaultClass::LinkFlap => "link-flap",
            FaultClass::Overload => "overload",
            FaultClass::BitFlip => "bit-flip",
            FaultClass::Divergence => "divergence",
            FaultClass::DiskRot => "disk-rot",
        };
        f.write_str(name)
    }
}

/// A fully specified nemesis scenario. Construct with
/// [`Scenario::generate`] (seeded) or assemble the fields by hand for a
/// scripted schedule.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The generation seed (echoed in failure reports for replay).
    pub seed: u64,
    /// Deployment size.
    pub n: usize,
    /// Round-pipelining window / service pipeline depth.
    pub window: usize,
    /// Workload length: one command per live server per tick.
    pub ticks: u64,
    /// The fault family this scenario exercises.
    pub class: FaultClass,
    /// The timed fault schedule.
    pub plan: NemesisPlan,
    /// How long each tick drives the deployment before the next batch of
    /// submissions (simulated time on the sim backend, wall time on
    /// TCP).
    pub tick_budget: Duration,
    /// Submissions per live server per tick. `1` (every classic
    /// scenario) submits once and pumps; above 1 the executor runs an
    /// open-loop burst — flushing queued batches into rounds between
    /// iterations so the pipeline saturates — and counts every typed
    /// `Busy` refusal in [`ScenarioReport::shed`] instead of failing.
    pub burst: u32,
    /// When set, the service's admission-control policy is replaced
    /// before the run (overload scenarios pin a tight per-origin cap so
    /// shedding is guaranteed). `None` keeps the service defaults.
    pub admission: Option<AdmissionConfig>,
    /// When set, every server appends agreed rounds to an in-memory WAL
    /// with this group-commit policy, typed acknowledgments become
    /// *durable* acknowledgments, and the plan may schedule
    /// [`NemesisAction::KillAllAndRecover`] /
    /// [`NemesisAction::DiskSlow`]. `None` (every classic scenario)
    /// runs without durability.
    pub durability: Option<DurabilityConfig>,
    /// When set, the service's replica-divergence audit interval is
    /// pinned before the run (integrity scenarios use a small interval
    /// so poisoned state is caught within a few rounds). `None` keeps
    /// the service default.
    pub audit_interval: Option<u64>,
}

impl std::fmt::Display for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "scenario seed={} class={} n={} window={} ticks={}",
            self.seed, self.class, self.n, self.window, self.ticks
        )?;
        if let Some(cfg) = &self.durability {
            write!(f, " fsync_every={}", cfg.fsync_every_n_rounds)?;
        }
        if self.burst > 1 {
            write!(f, " burst={}", self.burst)?;
        }
        Ok(())
    }
}

/// Outcome counters of a completed (and property-checked) scenario.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScenarioReport {
    /// Configuration epochs executed (1 + number of restarts).
    pub epochs: u64,
    /// Agreement rounds delivered, summed over epochs (reference-stream
    /// length).
    pub rounds: u64,
    /// Commands whose typed responses resolved.
    pub resolved: u64,
    /// Commands that failed typed (origin down, command lost to a crash,
    /// outstanding across a reconfiguration) — accounted, not silent.
    pub failed: u64,
    /// Messages destroyed by probabilistic link loss (simulated backend
    /// only; 0 on TCP, whose drops happen inside the runtimes).
    pub dropped: u64,
    /// Whole-cluster power losses survived: kill-all crashes recovered
    /// from the write-ahead logs (0 outside durability scenarios).
    pub recoveries: u64,
    /// Typed `Busy` refusals observed at the submission boundary —
    /// cross-checked against the service's internal shed counter by the
    /// no-silent-shed property (0 outside overload scenarios).
    pub shed: u64,
    /// Failure-detector suspicions raised by the transport's link
    /// monitors (TCP backend only; the simulator's faults are oracle-
    /// driven, so this stays 0 on `run_sim`).
    pub suspicions: u64,
    /// Messages destroyed by injected bit flips — every one detected
    /// (CRC-discarded) rather than delivered corrupt (simulated backend
    /// only; 0 outside bit-flip scenarios).
    pub flipped: u64,
    /// Replica quarantines raised by the divergence audit over the run
    /// (0 outside divergence scenarios — a nonzero count anywhere else
    /// means corruption leaked into applied state).
    pub quarantines: u64,
    /// Quarantined replicas healed back in via peer-snapshot catch-up.
    pub rejoins: u64,
    /// Servers whose write-ahead log rot was detected at recovery and
    /// rebuilt from peers instead of trimmed (0 outside disk-rot
    /// scenarios).
    pub rotted: u64,
}

/// Why a scenario failed. Every variant is replayable from the
/// scenario's seed.
#[derive(Debug)]
pub enum ScenarioError {
    /// Driving the service failed (stall, transport error, timeout).
    Service(ServiceError),
    /// An atomic-broadcast property (or snapshot convergence) was
    /// violated.
    Property(PropertyViolation),
    /// A command neither resolved nor failed typed after the final
    /// settle — a silent loss.
    Unresolved {
        /// The origin the command was submitted through.
        origin: ServerId,
        /// Its per-origin sequence number.
        seq: u64,
    },
    /// The plan requires a capability this entry point lacks — e.g. a
    /// [`NemesisAction::KillAllAndRecover`] without durability enabled,
    /// or outside [`Scenario::run_sim`] (recovery must rebuild the
    /// cluster, which needs the seeded backend factory).
    Unsupported {
        /// What was missing.
        what: &'static str,
    },
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Service(e) => write!(f, "scenario execution failed: {e}"),
            ScenarioError::Property(v) => write!(f, "property violation: {v}"),
            ScenarioError::Unresolved { origin, seq } => write!(
                f,
                "command {seq} via server {origin} neither resolved nor failed typed \
                 (silent loss)"
            ),
            ScenarioError::Unsupported { what } => write!(f, "unsupported scenario: {what}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<ServiceError> for ScenarioError {
    fn from(e: ServiceError) -> Self {
        ScenarioError::Service(e)
    }
}

impl From<PropertyViolation> for ScenarioError {
    fn from(v: PropertyViolation) -> Self {
        ScenarioError::Property(v)
    }
}

impl Scenario {
    /// Deterministically compose a scenario from `seed`: the fault class
    /// cycles with `seed % 5` and the round window with `(seed / 5) % 3`
    /// over {1, 4, 8}, so any 15 consecutive seeds cover the full
    /// class × window matrix; size, victims, links, rates, and timings
    /// derive from the seeded RNG.
    pub fn generate(seed: u64) -> Scenario {
        let mut rng = StdRng::seed_from_u64(seed);
        let class = match seed % 5 {
            0 => FaultClass::PartitionHeal,
            1 => FaultClass::CrashRestart,
            2 => FaultClass::MessageLoss,
            3 => FaultClass::DelaySpike,
            _ => FaultClass::Churn,
        };
        let window = [1usize, 4, 8][(seed as usize / 5) % 3];
        let n = rng.gen_range(6..=10);
        let overlay = overlay_for(n);
        let mut ticks = 10u64;
        let plan = match class {
            FaultClass::PartitionHeal => {
                let split = rng.gen_range(1..n);
                let groups = vec![
                    (0..split as ServerId).collect::<Vec<_>>(),
                    (split as ServerId..n as ServerId).collect::<Vec<_>>(),
                ];
                let cut: u64 = rng.gen_range(2..=3);
                let heal = cut + rng.gen_range(2u64..=4);
                NemesisPlan::new()
                    .at(cut, NemesisAction::Fault(FaultCommand::Partition { groups }))
                    .at(heal, NemesisAction::Fault(FaultCommand::HealPartitions))
            }
            FaultClass::CrashRestart => {
                let victim = rng.gen_range(0..n as ServerId);
                NemesisPlan::new()
                    .at(2, NemesisAction::Crash { server: victim })
                    .at(6, NemesisAction::Restart { joiners: 1 })
            }
            FaultClass::MessageLoss => {
                let edges: Vec<(ServerId, ServerId)> = overlay.edges().collect();
                let mut plan = NemesisPlan::new();
                for _ in 0..2 {
                    let (from, to) = edges[rng.gen_range(0..edges.len())];
                    let ppm = rng.gen_range(100_000..=400_000);
                    plan = plan.at(1, NemesisAction::Fault(FaultCommand::Drop { from, to, ppm }));
                }
                plan.at(8, NemesisAction::Fault(FaultCommand::ClearLinkFaults))
            }
            FaultClass::DelaySpike => {
                let edges: Vec<(ServerId, ServerId)> = overlay.edges().collect();
                let mut plan = NemesisPlan::new();
                for _ in 0..2 {
                    let (from, to) = edges[rng.gen_range(0..edges.len())];
                    let extra = Duration::from_micros(rng.gen_range(200..=2_000));
                    plan =
                        plan.at(1, NemesisAction::Fault(FaultCommand::Delay { from, to, extra }));
                }
                plan.at(7, NemesisAction::Fault(FaultCommand::ClearLinkFaults))
            }
            FaultClass::Churn => {
                ticks = 14;
                let v1 = rng.gen_range(0..n as ServerId);
                let v2 = rng.gen_range(0..n as ServerId);
                NemesisPlan::new()
                    .at(2, NemesisAction::Crash { server: v1 })
                    .at(5, NemesisAction::Restart { joiners: 1 })
                    .at(8, NemesisAction::Crash { server: v2 })
                    .at(11, NemesisAction::Restart { joiners: 1 })
            }
            FaultClass::KillAllRecover => {
                unreachable!("kill-all-recover comes from Scenario::generate_durability")
            }
            FaultClass::LinkFlap | FaultClass::Overload => {
                unreachable!("resilience classes come from Scenario::generate_resilience")
            }
            FaultClass::BitFlip | FaultClass::Divergence | FaultClass::DiskRot => {
                unreachable!("integrity classes come from Scenario::generate_integrity")
            }
        };
        Scenario {
            seed,
            n,
            window,
            ticks,
            class,
            plan,
            tick_budget: Duration::from_millis(3),
            burst: 1,
            admission: None,
            durability: None,
            audit_interval: None,
        }
    }

    /// Deterministically compose a **durability** scenario from `seed`:
    /// [`FaultClass::KillAllRecover`] with an in-memory WAL per server
    /// ([`DurabilityConfig::deterministic`], fsync window ∈ {1, 4, 8}),
    /// a disk-slow fsync spike on one server, and one or two
    /// whole-cluster power losses with byte-exact torn tail writes —
    /// each recovered from the logs alone and checked against the
    /// no-lost-acknowledged-command property. A separate generator so
    /// the classic `seed % 5` class mapping of [`Scenario::generate`]
    /// (and every CI seed pinned against it) stays stable.
    pub fn generate_durability(seed: u64) -> Scenario {
        let mut rng = StdRng::seed_from_u64(seed);
        let window = [1usize, 4, 8][(seed % 3) as usize];
        let n = rng.gen_range(6..=10);
        let fsync_every = [1u64, 4, 8][rng.gen_range(0..3usize)];
        let slow = rng.gen_range(0..n as ServerId);
        let torn = |rng: &mut StdRng| -> Vec<(ServerId, u64)> {
            let mut specs = Vec::new();
            for s in 0..n as ServerId {
                if rng.gen_bool(0.5) {
                    specs.push((s, rng.gen_range(0..64)));
                }
            }
            specs
        };
        let mut ticks = 10u64;
        let mut plan = NemesisPlan::new()
            .at(2, NemesisAction::DiskSlow { server: slow, on: true })
            .at(4, NemesisAction::DiskSlow { server: slow, on: false })
            .at(5, NemesisAction::KillAllAndRecover { torn: torn(&mut rng) });
        if rng.gen_bool(0.5) {
            ticks = 13;
            plan = plan.at(9, NemesisAction::KillAllAndRecover { torn: torn(&mut rng) });
        }
        Scenario {
            seed,
            n,
            window,
            ticks,
            class: FaultClass::KillAllRecover,
            plan,
            tick_budget: Duration::from_millis(3),
            burst: 1,
            admission: None,
            durability: Some(DurabilityConfig::deterministic(fsync_every)),
            audit_interval: None,
        }
    }

    /// Deterministically compose a **resilience** scenario from `seed`:
    /// even seeds exercise [`FaultClass::LinkFlap`] (two or three
    /// transient directed-link outages, each well under the transport's
    /// grace budget, that must heal with zero membership removals and
    /// zero protocol-visible loss), odd seeds exercise
    /// [`FaultClass::Overload`] (open-loop submission bursts beyond the
    /// pipeline's capacity against a tight admission cap, so shedding is
    /// guaranteed — and every shed must surface typed). The round window
    /// cycles over {1, 4, 8} with `seed % 3`. A separate generator so
    /// the classic `seed % 5` class mapping of [`Scenario::generate`]
    /// (and every CI seed pinned against it) stays stable.
    pub fn generate_resilience(seed: u64) -> Scenario {
        let mut rng = StdRng::seed_from_u64(seed);
        let window = [1usize, 4, 8][(seed % 3) as usize];
        let n = rng.gen_range(6..=10);
        if seed.is_multiple_of(2) {
            let overlay = overlay_for(n);
            let edges: Vec<(ServerId, ServerId)> = overlay.edges().collect();
            let mut plan = NemesisPlan::new();
            for _ in 0..rng.gen_range(2..=3) {
                let (from, to) = edges[rng.gen_range(0..edges.len())];
                // Well under the tick budget (and any grace window), so
                // the outage is transient by construction.
                let down_for = Duration::from_micros(rng.gen_range(100..=1_000));
                let tick = rng.gen_range(1..=6);
                plan = plan
                    .at(tick, NemesisAction::Fault(FaultCommand::LinkFlap { from, to, down_for }));
            }
            Scenario {
                seed,
                n,
                window,
                ticks: 10,
                class: FaultClass::LinkFlap,
                plan,
                tick_budget: Duration::from_millis(3),
                burst: 1,
                admission: None,
                durability: None,
                audit_interval: None,
            }
        } else {
            // No scheduled faults: the workload itself is the adversary.
            // burst ≥ 16 with a per-origin cap of 4 guarantees sheds at
            // every window in {1, 4, 8}: the first `window` flushes fill
            // the pipeline, the next 4 iterations fill each origin's
            // queue to its cap, and everything after that is shed.
            Scenario {
                seed,
                n,
                window,
                ticks: 8,
                class: FaultClass::Overload,
                plan: NemesisPlan::new(),
                tick_budget: Duration::from_millis(3),
                burst: rng.gen_range(16..=24),
                admission: Some(AdmissionConfig {
                    max_queued_per_origin: 4,
                    ..AdmissionConfig::default()
                }),
                durability: None,
                audit_interval: None,
            }
        }
    }

    /// Deterministically compose an **integrity** scenario from `seed`:
    /// `seed % 3` cycles three corruption regimes, each checked against
    /// the end-to-end integrity properties on top of the always-on
    /// atomic-broadcast checker —
    ///
    /// * `0` → [`FaultClass::BitFlip`]: probabilistic bit flips on two
    ///   or three overlay links (cleared mid-run). Every flip must be
    ///   CRC-detected and discarded, never delivered: the run ends with
    ///   zero divergences and converged snapshots, and the flip counter
    ///   proves the storm happened.
    /// * `1` → [`FaultClass::Divergence`]: one replica's state is
    ///   poisoned outside agreement with the audit interval pinned
    ///   small. The digest cross-check must quarantine it typed, heal
    ///   it from a peer snapshot, and reconverge
    ///   ([`PropertyChecker::check_quarantine_converges`]).
    /// * `2` → [`FaultClass::DiskRot`]: a bit is durably flipped inside
    ///   one server's WAL (acknowledged history), then the whole
    ///   deployment power-fails. Recovery must report the rot and
    ///   rebuild that server from its peers — never trim — with no
    ///   acknowledged command lost
    ///   ([`PropertyChecker::check_rot_detected`]).
    ///
    /// The round window cycles over {1, 4, 8} with `seed / 3`. A
    /// separate generator so the classic `seed % 5` class mapping of
    /// [`Scenario::generate`] (and every CI seed pinned against it)
    /// stays stable.
    pub fn generate_integrity(seed: u64) -> Scenario {
        let mut rng = StdRng::seed_from_u64(seed);
        let window = [1usize, 4, 8][(seed as usize / 3) % 3];
        let n = rng.gen_range(6..=10);
        match seed % 3 {
            0 => {
                let overlay = overlay_for(n);
                let edges: Vec<(ServerId, ServerId)> = overlay.edges().collect();
                let mut plan = NemesisPlan::new();
                for _ in 0..rng.gen_range(2..=3) {
                    let (from, to) = edges[rng.gen_range(0..edges.len())];
                    let ppm = rng.gen_range(200_000..=500_000);
                    plan =
                        plan.at(1, NemesisAction::Fault(FaultCommand::BitFlip { from, to, ppm }));
                }
                Scenario {
                    seed,
                    n,
                    window,
                    ticks: 10,
                    class: FaultClass::BitFlip,
                    plan: plan.at(8, NemesisAction::Fault(FaultCommand::ClearLinkFaults)),
                    tick_budget: Duration::from_millis(3),
                    burst: 1,
                    admission: None,
                    durability: None,
                    // The audit runs throughout: a flip the CRC missed
                    // would diverge a replica and be flagged.
                    audit_interval: Some(4),
                }
            }
            1 => {
                let victim = rng.gen_range(0..n as ServerId);
                Scenario {
                    seed,
                    n,
                    window,
                    ticks: 12,
                    class: FaultClass::Divergence,
                    plan: NemesisPlan::new().at(3, NemesisAction::PoisonReplica { server: victim }),
                    tick_budget: Duration::from_millis(3),
                    burst: 1,
                    admission: None,
                    durability: None,
                    audit_interval: Some(4),
                }
            }
            _ => {
                let victim = rng.gen_range(0..n as ServerId);
                // Inside the first frame's checksummed payload (bytes
                // 8..16 hold its epoch field), so the flip is mid-log
                // rot on acknowledged history, never a torn tail.
                let bit: u64 = 64 + rng.gen_range(0..64u64);
                let fsync_every = [1u64, 4, 8][rng.gen_range(0..3usize)];
                Scenario {
                    seed,
                    n,
                    window,
                    ticks: 10,
                    class: FaultClass::DiskRot,
                    // Same tick, insertion order: the rot lands moments
                    // before the power loss, so no durable skew can
                    // develop between injection and crash (the scenario
                    // tests rot *detection*, not the one-durable-copy
                    // fault budget).
                    plan: NemesisPlan::new()
                        .at(6, NemesisAction::DiskRot { server: victim, bit })
                        .at(6, NemesisAction::KillAllAndRecover { torn: Vec::new() }),
                    tick_budget: Duration::from_millis(3),
                    burst: 1,
                    admission: None,
                    durability: Some(DurabilityConfig::deterministic(fsync_every)),
                    audit_interval: None,
                }
            }
        }
    }

    /// Override the per-tick driving budget (useful on TCP, where the
    /// budget is wall-clock and loopback rounds take longer than the
    /// simulator's default).
    pub fn with_tick_budget(mut self, budget: Duration) -> Scenario {
        self.tick_budget = budget;
        self
    }

    /// The initial overlay for this scenario's size.
    pub fn overlay(&self) -> Digraph {
        overlay_for(self.n)
    }

    /// Run on the discrete-event simulator (fully deterministic: same
    /// seed, same execution, byte-for-byte). The only entry point that
    /// supports [`NemesisAction::KillAllAndRecover`]: recovery rebuilds
    /// the whole deployment, which needs the seeded backend factory.
    pub fn run_sim(&self) -> Result<ScenarioReport, ScenarioError> {
        let make = || {
            let opts = SimOptions {
                network: NetworkModel::tcp_cluster().with_jitter(Jitter::Uniform { max_ns: 2_000 }),
                fd_delay: SimTime::from_us(200),
                seed: self.seed,
                ..SimOptions::default()
            };
            Cluster::sim_with(self.overlay(), opts)
        };
        self.run_inner(make(), Some(&make))
    }

    /// Run over an already-constructed cluster (any backend). The
    /// cluster must be deployed on [`Scenario::overlay`]. On TCP, plans
    /// containing sim-only fault commands (partition, delay, reorder)
    /// fail with [`ClusterError::Unsupported`] wrapped in
    /// [`ScenarioError::Service`] — generate a supported class
    /// ([`FaultClass::CrashRestart`], [`FaultClass::MessageLoss`],
    /// [`FaultClass::Churn`]) for TCP runs. Plans containing
    /// [`NemesisAction::KillAllAndRecover`] fail with
    /// [`ScenarioError::Unsupported`] — use [`Scenario::run_sim`].
    ///
    /// [`ClusterError::Unsupported`]: allconcur_cluster::ClusterError::Unsupported
    pub fn run_on(&self, cluster: Cluster) -> Result<ScenarioReport, ScenarioError> {
        self.run_inner(cluster, None)
    }

    fn run_inner(
        &self,
        cluster: Cluster,
        factory: Option<&dyn Fn() -> Cluster>,
    ) -> Result<ScenarioReport, ScenarioError> {
        let mut service = match &self.durability {
            Some(cfg) => Service::with_durability(
                cluster,
                &KvStore::default(),
                DurabilityStore::memory(self.n),
                cfg.clone(),
            )?,
            None => Service::new(cluster, &KvStore::default())?,
        };
        service.set_pipeline(self.window);
        if let Some(cfg) = self.admission {
            service.set_admission(cfg);
        }
        if let Some(interval) = self.audit_interval {
            service.set_audit_interval(interval);
        }
        service.record_deliveries(true);
        let mut slot = Some(service);
        let mut state = RunState {
            record: EpochRecord::new(0),
            pending: Vec::new(),
            report: ScenarioReport::default(),
            durable_acked: BTreeSet::new(),
            rot_injected: BTreeSet::new(),
        };
        let mut next_uid: u64 = 1;
        let total_ticks = self.ticks.max(self.plan.last_tick());
        for tick in 0..=total_ticks {
            let actions: Vec<NemesisAction> = self.plan.actions_at(tick).cloned().collect();
            for action in actions {
                self.apply(&action, &mut slot, &mut state, factory)?;
            }
            let service = slot.as_mut().expect("service alive between actions");
            if tick < self.ticks {
                for b in 0..self.burst {
                    if b > 0 {
                        // Open-loop burst: drain queued batches into
                        // rounds so the pipeline saturates before the
                        // next iteration (classic burst-1 scenarios
                        // never take this path — their execution stays
                        // byte-identical).
                        match service.flush() {
                            Ok(()) => {}
                            Err(ServiceError::Busy { .. }) => {}
                            Err(e) => return Err(e.into()),
                        }
                    }
                    for origin in service.live_servers() {
                        let uid = next_uid;
                        match service.submit(origin, &uid_command(uid)) {
                            Ok(handle) => {
                                next_uid += 1;
                                state.record.submitted.insert(uid, origin);
                                state.pending.push((origin, handle, uid));
                            }
                            // Raced a crash between live_servers() and here.
                            Err(ServiceError::OriginDown(_)) => {}
                            // Admission control shed it, typed, with no
                            // effect — the uid is never consumed, so the
                            // delivered streams stay gap-free.
                            Err(ServiceError::Busy { .. }) => state.report.shed += 1,
                            Err(e) => return Err(e.into()),
                        }
                    }
                }
            }
            // One bounded driving step, then drain whatever is ready.
            service.pump(self.tick_budget)?;
            while service.pump(Duration::ZERO)? {}
        }
        let service = slot.as_mut().expect("service alive at the end");
        if self.class == FaultClass::Divergence {
            // Detection needs an audit boundary to pass and the
            // quarantine only self-heals on the victim's *next*
            // delivery — neither is guaranteed to line up with the last
            // workload tick, so drive dedicated settle rounds (each one
            // submitted, agreed, and applied) until the full detect →
            // quarantine → rejoin cycle completes. Bounded so a broken
            // audit fails typed below instead of spinning.
            let interval = self.audit_interval.unwrap_or(32).max(1);
            for _ in 0..(4 * interval + 16) {
                let stats = service.integrity_stats();
                let quarantined =
                    (0..self.n as ServerId).any(|s| service.quarantined_at(s).is_some());
                if stats.divergences > 0 && !quarantined {
                    break;
                }
                let uid = next_uid;
                next_uid += 1;
                let handle = service.submit(0, &uid_command(uid))?;
                state.record.submitted.insert(uid, 0);
                state.pending.push((0, handle, uid));
                service.sync(SYNC_TIMEOUT)?;
            }
        }
        self.close_epoch(service, &mut state)?;
        // The two resilience properties, asserted on every scenario:
        // an under-grace link-flap schedule removes no one from the
        // membership, and every internal shed surfaced as a typed Busy
        // at the submission boundary.
        if self.class == FaultClass::LinkFlap {
            PropertyChecker::check_full_membership(self.n, &service.live_servers())?;
        }
        PropertyChecker::check_shed_accounting(service.shed_count(), state.report.shed)?;
        // The integrity properties: divergence-audit bookkeeping goes
        // into the report on every run, and the corruption classes get
        // their end-to-end checks.
        let stats = service.integrity_stats();
        state.report.quarantines = stats.quarantines;
        state.report.rejoins = stats.rejoins;
        let still_quarantined: Vec<ServerId> =
            (0..self.n as ServerId).filter(|&s| service.quarantined_at(s).is_some()).collect();
        match self.class {
            FaultClass::Divergence => {
                let victim = self
                    .plan
                    .steps()
                    .iter()
                    .find_map(|(_, a)| match a {
                        NemesisAction::PoisonReplica { server } => Some(*server),
                        _ => None,
                    })
                    .unwrap_or(0);
                PropertyChecker::check_quarantine_converges(
                    victim,
                    stats.divergences,
                    stats.rejoins,
                    &still_quarantined,
                )?;
            }
            // Wire flips must be caught by the frame CRC, so the audit
            // (running throughout) may never see a diverged replica — a
            // divergence here means corruption leaked past the wire into
            // applied state. The audit does not attribute a healed
            // divergence, so fall back to the first still-quarantined
            // server (or 0) for the report.
            FaultClass::BitFlip if stats.divergences > 0 => {
                let server = still_quarantined.first().copied().unwrap_or(0);
                return Err(PropertyViolation::SilentCorruption { server }.into());
            }
            _ => {}
        }
        if let Some(sim) = service.cluster_mut().sim_transport_mut() {
            state.report.dropped = sim.cluster().dropped_messages();
            state.report.flipped = sim.cluster().flipped_messages();
        }
        if let Some(tcp) = service.cluster_mut().tcp_transport_mut() {
            if let Some(lc) = tcp.cluster() {
                for id in 0..self.n as ServerId {
                    state.report.suspicions += lc.link_stats(id).suspicions;
                }
            }
        }
        Ok(state.report)
    }

    fn apply(
        &self,
        action: &NemesisAction,
        slot: &mut Option<Service<KvStore>>,
        state: &mut RunState,
        factory: Option<&dyn Fn() -> Cluster>,
    ) -> Result<(), ScenarioError> {
        if let NemesisAction::KillAllAndRecover { torn } = action {
            return self.kill_all(torn, slot, state, factory);
        }
        let service = slot.as_mut().expect("service alive between actions");
        match action {
            NemesisAction::Fault(cmd) => {
                service.cluster_mut().inject_fault(cmd).map_err(ServiceError::Cluster)?;
            }
            NemesisAction::Crash { server } => {
                if service.live_servers().contains(server) {
                    service.crash(*server)?;
                }
            }
            NemesisAction::Suspect { at, suspect } => {
                service.suspect(*at, *suspect)?;
            }
            NemesisAction::Restart { joiners } => {
                // Epoch boundary: settle and property-check the old
                // configuration, then rejoin through the agreed
                // reconfiguration — the surviving replicas' snapshot
                // seeds every member of the new overlay, so the
                // restarted capacity catches up without history replay.
                self.close_epoch(service, state)?;
                let survivors = service.live_servers();
                let plan = plan_reconfiguration(
                    &survivors,
                    &[],
                    *joiners,
                    &ReliabilityModel::paper_default(),
                    6.0,
                    FdMode::Perfect,
                );
                let graph = (*plan.config.graph).clone();
                service.reconfigure(graph, SYNC_TIMEOUT)?;
                state.record = EpochRecord::new(state.record.epoch + 1);
            }
            NemesisAction::DiskSlow { server, on } => {
                let disk = service.wal_disk_mut(*server).ok_or(ScenarioError::Unsupported {
                    what: "disk-slow injection needs a durability-enabled scenario",
                })?;
                // Only the in-memory disk models suspended fsyncs; on a
                // real-file disk the spike degrades to a no-op.
                if let Some(mem) = disk.as_any_mut().downcast_mut::<MemDisk>() {
                    mem.set_sync_suspended(*on);
                }
            }
            NemesisAction::PoisonReplica { server } => {
                // The silent-corruption injection: a stray write no
                // round carried, keyed so the uid workload (8-byte
                // keys) can never legitimately produce it.
                let poison = KvCommand::Put {
                    key: Bytes::from_static(b"nemesis-poison"),
                    value: Bytes::from_static(b"stray"),
                };
                service.poison_replica(*server, &poison)?;
            }
            NemesisAction::DiskRot { server, bit } => {
                if service.wal(*server).is_none() {
                    return Err(ScenarioError::Unsupported {
                        what: "disk rot injection needs a durability-enabled scenario",
                    });
                }
                // Rot is durable damage to *acknowledged* history. The
                // flip lands in round 0's frame, and classifying it as
                // rot — never a torn tail — requires valid history
                // after the damage, so drive the victim's log to at
                // least two appended rounds first. Then settle the
                // whole deployment and force the group commit: every
                // peer holds the full durable history, so refusing the
                // victim's log at recovery loses nothing acknowledged
                // (the scenario tests detection, not the
                // one-durable-copy fault budget), and the damaged bytes
                // sit below the durable watermark, surviving the power
                // loss.
                let mut steps = 0u32;
                while service.wal(*server).is_some_and(|w| w.appended_rounds() < 2)
                    && steps < 10_000
                {
                    service.pump(self.tick_budget)?;
                    steps += 1;
                }
                service.sync(SYNC_TIMEOUT)?;
                service.flush_durability()?;
                let disk = service.wal_disk_mut(*server).expect("durability checked above");
                // Only the in-memory disk model supports durable rot; on
                // a real-file disk the injection degrades to a no-op,
                // like DiskSlow.
                if let Some(mem) = disk.as_any_mut().downcast_mut::<MemDisk>() {
                    let mut segments: Vec<String> = mem
                        .list()
                        .map_err(ServiceError::Durability)?
                        .into_iter()
                        .filter(|f| f.starts_with("wal-") && f.ends_with(".seg"))
                        .collect();
                    segments.sort();
                    if let Some(first) = segments.first() {
                        if mem.rot(first, *bit as usize) {
                            state.rot_injected.insert(*server);
                        }
                    }
                }
            }
            NemesisAction::KillAllAndRecover { .. } => unreachable!("handled above"),
        }
        Ok(())
    }

    /// The whole-deployment power loss: account every outstanding
    /// command at the crash instant (durable acknowledgment → resolved,
    /// anything else → a typed loss), property-check the pre-crash
    /// epoch, inject the scheduled torn tail writes, crash every
    /// virtual disk, rebuild the cluster, and recover the service from
    /// the write-ahead logs alone — then assert that nothing durably
    /// acknowledged was lost and that the recovered replicas converged.
    fn kill_all(
        &self,
        torn: &[(ServerId, u64)],
        slot: &mut Option<Service<KvStore>>,
        state: &mut RunState,
        factory: Option<&dyn Fn() -> Cluster>,
    ) -> Result<(), ScenarioError> {
        let service = slot.as_mut().expect("service alive at kill-all");
        let cfg = service.durability_config().cloned().ok_or(ScenarioError::Unsupported {
            what: "kill-all recovery needs a durability-enabled scenario",
        })?;
        let factory = factory.ok_or(ScenarioError::Unsupported {
            what: "kill-all recovery needs a rebuildable cluster backend (run_sim)",
        })?;
        // Power loss is an instant: drain what is already agreed, but
        // do NOT settle or force the disks — only commands that are
        // durably acknowledged right now survive as resolved.
        while service.pump(Duration::ZERO)? {}
        for (_origin, handle, uid) in std::mem::take(&mut state.pending) {
            match service.try_response(&handle) {
                Ok(Some(_)) => {
                    state.record.resolved.insert(uid);
                    state.durable_acked.insert(uid);
                    state.report.resolved += 1;
                }
                // Unacknowledged at the crash instant: lost with the
                // power — a typed failure, never a silent one.
                Ok(None) => state.report.failed += 1,
                Err(
                    ServiceError::OriginDown(_)
                    | ServiceError::CommandLost { .. }
                    | ServiceError::Reconfigured,
                ) => state.report.failed += 1,
                Err(e) => return Err(e.into()),
            }
        }
        for (at, delivery) in service.take_delivery_log() {
            state.record.streams.entry(at).or_default().push(delivery);
        }
        state.report.rounds +=
            state.record.streams.values().map(|s| s.len() as u64).max().unwrap_or(0);
        // The pre-crash epoch must already satisfy the AB properties
        // (ragged stream lengths are fine — prefixes are legal).
        PropertyChecker::check_epoch(&state.record)?;
        let mut store = slot
            .take()
            .expect("service alive at kill-all")
            .shutdown_into_store()?
            .expect("durability checked above");
        for &(server, keep) in torn {
            let Some(mem) = store.mem_disk_mut(server as usize) else { continue };
            let names: Vec<String> = mem
                .list()
                .map_err(ServiceError::Durability)?
                .into_iter()
                .filter(|f| f.starts_with("wal-"))
                .collect();
            for name in names {
                let unsynced = mem.unsynced_len(&name);
                if unsynced > 0 {
                    // A byte-exact partial write of the unsynced tail.
                    mem.tear(&name, keep as usize % unsynced);
                }
            }
        }
        store.crash_all();
        let (mut recovered, report) = Service::recover(factory(), &KvStore::default(), store, cfg)?;
        recovered.set_pipeline(self.window);
        if let Some(interval) = self.audit_interval {
            recovered.set_audit_interval(interval);
        }
        recovered.record_deliveries(true);
        // Rot accounting first: recovery must have *detected* every
        // injected rot (refused the log, rebuilt from peers) — a rot
        // absent from the report means corrupt bytes entered the
        // recovered state unnoticed.
        let rebuilt: Vec<ServerId> = report.rotted.iter().map(|(s, _)| *s).collect();
        state.report.rotted += rebuilt.len() as u64;
        let injected: Vec<ServerId> = state.rot_injected.iter().copied().collect();
        PropertyChecker::check_rot_detected(&injected, &rebuilt)?;
        state.rot_injected.clear();
        // The durability property: nothing acknowledged is ever lost,
        // and every recovered replica converged to the same state.
        let mut outcome =
            PropertyChecker::check_recovered_acks(&state.durable_acked, recovered.query_local(0)?);
        if outcome.is_ok() {
            let mut snapshots = Vec::new();
            for id in recovered.live_servers() {
                snapshots.push((id, recovered.replica(id)?.snapshot()));
            }
            outcome = PropertyChecker::check_snapshots(&snapshots);
        }
        if let Err(violation) = outcome {
            dump_wals(&mut recovered, self.seed);
            return Err(violation.into());
        }
        state.record = EpochRecord::new(state.record.epoch + 1);
        state.report.epochs += 1;
        state.report.recoveries += 1;
        *slot = Some(recovered);
        Ok(())
    }

    /// Settle the current configuration and assert every property on it:
    /// heal and clear link faults (including suspended fsyncs), sync to
    /// quiescence, account every outstanding command (resolved or typed
    /// failure — never silence), then run the checker over the recorded
    /// streams and the live replicas' snapshots.
    fn close_epoch(
        &self,
        service: &mut Service<KvStore>,
        state: &mut RunState,
    ) -> Result<(), ScenarioError> {
        let cluster = service.cluster_mut();
        cluster.inject_fault(&FaultCommand::HealPartitions).map_err(ServiceError::Cluster)?;
        cluster.inject_fault(&FaultCommand::ClearLinkFaults).map_err(ServiceError::Cluster)?;
        resume_disks(service);
        service.sync(SYNC_TIMEOUT)?;
        for (origin, handle, uid) in std::mem::take(&mut state.pending) {
            match service.try_response(&handle) {
                Ok(Some(_)) => {
                    state.record.resolved.insert(uid);
                    state.durable_acked.insert(uid);
                    state.report.resolved += 1;
                }
                Ok(None) => return Err(ScenarioError::Unresolved { origin, seq: handle.seq() }),
                Err(
                    ServiceError::OriginDown(_)
                    | ServiceError::CommandLost { .. }
                    | ServiceError::Reconfigured,
                ) => state.report.failed += 1,
                Err(e) => return Err(e.into()),
            }
        }
        for (at, delivery) in service.take_delivery_log() {
            state.record.streams.entry(at).or_default().push(delivery);
        }
        state.report.rounds +=
            state.record.streams.values().map(|s| s.len() as u64).max().unwrap_or(0);
        PropertyChecker::check_epoch(&state.record)?;
        let mut snapshots = Vec::new();
        for id in service.live_servers() {
            snapshots.push((id, service.replica(id)?.snapshot()));
        }
        PropertyChecker::check_snapshots(&snapshots)?;
        state.report.epochs += 1;
        Ok(())
    }
}

/// Mutable bookkeeping threaded through one scenario execution.
struct RunState {
    /// The current configuration epoch's streams and command ledger.
    record: EpochRecord,
    /// Commands submitted but not yet accounted (origin, handle, uid).
    pending: Vec<(ServerId, CommandHandle<KvResponse>, u64)>,
    /// The outcome counters under construction.
    report: ScenarioReport,
    /// Every uid whose typed response resolved at any point in the run —
    /// under durability these are *durable* acknowledgments, and the set
    /// is checked against the recovered state after every kill-all.
    durable_acked: BTreeSet<u64>,
    /// Servers whose WAL was rot-injected since the last recovery; each
    /// must show up in the next recovery's rotted report or the rot
    /// went silent.
    rot_injected: BTreeSet<ServerId>,
}

/// Clear any disk-slow fsync suspension (no-op without durability, and
/// on disks that aren't the in-memory model).
fn resume_disks(service: &mut Service<KvStore>) {
    let mut id: ServerId = 0;
    while let Some(disk) = service.wal_disk_mut(id) {
        if let Some(mem) = disk.as_any_mut().downcast_mut::<MemDisk>() {
            mem.set_sync_suspended(false);
        }
        id += 1;
    }
}

/// Dump every server's WAL files under `$NEMESIS_WAL_DUMP/seed-<seed>/`
/// so CI can upload them as artifacts from a failing run; no-op when the
/// variable is unset.
fn dump_wals(service: &mut Service<KvStore>, seed: u64) {
    let Ok(root) = std::env::var("NEMESIS_WAL_DUMP") else { return };
    let base = std::path::Path::new(&root).join(format!("seed-{seed}"));
    let mut id: ServerId = 0;
    while let Some(disk) = service.wal_disk_mut(id) {
        let names = disk.list().unwrap_or_default();
        let files: Vec<(String, Vec<u8>)> = names
            .into_iter()
            .filter_map(|n| disk.read(&n).ok().flatten().map(|d| (n, d)))
            .collect();
        let dir = base.join(format!("server-{id}"));
        if std::fs::create_dir_all(&dir).is_ok() {
            for (name, data) in files {
                let _ = std::fs::write(dir.join(&name), data);
            }
        }
        id += 1;
    }
}

/// GS(n, 3) when valid, complete digraph below the GS threshold.
fn overlay_for(n: usize) -> Digraph {
    if n >= 6 {
        if let Ok(g) = gs_digraph(n, 3) {
            return g;
        }
    }
    complete_digraph(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..15 {
            let a = Scenario::generate(seed);
            let b = Scenario::generate(seed);
            assert_eq!(a.n, b.n);
            assert_eq!(a.window, b.window);
            assert_eq!(a.class, b.class);
            assert_eq!(a.plan, b.plan);
        }
    }

    #[test]
    fn fifteen_consecutive_seeds_span_the_matrix() {
        use std::collections::BTreeSet;
        let combos: BTreeSet<(String, usize)> = (0..15)
            .map(|s| {
                let sc = Scenario::generate(s);
                (sc.class.to_string(), sc.window)
            })
            .collect();
        assert_eq!(combos.len(), 15, "5 classes × 3 windows all distinct");
    }

    #[test]
    fn one_scenario_runs_green_per_class() {
        for seed in 0..5 {
            let scenario = Scenario::generate(seed);
            let report = scenario.run_sim().unwrap_or_else(|e| panic!("{scenario} failed: {e}"));
            assert!(report.rounds > 0, "{scenario} delivered nothing");
            assert!(report.resolved > 0, "{scenario} resolved nothing");
        }
    }

    #[test]
    fn durability_generation_is_deterministic() {
        for seed in 0..6 {
            let a = Scenario::generate_durability(seed);
            let b = Scenario::generate_durability(seed);
            assert_eq!(a.n, b.n);
            assert_eq!(a.window, b.window);
            assert_eq!(a.plan, b.plan);
            assert_eq!(a.durability, b.durability);
            assert_eq!(a.class, FaultClass::KillAllRecover);
        }
    }

    #[test]
    fn resilience_generation_is_deterministic() {
        for seed in 0..6 {
            let a = Scenario::generate_resilience(seed);
            let b = Scenario::generate_resilience(seed);
            assert_eq!(a.n, b.n);
            assert_eq!(a.window, b.window);
            assert_eq!(a.class, b.class);
            assert_eq!(a.plan, b.plan);
            assert_eq!(a.burst, b.burst);
            assert_eq!(a.admission, b.admission);
            let expected =
                if seed.is_multiple_of(2) { FaultClass::LinkFlap } else { FaultClass::Overload };
            assert_eq!(a.class, expected);
        }
    }

    #[test]
    fn link_flap_scenario_heals_with_full_membership() {
        let scenario = Scenario::generate_resilience(0);
        assert_eq!(scenario.class, FaultClass::LinkFlap);
        let report = scenario.run_sim().unwrap_or_else(|e| panic!("{scenario} failed: {e}"));
        assert!(report.rounds > 0, "{scenario} delivered nothing");
        assert!(report.resolved > 0, "{scenario} resolved nothing");
        assert_eq!(report.shed, 0, "{scenario} shed under a plain workload");
    }

    #[test]
    fn overload_scenario_sheds_typed_and_accounted() {
        let scenario = Scenario::generate_resilience(1);
        assert_eq!(scenario.class, FaultClass::Overload);
        let report = scenario.run_sim().unwrap_or_else(|e| panic!("{scenario} failed: {e}"));
        assert!(report.shed > 0, "{scenario} never shed under an open-loop burst");
        assert!(report.resolved > 0, "{scenario} resolved nothing");
    }

    #[test]
    fn integrity_generation_is_deterministic() {
        for seed in 0..9 {
            let a = Scenario::generate_integrity(seed);
            let b = Scenario::generate_integrity(seed);
            assert_eq!(a.n, b.n);
            assert_eq!(a.window, b.window);
            assert_eq!(a.class, b.class);
            assert_eq!(a.plan, b.plan);
            assert_eq!(a.durability, b.durability);
            assert_eq!(a.audit_interval, b.audit_interval);
            let expected = match seed % 3 {
                0 => FaultClass::BitFlip,
                1 => FaultClass::Divergence,
                _ => FaultClass::DiskRot,
            };
            assert_eq!(a.class, expected);
        }
    }

    #[test]
    fn bit_flip_scenario_detects_every_flip() {
        let scenario = Scenario::generate_integrity(0);
        assert_eq!(scenario.class, FaultClass::BitFlip);
        let report = scenario.run_sim().unwrap_or_else(|e| panic!("{scenario} failed: {e}"));
        assert!(report.flipped > 0, "{scenario} never flipped a bit");
        assert_eq!(report.quarantines, 0, "{scenario}: a flip leaked into applied state");
        assert!(report.resolved > 0, "{scenario} resolved nothing");
    }

    #[test]
    fn divergence_scenario_quarantines_and_heals() {
        let scenario = Scenario::generate_integrity(1);
        assert_eq!(scenario.class, FaultClass::Divergence);
        let report = scenario.run_sim().unwrap_or_else(|e| panic!("{scenario} failed: {e}"));
        assert!(report.quarantines >= 1, "{scenario} never caught the poison");
        assert!(report.rejoins >= 1, "{scenario} never healed the quarantined replica");
    }

    #[test]
    fn disk_rot_scenario_rebuilds_from_peers() {
        let scenario = Scenario::generate_integrity(2);
        assert_eq!(scenario.class, FaultClass::DiskRot);
        let report = scenario.run_sim().unwrap_or_else(|e| panic!("{scenario} failed: {e}"));
        assert_eq!(report.rotted, 1, "{scenario}: the rot was not detected at recovery");
        assert!(report.recoveries >= 1, "{scenario} never recovered");
    }

    #[test]
    fn kill_all_scenario_survives_power_loss() {
        let scenario = Scenario::generate_durability(0);
        let report = scenario.run_sim().unwrap_or_else(|e| panic!("{scenario} failed: {e}"));
        assert!(report.recoveries >= 1, "{scenario} never recovered from a kill-all");
        assert!(report.resolved > 0, "{scenario} resolved nothing");
    }

    #[test]
    fn kill_all_requires_durability_and_a_factory() {
        // A kill-all plan without durability is a typed refusal, not UB.
        let mut scenario = Scenario::generate_durability(1);
        scenario.durability = None;
        match scenario.run_sim() {
            Err(ScenarioError::Unsupported { .. }) => {}
            other => panic!("expected Unsupported, got {other:?}"),
        }
        // And run_on (no rebuildable backend) refuses even with it on.
        let scenario = Scenario::generate_durability(1);
        let opts = SimOptions::default();
        match scenario.run_on(Cluster::sim_with(scenario.overlay(), opts)) {
            Err(ScenarioError::Unsupported { .. }) => {}
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }
}
