//! The four workloads and the seeded command generator.
//!
//! The seed drives key choice, origin choice, the Put/Get mix, the
//! crash victim and the crash instant; the system under test only ever
//! sees the generated commands. Keys are *origin-private* (only the
//! origin a key belongs to writes it) and AllConcur preserves
//! per-origin submission order, so the value a linearizable Get must
//! return is known when it is submitted: the last value that origin
//! submitted for the key before it.

use allconcur_core::replica::KvCommand;
use bytes::Bytes;

/// How the driver offers load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Closed loop: keep the round pipeline full; every server submits
    /// `batch` commands per round.
    Closed { batch: usize },
    /// Open loop: one command every `1 / rate` seconds regardless of
    /// what is still outstanding.
    Open { rate: f64 },
}

/// One workload: a deployment shape plus a traffic mix. Why each exists
/// is recorded in `BENCHMARK.json` and the README.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    /// Servers; the overlay is `core::membership::build_overlay(n)`.
    pub n: usize,
    /// `Service::set_pipeline` depth (rounds in flight).
    pub pipeline: usize,
    pub load: Load,
    /// `Service::with_durability` on a `FileDisk` store.
    pub durable: bool,
    /// Crash one server mid-run.
    pub crash: bool,
    /// Share of commands that are linearizable Gets, percent.
    pub get_pct: u64,
    pub keys_per_origin: u32,
    pub value_len: usize,
}

/// Length of every key: `oNN/kNNNNNNN`.
const KEY_LEN: usize = 12;
/// `KvCodec` framing: opcode byte + `u16` key length.
const CODEC_HEADER: usize = 3;

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "rounds_n16_small",
        n: 16,
        pipeline: 8,
        load: Load::Closed { batch: 1 },
        durable: false,
        crash: false,
        get_pct: 0,
        keys_per_origin: 64,
        value_len: 64 - CODEC_HEADER - KEY_LEN,
    },
    Spec {
        name: "batch_n8_large",
        n: 8,
        pipeline: 8,
        load: Load::Closed { batch: 256 },
        durable: false,
        crash: false,
        get_pct: 0,
        keys_per_origin: 128,
        value_len: 48,
    },
    Spec {
        name: "durable_open_n8",
        n: 8,
        pipeline: 4,
        load: Load::Open { rate: 2000.0 },
        durable: true,
        crash: false,
        get_pct: 10,
        keys_per_origin: 128,
        value_len: 48,
    },
    Spec {
        name: "crash_failover_n8",
        n: 8,
        pipeline: 4,
        load: Load::Open { rate: 2000.0 },
        durable: false,
        crash: true,
        get_pct: 10,
        keys_per_origin: 128,
        value_len: 48,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64 — a fixed algorithm, so a seed means the same command
/// stream on every toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// One generated command, before it is materialised as a `KvCommand`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub origin: u32,
    pub key: u32,
    pub get: bool,
}

/// When and whom to crash, in terms of the request stream: the victim
/// is closed to new requests from request `at_request` on, and is
/// crashed once its earlier requests have been answered — so no
/// operation is lost to the crash by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    pub victim: u32,
    pub at_request: u64,
}

/// The seeded command stream of one run (or one crash episode).
#[derive(Debug, Clone)]
pub struct Generator {
    rng: Rng,
    n: u64,
    keys_per_origin: u64,
    get_pct: u64,
    issued: u64,
    pub crash: Option<CrashPlan>,
}

impl Generator {
    /// `measured_requests` is the length of the open-loop stream the
    /// crash instant is placed in (35–45 % of the way through).
    pub fn new(spec: &Spec, seed: u64, measured_requests: u64) -> Generator {
        let mut rng = Rng::new(seed ^ 0xA11C_0C0A_5EED_0000);
        let crash = spec.crash.then(|| CrashPlan {
            victim: rng.below(spec.n as u64) as u32,
            at_request: measured_requests * (35 + rng.below(11)) / 100,
        });
        Generator {
            rng,
            n: spec.n as u64,
            keys_per_origin: spec.keys_per_origin as u64,
            get_pct: spec.get_pct,
            issued: 0,
            crash,
        }
    }

    /// Move the crash point `by` requests later (an unmeasured warm-up
    /// precedes the measured stream).
    pub fn delay_crash(&mut self, by: u64) {
        if let Some(plan) = &mut self.crash {
            plan.at_request += by;
        }
    }

    /// Next command of an open-loop stream: the generator picks the
    /// origin, steering clear of the victim once it is closed.
    pub fn next_open(&mut self) -> Op {
        let mut origin = self.rng.below(self.n) as u32;
        if let Some(plan) = self.crash {
            if self.issued >= plan.at_request && origin == plan.victim {
                origin = (origin + 1 + self.rng.below(self.n - 1) as u32) % self.n as u32;
            }
        }
        self.next_for(origin)
    }

    /// Next command submitted through `origin` (closed loop: every
    /// server submits each round).
    pub fn next_for(&mut self, origin: u32) -> Op {
        self.issued += 1;
        let key = self.rng.below(self.keys_per_origin) as u32;
        let get = self.get_pct > 0 && self.rng.below(100) < self.get_pct;
        Op { origin, key, get }
    }
}

/// What the response to a command must be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    Ack,
    /// A Get: the sequence number of the origin's last earlier Put to
    /// the key (`None`: never written).
    Value {
        origin: u32,
        put_seq: Option<u64>,
    },
}

/// Key buffers, value synthesis and the expected final state.
pub struct Model {
    keys: Vec<Vec<Bytes>>,
    value_len: usize,
    salt: u8,
    /// Per origin: Puts submitted so far (the next Put's sequence).
    put_seq: Vec<u64>,
    /// Per origin, per key: sequence of the last submitted Put.
    last: Vec<Vec<Option<u64>>>,
}

impl Model {
    pub fn new(spec: &Spec, seed: u64) -> Model {
        let keys = (0..spec.n)
            .map(|o| {
                (0..spec.keys_per_origin)
                    .map(|k| Bytes::from(format!("o{o:02}/k{k:07}").into_bytes()))
                    .collect()
            })
            .collect();
        Model {
            keys,
            value_len: spec.value_len,
            salt: seed as u8,
            put_seq: vec![0; spec.n],
            last: vec![vec![None; spec.keys_per_origin as usize]; spec.n],
        }
    }

    /// The value of `origin`'s `seq`-th Put: unique per (origin, seq),
    /// so a stale or foreign value can never pass for the right one.
    pub fn value(&self, origin: u32, seq: u64) -> Bytes {
        let mut value = vec![self.salt; self.value_len];
        value[..8].copy_from_slice(&seq.to_le_bytes());
        value[8..12].copy_from_slice(&origin.to_le_bytes());
        Bytes::from(value)
    }

    /// `op` as the command to submit, and what its response must be.
    /// The model itself only moves on [`Model::submitted`], so a
    /// command the service refuses leaves no trace in it.
    pub fn command(&self, op: Op) -> (KvCommand, Expect) {
        let (o, k) = (op.origin as usize, op.key as usize);
        let key = self.keys[o][k].clone();
        if op.get {
            (KvCommand::Get { key }, Expect::Value { origin: op.origin, put_seq: self.last[o][k] })
        } else {
            (KvCommand::Put { key, value: self.value(op.origin, self.put_seq[o]) }, Expect::Ack)
        }
    }

    /// The service accepted `op`'s command.
    pub fn submitted(&mut self, op: Op) {
        if !op.get {
            let (o, k) = (op.origin as usize, op.key as usize);
            self.last[o][k] = Some(self.put_seq[o]);
            self.put_seq[o] += 1;
        }
    }

    /// Every key written so far with the value the replicated state
    /// must hold for it once all submitted Puts are applied.
    pub fn expected_state(&self) -> impl Iterator<Item = (&Bytes, Bytes)> + '_ {
        self.last.iter().enumerate().flat_map(move |(o, keys)| {
            keys.iter().enumerate().filter_map(move |(k, last)| {
                last.map(|seq| (&self.keys[o][k], self.value(o as u32, seq)))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(spec: &Spec, seed: u64, len: usize) -> (Option<CrashPlan>, Vec<Op>) {
        let mut generator = Generator::new(spec, seed, 10_000);
        let ops = (0..len).map(|_| generator.next_open()).collect();
        (generator.crash, ops)
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let spec = find("crash_failover_n8").unwrap();
        assert_eq!(stream(spec, 7, 10_000), stream(spec, 7, 10_000));
        let (crash_a, ops_a) = stream(spec, 7, 10_000);
        let (crash_b, ops_b) = stream(spec, 8, 10_000);
        assert_ne!(ops_a, ops_b, "another seed chooses other keys and origins");
        let plans: std::collections::BTreeSet<_> = (0..32)
            .map(|seed| {
                let plan = stream(spec, seed, 1).0.unwrap();
                (plan.victim, plan.at_request)
            })
            .collect();
        assert!(plans.len() > 16, "victim and crash instant follow the seed: {plans:?}");
        assert!(crash_a.is_some() && crash_b.is_some());
    }

    #[test]
    fn victim_gets_no_request_after_the_crash_point() {
        let spec = find("crash_failover_n8").unwrap();
        let (crash, ops) = stream(spec, 3, 10_000);
        let plan = crash.unwrap();
        assert!((3_500..=4_500).contains(&plan.at_request));
        let (before, after) = ops.split_at(plan.at_request as usize);
        assert!(before.iter().any(|op| op.origin == plan.victim));
        assert!(after.iter().all(|op| op.origin != plan.victim));
        assert!(after.iter().all(|op| (op.origin as usize) < spec.n));
    }

    #[test]
    fn mix_and_sizes_follow_the_spec() {
        let durable = find("durable_open_n8").unwrap();
        let (crash, ops) = stream(durable, 1, 20_000);
        assert_eq!(crash, None);
        let gets = ops.iter().filter(|op| op.get).count();
        assert!((1_700..2_300).contains(&gets), "about 10% Gets, got {gets}");

        let small = find("rounds_n16_small").unwrap();
        let model = Model::new(small, 1);
        let (cmd, expect) = model.command(Op { origin: 15, key: 63, get: false });
        assert_eq!(expect, Expect::Ack);
        let encoded =
            allconcur_core::replica::Codec::encode(&allconcur_core::replica::KvCodec, &cmd);
        assert_eq!(encoded.len(), 64, "rounds_n16_small submits 64-byte commands");
    }

    #[test]
    fn model_tracks_the_last_put_per_private_key() {
        let spec = find("durable_open_n8").unwrap();
        let mut model = Model::new(spec, 9);
        let get = |model: &Model| model.command(Op { origin: 2, key: 5, get: true }).1;
        assert_eq!(get(&model), Expect::Value { origin: 2, put_seq: None });
        // A refused Put (never `submitted`) leaves the model as it was.
        model.command(Op { origin: 2, key: 5, get: false });
        assert_eq!(get(&model), Expect::Value { origin: 2, put_seq: None });
        for key in [5, 6, 5] {
            model.submitted(Op { origin: 2, key, get: false });
        }
        assert_eq!(get(&model), Expect::Value { origin: 2, put_seq: Some(2) });
        // Another origin's key 5 is a different key.
        let other = model.command(Op { origin: 3, key: 5, get: true }).1;
        assert_eq!(other, Expect::Value { origin: 3, put_seq: None });
        let state: Vec<_> = model.expected_state().collect();
        assert_eq!(state.len(), 2);
        assert_eq!(state[0].1, model.value(2, 2));
        assert_ne!(model.value(2, 2), model.value(3, 2));
        assert_ne!(model.value(2, 2), Model::new(spec, 10).value(2, 2), "seed salts values");
    }
}
