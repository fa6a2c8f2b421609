//! RSM throughput through the typed `Service` layer: commands/second a
//! replicated key-value store sustains end to end — encode, batch,
//! agree, decode, apply, correlate the typed response — as a function of
//! the per-round batch size (§5's batching factor, measured at the
//! application contract instead of raw payload bytes).
//!
//! ```text
//! cargo run --release -p allconcur-bench --bin rsm_throughput [--csv] [--json PATH] [--pipeline W]
//! ```
//!
//! Rounds are **pipelined**: the driver keeps `Service::set_pipeline`'s
//! depth (default 8) of rounds in flight, which the service maps onto
//! the transport's round window, so consecutive rounds' dissemination
//! overlaps in simulated time. Simulated-time throughput gains come
//! from that overlap (bounded by the LogP NIC occupancy `2·n·d·o` per
//! round, which the `tcp_cluster` profile saturates quickly — see
//! DESIGN.md's pipelining notes); wall-clock throughput measures the
//! engine's CPU cost per command, which the overlap leaves unchanged by
//! design. `--pipeline 1` reproduces the sequential measurement.
//!
//! Besides the table, the run emits machine-readable `BENCH_rsm.json`
//! (override with `--json PATH`) so the performance trajectory of the
//! RSM hot path is recorded PR over PR.

use allconcur_bench::output::{arg_value, has_flag, Table};
use allconcur_cluster::{Cluster, SimOptions};
use allconcur_core::replica::{KvCommand, KvStore};
use allconcur_graph::gs::gs_digraph;
use allconcur_rsm::Service;
use allconcur_sim::network::NetworkModel;
use std::time::{Duration, Instant};

const N: usize = 8;
const TIMEOUT: Duration = Duration::from_secs(600);
/// Unmeasured rounds driven before the clock starts at each point
/// (enough to fill the deepest pipeline and reach steady state).
const WARMUP_ROUNDS: usize = 8;

struct Point {
    batch: usize,
    commands: u64,
    sim_us: f64,
    wall_ms: f64,
}

impl Point {
    /// Commands per *simulated* second — the deployment-model number.
    fn cmds_per_sec_sim(&self) -> f64 {
        self.commands as f64 / (self.sim_us / 1e6)
    }

    /// Commands per wall-clock second — the engine-overhead number
    /// (encode/decode, correlation, pump) on the host running the bench.
    fn cmds_per_sec_wall(&self) -> f64 {
        self.commands as f64 / (self.wall_ms / 1e3)
    }
}

/// Drive `rounds` rounds with `batch` commands per server per round,
/// keeping `pipeline` rounds in flight, and measure simulated + wall
/// time across the whole typed pipeline.
fn run_point(batch: usize, rounds: usize, pipeline: usize) -> Point {
    let cluster = Cluster::sim_with(
        gs_digraph(N, 3).expect("GS(8,3)"),
        SimOptions { network: NetworkModel::tcp_cluster(), seed: 1, ..SimOptions::default() },
    );
    let mut kv = Service::new(cluster, &KvStore::default()).expect("service");
    kv.set_pipeline(pipeline);
    let clock = |kv: &mut Service<KvStore>| {
        kv.cluster_mut().sim_transport_mut().expect("sim").cluster().clock()
    };

    // Keys cycle over a fixed working set; clients hold refcounted key
    // buffers, so constructing a command is clone-cheap and the bench
    // measures the service pipeline rather than client-side formatting.
    let keys: Vec<bytes::Bytes> =
        (0..32).map(|i| bytes::Bytes::from(format!("k{i}").into_bytes())).collect();

    let mut handles = Vec::with_capacity(N * batch * (rounds + WARMUP_ROUNDS));
    let mut run_rounds = |kv: &mut Service<KvStore>, rounds: usize, commands: &mut u64| {
        handles.clear();
        for round in 0..rounds {
            // Closed-loop pipelining: wait for window room, then flush
            // exactly this round's batch as one round payload per origin.
            while kv.in_flight_rounds() >= pipeline as u64 {
                kv.pump(TIMEOUT).expect("pump in-flight round");
            }
            let value = bytes::Bytes::from(round.to_le_bytes().to_vec());
            for s in 0..N as u32 {
                for i in 0..batch {
                    let cmd = KvCommand::Put { key: keys[i % 32].clone(), value: value.clone() };
                    handles.push(kv.submit(s, &cmd).expect("submit"));
                    *commands += 1;
                }
            }
            kv.flush().expect("flush round");
            // Opportunistically drain whatever already agreed.
            while kv.pump(Duration::ZERO).expect("drain") {}
        }
        kv.sync(TIMEOUT).expect("tail rounds agreed");
        for handle in &handles {
            kv.wait(handle, TIMEOUT).expect("typed response");
        }
    };

    // Warm-up rounds (buffers, allocator, branch predictors) — the
    // metric is steady-state engine throughput.
    let mut warmup_cmds = 0u64;
    run_rounds(&mut kv, WARMUP_ROUNDS, &mut warmup_cmds);

    let wall_start = Instant::now();
    let sim_start = clock(&mut kv);
    let mut commands = 0u64;
    run_rounds(&mut kv, rounds, &mut commands);
    let sim_us = (clock(&mut kv) - sim_start).as_us_f64();
    let wall_ms = wall_start.elapsed().as_secs_f64() * 1e3;
    Point { batch, commands, sim_us, wall_ms }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let csv = has_flag("--csv");
    let pipeline: usize = arg_value("--pipeline").and_then(|v| v.parse().ok()).unwrap_or(8).max(1);
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_rsm.json".to_string());

    let points: Vec<Point> =
        [1usize, 4, 16, 64, 256].iter().map(|&batch| run_point(batch, 32, pipeline)).collect();

    let mut table = Table::new(vec![
        "batch/server",
        "commands",
        "sim_time_us",
        "cmds_per_sec_sim",
        "wall_ms",
        "cmds_per_sec_wall",
    ]);
    for p in &points {
        table.row(vec![
            p.batch.to_string(),
            p.commands.to_string(),
            format!("{:.1}", p.sim_us),
            format!("{:.0}", p.cmds_per_sec_sim()),
            format!("{:.1}", p.wall_ms),
            format!("{:.0}", p.cmds_per_sec_wall()),
        ]);
    }
    println!(
        "RSM throughput — typed Service over sim({N} servers, TCP LogP profile), \
         pipeline depth {pipeline}\n"
    );
    print!("{}", if csv { table.render_csv() } else { table.render() });

    // Hand-rolled JSON (no serde in the build environment).
    let series: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\"batch_per_server\": {}, \"commands\": {}, \"sim_us\": {:.1}, \
                 \"cmds_per_sec_sim\": {:.0}, \"wall_ms\": {:.1}, \"cmds_per_sec_wall\": {:.0}}}",
                p.batch,
                p.commands,
                p.sim_us,
                p.cmds_per_sec_sim(),
                p.wall_ms,
                p.cmds_per_sec_wall()
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"rsm_throughput\",\n  \"backend\": \"sim\",\n  \"n\": {N},\n  \
         \"pipeline\": {pipeline},\n  \"state_machine\": \"KvStore\",\n  \"series\": [\n{}\n  ]\n}}\n",
        series.join(",\n")
    );
    std::fs::write(&json_path, json).expect("write BENCH json");
    println!("\nwrote {json_path}");
}
