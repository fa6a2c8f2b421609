//! Real-sockets agreement **throughput** under round pipelining: how
//! many rounds per second a loopback deployment agrees on as a function
//! of the round window `W` (per-request latency over real sockets is
//! `benchmark/run.sh`'s `latency_p50_us`).
//!
//! ```text
//! cargo run --release -p allconcur-bench --bin tcp_rounds \
//!     [--csv] [--rounds N] [--sizes 16,32,64] [--windows 1,4,8] [--json PATH]
//! ```
//!
//! The driver keeps exactly `W` rounds outstanding (it submits round
//! `r + W` only once round `r` has delivered everywhere) and the
//! deployment runs with `round_window = W`, so `W = 1` is the
//! sequential request-response protocol and larger `W` overlaps
//! dissemination of consecutive rounds. Sequential rounds are
//! latency-bound — the wire and CPUs idle while a round's last hop
//! completes; pipelining fills that idle time, so rounds/sec scales
//! with `W` until the host is CPU-bound.
//!
//! Numbers reflect loopback + OS scheduling on the host, not a cluster
//! fabric: compare the *scaling*, not the absolutes. Emits committed
//! `BENCH_tcp_rounds.json` (override with `--json PATH`) so the
//! pipelined-throughput trajectory is tracked PR over PR.

use allconcur_bench::output::{arg_value, has_flag, Table};
use allconcur_cluster::Cluster;
use allconcur_net::runtime::RuntimeOptions;
use bytes::Bytes;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(30);
const PAYLOAD_BYTES: usize = 64;

/// Closed-loop run: `rounds` rounds with `window` outstanding; returns
/// rounds/sec over the measured span.
fn run_point(n: usize, window: usize, rounds: u64) -> f64 {
    let graph = allconcur_bench::workloads::paper_overlay(n);
    let opts = RuntimeOptions { round_window: window, ..RuntimeOptions::default() };
    let mut cluster = Cluster::tcp_with(graph, opts).expect("loopback cluster");
    let payloads: Vec<Bytes> = (0..n).map(|i| Bytes::from(vec![i as u8; PAYLOAD_BYTES])).collect();

    // Warm-up: connection buffers, allocator, scheduler — sequential so
    // the pipeline starts from a quiescent deployment.
    for _ in 0..3 {
        cluster.run_round(&payloads, Duration::from_secs(10)).expect("warm-up round");
    }

    let mut submitted = 0u64;
    let mut counts = vec![0u64; n];
    let mut floor = 0u64; // min over per-server delivered counts
    let t0 = Instant::now();
    while floor < rounds {
        // Keep exactly `window` rounds outstanding.
        while submitted < rounds && submitted < floor + window as u64 {
            for id in 0..n as u32 {
                cluster.submit(id, payloads[id as usize].clone()).expect("submit");
            }
            submitted += 1;
        }
        let (id, delivery) = cluster
            .next_delivery(TIMEOUT)
            .unwrap_or_else(|e| panic!("stalled at n={n} window={window}: {e}"));
        assert_eq!(delivery.messages.len(), n, "full membership agrees each round");
        counts[id as usize] += 1;
        floor = counts.iter().copied().min().expect("nonempty");
    }
    let elapsed = t0.elapsed();
    cluster.shutdown().expect("clean shutdown");
    rounds as f64 / elapsed.as_secs_f64()
}

fn main() {
    let rounds: u64 = arg_value("--rounds").and_then(|v| v.parse().ok()).unwrap_or(120);
    let sizes: Vec<usize> = arg_value("--sizes")
        .map(|s| s.split(',').filter_map(|x| x.parse().ok()).collect())
        .unwrap_or_else(|| vec![16, 32, 64]);
    let windows: Vec<usize> = arg_value("--windows")
        .map(|s| s.split(',').filter_map(|x| x.parse().ok()).collect())
        .unwrap_or_else(|| vec![1, 4, 8]);
    let csv = has_flag("--csv");
    let json_path = arg_value("--json").unwrap_or_else(|| "BENCH_tcp_rounds.json".to_string());

    struct Point {
        n: usize,
        d: usize,
        window: usize,
        rounds_per_sec: f64,
        us_per_round: f64,
        speedup: f64,
    }
    let mut points: Vec<Point> = Vec::new();

    let mut table =
        Table::new(vec!["n", "d", "window", "rounds_per_sec", "us_per_round", "vs_window_1"]);
    for &n in &sizes {
        // Larger deployments get fewer rounds so the full grid stays
        // within CI budgets (the measurement is per-round rates).
        let budget = if n >= 32 {
            rounds / 4
        } else if n >= 16 {
            rounds / 2
        } else {
            rounds
        };
        let d = allconcur_bench::workloads::paper_degree(n);
        let mut base: Option<f64> = None;
        for &w in &windows {
            let rps = run_point(n, w.max(1), budget.max(10));
            let baseline = *base.get_or_insert(rps);
            let speedup = rps / baseline;
            table.row(vec![
                n.to_string(),
                d.to_string(),
                w.to_string(),
                format!("{rps:.0}"),
                format!("{:.0}", 1e6 / rps),
                format!("{speedup:.2}x"),
            ]);
            points.push(Point {
                n,
                d,
                window: w,
                rounds_per_sec: rps,
                us_per_round: 1e6 / rps,
                speedup,
            });
        }
    }
    println!(
        "Real-TCP loopback agreement throughput vs round window ({PAYLOAD_BYTES}-byte payloads)"
    );
    println!("(closed-loop: exactly `window` rounds outstanding; host-machine numbers)\n");
    print!("{}", if csv { table.render_csv() } else { table.render() });

    // Hand-rolled JSON (no serde in the build environment); same shape
    // as the other BENCH files.
    let series: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\"n\": {}, \"d\": {}, \"window\": {}, \"rounds_per_sec\": {:.0}, \
                 \"us_per_round\": {:.0}, \"speedup_vs_window_1\": {:.2}}}",
                p.n, p.d, p.window, p.rounds_per_sec, p.us_per_round, p.speedup
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"tcp_rounds\",\n  \"backend\": \"tcp\",\n  \"payload_bytes\": \
         {PAYLOAD_BYTES},\n  \"series\": [\n{}\n  ]\n}}\n",
        series.join(",\n")
    );
    std::fs::write(&json_path, json).expect("write BENCH json");
    println!("\nwrote {json_path}");
}
