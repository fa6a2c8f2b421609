//! Fig. 8 — agreement latency under a constant 64-byte request rate per
//! server (the travel-reservation scenario), for n ∈ {8, 16, 32, 64} on
//! the IBV (8a) and TCP (8b) profiles.
//!
//! ```text
//! cargo run --release -p allconcur-bench --bin fig8_request_rate [--csv] [--rounds N]
//! ```
//!
//! Paper shape to check: latency flat at low rates (rounds run nearly
//! empty), rising once batches contribute wire occupancy, then unstable
//! ("unbounded batching makes the system unstable once the request rate
//! exceeds the agreement throughput" — §5). TCP ≈ 3× the IBV latency.
//! Note: the paper's 8-servers × 100M req/s @ 35 µs
//! headline exceeds the 40 Gbps NIC's capacity for 64-byte requests, so
//! our saturation knee sits at lower rates.

use allconcur_bench::output::{arg_value, fmt_time, has_flag, Table};
use allconcur_bench::workloads::{paper_overlay, run_rate_workload, RateWorkload};
use allconcur_sim::{NetworkModel, SimCluster};

const NS: &[usize] = &[8, 16, 32, 64];
const RATES: &[f64] = &[1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 3e6, 1e7, 3e7, 1e8];

fn run_profile(name: &str, model: NetworkModel, rounds: usize, csv: bool) {
    let mut table = Table::new(vec!["rate_per_server", "n=8", "n=16", "n=32", "n=64"]);
    for &rate in RATES {
        let mut cells = vec![format!("{rate:.0}")];
        for &n in NS {
            let mut cluster = SimCluster::builder(paper_overlay(n)).network(model).seed(3).build();
            let w = RateWorkload { request_size: 64, rate_per_server: rate, rounds, warmup: 3 };
            let cell = match run_rate_workload(&mut cluster, &w) {
                Ok(out) if out.unstable => "unstable".to_string(),
                Ok(out) => fmt_time(out.median_latency),
                Err(e) => format!("err:{e}"),
            };
            cells.push(cell);
        }
        table.row(cells);
    }
    println!("Fig. 8{name} — agreement latency vs per-server request rate (64-byte requests)");
    if csv {
        print!("{}", table.render_csv());
    } else {
        print!("{}", table.render());
    }
    println!();
}

fn main() {
    let rounds: usize = arg_value("--rounds").and_then(|v| v.parse().ok()).unwrap_or(12);
    let csv = has_flag("--csv");
    run_profile("a (AllConcur-IBV)", NetworkModel::ib_verbs(), rounds, csv);
    run_profile("b (AllConcur-TCP)", NetworkModel::tcp_cluster(), rounds, csv);
}
