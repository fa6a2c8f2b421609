//! Fig. 9b — distributed exchanges: agreement latency under a constant
//! *system-wide* request rate of 40-byte orders, split evenly across the
//! servers.
//!
//! ```text
//! cargo run --release -p allconcur-bench --bin fig9b_exchange [--csv] [--full]
//! ```
//!
//! Paper shape to check: for a fixed system rate, more servers mean less
//! load per server but more synchronisation — latency grows with n; 8
//! servers absorb 100M req/s below 90 µs... (see `fig8_request_rate`
//! for the NIC-bandwidth caveat), 512 servers handle 1M req/s under
//! 20 ms, and 1024 jumps ≈4× because the 6-nines overlay needs degree
//! 11.

use allconcur_bench::output::{fmt_time, has_flag, Table};
use allconcur_bench::workloads::{paper_overlay, run_rate_workload, RateWorkload};
use allconcur_sim::{NetworkModel, SimCluster};

const SYSTEM_RATES: &[f64] = &[1e4, 1e5, 1e6, 1e7, 1e8];

fn main() {
    let csv = has_flag("--csv");
    let full = has_flag("--full");
    let mut sizes: Vec<usize> = vec![8, 16, 32, 64, 128, 256, 512];
    if full {
        sizes.push(1024);
    }
    let mut header = vec!["rate_per_system".to_string()];
    header.extend(sizes.iter().map(|n| format!("n={n}")));
    let mut table = Table::new(header);
    for &rate in SYSTEM_RATES {
        let mut row = vec![format!("{rate:.0}")];
        for &n in &sizes {
            let mut cluster = SimCluster::builder(paper_overlay(n))
                .network(NetworkModel::tcp_cluster())
                .seed(9)
                .build();
            let (rounds, warmup) = if n >= 256 { (3, 1) } else { (10, 2) };
            let w =
                RateWorkload { request_size: 40, rate_per_server: rate / n as f64, rounds, warmup };
            let cell = match run_rate_workload(&mut cluster, &w) {
                Ok(out) if out.unstable => "unstable".to_string(),
                Ok(out) => fmt_time(out.median_latency),
                Err(e) => format!("err:{e}"),
            };
            row.push(cell);
        }
        table.row(row);
    }
    println!("Fig. 9b — distributed exchange: 40-byte orders at a constant system-wide rate (TCP profile)");
    println!();
    if csv {
        print!("{}", table.render_csv());
    } else {
        print!("{}", table.render());
    }
}
