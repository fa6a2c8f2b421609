//! Fig. 10 — the batching-factor throughput comparison (8-byte requests):
//!
//! * **(a)** unreliable agreement (`MPI_Allgather` stand-in),
//! * **(b)** AllConcur,
//! * **(c)** leader-based agreement (Libpaxos stand-in),
//! * **(d)** AllConcur's aggregated throughput (× n).
//!
//! ```text
//! cargo run --release -p allconcur-bench --bin fig10_throughput [--csv] [--full] [a|b|c|d|overhead]
//! ```
//!
//! Paper shapes to check: throughput rises with the batching factor (the
//! per-message overhead amortises) and peaks; AllConcur-TCP peaks at
//! ≈8.6 Gbps ≈ 135M 8-byte requests/s for n=8; Libpaxos peaks ≈17×
//! lower; allgather is the no-fault-tolerance ceiling (average overhead
//! ≈58%); aggregated throughput *increases* with n (≈750 Gbps at 512+).

use allconcur_baselines::allgather::{simulate_allgather_eff, AllgatherAlgorithm};
use allconcur_baselines::leader::{LeaderCluster, LeaderConfig};
use allconcur_bench::output::{has_flag, Table};
use allconcur_bench::workloads::{paper_overlay, run_throughput, ThroughputWorkload};
use allconcur_sim::{NetworkModel, SimCluster};

const REQ: usize = 8;

/// Fraction of the ideal step rate Open MPI's blocking allgather sustains
/// over TCP (step synchronisation + copies); calibrated to Fig. 10a's
/// ≈12 Gbps peak.
const MPI_EFFICIENCY: f64 = 0.45;

fn sizes(full: bool) -> Vec<usize> {
    if full {
        vec![8, 16, 32, 64, 128, 256, 512, 1024]
    } else {
        vec![8, 16, 32, 64, 128]
    }
}

fn batch_factors() -> Vec<usize> {
    (7..=15).map(|e| 1usize << e).collect()
}

fn header(ns: &[usize]) -> Vec<String> {
    let mut h = vec!["batch_factor".to_string()];
    h.extend(ns.iter().map(|n| format!("n={n}")));
    h
}

fn allconcur_gbps(n: usize, batch: usize, model: NetworkModel) -> f64 {
    let rounds = if n >= 512 { 2 } else { 3 };
    let mut cluster = SimCluster::builder(paper_overlay(n)).network(model).seed(1).build();
    run_throughput(
        &mut cluster,
        &ThroughputWorkload { batch_factor: batch, request_size: REQ, rounds },
    )
    .map(|o| o.agreement_gbps)
    .unwrap_or(f64::NAN)
}

fn fig_a(ns: &[usize], model: NetworkModel, csv: bool) {
    let mut t = Table::new(header(ns));
    for b in batch_factors() {
        let mut row = vec![b.to_string()];
        for &n in ns {
            let algo = if n.is_power_of_two() && b * REQ <= 4096 {
                AllgatherAlgorithm::RecursiveDoubling
            } else {
                AllgatherAlgorithm::Ring
            };
            let out = simulate_allgather_eff(n, b * REQ, algo, &model, MPI_EFFICIENCY);
            let gbps = (n * b * REQ) as f64 * 8.0 / out.round_time.as_secs_f64() / 1e9;
            row.push(format!("{gbps:.2}"));
        }
        t.row(row);
    }
    println!("Fig. 10a — MPI_Allgather (unreliable agreement) throughput [Gbps]");
    print!("{}", if csv { t.render_csv() } else { t.render() });
    println!();
}

fn fig_b(ns: &[usize], model: NetworkModel, csv: bool) {
    let mut t = Table::new(header(ns));
    for b in batch_factors() {
        let mut row = vec![b.to_string()];
        for &n in ns {
            row.push(format!("{:.2}", allconcur_gbps(n, b, model)));
        }
        t.row(row);
    }
    println!("Fig. 10b — AllConcur-TCP agreement throughput [Gbps] (paper peak: 8.6 @ n=8)");
    print!("{}", if csv { t.render_csv() } else { t.render() });
    println!();
}

fn fig_c(ns: &[usize], model: NetworkModel, csv: bool) {
    let mut t = Table::new(header(ns));
    for b in batch_factors() {
        let mut row = vec![b.to_string()];
        for &n in ns {
            let mut lc = LeaderCluster::new(LeaderConfig::paper_default(n), model);
            let out = lc.run_round(b * REQ);
            let gbps = (n * b * REQ) as f64 * 8.0 / out.round_time.as_secs_f64() / 1e9;
            row.push(format!("{gbps:.2}"));
        }
        t.row(row);
    }
    println!("Fig. 10c — leader-based agreement (Libpaxos stand-in) throughput [Gbps]");
    print!("{}", if csv { t.render_csv() } else { t.render() });
    println!();
}

fn fig_d(ns: &[usize], model: NetworkModel, csv: bool) {
    let mut t = Table::new(header(ns));
    for b in batch_factors() {
        let mut row = vec![b.to_string()];
        for &n in ns {
            row.push(format!("{:.1}", allconcur_gbps(n, b, model) * n as f64));
        }
        t.row(row);
    }
    println!("Fig. 10d — AllConcur aggregated throughput [Gbps] (paper peak: ≈750 @ n≥512)");
    print!("{}", if csv { t.render_csv() } else { t.render() });
    println!();
}

/// The §5 headline numbers for n = 8: AllConcur vs both baselines at the
/// best batching factor.
fn overhead_summary(model: NetworkModel) {
    let n = 8;
    let mut best_ac: f64 = 0.0;
    let mut best_ag: f64 = 0.0;
    let mut best_leader: f64 = 0.0;
    for b in batch_factors() {
        best_ac = best_ac.max(allconcur_gbps(n, b, model));
        let ag =
            simulate_allgather_eff(n, b * REQ, AllgatherAlgorithm::Ring, &model, MPI_EFFICIENCY);
        best_ag = best_ag.max((n * b * REQ) as f64 * 8.0 / ag.round_time.as_secs_f64() / 1e9);
        let mut lc = LeaderCluster::new(LeaderConfig::paper_default(n), model);
        let out = lc.run_round(b * REQ);
        best_leader =
            best_leader.max((n * b * REQ) as f64 * 8.0 / out.round_time.as_secs_f64() / 1e9);
    }
    println!("summary (n=8, best batching factor):");
    println!(
        "  AllConcur peak:            {best_ac:.2} Gbps ≈ {:.0}M 8-byte req/s",
        best_ac * 1e9 / 8.0 / 8.0 / 1e6
    );
    println!("  allgather (unreliable):    {best_ag:.2} Gbps");
    println!("  leader-based (Libpaxos):   {best_leader:.2} Gbps");
    println!(
        "  fault-tolerance overhead:  {:.0}% (paper: 58% avg)",
        (best_ag / best_ac - 1.0) * 100.0
    );
    println!("  AllConcur vs leader-based: {:.1}× (paper: ≥17×)", best_ac / best_leader);
}

fn main() {
    let csv = has_flag("--csv");
    let full = has_flag("--full");
    let ns = sizes(full);
    let model = NetworkModel::tcp_cluster();
    let which: Vec<String> = std::env::args().skip(1).filter(|a| !a.starts_with("--")).collect();
    let all = which.is_empty();
    if all || which.iter().any(|w| w == "a" || w == "allgather") {
        fig_a(&ns, model, csv);
    }
    if all || which.iter().any(|w| w == "b" || w == "allconcur") {
        fig_b(&ns, model, csv);
    }
    if all || which.iter().any(|w| w == "c" || w == "leader") {
        fig_c(&ns, model, csv);
    }
    if all || which.iter().any(|w| w == "d" || w == "aggregated") {
        fig_d(&ns, model, csv);
    }
    if all || which.iter().any(|w| w == "overhead") {
        overhead_summary(model);
    }
}
