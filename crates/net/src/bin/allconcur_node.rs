//! `allconcur-node` — run one AllConcur server as a standalone process.
//!
//! Minimal line-oriented interface for real multi-process (or
//! multi-host) deployments:
//!
//! ```text
//! allconcur_node --id 0 --cluster cluster.txt [--degree 3]
//! ```
//!
//! `cluster.txt` lists one server per line: `id tcp_addr udp_addr`, e.g.
//!
//! ```text
//! 0 127.0.0.1:7000 127.0.0.1:7100
//! 1 127.0.0.1:7001 127.0.0.1:7101
//! 2 127.0.0.1:7002 127.0.0.1:7102
//! ...
//! ```
//!
//! The overlay is GS(n, degree) when valid (degree defaults to the
//! 6-nines Table 3 choice), otherwise the complete digraph. Stdin lines
//! are A-broadcast as this server's round payloads; deliveries print to
//! stdout as `ROUND <r> <origin>:<payload> ...`. An empty stdin line
//! participates in the round with an empty message; EOF keeps serving
//! reactive rounds until SIGKILL.

use allconcur_core::config::{Config, FdMode};
use allconcur_core::membership::build_overlay;
use allconcur_graph::ReliabilityModel;
use allconcur_net::heartbeat::FdParams;
use allconcur_net::runtime::{NodeRuntime, RuntimeOptions};
use bytes::Bytes;
use std::io::BufRead;
use std::net::{SocketAddr, TcpListener, UdpSocket};
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!("usage: allconcur_node --id N --cluster FILE [--degree D] [--fd-timeout-ms T]");
    std::process::exit(2);
}

fn arg(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let id: u32 = arg("--id").and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
    let cluster_file = arg("--cluster").unwrap_or_else(|| usage());
    let fd_timeout_ms: u64 = arg("--fd-timeout-ms").and_then(|v| v.parse().ok()).unwrap_or(100);

    // Parse the cluster file.
    let text = std::fs::read_to_string(&cluster_file).unwrap_or_else(|e| {
        eprintln!("cannot read {cluster_file}: {e}");
        std::process::exit(1);
    });
    let mut tcp_addrs: Vec<SocketAddr> = Vec::new();
    let mut udp_addrs: Vec<SocketAddr> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        if parts.len() != 3 {
            eprintln!("{cluster_file}:{}: expected `id tcp udp`", lineno + 1);
            std::process::exit(1);
        }
        // lint:allow(no_panic): operator CLI startup — malformed cluster files abort loudly before any protocol thread exists
        let idx: usize = parts[0].parse().expect("numeric server id");
        assert_eq!(idx, tcp_addrs.len(), "server ids must be dense and ordered");
        // lint:allow(no_panic): operator CLI startup — malformed cluster files abort loudly before any protocol thread exists
        tcp_addrs.push(parts[1].parse().expect("tcp socket address"));
        // lint:allow(no_panic): operator CLI startup — malformed cluster files abort loudly before any protocol thread exists
        udp_addrs.push(parts[2].parse().expect("udp socket address"));
    }
    let n = tcp_addrs.len();
    assert!((id as usize) < n, "--id {id} outside the {n}-server cluster");

    // Overlay: GS with the requested or Table 3 degree.
    let graph = match arg("--degree").and_then(|v| v.parse::<usize>().ok()) {
        Some(d) => allconcur_graph::gs::gs_digraph(n, d).unwrap_or_else(|e| {
            eprintln!("invalid overlay GS({n},{d}): {e}");
            std::process::exit(1);
        }),
        None => build_overlay(n, &ReliabilityModel::paper_default(), 6.0),
    };
    let k = allconcur_graph::connectivity::vertex_connectivity(&graph);
    eprintln!(
        "allconcur-node {id}/{n}: overlay degree {}, connectivity {k} (tolerates {} crashes)",
        graph.degree(),
        k.saturating_sub(1)
    );
    let cfg = Config {
        graph: Arc::new(graph),
        resilience: k.saturating_sub(1),
        fd_mode: FdMode::Perfect,
        round_window: 1,
    };

    let listener = TcpListener::bind(tcp_addrs[id as usize]).unwrap_or_else(|e| {
        eprintln!("bind {}: {e}", tcp_addrs[id as usize]);
        std::process::exit(1);
    });
    // lint:allow(no_panic): operator CLI startup — an unbindable FD socket is a deployment error worth aborting on
    let udp = UdpSocket::bind(udp_addrs[id as usize]).expect("bind UDP");
    let opts = RuntimeOptions {
        fd: FdParams {
            heartbeat_period: Duration::from_millis(10),
            timeout: Duration::from_millis(fd_timeout_ms),
        },
        connect_attempts: 600, // allow ~60s for peers to come up
        connect_backoff: Duration::from_millis(100),
        ..RuntimeOptions::default()
    };
    let (node, deliveries) = NodeRuntime::start(id, cfg, listener, udp, tcp_addrs, udp_addrs, opts)
        .unwrap_or_else(|e| {
            eprintln!("startup failed: {e}");
            std::process::exit(1);
        });
    eprintln!(
        "allconcur-node {id}: event loop up, connecting to peers; reading payloads from stdin"
    );

    // Delivery printer thread.
    let stdin = std::io::stdin();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            while let Ok(batch) = deliveries.recv() {
                for (_, d) in batch {
                    let rendered: Vec<String> = d
                        .messages
                        .iter()
                        .map(|(o, p)| format!("{o}:{}", String::from_utf8_lossy(p)))
                        .collect();
                    println!("ROUND {} {}", d.round, rendered.join(" "));
                }
            }
        });
        for line in stdin.lock().lines() {
            let Ok(line) = line else { break };
            if !node.broadcast(Bytes::from(line.into_bytes())) {
                eprintln!("allconcur-node {id}: busy — input shed, retry the line");
            }
        }
        // EOF: keep participating reactively (empty messages) forever.
        eprintln!("allconcur-node {id}: stdin closed; serving reactively");
        loop {
            std::thread::park();
        }
    });
}
