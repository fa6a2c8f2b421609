//! Replay: the agreed rounds one server delivered during the traced
//! run (`Service::take_delivery_log`), fed alone through each layer's
//! per-round work — `net::codec` framing, the `durability` WAL on a
//! `FileDisk`, `core::Replica::apply_round` — timing every call. Each
//! layer's busy time is thus measured on exactly the bytes the workload
//! produced, with nothing else running.

use crate::ladder::Metrics;
use crate::stats::{percentile_of, ratio};
use allconcur_core::delivery::Delivery;
use allconcur_core::message::Message;
use allconcur_core::replica::{KvStore, Replica, StateMachine};
use allconcur_durability::{DurabilityConfig, FileDisk, Wal};
use allconcur_net::codec::{encode_frame, FrameReader};
use std::io::Cursor;
use std::path::Path;
use std::time::Instant;

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum()
}

fn ns_since(t: Instant) -> u32 {
    u32::try_from(t.elapsed().as_nanos()).unwrap_or(u32::MAX)
}

pub fn run(captured: &[Delivery]) -> Metrics {
    // Rounds restart at zero: the WAL requires it, the replica accepts it.
    let rounds: Vec<Delivery> = captured
        .iter()
        .enumerate()
        .map(|(i, d)| Delivery { round: i as u64, messages: d.messages.clone() })
        .collect();

    // net: every (origin, payload) is one BCAST frame on each link it
    // crosses; encode once per message, decode what was encoded.
    let messages: Vec<Message> = rounds
        .iter()
        .flat_map(|d| {
            d.messages.iter().map(|(origin, payload)| Message::Bcast {
                round: d.round,
                origin: *origin,
                payload: payload.clone(),
            })
        })
        .collect();
    let started = Instant::now();
    let frames: Vec<_> =
        messages.iter().map(|m| encode_frame(m).expect("agreed payloads fit a frame")).collect();
    let encode_ns = started.elapsed().as_nanos() as f64;
    let wire: Vec<u8> = frames.iter().flat_map(|f| f.iter().copied()).collect();
    let mut reader = FrameReader::new();
    let mut cursor = Cursor::new(&wire[..]);
    let started = Instant::now();
    for expected in &messages {
        let decoded = reader.read_frame(&mut cursor).expect("replayed frame decodes");
        assert_eq!(decoded.as_ref(), Some(expected), "codec round trip");
    }
    let decode_ns = started.elapsed().as_nanos() as f64;

    // core: decode + apply on one replica.
    let mut replica = Replica::new(KvStore::default());
    let mut commands = 0u64;
    let started = Instant::now();
    for d in &rounds {
        commands +=
            replica.apply_round(d.round, &d.messages, true).expect("agreed round").len() as u64;
    }
    let apply_ns = started.elapsed().as_nanos() as f64;

    // durability: append every round, force the disk as often as the
    // default group commit does (the triggers themselves are switched
    // off so that each sync can be timed), checkpoint the final state.
    let group_commit = DurabilityConfig::default().fsync_every_n_rounds.max(1) as usize;
    let dir = Path::new(crate::OUT).join(format!("replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = DurabilityConfig {
        fsync_every_n_rounds: 0,
        fsync_interval: None,
        checkpoint_every_rounds: 0,
        ..DurabilityConfig::default()
    };
    let disk = FileDisk::open(&dir).expect("replay WAL directory");
    let mut wal = Wal::create(Box::new(disk), cfg, &KvStore::default().snapshot()).expect("WAL");
    let empty = dir_bytes(&dir);
    let (mut appends, mut syncs) = (Vec::new(), Vec::new());
    for (i, d) in rounds.iter().enumerate() {
        let t = Instant::now();
        wal.append(d).expect("WAL append");
        appends.push(ns_since(t));
        if (i + 1) % group_commit == 0 {
            let t = Instant::now();
            wal.sync().expect("WAL sync");
            syncs.push(ns_since(t));
        }
    }
    wal.sync().expect("WAL sync");
    let wal_bytes = dir_bytes(&dir) - empty;
    let t = Instant::now();
    wal.checkpoint(&replica.snapshot()).expect("WAL checkpoint");
    let checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);

    let n_messages = messages.len() as f64;
    vec![
        ("net.codec_encode_ns_per_msg", ratio(encode_ns, n_messages)),
        ("net.codec_decode_ns_per_msg", ratio(decode_ns, n_messages)),
        ("core.replica_apply_ns_per_cmd", ratio(apply_ns, commands as f64)),
        ("durability.append_us_p50", percentile_of(&mut appends, 0.5) / 1e3),
        ("durability.append_us_p99", percentile_of(&mut appends, 0.99) / 1e3),
        ("durability.sync_us_p50", percentile_of(&mut syncs, 0.5) / 1e3),
        ("durability.sync_us_p99", percentile_of(&mut syncs, 0.99) / 1e3),
        ("durability.wal_bytes_per_cmd", ratio(wal_bytes as f64, commands as f64)),
        ("durability.checkpoint_ms", checkpoint_ms),
    ]
}
