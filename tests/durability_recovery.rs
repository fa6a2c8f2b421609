//! End-to-end durability: durable acknowledgment, whole-cluster crash
//! recovery, torn-write tolerance, bounded rollback, and the chunked
//! catch-up path — driven through the public `Service` API.

use allconcur::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(30);

fn put(uid: u64) -> KvCommand {
    KvCommand::Put { key: uid.to_le_bytes().to_vec().into(), value: b"durable".to_vec().into() }
}

fn overlay(n: usize) -> Digraph {
    gs_digraph(n, 3).expect("valid overlay")
}

fn durable_service(n: usize, fsync_every: u64) -> Service<KvStore> {
    Service::with_durability(
        Cluster::sim(overlay(n)),
        &KvStore::default(),
        DurabilityStore::memory(n),
        DurabilityConfig::deterministic(fsync_every),
    )
    .expect("construct durable service")
}

/// Every command acknowledged before a kill-everyone crash is present
/// after recovery from the disks alone.
#[test]
fn acknowledged_commands_survive_whole_cluster_crash() {
    let n = 6;
    let mut kv = durable_service(n, 4);
    let mut acked: Vec<u64> = Vec::new();
    for uid in 0..40u64 {
        let origin = (uid % n as u64) as ServerId;
        kv.execute(origin, &put(uid), TIMEOUT).expect("durable ack");
        acked.push(uid);
    }
    // Power loss: drop the whole deployment, keep only the disks.
    let mut store = kv.shutdown_into_store().unwrap().expect("durability was on");
    for i in 0..n {
        store.mem_disk_mut(i).unwrap().crash();
    }
    let (kv2, report) = Service::recover(
        Cluster::sim(overlay(n)),
        &KvStore::default(),
        store,
        DurabilityConfig::deterministic(4),
    )
    .expect("recover from disks");
    assert_eq!(report.epoch, 1);
    assert!(report.recovered_rounds > 0);
    for uid in acked {
        let key = uid.to_le_bytes();
        assert_eq!(
            kv2.query_local(0).unwrap().get_local(&key),
            Some(&b"durable"[..]),
            "acknowledged uid {uid} lost by recovery"
        );
    }
}

/// Unacknowledged tail rounds may roll back, but never more than the
/// group-commit window, and never divergently across replicas.
#[test]
fn rollback_is_bounded_by_group_commit_window() {
    let n = 6;
    let fsync_every = 8;
    let mut kv = durable_service(n, fsync_every);
    for uid in 0..20u64 {
        kv.execute(0, &put(uid), TIMEOUT).unwrap();
    }
    // Leave an unacknowledged, unsynced tail behind.
    for uid in 20..25u64 {
        kv.submit(0, &put(uid)).unwrap();
    }
    while kv.pump(Duration::from_millis(200)).unwrap() {}
    let agreed = kv.wal(0).unwrap().appended_rounds();
    let durable = kv.durable_rounds().unwrap();
    assert!(
        agreed - durable <= fsync_every,
        "unsynced tail {} exceeds the fsync window {fsync_every}",
        agreed - durable
    );
    let mut store = kv.shutdown_into_store().unwrap().unwrap();
    for i in 0..n {
        store.mem_disk_mut(i).unwrap().crash();
    }
    let (kv2, report) = Service::recover(
        Cluster::sim(overlay(n)),
        &KvStore::default(),
        store,
        DurabilityConfig::deterministic(fsync_every),
    )
    .unwrap();
    assert!(report.recovered_rounds >= durable, "recovery lost durable rounds");
    // All replicas recovered to the same state (no divergence).
    let reference = kv2.replica(0).unwrap().snapshot();
    for id in 1..n as ServerId {
        assert_eq!(kv2.replica(id).unwrap().snapshot(), reference, "replica {id} diverged");
    }
}

/// A torn tail write (partial frame on one server) is trimmed on
/// recovery; replicas still converge and acknowledged commands survive.
#[test]
fn torn_tail_write_never_diverges_replicas() {
    let n = 6;
    let mut kv = durable_service(n, 0); // no count trigger: tail stays unsynced
    let mut acked = Vec::new();
    for uid in 0..6u64 {
        kv.execute(0, &put(uid), TIMEOUT).unwrap(); // commit-waits: fsyncs
        acked.push(uid);
    }
    // Submit more without waiting so unsynced frames accumulate, then
    // settle agreement (not the disks): pump until deliveries stop.
    for uid in 6..12u64 {
        kv.submit(0, &put(uid)).unwrap();
    }
    while kv.pump(Duration::from_millis(200)).unwrap() {}
    assert!(
        kv.durable_rounds().unwrap() < kv.wal(0).unwrap().appended_rounds(),
        "test needs an unsynced tail to tear"
    );
    let mut store = kv.shutdown_into_store().unwrap().unwrap();
    for i in 0..n {
        let mem = store.mem_disk_mut(i).unwrap();
        // Tear a few bytes into every unsynced segment tail, then crash.
        let names: Vec<String> =
            mem.list().unwrap().into_iter().filter(|f| f.starts_with("wal-")).collect();
        for name in names {
            if mem.unsynced_len(&name) > 0 {
                mem.tear(&name, 3);
            }
        }
        mem.crash();
    }
    let (kv2, _report) = Service::recover(
        Cluster::sim(overlay(n)),
        &KvStore::default(),
        store,
        DurabilityConfig::deterministic(0),
    )
    .unwrap();
    let reference = kv2.replica(0).unwrap().snapshot();
    for id in 1..n as ServerId {
        assert_eq!(kv2.replica(id).unwrap().snapshot(), reference, "replica {id} diverged");
    }
    for uid in acked {
        let key = uid.to_le_bytes();
        assert_eq!(
            kv2.query_local(0).unwrap().get_local(&key),
            Some(&b"durable"[..]),
            "acknowledged uid {uid} lost to a torn write"
        );
    }
}

/// A server whose log already covers the reference snapshot catches up
/// from frames alone; the report records the transfer shape.
#[test]
fn recovery_report_tracks_incremental_catchup() {
    let n = 6;
    let mut kv = durable_service(n, 1); // every round durable everywhere
    for uid in 0..10u64 {
        kv.execute(0, &put(uid), TIMEOUT).unwrap();
    }
    let mut store = kv.shutdown_into_store().unwrap().unwrap();
    // Server 3's disk loses its unsynced tail AND a few synced frames —
    // simulate by tearing deep into the segment, leaving it lagging.
    {
        let mem = store.mem_disk_mut(3).unwrap();
        let names: Vec<String> =
            mem.list().unwrap().into_iter().filter(|f| f.starts_with("wal-")).collect();
        for name in names {
            let data = mem.read(&name).unwrap().unwrap();
            // Rewrite the file to half length: a valid prefix of frames
            // followed by one torn frame.
            let keep = data.len() / 2;
            mem.remove(&name).unwrap();
            mem.append(&name, &data[..keep]).unwrap();
        }
        mem.sync().unwrap();
        mem.crash();
    }
    for i in 0..n {
        store.mem_disk_mut(i).unwrap().crash();
    }
    let (kv2, report) = Service::recover(
        Cluster::sim(overlay(n)),
        &KvStore::default(),
        store,
        DurabilityConfig::deterministic(1),
    )
    .unwrap();
    assert_eq!(report.recovered_rounds, 10, "full history durable at fsync_every=1");
    assert!(
        report.frames_only.contains(&3),
        "the lagging server should catch up from log frames alone, got {report:?}"
    );
    assert!(report.catchup_chunks > 0);
    let reference = kv2.replica(0).unwrap().snapshot();
    for id in 1..n as ServerId {
        assert_eq!(kv2.replica(id).unwrap().snapshot(), reference, "replica {id} diverged");
    }
}

/// The whole WAL/recovery path works identically over real files.
#[test]
fn file_disk_round_trip() {
    let n = 6;
    let root = std::env::temp_dir().join(format!("allconcur-durability-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = DurabilityStore::on_disk(&root, n).unwrap();
    let mut kv = Service::with_durability(
        Cluster::sim(overlay(n)),
        &KvStore::default(),
        store,
        DurabilityConfig::deterministic(2),
    )
    .unwrap();
    for uid in 0..12u64 {
        kv.execute((uid % n as u64) as ServerId, &put(uid), TIMEOUT).unwrap();
    }
    drop(kv.shutdown_into_store().unwrap()); // drop the handles; files persist
    let store = DurabilityStore::on_disk(&root, n).unwrap();
    let (kv2, report) = Service::recover(
        Cluster::sim(overlay(n)),
        &KvStore::default(),
        store,
        DurabilityConfig::deterministic(2),
    )
    .unwrap();
    assert!(report.recovered_rounds > 0);
    for uid in 0..12u64 {
        let key = uid.to_le_bytes();
        assert_eq!(kv2.query_local(0).unwrap().get_local(&key), Some(&b"durable"[..]));
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Check the checkpoint stagger on `kv`'s current epoch: server `i` of
/// `n` snapshots only at rounds `every·(i+1)/n + k·every`, so no two
/// servers ever snapshot at the same round, and no log holds more than
/// `every` rounds past its snapshot. `owner` maps every snapshot point
/// seen this epoch to the server that took it.
fn assert_staggered(kv: &Service<KvStore>, every: u64, owner: &mut BTreeMap<u64, ServerId>) {
    let n = kv.n() as u64;
    for id in 0..n as ServerId {
        let wal = kv.wal(id).unwrap();
        let covers = wal.snapshot_covers();
        let backlog = wal.appended_rounds() - covers;
        assert!(backlog <= every, "server {id}'s log is {backlog} rounds past its snapshot");
        if covers == 0 {
            continue;
        }
        assert_eq!(
            covers % every,
            every * (u64::from(id) + 1) / n % every,
            "server {id} snapshotted off its offset at round {covers}"
        );
        let first = *owner.entry(covers).or_insert(id);
        assert_eq!(first, id, "servers {first} and {id} both snapshotted at round {covers}");
    }
}

/// Staggered checkpoints at n=8: servers snapshot one at a time, logs
/// stay bounded, and a kill-all that finds every snapshot at a
/// different round loses no acknowledged write. The stagger restarts
/// with the epoch recovery begins.
#[test]
fn staggered_checkpoints_then_recovery() {
    let n = 8;
    let every = 64;
    let cfg =
        DurabilityConfig { checkpoint_every_rounds: every, ..DurabilityConfig::deterministic(4) };
    let mut kv = Service::with_durability(
        Cluster::sim(overlay(n)),
        &KvStore::default(),
        DurabilityStore::memory(n),
        cfg.clone(),
    )
    .unwrap();
    let mut owner = BTreeMap::new();
    let mut acked = Vec::new();
    for uid in 0..3 * every + 8 {
        kv.execute((uid % n as u64) as ServerId, &put(uid), TIMEOUT).expect("durable ack");
        acked.push(uid);
        assert_staggered(&kv, every, &mut owner);
    }
    assert!(kv.wal(0).unwrap().appended_rounds() >= 3 * every);
    let held: BTreeSet<u64> =
        (0..n as ServerId).map(|id| kv.wal(id).unwrap().snapshot_covers()).collect();
    assert_eq!(held.len(), n, "kill-all must find snapshots at {n} different rounds: {held:?}");

    let mut store = kv.shutdown_into_store().unwrap().expect("durability was on");
    store.crash_all();
    let (mut kv2, _report) =
        Service::recover(Cluster::sim(overlay(n)), &KvStore::default(), store, cfg).unwrap();
    let reference = kv2.replica(0).unwrap().snapshot();
    for id in 0..n as ServerId {
        assert_eq!(kv2.replica(id).unwrap().snapshot(), reference, "replica {id} diverged");
    }
    for &uid in &acked {
        assert_eq!(
            kv2.query_local(0).unwrap().get_local(&uid.to_le_bytes()),
            Some(&b"durable"[..]),
            "acknowledged uid {uid} lost by recovery"
        );
    }

    // The new epoch starts its stagger from scratch.
    owner.clear();
    for uid in 1000..1000 + every {
        kv2.execute((uid % n as u64) as ServerId, &put(uid), TIMEOUT).unwrap();
        assert_staggered(&kv2, every, &mut owner);
    }
    kv2.sync(TIMEOUT).unwrap(); // every replica has applied every round
    assert_staggered(&kv2, every, &mut owner);
    assert_eq!(owner.len(), n, "every server checkpointed once in its first {every} rounds");
}

/// Reconfiguration with durability on: epoch bumps, logs truncate, and
/// the rejoin path streams state in bounded chunks.
#[test]
fn reconfigure_bumps_epoch_and_preserves_state() {
    let n = 6;
    let mut kv = durable_service(n, 1);
    for uid in 0..8u64 {
        kv.execute(0, &put(uid), TIMEOUT).unwrap();
    }
    assert_eq!(kv.durability_epoch(), Some(0));
    kv.reconfigure(overlay(n), TIMEOUT).unwrap();
    assert_eq!(kv.durability_epoch(), Some(1));
    assert_eq!(kv.wal(0).unwrap().appended_rounds(), 0, "rounds restart per epoch");
    for uid in 100..108u64 {
        kv.execute(1, &put(uid), TIMEOUT).unwrap();
    }
    kv.sync(TIMEOUT).unwrap();
    for uid in (0..8u64).chain(100..108) {
        let key = uid.to_le_bytes();
        assert_eq!(
            kv.query_local(2).unwrap().get_local(&key),
            Some(&b"durable"[..]),
            "uid {uid} lost across reconfiguration"
        );
    }
}
