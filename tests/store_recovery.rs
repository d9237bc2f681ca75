//! Crash-recovery gates for the durable skipweb-store: kill every host,
//! recover from the write-ahead log, and verify the store comes back
//! byte-identical with its hosts in live membership and its idempotence
//! ledger intact.

use skipwebs::store::{wal, Store, StoreBuilder};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique scratch directory per test (the container has no tempfile
/// crate; process id + counter keeps parallel runs apart).
fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "skipweb-recovery-{}-{tag}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn value_for(key: u64, generation: u64) -> Vec<u8> {
    format!("value-{key}-gen{generation}").into_bytes()
}

/// A workload with all three record kinds: fresh inserts, value
/// overwrites (store-lane upserts), and deletes.
fn churn(store: &Store, keys: u64) {
    for key in 0..keys {
        assert!(store.put(key * 10, value_for(key * 10, 0)).unwrap());
    }
    for key in (0..keys).step_by(3) {
        // Overwrite: the insert is a duplicate, logged as an upsert.
        assert!(!store.put(key * 10, value_for(key * 10, 1)).unwrap());
    }
    for key in (0..keys).step_by(5) {
        assert!(store.delete(key * 10).unwrap());
    }
}

#[test]
fn kill_everything_then_recover_restores_the_identical_store() {
    let dir = scratch("total");
    let store = StoreBuilder::new(&dir)
        .hosts(6)
        .checkpoint_every(0)
        .open()
        .unwrap();
    churn(&store, 40);
    let before = store.scan(..);
    assert!(!before.is_empty());
    let ledger_before = store.fabric().applied_ledger();

    // Kill every host: the fabric is fully unavailable.
    let alive = store.fabric().health().alive;
    assert_eq!(alive.len(), 6);
    for host in alive {
        store.fabric().kill_host(host);
    }
    assert!(store.fabric().health().alive.is_empty());
    assert!(store.get(10).is_err(), "a dead fabric must not answer");

    let report = store.recover().unwrap();
    assert_eq!(report.rejoined, 6, "every host rejoins live membership");
    assert_eq!(report.replayed, report.wal_records - report.skipped);
    assert!(report.wal_records > 0);

    // Hosts are alive again — not tombstoned.
    let health = store.fabric().health();
    assert_eq!(health.alive.len(), 6);
    assert!(health.dead.is_empty());
    assert!(health.decommissioned.is_empty());

    // The store scans byte-identical to the pre-crash snapshot.
    assert_eq!(store.scan(..), before);

    // The idempotence ledger survived the replay.
    let ledger_after = store.fabric().applied_ledger();
    assert_eq!(ledger_before, ledger_after);

    // The recovered fabric serves reads and writes again, end to end.
    assert_eq!(store.get(10).unwrap(), Some(value_for(10, 0)));
    assert_eq!(store.get(0).unwrap(), None, "deleted key stays deleted");
    assert!(store.put(9_999, b"fresh".to_vec()).unwrap());
    assert_eq!(store.get(9_999).unwrap(), Some(b"fresh".to_vec()));
    store.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_does_not_double_apply_logged_operations() {
    let dir = scratch("noreapply");
    let store = StoreBuilder::new(&dir)
        .hosts(4)
        .checkpoint_every(0)
        .open()
        .unwrap();
    churn(&store, 20);
    let len_before = store.len();

    for host in store.fabric().health().alive {
        store.fabric().kill_host(host);
    }
    store.recover().unwrap();
    assert_eq!(store.len(), len_before);

    // Replayed inserts landed exactly once: re-putting an existing key is
    // an overwrite (applied = false), never a second insert.
    assert!(!store.put(10, b"again".to_vec()).unwrap());
    assert_eq!(store.len(), len_before);
    // Re-deleting a key the log already removed stays a no-op.
    assert!(!store.delete(0).unwrap());
    assert_eq!(store.len(), len_before);
    store.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The store's seed reaches the draws of new keys' towers: stores opened
/// with the same seed and fed the same puts hold the same towers, and
/// another seed gives other towers.
#[test]
fn the_seed_picks_the_towers_of_new_keys() {
    let towers = |seed: u64| {
        let dir = scratch("seed");
        let store = StoreBuilder::new(&dir).seed(seed).open().unwrap();
        for key in 0..32 {
            assert!(store.put(key * 7, value_for(key, 0)).unwrap());
        }
        let towers = store.fabric().ground_with_bits();
        store.shutdown();
        std::fs::remove_dir_all(&dir).ok();
        towers
    };
    let one = towers(1);
    assert_eq!(one.len(), 32);
    assert_eq!(one, towers(1), "the same seed, the same towers");
    assert_ne!(one, towers(2), "another seed, other towers");
}

#[test]
fn cold_open_recovers_from_disk_alone() {
    let dir = scratch("cold");
    let before = {
        let store = StoreBuilder::new(&dir).hosts(4).open().unwrap();
        churn(&store, 30);
        let snapshot = store.scan(..);
        store.flush().unwrap();
        store.shutdown();
        snapshot
    };

    // A brand-new process image: nothing survives but the directory.
    let store = StoreBuilder::new(&dir).hosts(4).open().unwrap();
    assert_eq!(store.scan(..), before);
    assert_eq!(store.get(10).unwrap(), Some(value_for(10, 0)));

    // The new incarnation's operation ids must not collide with logged
    // ones: fresh writes apply instead of echoing recovered outcomes.
    assert!(store.put(77_777, b"new-era".to_vec()).unwrap());
    assert_eq!(store.get(77_777).unwrap(), Some(b"new-era".to_vec()));
    assert!(!store.put(10, value_for(10, 9)).unwrap());
    assert_eq!(store.get(10).unwrap(), Some(value_for(10, 9)));
    store.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cold_open_and_in_place_recovery_restore_the_same_state() {
    const RESUBMITTED: u64 = 5_555;
    let dir = scratch("same");
    let open = || {
        StoreBuilder::new(&dir)
            .hosts(4)
            .checkpoint_every(0)
            .open()
            .unwrap()
    };
    // A previous incarnation: a second fabric client's first update (op
    // id 0) inserts a key the store then deletes.
    {
        let store = open();
        let other = store.fabric().client();
        assert!(store.fabric().insert(&other, RESUBMITTED).unwrap().applied);
        assert!(store.delete(RESUBMITTED).unwrap());
        store.flush().unwrap();
        store.shutdown();
    }
    // A fabric spawned afresh registers that client id again, and the
    // client's first update reuses op id 0: a resubmit of the logged
    // insert, which must be echoed as applied without resurrecting the key.
    let resubmit_is_echoed = |store: &Store| {
        let again = store.fabric().client();
        assert!(store.fabric().insert(&again, RESUBMITTED).unwrap().applied);
        assert!(!store.fabric().ground().contains(&RESUBMITTED));
        assert_eq!(store.get(RESUBMITTED).unwrap(), None);
    };

    let store = open();
    churn(&store, 30);
    store.flush().unwrap();
    for host in store.fabric().health().alive {
        store.fabric().kill_host(host);
    }
    store.recover().unwrap();
    let state = |store: &Store| {
        (
            store.scan(..),
            store.fabric().applied_ledger(),
            store.fabric().ground_with_bits(),
        )
    };
    let recovered = state(&store);
    resubmit_is_echoed(&store);
    store.shutdown();

    let store = open();
    assert_eq!(state(&store), recovered, "cold open ≡ in-place recovery");
    resubmit_is_echoed(&store);
    store.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_replays_past_the_checkpoint_and_skips_before_it() {
    let dir = scratch("ckpt");
    let store = StoreBuilder::new(&dir)
        .hosts(4)
        .checkpoint_every(0)
        .open()
        .unwrap();
    for key in 0..25 {
        store.put(key, value_for(key, 0)).unwrap();
    }
    store.checkpoint().unwrap();
    for key in 25..40 {
        store.put(key, value_for(key, 0)).unwrap();
    }
    let before = store.scan(..);

    for host in store.fabric().health().alive {
        store.fabric().kill_host(host);
    }
    let report = store.recover().unwrap();
    assert_eq!(report.checkpoint_ops, 25);
    assert_eq!(report.skipped, 25, "checkpointed records are not replayed");
    assert_eq!(report.replayed, 15);
    assert_eq!(store.scan(..), before);
    store.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_torn_wal_tail_costs_the_torn_record_only() {
    let dir = scratch("torn");
    let before = {
        let store = StoreBuilder::new(&dir)
            .hosts(2)
            .checkpoint_every(0)
            .open()
            .unwrap();
        for key in 0..10 {
            store.put(key, value_for(key, 0)).unwrap();
        }
        let snapshot = store.scan(..);
        store.flush().unwrap();
        store.shutdown();
        snapshot
    };

    // Simulate a crash mid-append: chop bytes off the end of one lane.
    let lane = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| Some(e.ok()?.path()))
        .find(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            name.starts_with("wal-") && name.ends_with(".log") && p.metadata().unwrap().len() > 0
        })
        .expect("at least one non-empty lane");
    let bytes = std::fs::read(&lane).unwrap();
    std::fs::write(&lane, &bytes[..bytes.len() - 5]).unwrap();
    let scan = wal::read_wal(&lane).unwrap();
    assert!(matches!(scan.tail, wal::WalTail::Torn { .. }));

    // Exactly the torn record (one applied insert) is lost.
    let store = StoreBuilder::new(&dir).hosts(2).open().unwrap();
    let after = store.scan(..);
    assert_eq!(after.len(), before.len() - 1);
    // Every surviving pair is byte-identical to its pre-crash value.
    for pair in &after {
        assert!(before.contains(pair));
    }
    store.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn partial_crash_recovers_without_touching_live_hosts() {
    let dir = scratch("partial");
    let store = StoreBuilder::new(&dir)
        .hosts(4)
        .checkpoint_every(0)
        .open()
        .unwrap();
    churn(&store, 20);
    let before = store.scan(..);

    let alive = store.fabric().health().alive;
    store.fabric().kill_host(alive[0]);
    store.fabric().kill_host(alive[1]);

    let report = store.recover().unwrap();
    assert_eq!(report.rejoined, 2);
    let health = store.fabric().health();
    assert_eq!(health.alive.len(), 4);
    assert!(health.dead.is_empty());
    assert_eq!(store.scan(..), before);
    store.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_directory_with_per_host_apply_lanes_recovers_the_same_state() {
    // Stores written while each host applied its own updates logged them to
    // a lane per host, `wal-NNNN.log`; the engine's one apply stage logs to
    // `wal-apply.log`. Recovery merges every `wal-*.log` by sequence number,
    // so the old layout recovers to the same scan and ledger.
    let dir = scratch("lanes");
    let open = || {
        StoreBuilder::new(&dir)
            .hosts(4)
            .checkpoint_every(0)
            .open()
            .unwrap()
    };
    {
        let store = open();
        churn(&store, 30);
        store.flush().unwrap();
        store.shutdown();
    }
    let state = |store: &Store| (store.scan(..), store.fabric().applied_ledger());
    let store = open();
    let want = state(&store);
    assert!(!want.0.is_empty() && !want.1.is_empty());
    store.shutdown();

    // Deal the apply lane's records out over four host lanes.
    let apply = dir.join("wal-apply.log");
    let scan = wal::read_wal(&apply).unwrap();
    assert_eq!(scan.tail, wal::WalTail::Clean);
    let mut lanes: Vec<std::fs::File> = (0..4)
        .map(|host| std::fs::File::create(dir.join(format!("wal-{host:04}.log"))).unwrap())
        .collect();
    for (i, rec) in scan.records.iter().enumerate() {
        wal::append_record(&mut lanes[i % 4], rec).unwrap();
    }
    drop(lanes);
    std::fs::remove_file(&apply).unwrap();

    let store = open();
    assert_eq!(state(&store), want, "per-host lanes ≡ one apply lane");
    store.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
