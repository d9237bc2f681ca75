//! Fault-injection suite: host crashes, graceful decommissions, and live
//! host spawns exercised against the distributed engine, concurrently with
//! queries and updates. This is the release-mode gate CI runs by name
//! (`fault-injection` job).
//!
//! The failure model under test (see the README's failure-model table):
//! with replication `k`, any `k - 1` host crashes leave every query and
//! every subsequent update answerable; a `k = 1` web fails fast
//! (`Unavailable`) instead of hanging, and `heal()` — or any update apply —
//! re-homes the dead host's blocks and restores availability.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use skipwebs::core::engine::{DistributedSkipWeb, Timeouts};
use skipwebs::core::multidim::TrieSkipWeb;
use skipwebs::core::onedim::OneDimSkipWeb;
use skipwebs::net::runtime::RuntimeError;
use skipwebs::net::HostId;

/// The acceptance gate: with `k = 2`, killing one host in the middle of a
/// mixed query/update workload leaves *all subsequent* queries answering
/// correctly from replicas and all subsequent updates applying.
#[test]
fn killing_one_host_mid_churn_keeps_queries_and_updates_answering() {
    let initial: Vec<u64> = (0..128).map(|i| i * 100).collect();
    let web = OneDimSkipWeb::builder(initial)
        .seed(71)
        .replicate(2)
        .build();
    let dist = DistributedSkipWeb::builder(web.inner())
        .consolidated(web.hosts() + 32)
        .spawn();
    let client = dist.client();
    client.set_timeouts(Timeouts::new(
        Duration::from_secs(20),
        Duration::from_secs(40),
    ));

    // Phase 1: healthy mixed workload.
    for i in 0..40u64 {
        if i % 4 == 3 {
            assert!(dist.insert(&client, 50 + i * 200).unwrap().applied);
        } else {
            let q = (i * 977) % 13_000;
            dist.query(&client, (i as usize) % 128, q)
                .unwrap()
                .answer
                .expect("nonempty web");
        }
    }

    // Crash one host mid-workload.
    dist.kill_host(HostId(13));
    assert_eq!(dist.health().dead, vec![HostId(13)]);
    assert_eq!(dist.health().replication, 2);

    // Phase 2: every subsequent query answers correctly from replicas
    // (including ones whose origin item is homed on the dead host), and
    // updates keep applying.
    for i in 0..60u64 {
        if i % 4 == 3 {
            let key = 51 + i * 200;
            assert!(
                dist.insert(&client, key).unwrap().applied,
                "insert {key} after crash"
            );
            assert!(
                dist.remove(&client, key).unwrap().applied,
                "remove {key} after crash"
            );
        } else {
            let q = (i * 733) % 13_000;
            let origin = if i % 3 == 0 { 13 } else { (i as usize) % 128 };
            let got = dist
                .query(&client, origin, q)
                .expect("queries survive a single crash at k = 2")
                .answer
                .expect("nonempty web");
            // Verify against an oracle over the live ground snapshot.
            let ground = dist.ground();
            let want = *ground
                .iter()
                .min_by_key(|&&k| (k.abs_diff(q), k))
                .expect("nonempty");
            assert_eq!(got, want, "post-crash q={q}");
        }
    }
    // Dropped-message accounting: losses, if any, happened only at the
    // crashed host — every other mailbox stayed reachable throughout.
    let dropped = dist.traffic().dropped;
    assert!(
        dropped.iter().enumerate().all(|(h, &d)| h == 13 || d == 0),
        "only the crashed host may drop messages: {dropped:?}"
    );
    dist.shutdown();
}

/// Readers hammer the web from concurrent threads while a host is killed
/// mid-stream: nothing hangs, and every answer delivered after the crash is
/// still attributable to a member key.
#[test]
fn concurrent_readers_survive_a_mid_stream_crash() {
    let initial: Vec<u64> = (0..96).map(|i| i * 10).collect();
    let web = OneDimSkipWeb::builder(initial)
        .seed(72)
        .replicate(3)
        .build();
    let dist = DistributedSkipWeb::builder(web.inner()).spawn();
    let killed = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for r in 0..4u64 {
            let dist = &dist;
            let killed = &killed;
            scope.spawn(move || {
                let client = dist.client();
                client.set_timeouts(Timeouts::uniform(Duration::from_secs(20)));
                for i in 0..80u64 {
                    let q = (r * 131 + i * 97) % 1_100;
                    match dist.query(&client, (i as usize) % 96, q) {
                        Ok(reply) => {
                            let a = reply.answer.expect("nonempty web");
                            assert!(a.is_multiple_of(10), "answer {a} was never a member");
                        }
                        // Only the crash window may drop a request; queries
                        // submitted after the kill must all succeed.
                        Err(e) => {
                            assert!(
                                !killed.load(Ordering::SeqCst) || e == RuntimeError::Timeout,
                                "unexpected post-crash error {e}"
                            );
                        }
                    }
                }
            });
        }
        let dist = &dist;
        let killed = &killed;
        scope.spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            dist.kill_host(HostId(41));
            killed.store(true, Ordering::SeqCst);
        });
    });
    assert_eq!(dist.health().dead, vec![HostId(41)]);
    // After the dust settles, a fresh pass answers everything.
    let client = dist.client();
    for s in 0..32u64 {
        assert!(dist
            .query(&client, (s as usize) % 96, s * 31)
            .unwrap()
            .answer
            .is_some());
    }
    dist.shutdown();
}

/// Surviving `k - 1` crashes is the replication contract: kill two hosts of
/// a `k = 3` web and everything still answers.
#[test]
fn k3_replication_survives_two_crashes() {
    let web = OneDimSkipWeb::builder((0..80).map(|i| i * 7).collect())
        .seed(73)
        .replicate(3)
        .build();
    let dist = DistributedSkipWeb::builder(web.inner()).spawn();
    let client = dist.client();
    dist.kill_host(HostId(5));
    dist.kill_host(HostId(6));
    assert_eq!(dist.health().dead, vec![HostId(5), HostId(6)]);
    for s in 0..40u64 {
        let q = (s * 113) % 600;
        let origin = web.random_origin(s);
        let want = web.nearest(origin, q).answer.nearest;
        assert_eq!(
            dist.query(&client, origin, q).unwrap().answer,
            Some(want),
            "q={q} with two dead hosts"
        );
    }
    dist.shutdown();
}

/// Decommissioning rehomes a host's blocks while queries and updates keep
/// flowing, then a replacement host joins and takes traffic.
#[test]
fn live_decommission_and_spawn_under_mixed_load() {
    let web = OneDimSkipWeb::builder((0..100).map(|i| i * 50).collect())
        .seed(74)
        .build();
    let dist = DistributedSkipWeb::builder(web.inner())
        .consolidated(8)
        .spawn();
    std::thread::scope(|scope| {
        for r in 0..3u64 {
            let dist = &dist;
            scope.spawn(move || {
                let client = dist.client();
                client.set_timeouts(Timeouts::new(
                    Duration::from_secs(30),
                    Duration::from_secs(60),
                ));
                for i in 0..60u64 {
                    if i % 5 == 4 {
                        let key = 25 + (r * 1_000 + i) * 50;
                        dist.insert(&client, key).expect("runtime alive");
                    } else {
                        let q = (r * 131 + i * 977) % 5_500;
                        let reply = dist
                            .query(&client, (i as usize) % 100, q)
                            .expect("runtime alive");
                        let a = reply.answer.expect("nonempty web");
                        assert!(
                            a.is_multiple_of(50) || (a % 50) == 25,
                            "answer {a} was never a member"
                        );
                    }
                }
            });
        }
        let dist = &dist;
        scope.spawn(move || {
            std::thread::sleep(Duration::from_millis(3));
            dist.decommission(HostId(2)).expect("host 2 is alive");
            let _ = dist.spawn_host();
        });
    });
    let health = dist.health();
    assert_eq!(health.decommissioned, vec![HostId(2)]);
    assert_eq!(dist.hosts(), 9);
    assert!(health.alive.contains(&HostId(8)), "spawned host is alive");
    // The decommissioned host drained: new traffic avoids it entirely.
    let client = dist.client();
    let before = dist.traffic().received[2];
    for s in 0..40u64 {
        let _ = dist.query(&client, (s as usize) % 100, s * 17).unwrap();
    }
    assert_eq!(dist.traffic().received[2], before);
    assert!(dist.health().dead.is_empty());
    dist.shutdown();
}

/// The same failure model holds for a multi-dimensional web: a killed host
/// leaves trie prefix searches answering from replicas.
#[test]
fn trie_prefix_queries_survive_a_crash_with_replicas() {
    let strings: Vec<String> = (0..72).map(|i| format!("isbn-{i:04}")).collect();
    let web = TrieSkipWeb::builder(strings).seed(75).replicate(2).build();
    let dist = DistributedSkipWeb::builder(web.inner()).spawn();
    let client = dist.client();
    dist.kill_host(HostId(11));
    for s in 0..30usize {
        let prefix = format!("isbn-{:03}", s % 8);
        let want = web.prefix_search(web.random_origin(s as u64), &prefix);
        let got = dist
            .query(&client, web.random_origin(s as u64), prefix.clone())
            .expect("replicated trie survives one crash");
        assert_eq!(got.answer.matched_len, want.matched_len, "{prefix:?}");
        assert_eq!(got.answer.matches, want.matches, "{prefix:?}");
    }
    dist.shutdown();
}

/// Without replication a crash is detected, reported, and healable — never
/// a silent hang.
#[test]
fn unreplicated_crash_reports_unavailable_then_heals() {
    let web = OneDimSkipWeb::builder((0..48).map(|i| i * 3).collect())
        .seed(76)
        .build();
    let dist = DistributedSkipWeb::builder(web.inner()).spawn();
    let client = dist.client();
    client.set_timeouts(Timeouts::uniform(Duration::from_secs(3)));
    dist.kill_host(HostId(17));
    let mut unavailable = 0usize;
    for s in 0..48u64 {
        match dist.query(&client, web.random_origin(s), s * 3 + 1) {
            Ok(_) => {}
            Err(RuntimeError::Unavailable) => unavailable += 1,
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    assert!(unavailable > 0, "k = 1 must fail fast somewhere");
    dist.heal();
    for s in 0..48u64 {
        assert!(
            dist.query(&client, web.random_origin(s), s * 3 + 1)
                .unwrap()
                .answer
                .is_some(),
            "healed k = 1 web answers everything again"
        );
    }
    dist.shutdown();
}
