//! Mixed insert/remove/query stress over the live actor runtime: writer
//! threads churn the structure while reader threads keep querying, all on
//! the same fabric. Nothing may hang, panic, or answer with a key that was
//! never a member; afterwards the served state must agree with an oracle
//! over the final ground set. This is the release-mode gate CI runs by
//! name (`churn-stress` job).

use std::time::Duration;

use skipwebs::core::engine::{DistributedSkipWeb, Timeouts};
use skipwebs::core::multidim::TrieSkipWeb;
use skipwebs::core::onedim::OneDimSkipWeb;

const INITIAL: u64 = 160;
const WRITERS: usize = 3;
const WRITER_OPS: u64 = 30;
const READERS: usize = 4;
const READER_OPS: u64 = 120;

#[test]
fn mixed_onedim_churn_under_concurrent_clients_stays_consistent() {
    // Initial keys: multiples of 100. Writers insert/remove keys ≡ 50+w
    // (mod 100), so every possible answer is attributable to a member.
    let web = OneDimSkipWeb::builder((0..INITIAL).map(|i| i * 100).collect())
        .seed(41)
        .build();
    let capacity = web.len() + WRITERS * WRITER_OPS as usize;
    let dist = DistributedSkipWeb::builder(web.inner())
        .consolidated(capacity)
        .spawn();
    std::thread::scope(|scope| {
        for w in 0..WRITERS as u64 {
            let dist = &dist;
            scope.spawn(move || {
                let client = dist.client();
                // Generous but bounded per-client timeouts: a wedged fabric
                // fails the test instead of hanging the CI job.
                client.set_timeouts(Timeouts::new(
                    Duration::from_secs(60),
                    Duration::from_secs(120),
                ));
                for i in 0..WRITER_OPS {
                    let key = 50 + w + ((w * 7919 + i * 997) % 5000) * 100;
                    if i % 3 == 2 {
                        // Remove something this writer inserted earlier (or
                        // a no-op if the key was never inserted) — both are
                        // legal outcomes under concurrency.
                        let victim = 50 + w + ((w * 7919 + (i - 2) * 997) % 5000) * 100;
                        dist.remove(&client, victim).expect("runtime alive");
                    } else {
                        dist.insert(&client, key).expect("runtime alive");
                    }
                }
            });
        }
        for r in 0..READERS as u64 {
            let dist = &dist;
            scope.spawn(move || {
                let client = dist.client();
                client.set_timeouts(Timeouts::uniform(Duration::from_secs(60)));
                for i in 0..READER_OPS {
                    let q = (r * 131 + i * 977) % (INITIAL * 110);
                    // Origins index the initial keys, which writers never
                    // remove, so the bound stays valid under churn.
                    let origin = (i as usize) % INITIAL as usize;
                    let reply = dist.query(&client, origin, q).expect("runtime alive");
                    let a = reply.answer.expect("web never empties");
                    assert!(
                        a.is_multiple_of(100)
                            || ((a % 100) >= 50 && (a % 100) < 50 + WRITERS as u64),
                        "answer {a} was never a member"
                    );
                }
            });
        }
    });

    // Final consistency: the served answers equal a plain oracle over the
    // final ground snapshot.
    let ground = dist.ground();
    assert!(
        ground.len() >= INITIAL as usize,
        "initial keys never removed"
    );
    let client = dist.client();
    for s in 0..40u64 {
        let q = (s * 433) % (INITIAL * 110);
        let want = *ground
            .iter()
            .min_by_key(|&&k| (k.abs_diff(q), k))
            .expect("nonempty");
        let got = dist
            .query(&client, s as usize % ground.len(), q)
            .expect("runtime alive")
            .answer
            .expect("nonempty");
        assert_eq!(got, want, "post-churn q={q}");
    }

    // The traffic split accounts for the churn: update messages flowed.
    let traffic = dist.traffic();
    assert!(traffic.total_update_sent() > 0, "updates must pay messages");
    assert!(traffic.total_query_sent() > 0, "queries must pay messages");
    assert!(
        dist.health().dead.is_empty(),
        "no actor may die under churn"
    );
    dist.shutdown();
}

#[test]
fn mixed_trie_churn_under_concurrent_clients_stays_consistent() {
    let strings: Vec<String> = (0..96).map(|i| format!("base-{i:04}")).collect();
    let web = TrieSkipWeb::builder(strings).seed(42).build();
    let dist = DistributedSkipWeb::builder(web.inner())
        .consolidated(web.len() + 64)
        .spawn();
    std::thread::scope(|scope| {
        for w in 0..2u64 {
            let dist = &dist;
            scope.spawn(move || {
                let client = dist.client();
                client.set_timeouts(Timeouts::new(
                    Duration::from_secs(60),
                    Duration::from_secs(120),
                ));
                for i in 0..24u64 {
                    let s = format!("live-{w}-{:03}", (i * 7) % 100);
                    if i % 4 == 3 {
                        dist.remove(&client, s).expect("runtime alive");
                    } else {
                        dist.insert(&client, s).expect("runtime alive");
                    }
                }
            });
        }
        for r in 0..3u64 {
            let dist = &dist;
            scope.spawn(move || {
                let client = dist.client();
                for i in 0..60u64 {
                    let prefix = if i % 2 == 0 {
                        format!("base-{:03}", (r * 13 + i) % 10)
                    } else {
                        "live-".to_string()
                    };
                    let reply = dist
                        .query(&client, (i as usize) % 96, prefix.clone())
                        .expect("runtime alive");
                    // Every reported match extends the prefix and belongs
                    // to one of the two families.
                    for m in &reply.answer.matches {
                        assert!(m.starts_with(&prefix), "match {m} vs prefix {prefix}");
                        assert!(m.starts_with("base-") || m.starts_with("live-"));
                    }
                }
            });
        }
    });
    // Final consistency against the trie oracle rebuilt from the snapshot.
    let ground = dist.ground();
    let oracle = TrieSkipWeb::builder(ground.clone()).seed(7).build();
    let client = dist.client();
    for s in 0..20usize {
        let prefix = format!("live-{}-0", s % 2);
        let want = oracle.prefix_search(0, &prefix);
        let got = dist
            .query(&client, s % ground.len(), prefix.clone())
            .expect("runtime alive");
        assert_eq!(got.answer.matches, want.matches, "post-churn {prefix:?}");
    }
    assert!(dist.health().dead.is_empty());
    dist.shutdown();
}
