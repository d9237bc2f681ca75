//! WAN fault-injection gate: the same mixed churn workload — queries,
//! inserts, removes — must produce identical answers, identical applied
//! flags, and identical final ground sets whether the fabric runs on the
//! lossless in-process [`ChannelTransport`] or on a [`SimWanTransport`]
//! configured with 5% probabilistic loss and enough jitter to reorder
//! messages in flight. Losses surface to clients only as timeouts; the
//! engine's lossy-resubmit path plus the exactly-once idempotence ledger
//! must absorb them without changing any observable result.
//!
//! CI runs this file by name in the `wan-fault` job with a fixed proptest
//! RNG, so every run replays the same loss/reorder schedules.
//!
//! [`ChannelTransport`]: skipwebs::net::transport::ChannelTransport
//! [`SimWanTransport`]: skipwebs::net::wan::SimWanTransport

use std::time::Duration;

use proptest::collection;
use proptest::prelude::*;

use skipwebs::core::engine::{DistributedSkipWeb, Timeouts};
use skipwebs::core::onedim::OneDimSkipWeb;
use skipwebs::net::wan::SimWanConfig;

const HOST_COUNTS: [usize; 2] = [1, 4];

/// A schedule with 5% per-crossing loss and jitter wide enough (±3× the
/// base latency) that later messages routinely overtake earlier ones.
fn faulty(seed: u64) -> SimWanConfig {
    SimWanConfig {
        seed,
        latency: Duration::from_micros(300),
        jitter: Duration::from_micros(900),
        loss: 0.05,
    }
}

#[test]
fn lossy_wan_reports_loss_and_reordering_in_transport_stats() {
    let keys: Vec<u64> = (0..512).map(|i| i * 11 + 3).collect();
    let web = OneDimSkipWeb::builder(keys).seed(91).build();
    let clean = DistributedSkipWeb::builder(web.inner())
        .consolidated(4)
        .spawn();
    let dist = DistributedSkipWeb::builder(web.inner())
        .consolidated(4)
        .wan(faulty(7))
        .spawn();
    let (cc, client) = (clean.client(), dist.client());
    client.set_timeouts(Timeouts::new(
        Duration::from_millis(150),
        Duration::from_millis(300),
    ));
    for q in 0..128u64 {
        let (origin, key) = (web.random_origin(q), q * 97 % 6_000);
        let got = dist
            .query(&client, origin, key)
            .expect("resubmits must mask 5% loss")
            .answer;
        let want = clean.query(&cc, origin, key).expect("runtime alive").answer;
        assert_eq!(got, want, "query {q}");
    }
    clean.shutdown();

    // A lone blocking client serializes every link, so reordering needs
    // concurrent in-flight traffic: four clients hammer the fabric at
    // once, overlapping messages on shared host-to-host links where the
    // ±900µs jitter can let a later frame overtake an earlier one.
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let web = &web;
            let dist = &dist;
            s.spawn(move || {
                let c = dist.client();
                c.set_timeouts(Timeouts::new(
                    Duration::from_millis(150),
                    Duration::from_millis(300),
                ));
                for q in 0..128u64 {
                    let key = (q * 131 + t * 29) % 6_000;
                    dist.query(&c, web.random_origin(q ^ t), key)
                        .expect("resubmits must mask 5% loss");
                }
            });
        }
    });

    let stats = dist.traffic().transport;
    assert!(
        stats.lost > 0,
        "5% loss over this workload must drop frames: {stats}"
    );
    assert!(
        stats.reordered > 0,
        "concurrent clients under ±900µs jitter must reorder: {stats}"
    );
    assert!(
        stats.delivered < stats.carried,
        "losses never deliver: {stats}"
    );
    dist.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The acceptance pin from the transport redesign: batch and serial
    /// churn stay in lockstep with a faulty WAN underneath. Every op on
    /// the WAN side may be silently dropped and resubmitted any number of
    /// times; answers, applied flags, and final ground sets must still be
    /// byte-identical to the lossless fabric's.
    #[test]
    fn churn_over_faulty_wan_matches_lossless_channel_fabric(
        keys in collection::vec(0u64..50_000, 24..48),
        rounds in collection::vec(
            (collection::vec(0u64..50_000, 4..8), any::<u64>()),
            2..3,
        ),
        seed in 0u64..500,
    ) {
        for hosts in HOST_COUNTS {
            let web = OneDimSkipWeb::builder(keys.clone()).seed(seed).build();
            let clean = DistributedSkipWeb::builder(web.inner()).consolidated(hosts).spawn();
            let wan = DistributedSkipWeb::builder(web.inner()).consolidated(hosts).wan(faulty(seed ^ 0x57414e)).spawn();
            let (cc, cw) = (clean.client(), wan.client());
            // Short timeouts keep lost frames cheap to resubmit; they must
            // still dominate the worst-case jittered round trip.
            cw.set_timeouts(Timeouts::new(Duration::from_millis(150), Duration::from_millis(300)));
            for (round, &(ref values, bitseed)) in rounds.iter().enumerate() {
                let origin = (round * 13 + 1) % web.len();

                // Query round: answers agree despite drops in either
                // direction on the WAN side.
                for &v in values {
                    let q = v * 3 % 60_000;
                    let want = clean.query(&cc, origin, q).expect("runtime alive").answer;
                    let got = wan.query(&cw, origin, q).expect("loss must be masked").answer;
                    prop_assert_eq!(got, want, "query {} round {}", q, round);
                }

                // Insert round: explicit (origin, bits) so both fabrics
                // make identical placement choices; a resubmitted insert
                // must apply exactly once via the idempotence ledger.
                let mut fresh: Vec<u64> =
                    values.iter().map(|v| (v * 2 + 1) % 99_991).collect();
                fresh.sort_unstable();
                fresh.dedup();
                for (i, &k) in fresh.iter().enumerate() {
                    let bits = bitseed.wrapping_mul(i as u64 + 1);
                    let want = clean
                        .insert_with(&cc, origin, k, bits)
                        .expect("runtime alive")
                        .applied;
                    let got = wan
                        .insert_with(&cw, origin, k, bits)
                        .expect("loss must be masked")
                        .applied;
                    prop_assert_eq!(got, want, "insert {} round {}", k, round);
                }
                prop_assert_eq!(wan.ground(), clean.ground(), "after inserts {}", round);

                // Remove round: the fresh keys plus one absent probe.
                let mut rem = fresh.clone();
                rem.push(999_999);
                for &k in &rem {
                    let want = clean
                        .remove_with(&cc, origin, k)
                        .expect("runtime alive")
                        .applied;
                    let got = wan
                        .remove_with(&cw, origin, k)
                        .expect("loss must be masked")
                        .applied;
                    prop_assert_eq!(got, want, "remove {} round {}", k, round);
                }
                prop_assert_eq!(wan.ground(), clean.ground(), "after removes {}", round);
            }
            clean.shutdown();
            wan.shutdown();
        }
    }
}
