//! Batch/serial parity, property-tested: driving the same mixed churn
//! workload through `query_batch` / `update_batch` and the one-at-a-time
//! paths must return byte-identical answers, identical applied flags, and
//! identical final structures on every deployment size — while the batch
//! side's coalesced envelopes cross *fewer* metered host boundaries. This
//! is the release-mode gate CI runs by name alongside the parity suite.
//!
//! The acceptance pin: a batch of 256 queries on 16 hosts crosses
//! measurably fewer host boundaries than the same 256 queries run
//! serially, observable in `HostTraffic`.

use proptest::collection;
use proptest::prelude::*;

use skipwebs::core::engine::{DistributedSkipWeb, EngineClient};
use skipwebs::core::multidim::{QuadtreeRequest, QuadtreeSkipWeb, TrieSkipWeb};
use skipwebs::core::onedim::OneDimSkipWeb;
use skipwebs::core::Update;
use skipwebs::store::StoreBuilder;
use skipwebs::structures::SortedLinkedList;

const HOST_COUNTS: [usize; 3] = [1, 4, 16];

#[test]
fn batch_of_256_queries_on_16_hosts_crosses_measurably_fewer_boundaries() {
    let keys: Vec<u64> = (0..1024).map(|i| i * 7 + 1).collect();
    let web = OneDimSkipWeb::builder(keys).seed(81).build();
    let serial = DistributedSkipWeb::builder(web.inner())
        .consolidated(16)
        .spawn();
    let batched = DistributedSkipWeb::builder(web.inner())
        .consolidated(16)
        .spawn();
    let (cs, cb) = (serial.client(), batched.client());
    let qs: Vec<u64> = (0..256u64).map(|s| (s * 2741) % 7200).collect();
    let origin = web.random_origin(3);
    let want: Vec<Option<u64>> = qs
        .iter()
        .map(|&q| serial.query(&cs, origin, q).expect("runtime alive").answer)
        .collect();
    let got: Vec<Option<u64>> = batched
        .query_batch(&cb, origin, qs)
        .expect("runtime alive")
        .into_iter()
        .map(|r| r.answer)
        .collect();
    assert_eq!(got, want, "batch answers must be byte-identical");
    let (s, b) = (serial.traffic(), batched.traffic());
    assert!(
        b.total_sent() * 2 <= s.total_sent(),
        "256-query batch on 16 hosts must cross measurably fewer boundaries: \
         batched {} vs serial {}",
        b.total_sent(),
        s.total_sent()
    );
    assert!(
        b.mean_batch_size() > 1.0,
        "coalescing must be observable in the batch counters: {b}"
    );
    assert_eq!(
        s.total_batch_sent(),
        0,
        "serial path sends no batch envelopes"
    );
    serial.shutdown();
    batched.shutdown();
}

#[test]
fn scattered_reports_match_serial_answers_on_consolidated_fabrics() {
    // Quadtree box reporting, folded onto 4 physical hosts.
    let points: Vec<_> = (0..160u32)
        .map(|i| skipwebs::structures::PointKey::new([i * 104_729 + 13, i * 49_979 + 7]))
        .collect();
    let web = QuadtreeSkipWeb::builder(points).seed(82).build();
    let dist = DistributedSkipWeb::builder(web.inner())
        .consolidated(4)
        .spawn();
    let client = dist.client();
    for (lo, hi) in [
        ([0u32, 0u32], [u32::MAX / 2, u32::MAX / 2]),
        ([0, 0], [u32::MAX, u32::MAX]),
    ] {
        let serial = dist
            .query(
                &client,
                web.random_origin(1),
                QuadtreeRequest::InBox { lo, hi },
            )
            .expect("runtime alive");
        let scattered = dist
            .query_scatter(
                &client,
                web.random_origin(1),
                QuadtreeRequest::InBox { lo, hi },
            )
            .expect("runtime alive");
        assert_eq!(scattered.answer, serial.answer, "box {lo:?}..{hi:?}");
    }
    dist.shutdown();

    // Trie prefix enumeration, folded onto 4 physical hosts.
    let strings: Vec<String> = (0..96).map(|i| format!("isbn-{i:04}")).collect();
    let web = TrieSkipWeb::builder(strings).seed(83).build();
    let dist = DistributedSkipWeb::builder(web.inner())
        .consolidated(4)
        .spawn();
    let client = dist.client();
    for prefix in ["isbn-00", "isbn", "zzz", ""] {
        let serial = dist
            .query(&client, web.random_origin(2), prefix.to_string())
            .expect("runtime alive");
        let scattered = dist
            .query_scatter(&client, web.random_origin(2), prefix.to_string())
            .expect("runtime alive");
        assert_eq!(scattered.answer.matched_len, serial.answer.matched_len);
        assert_eq!(
            scattered.answer.matches, serial.answer.matches,
            "{prefix:?}"
        );
    }
    dist.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The satellite gate: the same randomized mixed churn workload —
    /// query rounds, insert rounds, remove rounds — through `query_batch` /
    /// `update_batch` versus the serial
    /// `query` / `insert_with` / `remove_with`, on {1, 4, 16} hosts:
    /// identical answers, identical applied flags, identical final ground
    /// sets, and never more metered crossings on the batch side.
    #[test]
    fn batched_churn_matches_serial_on_every_host_count(
        keys in collection::vec(0u64..50_000, 24..64),
        rounds in collection::vec(
            (collection::vec(0u64..50_000, 4..12), any::<u64>()),
            2..4,
        ),
        seed in 0u64..500,
    ) {
        for hosts in HOST_COUNTS {
            let web = OneDimSkipWeb::builder(keys.clone()).seed(seed).build();
            let serial = DistributedSkipWeb::builder(web.inner()).consolidated(hosts).spawn();
            let batched = DistributedSkipWeb::builder(web.inner()).consolidated(hosts).spawn();
            let (cs, cb) = (serial.client(), batched.client());
            for (round, &(ref values, bitseed)) in rounds.iter().enumerate() {
                // Query round: byte-identical answers in submission order.
                let qs: Vec<u64> = values.iter().map(|v| v * 3 % 60_000).collect();
                let origin = (round * 13 + 1) % web.len();
                let want: Vec<Option<u64>> = qs
                    .iter()
                    .map(|&q| serial.query(&cs, origin, q).expect("runtime alive").answer)
                    .collect();
                let got: Vec<Option<u64>> = batched
                    .query_batch(&cb, origin, qs)
                    .expect("runtime alive")
                    .into_iter()
                    .map(|r| r.answer)
                    .collect();
                prop_assert_eq!(got, want, "query round {}", round);

                // Insert round: distinct items (batch ops on the same item
                // would race by arrival order, exactly like concurrent
                // serial clients), explicit (origin, bits) so both engines
                // make identical deterministic choices.
                let mut fresh: Vec<u64> = values.iter().map(|v| (v * 2 + 1) % 99_991).collect();
                fresh.sort_unstable();
                fresh.dedup();
                let ins: Vec<(usize, Update<u64>)> = fresh
                    .iter()
                    .zip(1u64..)
                    .map(|(&item, i)| (origin, Update::Insert { item, bits: bitseed.wrapping_mul(i) }))
                    .collect();
                let want = serial_flags(&serial, &cs, &ins);
                prop_assert_eq!(batch_flags(&batched, &cb, ins), want, "insert round {}", round);
                prop_assert_eq!(batched.ground(), serial.ground(), "after inserts {}", round);

                // Remove round: the freshly inserted keys plus one absent
                // probe — applied flags and final state must agree.
                let rem: Vec<(usize, Update<u64>)> = fresh
                    .iter()
                    .chain([&999_999])
                    .map(|&item| (origin, Update::Remove { item }))
                    .collect();
                let want = serial_flags(&serial, &cs, &rem);
                prop_assert_eq!(batch_flags(&batched, &cb, rem), want, "remove round {}", round);
                prop_assert_eq!(batched.ground(), serial.ground(), "after removes {}", round);
            }
            // Coalescing can only remove crossings, never add them.
            let (b, s) = (batched.traffic().total_sent(), serial.traffic().total_sent());
            prop_assert!(b <= s, "hosts={}: batched {} vs serial {}", hosts, b, s);
            serial.shutdown();
            batched.shutdown();
        }
    }
}

type Fabric = DistributedSkipWeb<SortedLinkedList>;
type Client = EngineClient<SortedLinkedList>;

/// The applied flags of `ops` run one at a time through the serial entry
/// points.
fn serial_flags(fabric: &Fabric, client: &Client, ops: &[(usize, Update<u64>)]) -> Vec<bool> {
    let run = |&(origin, ref update): &(usize, Update<u64>)| match *update {
        Update::Insert { item, bits } => fabric.insert_with(client, origin, item, bits),
        Update::Remove { item } => fabric.remove_with(client, origin, item),
    };
    ops.iter()
        .map(|op| run(op).expect("runtime alive").applied)
        .collect()
}

/// The applied flags of `ops` run as one `update_batch`.
fn batch_flags(fabric: &Fabric, client: &Client, ops: Vec<(usize, Update<u64>)>) -> Vec<bool> {
    let replies = fabric.update_batch(client, ops).expect("runtime alive");
    replies.into_iter().map(|r| r.applied).collect()
}

/// One `update_batch` may mix inserts and removes: it must leave the flags
/// and the ground set of the serial `insert_with` / `remove_with` calls,
/// and a store that logged the batched history must recover the same web —
/// same items, same towers.
///
/// Ops on distinct items commute, so those rounds run on every host count.
/// Ops on one item resolve in the order they reach the apply step, which is
/// submission order when they travel together: the same-item round runs on
/// one host, where the whole batch is one envelope and one apply turn. (It
/// leaves out the one sequence a batch resolves differently from serial
/// calls: every op is planned under the batch's one snapshot, so an insert
/// of an item stored under it stops at the locus as a duplicate even when
/// the batch removed the item first.)
#[test]
fn mixed_update_batch_matches_serial_calls_and_recovers_the_same_web() {
    let insert = |origin: usize, item: u64, salt: u64| {
        let bits = (item ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (origin, Update::Insert { item, bits })
    };
    let remove = |origin: usize, item: u64| (origin, Update::Remove { item });
    for hosts in [1usize, 4] {
        let scratch = format!("skipweb-batch-{}-mixed-{hosts}", std::process::id());
        let dir = std::env::temp_dir().join(scratch);
        let store = StoreBuilder::new(&dir)
            .hosts(hosts)
            .checkpoint_every(0)
            .open()
            .expect("open store");
        let empty = OneDimSkipWeb::builder(Vec::new()).build();
        let serial = DistributedSkipWeb::builder(empty.inner())
            .consolidated(hosts)
            .spawn();
        let batched = store.fabric();

        // Populate: 40 distinct keys (origins are ignored while empty).
        let mut rounds: Vec<Vec<(usize, Update<u64>)>> =
            vec![(0..40u64).map(|i| insert(0, i * 10, 1)).collect()];
        // Mixed, distinct items: removes of stored keys interleaved with
        // fresh inserts, an absent remove and a duplicate insert.
        rounds.push(
            (0..12u64)
                .flat_map(|i| {
                    let origin = (i as usize * 7) % 40;
                    [remove(origin, i * 30), insert(origin, i * 30 + 5, 2)]
                })
                .chain([remove(3, 9_999), insert(4, 370, 3)])
                .collect(),
        );
        if hosts == 1 {
            rounds.push(vec![
                // Absent key: insert → remove → insert under other bits.
                insert(1, 777, 4),
                remove(2, 777),
                insert(3, 777, 5),
                // Inserted twice: the second — other bits — is a no-op.
                insert(4, 888, 6),
                insert(5, 888, 7),
                // Removed twice: the second is a no-op.
                remove(6, 390),
                remove(7, 390),
                // Inserted and removed again: no net change.
                insert(8, 999, 8),
                remove(9, 999),
            ]);
        }
        let client = serial.client();
        for (round, ops) in rounds.into_iter().enumerate() {
            let want = serial_flags(&serial, &client, &ops);
            let got = batch_flags(batched, store.client(), ops);
            assert_eq!(got, want, "hosts={hosts} round {round}");
            assert_eq!(
                batched.ground_with_bits(),
                serial.ground_with_bits(),
                "hosts={hosts} round {round}"
            );
        }

        // Crash everything; the log alone must bring the same web back.
        for host in batched.health().alive {
            batched.kill_host(host);
        }
        store.recover().expect("recover");
        assert_eq!(batched.ground_with_bits(), serial.ground_with_bits());
        serial.shutdown();
        store.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}
