//! Property-based tests (proptest) for the paper's core invariants:
//! set-halving lemmas, conflict symmetry, level partitions, the trapezoid
//! `1 + a + 2b + 3c` identity, and skip-web answers vs a BTreeMap oracle
//! under arbitrary inputs and seeds.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use skipwebs::core::onedim::OneDimSkipWeb;
use skipwebs::structures::properties::measure_halving;
use skipwebs::structures::{
    CompressedQuadtree, CompressedTrie, PointKey, RangeDetermined, SortedLinkedList,
};

fn oracle_nearest(keys: &[u64], q: u64) -> u64 {
    *keys.iter().min_by_key(|&&k| (k.abs_diff(q), k)).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn skip_web_answers_match_btree_oracle(
        mut keys in proptest::collection::vec(0u64..1_000_000, 2..120),
        queries in proptest::collection::vec(0u64..1_100_000, 1..24),
        seed in 0u64..1000,
    ) {
        keys.sort_unstable();
        keys.dedup();
        let web = OneDimSkipWeb::builder(keys.clone()).seed(seed).build();
        for q in queries {
            let out = web.nearest(web.random_origin(q ^ seed), q);
            prop_assert_eq!(out.answer.nearest, oracle_nearest(&keys, q));
        }
    }

    #[test]
    fn bucketed_skip_web_matches_oracle_too(
        mut keys in proptest::collection::vec(0u64..500_000, 8..100),
        memory in 4usize..64,
        seed in 0u64..100,
    ) {
        keys.sort_unstable();
        keys.dedup();
        let web = OneDimSkipWeb::builder(keys.clone())
            .seed(seed)
            .bucketed(memory)
            .build();
        for s in 0..8u64 {
            let q = (s * 104_729 + seed) % 550_000;
            let out = web.nearest(web.random_origin(s), q);
            prop_assert_eq!(out.answer.nearest, oracle_nearest(&keys, q));
        }
    }

    #[test]
    fn list_conflicts_are_symmetric_intersections(
        mut keys in proptest::collection::vec(0u64..10_000, 1..60),
        lo in 0u64..11_000,
        width in 0u64..2_000,
    ) {
        keys.sort_unstable();
        keys.dedup();
        let list = SortedLinkedList::build(keys);
        let external = skipwebs::structures::KeyInterval::between(lo, lo + width);
        let conflicts = list.conflicts(&external);
        // Exactly the brute-force intersection set.
        for id in list.range_ids() {
            let hit = list.range(id).intersects(&external);
            prop_assert_eq!(conflicts.contains(&id), hit);
        }
    }

    #[test]
    fn level_partition_preserves_every_item(
        mut keys in proptest::collection::vec(0u64..100_000, 1..80),
        seed in 0u64..50,
    ) {
        keys.sort_unstable();
        keys.dedup();
        let web = OneDimSkipWeb::builder(keys.clone()).seed(seed).build();
        let web = web.inner();
        for level in 0..=web.top_level() {
            let total: usize = web.level_set_sizes(level).iter().sum();
            prop_assert_eq!(total, keys.len(), "level {} partition", level);
        }
    }

    #[test]
    fn quadtree_locate_returns_deepest_containing_cell(
        coords in proptest::collection::vec((0u32..u32::MAX, 0u32..u32::MAX), 1..50),
        qx in 0u32..u32::MAX,
        qy in 0u32..u32::MAX,
    ) {
        let pts: Vec<PointKey<2>> = coords.into_iter().map(|(x, y)| PointKey::new([x, y])).collect();
        let qt = CompressedQuadtree::<2>::build(pts);
        let q = PointKey::new([qx, qy]);
        let hit = qt.locate(&q);
        prop_assert!(qt.range(hit).contains_point(&q));
        // No child cell of the hit contains q (deepest).
        for nb in qt.neighbors(hit) {
            let cell = qt.range(nb);
            if cell.depth() > qt.range(hit).depth() {
                prop_assert!(!cell.contains_point(&q));
            }
        }
    }

    #[test]
    fn trie_conflicts_equal_brute_force(
        words_a in proptest::collection::vec("[ab]{1,6}", 1..20),
        words_b in proptest::collection::vec("[ab]{1,6}", 1..20),
    ) {
        // coarse trie over a subset-flavoured word set, fine over the union
        let coarse = CompressedTrie::build(words_a.clone());
        let mut all = words_a;
        all.extend(words_b);
        let fine = CompressedTrie::build(all);
        for id in coarse.range_ids() {
            let ext = coarse.range(id);
            let mut got = fine.conflicts(&ext);
            got.sort();
            let want: Vec<_> = fine
                .range_ids()
                .filter(|rid| fine.range(*rid).intersects(&ext))
                .collect();
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn halving_stats_stay_bounded_for_lists(
        n in 64usize..512,
        seed in 0u64..100,
    ) {
        let keys: Vec<u64> = (0..n as u64).map(|i| i * 37 + seed).collect();
        let queries: Vec<u64> = (0..100u64).map(|i| (i * 199 + seed) % (n as u64 * 37)).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let stats = measure_halving::<SortedLinkedList, _>(&keys, &queries, &mut rng);
        // E ≤ 9 (closed intervals); single-draw slack.
        prop_assert!(stats.mean_conflicts < 16.0, "mean {}", stats.mean_conflicts);
        prop_assert!(stats.mean_descent_walk <= 3.0);
    }

    #[test]
    fn skip_web_updates_keep_oracle_agreement(
        mut keys in proptest::collection::vec(0u64..100_000, 4..60),
        inserts in proptest::collection::vec(0u64..100_000, 1..12),
        seed in 0u64..50,
    ) {
        keys.sort_unstable();
        keys.dedup();
        let mut web = OneDimSkipWeb::builder(keys.clone()).seed(seed).build();
        let mut reference = keys;
        for k in inserts {
            let added = web.insert(k).is_some();
            if added {
                reference.push(k);
            } else {
                prop_assert!(reference.contains(&k), "duplicate rejection only for stored keys");
            }
        }
        reference.sort_unstable();
        for s in 0..6u64 {
            let q = (s * 31_337 + seed) % 110_000;
            let out = web.nearest(web.random_origin(s), q);
            prop_assert_eq!(out.answer.nearest, oracle_nearest(&reference, q));
        }
    }
}
