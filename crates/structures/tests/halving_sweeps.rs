//! Statistical validation of all four set-halving lemmas across seeds, plus
//! property tests for the trapezoid conflict identity (Lemma 5) on random
//! general-position inputs, for every structure's required hot-path hooks
//! (`search_step` against `neighbors` and `locate`, `conflicts_into` against
//! its buffer contract), and for the property a skip-web's derived
//! hyperlinks rest on: a subset's range always conflicts with the superset
//! range holding any of its points.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use skipweb_structures::properties::{measure_conflicts, measure_halving};
use skipweb_structures::quadtree::CompressedQuadtree;
use skipweb_structures::traits::{RangeDetermined, RangeId};
use skipweb_structures::trie::CompressedTrie;
use skipweb_structures::{PointKey, Segment, SortedLinkedList, TrapezoidalMap};

/// Banded disjoint segments with globally distinct x's (general position).
fn banded_segments(n: usize, seed: u64) -> Vec<Segment> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut xs: Vec<i64> = (0..2 * n as i64).map(|i| i * 4 + 1).collect();
    for i in (1..xs.len()).rev() {
        let j = rng.gen_range(0..=i);
        xs.swap(i, j);
    }
    (0..n)
        .map(|i| {
            let band = i as i64 * 100;
            let (a, b) = (xs[2 * i], xs[2 * i + 1]);
            Segment::new(
                (a.min(b), band + rng.gen_range(-20..=20)),
                (a.max(b), band + rng.gen_range(-20..=20)),
            )
        })
        .collect()
}

/// Holds `d`'s two required hot-path hooks to oracles that do not go through
/// them, from every range, for every query, against a half-sample's ranges:
///
/// * every `search_step` lands in `neighbors` of the range it left — the
///   walk only follows structure links;
/// * stepping repeatedly from *any* range, node or link, terminates within
///   `2·num_ranges + 2` steps, and ends at `locate(q)`;
/// * `conflicts_into` appends exactly `conflicts`, leaving what the buffer
///   already held alone.
fn assert_hot_paths_agree<D: RangeDetermined>(d: &D, coarse: &D, queries: &[D::Query]) {
    for q in queries {
        for from in d.range_ids() {
            let (mut at, mut steps) = (from, 0);
            while let Some(next) = d.search_step(at, q) {
                assert!(
                    d.neighbors(at).contains(&next),
                    "{at} -> {next} toward {q:?} is not a structure link"
                );
                at = next;
                steps += 1;
                assert!(
                    steps <= 2 * d.num_ranges() + 2,
                    "stepping from {from} cycles"
                );
            }
            assert_eq!(at, d.locate(q), "from {from} toward {q:?}");
        }
    }
    let externals = coarse
        .range_ids()
        .map(|r| coarse.range(r))
        .chain(d.range_ids().map(|r| d.range(r)));
    for external in externals {
        let held = [RangeId(u32::MAX), RangeId(0)];
        let mut out = held.to_vec();
        d.conflicts_into(&external, &mut out);
        assert_eq!(out[..2], held);
        assert_eq!(out[2..], d.conflicts(&external), "C({external:?}, S)");
    }
}

/// What a level descent relies on now that hyperlinks are computed, not
/// stored: for `T ⊆ S`, every range `Q` of `coarse = D(T)` has a non-empty
/// conflict list in `fine = D(S)`, and for every query point `q` lying in
/// its own locus `Q` of `D(T)`, `lands(fine, C(Q, S), q)` — the list reaches
/// `q`: it holds `D(S).locate(q)` itself where conflicting is plain
/// intersection, and a range containing `q` for the quadtree, whose lists
/// stop at the children of the deepest enclosing cell.
fn assert_subset_ranges_link_into_the_superset<D: RangeDetermined>(
    fine: &D,
    coarse: &D,
    queries: &[D::Query],
    lands: impl Fn(&D, &[RangeId], &D::Query) -> bool,
) {
    let mut links = Vec::new();
    for r in coarse.range_ids() {
        links.clear();
        fine.conflicts_into(&coarse.range(r), &mut links);
        assert!(!links.is_empty(), "{r} of D(T) links nowhere in D(S)");
    }
    for q in queries {
        let locus = coarse.locate(q);
        links.clear();
        fine.conflicts_into(&coarse.range(locus), &mut links);
        assert!(
            lands(fine, &links, q),
            "C({locus}, S) = {links:?} misses {q:?}"
        );
    }
}

/// [`assert_subset_ranges_link_into_the_superset`]'s `lands` where a
/// conflict is an intersection: the list holds the superset's locus.
fn holds_the_locus<D: RangeDetermined>(fine: &D, links: &[RangeId], q: &D::Query) -> bool {
    links.contains(&fine.locate(q))
}

#[test]
fn lemma1_average_over_seeds_within_bound() {
    // E[|C(Q,S)|] ≤ 9 with closed intervals; average over 10 seeds.
    let keys: Vec<u64> = (0..1024u64).map(|i| i * 53 + 11).collect();
    let queries: Vec<u64> = (0..300u64).map(|i| (i * 181) % (1024 * 53)).collect();
    let mut total = 0.0;
    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        total += measure_halving::<SortedLinkedList, _>(&keys, &queries, &mut rng).mean_conflicts;
    }
    let mean = total / 10.0;
    assert!(
        (1.0..10.0).contains(&mean),
        "Lemma 1 multi-seed mean {mean}"
    );
}

#[test]
fn lemma3_flat_across_sizes() {
    // The quadtree conflict constant must not grow with n.
    let mut means = Vec::new();
    for &n in &[256usize, 1024, 4096] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let pts: Vec<PointKey<2>> = (0..n)
            .map(|_| PointKey::new([rng.gen(), rng.gen()]))
            .collect();
        let queries: Vec<PointKey<2>> = (0..150)
            .map(|_| PointKey::new([rng.gen(), rng.gen()]))
            .collect();
        means.push(
            measure_halving::<CompressedQuadtree<2>, _>(&pts, &queries, &mut rng).mean_conflicts,
        );
    }
    let spread = means.iter().cloned().fold(f64::MIN, f64::max)
        - means.iter().cloned().fold(f64::MAX, f64::min);
    assert!(spread < 3.0, "Lemma 3 constant drifts with n: {means:?}");
}

#[test]
fn lemma4_flat_across_sizes_and_alphabets() {
    for alphabet in [b"ab".as_slice(), b"abcd".as_slice()] {
        let mut means = Vec::new();
        for &n in &[256usize, 2048] {
            let mut rng = StdRng::seed_from_u64(n as u64);
            let mut items: Vec<String> = (0..n * 2)
                .map(|_| {
                    let len = rng.gen_range(2..14);
                    (0..len)
                        .map(|_| alphabet[rng.gen_range(0..alphabet.len())] as char)
                        .collect()
                })
                .collect();
            items.sort();
            items.dedup();
            items.truncate(n);
            let queries: Vec<String> = (0..120)
                .map(|_| {
                    let len = rng.gen_range(1..14);
                    (0..len)
                        .map(|_| alphabet[rng.gen_range(0..alphabet.len())] as char)
                        .collect()
                })
                .collect();
            means.push(
                measure_halving::<CompressedTrie, _>(&items, &queries, &mut rng).mean_conflicts,
            );
        }
        assert!(
            (means[1] - means[0]).abs() < 5.0,
            "Lemma 4 drifts for |Σ|={}: {means:?}",
            alphabet.len()
        );
    }
}

#[test]
fn lemma5_flat_across_sizes() {
    let mut means = Vec::new();
    for &n in &[32usize, 64, 128] {
        let segments = banded_segments(n, n as u64);
        let mut rng = StdRng::seed_from_u64(n as u64);
        let queries: Vec<(i64, i64)> = (0..80)
            .map(|_| {
                (
                    rng.gen_range(-20..(2 * n as i64 * 4 + 20)),
                    rng.gen_range(-200..(n as i64 * 100 + 200)) * 2 + 49,
                )
            })
            .collect();
        means.push(
            measure_halving::<TrapezoidalMap, _>(&segments, &queries, &mut rng).mean_conflicts,
        );
    }
    assert!(
        means[2] < means[0] * 2.5 + 4.0,
        "Lemma 5 constant drifts: {means:?}"
    );
}

#[test]
fn conflicts_between_identical_structures_include_self_range() {
    // C(Q, S) with T = S must contain the range itself (Q = R counts, §2.2).
    let keys: Vec<u64> = (0..64).map(|i| i * 3).collect();
    let d = SortedLinkedList::build(keys);
    for id in d.range_ids() {
        let conflicts = d.conflicts(&d.range(id));
        assert!(
            conflicts.contains(&id),
            "range {id} missing from its own conflicts"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Lemma 5's exact identity: the number of D(S)-trapezoids overlapping a
    /// D(T)-trapezoid equals 1 + a + 2b + 3c, for random banded inputs and
    /// random subset choices.
    #[test]
    fn trapezoid_conflict_identity_holds(
        n in 4usize..20,
        seed in 0u64..500,
        probe_x in -50i64..600,
        probe_band in 0i64..20,
    ) {
        let all = banded_segments(n, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA5);
        let sub: Vec<Segment> = all.iter().copied().filter(|_| rng.gen_bool(0.5)).collect();
        let coarse = TrapezoidalMap::build(sub.clone());
        let fine = TrapezoidalMap::build(all.clone());
        let probe = (probe_x, probe_band * 100 + 49);
        let t = coarse.trapezoid(coarse.locate(&probe));
        let node_conflicts = (0..fine.num_trapezoids())
            .filter(|&i| fine.trapezoid(RangeId(i as u32)).overlaps(&t))
            .count();
        // Classify each segment of S − T against t.
        let mut a = 0usize;
        let mut b = 0usize;
        let mut c = 0usize;
        for s in &all {
            if sub.contains(s) {
                continue;
            }
            let ends = [t.contains(s.left()), t.contains(s.right())]
                .iter()
                .filter(|&&v| v)
                .count();
            match ends {
                2 => c += 1,
                1 => b += 1,
                _ => {
                    // Cuts across iff the segment's strip overlaps t.
                    let strip = skipweb_structures::trapezoid::Trapezoid {
                        top: Some(*s),
                        bottom: Some(*s),
                        left_x: Some(s.left().0),
                        right_x: Some(s.right().0),
                    };
                    // Zero-height strip: widen the test by checking overlap
                    // of t with each side of the segment line.
                    let above = skipweb_structures::trapezoid::Trapezoid {
                        bottom: Some(*s),
                        top: Some(*s),
                        ..strip
                    };
                    let _ = above;
                    // A zero-area strip never "overlaps"; test directly:
                    // the segment cuts t iff its x-span overlaps t's and its
                    // line sits strictly between t's bounds there.
                    let lo = t.left_x.map_or(s.left().0, |l| l.max(s.left().0));
                    let hi = t.right_x.map_or(s.right().0, |r| r.min(s.right().0));
                    if lo < hi {
                        let mid_y = (s.left().1 + s.right().1) / 2; // flat bands: ±20
                        // Evaluate strictly: the probe midpoint of the span.
                        let xm = lo + (hi - lo) / 2;
                        let y = s.y_at_int(xm);
                        let below_top = t.top.as_ref().is_none_or(|ts| y < ts.y_at_int(xm));
                        let above_bottom =
                            t.bottom.as_ref().is_none_or(|bs| y > bs.y_at_int(xm));
                        let _ = mid_y;
                        if below_top && above_bottom {
                            a += 1;
                        }
                    }
                }
            }
        }
        prop_assert_eq!(
            node_conflicts,
            1 + a + 2 * b + 3 * c,
            "identity for n={}, seed={}", n, seed
        );
    }

    #[test]
    fn list_hot_paths_agree(
        keys in proptest::collection::vec(0u64..500, 0..40),
        queries in proptest::collection::vec(0u64..520, 1..8),
        seed in 0u64..100,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let half = keys.iter().copied().filter(|_| rng.gen_bool(0.5)).collect();
        let d = SortedLinkedList::build(keys);
        let coarse = SortedLinkedList::build(half);
        assert_hot_paths_agree(&d, &coarse, &queries);
        assert_subset_ranges_link_into_the_superset(&d, &coarse, &queries, holds_the_locus);
    }

    #[test]
    fn quadtree_hot_paths_agree(
        coords in proptest::collection::vec((0u32..64, 0u32..u32::MAX), 0..40),
        queries in proptest::collection::vec((0u32..64, 0u32..u32::MAX), 1..8),
        seed in 0u64..100,
    ) {
        let point = |(x, y): (u32, u32)| PointKey::new([x << 26, y]);
        let pts: Vec<PointKey<2>> = coords.into_iter().map(point).collect();
        let queries: Vec<PointKey<2>> = queries.into_iter().map(point).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let half = pts.iter().copied().filter(|_| rng.gen_bool(0.5)).collect();
        let d = CompressedQuadtree::<2>::build(pts);
        let coarse = CompressedQuadtree::<2>::build(half);
        assert_hot_paths_agree(&d, &coarse, &queries);
        assert_subset_ranges_link_into_the_superset(&d, &coarse, &queries, |d, links, q| {
            links.iter().any(|&r| d.range(r).contains_point(q))
        });
    }

    #[test]
    fn trie_hot_paths_agree(
        words in proptest::collection::vec(proptest::collection::vec(0u8..3, 0..7), 0..40),
        queries in proptest::collection::vec(proptest::collection::vec(0u8..4, 0..9), 1..8),
        seed in 0u64..100,
    ) {
        let word = |w: Vec<u8>| w.into_iter().map(|c| (b'a' + c) as char).collect::<String>();
        let words: Vec<String> = words.into_iter().map(word).collect();
        let queries: Vec<String> = queries.into_iter().map(word).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let half = words.iter().filter(|_| rng.gen_bool(0.5)).cloned().collect();
        let coarse = CompressedTrie::build(half);
        // The points of a trie range are prefix-tree vertices: the prefixes
        // of the subset's own words lie in their loci.
        let vertices: Vec<String> = coarse
            .items()
            .iter()
            .flat_map(|w| (0..=w.len()).map(|len| w[..len].to_owned()))
            .collect();
        let d = CompressedTrie::build(words);
        assert_hot_paths_agree(&d, &coarse, &queries);
        assert_subset_ranges_link_into_the_superset(&d, &coarse, &vertices, holds_the_locus);
    }

    #[test]
    fn trapezoid_hot_paths_agree(
        n in 0usize..10,
        seed in 0u64..500,
        probes in proptest::collection::vec((-10i64..30, -1i64..11), 1..6),
    ) {
        let all = banded_segments(n, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA5);
        let half = all.iter().copied().filter(|_| rng.gen_bool(0.5)).collect();
        // Off every wall (endpoint x's are 1 mod 4) and every segment (bands
        // span ±20 around multiples of 100).
        let queries: Vec<(i64, i64)> =
            probes.into_iter().map(|(x, band)| (x * 4 + 3, band * 100 + 49)).collect();
        let d = TrapezoidalMap::build(all);
        let coarse = TrapezoidalMap::build(half);
        assert_hot_paths_agree(&d, &coarse, &queries);
        assert_subset_ranges_link_into_the_superset(&d, &coarse, &queries, holds_the_locus);
    }

    /// Over the hot-path tests' inputs, a quadtree's flat children table is
    /// exactly the inverse of its parent pointers.
    #[test]
    fn quadtree_tables_invert_the_parent_links(
        coords in proptest::collection::vec((0u32..64, 0u32..u32::MAX), 0..40),
        seed in 0u64..100,
    ) {
        let pts: Vec<PointKey<2>> =
            coords.into_iter().map(|(x, y)| PointKey::new([x << 26, y])).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let half = pts.iter().copied().filter(|_| rng.gen_bool(0.5)).collect();
        for d in [CompressedQuadtree::<2>::build(pts), CompressedQuadtree::<2>::build(half)] {
            prop_assert_eq!(d.check_tables(), Ok(()));
        }
    }

    /// The same for a trie's children table.
    #[test]
    fn trie_tables_invert_the_parent_edges(
        words in proptest::collection::vec(proptest::collection::vec(0u8..3, 0..7), 0..40),
        seed in 0u64..100,
    ) {
        let word = |w: Vec<u8>| w.into_iter().map(|c| (b'a' + c) as char).collect::<String>();
        let words: Vec<String> = words.into_iter().map(word).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let half = words.iter().filter(|_| rng.gen_bool(0.5)).cloned().collect();
        for d in [CompressedTrie::build(words), CompressedTrie::build(half)] {
            prop_assert_eq!(d.check_tables(), Ok(()));
        }
    }

    /// And for a trapezoid map's adjacency table against its links.
    #[test]
    fn trapezoid_tables_invert_the_links(n in 0usize..10, seed in 0u64..500) {
        let all = banded_segments(n, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA5);
        let half = all.iter().copied().filter(|_| rng.gen_bool(0.5)).collect();
        for d in [TrapezoidalMap::build(all), TrapezoidalMap::build(half)] {
            prop_assert_eq!(d.check_tables(), Ok(()));
        }
    }

    /// Quadtree descent work between a half-sample and the full set stays
    /// tiny for arbitrary point sets.
    #[test]
    fn quadtree_descent_walk_is_short(
        coords in proptest::collection::vec((0u32..u32::MAX, 0u32..u32::MAX), 16..200),
        seed in 0u64..100,
    ) {
        let pts: Vec<PointKey<2>> =
            coords.into_iter().map(|(x, y)| PointKey::new([x, y])).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let half: Vec<PointKey<2>> = pts.iter().copied().filter(|_| rng.gen_bool(0.5)).collect();
        if half.is_empty() {
            return Ok(());
        }
        let coarse = CompressedQuadtree::<2>::build(half);
        let fine = CompressedQuadtree::<2>::build(pts);
        let queries: Vec<PointKey<2>> = (0..20)
            .map(|_| PointKey::new([rng.gen(), rng.gen()]))
            .collect();
        let stats = measure_conflicts(&coarse, &fine, &queries);
        prop_assert!(stats.max_descent_walk <= 64, "walk {}", stats.max_descent_walk);
    }
}
