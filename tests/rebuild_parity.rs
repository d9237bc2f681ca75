//! Incremental/full apply parity, property-tested: randomized batch churn
//! over all four structures must leave the incrementally repaired web
//! **byte-identical** — ground set, bit assignment, every level set's
//! structure, hyperlinks, and placement — to a web maintained through the
//! original full-rebuild path. Skip-webs are range-determined (§2.1): the
//! surviving items plus their bit strings uniquely determine the hierarchy,
//! so any divergence is a repair bug.
//!
//! The scenarios are sized to exercise both sides of the fallback
//! threshold: webs start above the incremental minimum (so small batches
//! take the dirty-set path) while heavy removal streaks can drop the web
//! across a level-count boundary (forcing, and thereby also testing, the
//! full-rebuild fallback).

use proptest::collection;
use proptest::prelude::*;

use skipwebs::core::SkipWeb;
use skipwebs::structures::geometry::GridPoint;
use skipwebs::structures::{
    CompressedQuadtree, CompressedTrie, RangeDetermined, Segment, SortedLinkedList, TrapezoidalMap,
};

/// One churn step: a batch of pool slots to insert or to remove. Slots may
/// repeat (within a batch or against the stored set) — the duplicate /
/// absent flags must match between the two paths too.
type Step = (bool, Vec<u32>);

/// A deterministic bit string per pool slot, so the same slot always
/// rebuilds the same tower on both webs.
fn slot_bits(slot: u32, seed: u64) -> u64 {
    (u64::from(slot))
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(17)
        ^ seed
}

/// Drives the same churn through the incremental apply and the
/// full-rebuild reference apply, asserting identical applied flags and a
/// byte-identical structure after every batch.
fn assert_churn_parity<D>(pool: &[D::Item], initial: usize, steps: &[Step], seed: u64)
where
    D: RangeDetermined + PartialEq,
{
    let base: Vec<D::Item> = pool[..initial].to_vec();
    let mut incremental = SkipWeb::<D>::builder(base.clone()).seed(seed).build();
    let mut full = SkipWeb::<D>::builder(base).seed(seed).build();
    assert_eq!(incremental, full, "builders must agree before any churn");
    for (step, (inserting, slots)) in steps.iter().enumerate() {
        let (got, want) = if *inserting {
            let batch: Vec<(D::Item, u64)> = slots
                .iter()
                .map(|&s| (pool[s as usize].clone(), slot_bits(s, seed)))
                .collect();
            (
                incremental.apply_insert_batch(batch.clone()),
                full.apply_insert_batch_full(batch),
            )
        } else {
            let batch: Vec<D::Item> = slots.iter().map(|&s| pool[s as usize].clone()).collect();
            (
                incremental.apply_remove_batch(&batch),
                full.apply_remove_batch_full(&batch),
            )
        };
        assert_eq!(got, want, "applied flags diverged at step {step}");
        assert_eq!(incremental, full, "structures diverged at step {step}");
        assert_eq!(incremental.ground(), full.ground());
    }
}

/// Churn steps over a `pool_size`-slot pool: each step inserts or removes
/// up to 24 slots — small against the ~160-item webs, so most batches take
/// the incremental path.
fn steps_strategy(pool_size: u32) -> impl Strategy<Value = Vec<Step>> {
    collection::vec((any::<bool>(), collection::vec(0..pool_size, 1..24)), 1..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn onedim_incremental_apply_matches_full_rebuild(
        steps in steps_strategy(256),
        seed in 0u64..1000,
    ) {
        let pool: Vec<u64> = (0..256u64).map(|i| i * 37 + 5).collect();
        assert_churn_parity::<SortedLinkedList>(&pool, 160, &steps, seed);
    }

    #[test]
    fn quadtree_incremental_apply_matches_full_rebuild(
        steps in steps_strategy(256),
        seed in 0u64..1000,
    ) {
        // A scatter that is deliberately *not* in Morton order, so the
        // splice leans on the quadtree's `canonical_cmp` override.
        let pool: Vec<GridPoint<2>> = (0..256u32)
            .map(|i| GridPoint::new([i.wrapping_mul(0x9E37_79B9), i.wrapping_mul(0x85EB_CA6B)]))
            .collect();
        assert_churn_parity::<CompressedQuadtree<2>>(&pool, 160, &steps, seed);
    }

    #[test]
    fn trie_incremental_apply_matches_full_rebuild(
        steps in steps_strategy(256),
        seed in 0u64..1000,
    ) {
        let pool: Vec<String> = (0..256u32)
            .map(|i| format!("{:06b}x{}", i % 64, i / 64))
            .collect();
        assert_churn_parity::<CompressedTrie>(&pool, 160, &steps, seed);
    }

    #[test]
    fn trapezoid_incremental_apply_matches_full_rebuild(
        steps in steps_strategy(192),
        seed in 0u64..1000,
    ) {
        // Disjoint x-ranges per slot keep every subset in general position.
        let pool: Vec<Segment> = (0..192i64)
            .map(|slot| {
                let x = slot * 1_000;
                let y = (slot % 13) * 40;
                Segment::new((x, y), (x + 600, y + 3))
            })
            .collect();
        assert_churn_parity::<TrapezoidalMap>(&pool, 128, &steps, seed);
    }
}

/// Owner-hosted webs with a replication factor: the repair path drops each
/// kept range's replica tail (ring successors of stale host ids) and
/// regrows it after the splice, which must land on exactly the copy lists
/// the full rebuild's placement sweep produces.
#[test]
fn replicated_owner_hosted_webs_repair_identically() {
    let pool: Vec<u64> = (0..512u64).map(|i| i * 13 + 1).collect();
    let base: Vec<u64> = pool[..400].to_vec();
    let build = |items: Vec<u64>| {
        SkipWeb::<SortedLinkedList>::builder(items)
            .seed(5)
            .replicate(3)
            .build()
    };
    let mut incremental = build(base.clone());
    let mut full = build(base);
    for round in 0..6u64 {
        let inserts: Vec<(u64, u64)> = (0..10u64)
            .map(|j| {
                let slot = (round * 71 + j * 29) % 512;
                (pool[slot as usize], slot_bits(slot as u32, 5))
            })
            .collect();
        assert_eq!(
            incremental.apply_insert_batch(inserts.clone()),
            full.apply_insert_batch_full(inserts)
        );
        assert_eq!(incremental, full, "insert round {round}");
        let removes: Vec<u64> = (0..8u64)
            .map(|j| pool[((round * 97 + j * 43) % 512) as usize])
            .collect();
        assert_eq!(
            incremental.apply_remove_batch(&removes),
            full.apply_remove_batch_full(&removes)
        );
        assert_eq!(incremental, full, "remove round {round}");
    }
}

/// The bucketed 1-D blocking and replication layers run through the same
/// repair (placement is recomputed wholesale after the dirty-set rebuild),
/// so they must stay in byte-identical lockstep too.
#[test]
fn bucketed_and_replicated_webs_repair_identically() {
    let pool: Vec<u64> = (0..512u64).map(|i| i * 11 + 3).collect();
    let base: Vec<u64> = pool[..400].to_vec();
    let build = |items: Vec<u64>| {
        SkipWeb::<SortedLinkedList>::builder(items)
            .seed(9)
            .bucketed(64)
            .replicate(2)
            .build()
    };
    let mut incremental = build(base.clone());
    let mut full = build(base);
    for round in 0..6u64 {
        let inserts: Vec<(u64, u64)> = (0..12u64)
            .map(|j| {
                let slot = (round * 67 + j * 31) % 512;
                (pool[slot as usize], slot_bits(slot as u32, 9))
            })
            .collect();
        assert_eq!(
            incremental.apply_insert_batch(inserts.clone()),
            full.apply_insert_batch_full(inserts)
        );
        assert_eq!(incremental, full, "insert round {round}");
        let removes: Vec<u64> = (0..9u64)
            .map(|j| pool[((round * 101 + j * 47) % 512) as usize])
            .collect();
        assert_eq!(
            incremental.apply_remove_batch(&removes),
            full.apply_remove_batch_full(&removes)
        );
        assert_eq!(incremental, full, "remove round {round}");
    }
}
