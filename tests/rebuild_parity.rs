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
//!
//! An update is one type ([`Update`]) and a batch may mix inserts and
//! removes: the `mixed_*` cases hold one [`SkipWeb::apply`] of a random
//! interleaving — same-item insert → remove → insert under new bits,
//! remove-then-reinsert of a stored item, duplicates — to the same ops
//! applied one at a time and to [`SkipWeb::apply_full`].
//!
//! The engine's apply stage refills a retired web and applies a turn to it
//! through donors ([`SkipWeb::refill_from`], [`SkipWeb::apply_with`]): the
//! `stage_turns_*` case holds that to every other way of applying the turn.

use std::collections::VecDeque;

use proptest::collection;
use proptest::prelude::*;

use skipwebs::core::{SkipWeb, Update};
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

/// The update of pool slot `slot`: an insert under `bits`, or a remove.
fn slot_update<I: Clone>(pool: &[I], slot: u32, bits: Option<u64>) -> Update<I> {
    let item = pool[slot as usize].clone();
    match bits {
        Some(bits) => Update::Insert { item, bits },
        None => Update::Remove { item },
    }
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
        let batch: Vec<Update<D::Item>> = slots
            .iter()
            .map(|&s| slot_update(pool, s, inserting.then(|| slot_bits(s, seed))))
            .collect();
        let got = incremental.apply(batch.clone());
        let want = full.apply_full(batch);
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
        assert_churn_parity::<SortedLinkedList>(&list_pool(), 160, &steps, seed);
    }

    #[test]
    fn quadtree_incremental_apply_matches_full_rebuild(
        steps in steps_strategy(256),
        seed in 0u64..1000,
    ) {
        assert_churn_parity::<CompressedQuadtree<2>>(&quadtree_pool(), 160, &steps, seed);
    }

    #[test]
    fn trie_incremental_apply_matches_full_rebuild(
        steps in steps_strategy(256),
        seed in 0u64..1000,
    ) {
        assert_churn_parity::<CompressedTrie>(&trie_pool(), 160, &steps, seed);
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

/// Six rounds of an insert batch, then a remove batch, over a 400-key web
/// under the placement `build` chooses: incremental and full applies must
/// stay in byte-identical lockstep, host tables and replica lists included.
fn assert_placed_webs_repair_identically(
    seed: u64,
    build: impl Fn(Vec<u64>) -> SkipWeb<SortedLinkedList>,
) {
    let pool: Vec<u64> = (0..512u64).map(|i| i * 13 + 1).collect();
    let mut incremental = build(pool[..400].to_vec());
    let mut full = build(pool[..400].to_vec());
    for round in 0..6u64 {
        let inserts: Vec<Update<u64>> = (0..12u64)
            .map(|j| {
                let slot = ((round * 71 + j * 29 + seed) % 512) as u32;
                slot_update(&pool, slot, Some(slot_bits(slot, seed)))
            })
            .collect();
        assert_eq!(incremental.apply(inserts.clone()), full.apply_full(inserts));
        assert_eq!(incremental, full, "insert round {round}");
        let removes: Vec<Update<u64>> = (0..9u64)
            .map(|j| slot_update(&pool, ((round * 97 + j * 43 + seed) % 512) as u32, None))
            .collect();
        assert_eq!(incremental.apply(removes.clone()), full.apply_full(removes));
        assert_eq!(incremental, full, "remove round {round}");
    }
}

/// Owner-hosted webs with a replication factor: the replica lists are
/// derived from the members the repair rewrites, and must equal the ones a
/// full rebuild derives.
#[test]
fn replicated_owner_hosted_webs_repair_identically() {
    assert_placed_webs_repair_identically(5, |items| {
        SkipWeb::builder(items).seed(5).replicate(3).build()
    });
}

/// The bucketed 1-D blocking and replication layers run through the same
/// repair (placement is recomputed wholesale after the dirty-set rebuild),
/// so they must stay in byte-identical lockstep too.
#[test]
fn bucketed_and_replicated_webs_repair_identically() {
    assert_placed_webs_repair_identically(9, |items| {
        SkipWeb::builder(items)
            .seed(9)
            .bucketed(64)
            .replicate(2)
            .build()
    });
}

/// One op of a mixed batch: a slot of the contested window, and what to do
/// with it — remove it (`0`), or insert it under one of two bit strings
/// (`1`, `2`), so a re-insert can change the item's tower.
type MixedOp = (u32, u8);

/// The contested window of the mixed cases: `WINDOW` pool slots straddling
/// the initially stored prefix, so every batch hits the same few items over
/// and over — stored and absent ones alike.
const WINDOW: u32 = 24;

/// The web size the mixed cases start from: the window reaches 12 slots
/// to either side, so batches carry the web across `n = 128` — where the
/// level count changes — in both directions.
const MIXED_INITIAL: usize = 124;

fn mixed_update<I: Clone>(pool: &[I], (slot, what): MixedOp, seed: u64) -> Update<I> {
    let slot = MIXED_INITIAL as u32 - WINDOW / 2 + slot;
    let bits = match what {
        0 => None,
        1 => Some(slot_bits(slot, seed)),
        _ => Some(slot_bits(slot, !seed).rotate_left(7)),
    };
    slot_update(pool, slot, bits)
}

/// One `apply` of each mixed batch against the same ops applied one at a
/// time and against `apply_full`: identical per-op flags (the sequential
/// ones, by construction of the second web), byte-identical structures,
/// and every invariant intact. Returns the level counts the web went
/// through.
fn assert_mixed_parity<D>(
    pool: &[D::Item],
    bucketed: bool,
    batches: &[Vec<MixedOp>],
    seed: u64,
) -> Vec<u32>
where
    D: RangeDetermined + PartialEq,
{
    let build = || {
        let builder = SkipWeb::<D>::builder(pool[..MIXED_INITIAL].to_vec()).seed(seed);
        if bucketed {
            builder.bucketed(32).build()
        } else {
            builder.build()
        }
    };
    let (mut batched, mut serial, mut full) = (build(), build(), build());
    let mut tops = vec![batched.top_level()];
    for (step, batch) in batches.iter().enumerate() {
        let ops: Vec<Update<D::Item>> = batch
            .iter()
            .map(|&op| mixed_update(pool, op, seed))
            .collect();
        let want: Vec<bool> = ops
            .iter()
            .map(|op| serial.apply(vec![op.clone()])[0])
            .collect();
        assert_eq!(batched.apply(ops.clone()), want, "flags at step {step}");
        assert_eq!(full.apply_full(ops), want, "oracle flags at step {step}");
        assert_eq!(batched, serial, "one apply vs one at a time, step {step}");
        assert_eq!(batched, full, "one apply vs full rebuild, step {step}");
        assert_eq!(batched.check_invariants(), Ok(()), "step {step}");
        tops.push(batched.top_level());
    }
    tops
}

fn list_pool() -> Vec<u64> {
    (0..256u64).map(|i| i * 37 + 5).collect()
}

/// A scatter that is deliberately *not* in Morton order, so the splice
/// leans on the quadtree's `canonical_cmp` override.
fn quadtree_pool() -> Vec<GridPoint<2>> {
    (0..256u32)
        .map(|i| GridPoint::new([i.wrapping_mul(0x9E37_79B9), i.wrapping_mul(0x85EB_CA6B)]))
        .collect()
}

fn trie_pool() -> Vec<String> {
    (0..256u32)
        .map(|i| format!("{:06b}x{}", i % 64, i / 64))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random interleavings of inserts and removes over a window of 24
    /// items, on list, quadtree and trie, owner-hosted and bucketed.
    #[test]
    fn mixed_batches_match_sequential_and_full_applies(
        batches in collection::vec(collection::vec((0..WINDOW, 0u8..3), 1..24), 1..6),
        bucketed in any::<bool>(),
        seed in 0u64..1000,
    ) {
        assert_mixed_parity::<SortedLinkedList>(&list_pool(), bucketed, &batches, seed);
        assert_mixed_parity::<CompressedQuadtree<2>>(&quadtree_pool(), bucketed, &batches, seed);
        assert_mixed_parity::<CompressedTrie>(&trie_pool(), bucketed, &batches, seed);
    }
}

/// The sequences the proptest only hits by chance, spelled out — and a
/// batch that grows a level followed by one that drops it again.
#[test]
fn mixed_batches_resolve_in_op_order_across_level_changes() {
    // Window slots 0..12 are stored, 12..24 absent.
    let batches: Vec<Vec<MixedOp>> = vec![
        vec![
            // Absent item: insert → remove → insert under other bits.
            (12, 1),
            (12, 0),
            (12, 2),
            // Stored item: remove, then re-insert under new bits.
            (3, 0),
            (3, 2),
            // Duplicates: a second insert and a second remove are no-ops,
            // and so is inserting a stored item.
            (13, 1),
            (13, 2),
            (4, 0),
            (4, 0),
            (5, 1),
            // Inserted and removed again: no net change at all.
            (14, 1),
            (14, 0),
        ],
        // 125 stored items, five more: past 128, one more level.
        vec![(15, 1), (0, 0), (16, 2), (17, 1), (0, 1), (18, 1), (19, 2)],
        // And back down, in one batch that also inserts.
        vec![
            (15, 0),
            (16, 0),
            (20, 1),
            (17, 0),
            (18, 0),
            (19, 0),
            (12, 0),
        ],
    ];
    for bucketed in [false, true] {
        let tops = assert_mixed_parity::<SortedLinkedList>(&list_pool(), bucketed, &batches, 7);
        assert_eq!(tops, [7, 7, 8, 7], "the level count must grow, then shrink");
        assert_mixed_parity::<CompressedQuadtree<2>>(&quadtree_pool(), bucketed, &batches, 7);
        assert_mixed_parity::<CompressedTrie>(&trie_pool(), bucketed, &batches, 7);
    }
}

/// Retired webs a turn may refill, beside the current one: the engine's
/// apply stage keeps two, and a slow reader can hold one a turn longer.
const RETIRED: usize = 3;

/// A stream of mixed turns applied the way the engine's apply stage applies
/// them: the web `lag` turns behind the current one (a fresh clone while
/// there is none that old) is refilled from the current web, which stays
/// published, taking its donors, and the turn is applied to it through
/// them. Each turn must leave the same flags and a web equal to the full
/// rebuild's, to a clone of the current web that the turn is applied to —
/// the clone path — and to one web applied to in place, whose sets donate
/// their own items. Returns how many sets donated items.
fn assert_donor_parity<D>(pool: &[D::Item], turns: &[(Vec<MixedOp>, usize)], seed: u64) -> usize
where
    D: RangeDetermined + PartialEq,
{
    let build = || {
        SkipWeb::<D>::builder(pool[..MIXED_INITIAL].to_vec())
            .seed(seed)
            .build()
    };
    // The current web first, then the retired ones, newest first.
    let mut webs = VecDeque::from([build()]);
    let (mut own, mut full) = (build(), build());
    let mut donated = 0;
    for (step, (turn, lag)) in turns.iter().enumerate() {
        let ops: Vec<Update<D::Item>> = turn
            .iter()
            .map(|&op| mixed_update(pool, op, seed))
            .collect();
        let want = full.apply_full(ops.clone());
        assert_eq!(
            own.apply(ops.clone()),
            want,
            "in-place flags at step {step}"
        );
        let mut spare = match webs.remove(*lag) {
            Some(mut spare) => {
                let donors = spare.refill_from(&webs[0], &ops);
                donated += donors.len();
                (spare, donors)
            }
            None => (webs[0].clone(), Default::default()),
        };
        assert_eq!(
            spare.0.apply_with(ops.clone(), &mut spare.1),
            want,
            "flags at step {step}"
        );
        let mut cloned = webs[0].clone();
        assert_eq!(cloned.apply(ops), want, "clone-path flags at step {step}");
        assert_eq!(spare.0, full, "donor apply vs full rebuild, step {step}");
        assert_eq!(spare.0, cloned, "donor apply vs clone path, step {step}");
        assert_eq!(spare.0, own, "donor apply vs in-place apply, step {step}");
        assert_eq!(spare.0.check_invariants(), Ok(()), "step {step}");
        drop(cloned);
        webs.push_front(spare.0);
        webs.truncate(RETIRED + 1);
    }
    donated
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random streams of small mixed turns on the trie, whose heap items
    /// are what donors give, each applied to a retired web lagging one to
    /// three turns behind.
    #[test]
    fn stage_turns_with_donors_match_full_clone_and_in_place_applies(
        turns in collection::vec(
            (collection::vec((0..WINDOW, 0u8..3), 1..6), 1..=RETIRED),
            1..16,
        ),
        seed in 0u64..1000,
    ) {
        assert_donor_parity::<CompressedTrie>(&trie_pool(), &turns, seed);
    }
}

/// A stream like the proptest's, spelled out so that donors are certain to
/// be taken: every turn changes the ground, the first three find no web
/// that far behind and clone, and the last four refill webs three, two and
/// one turns behind.
#[test]
fn stage_turns_take_donors_from_every_lag() {
    let turns: Vec<(Vec<MixedOp>, usize)> = vec![
        (vec![(12, 1)], 3),
        (vec![(3, 0), (13, 2)], 3),
        (vec![(12, 0)], 3),
        (vec![(3, 1), (14, 1)], 3),
        (vec![(5, 0)], 2),
        (vec![(13, 0), (5, 2)], 1),
        (vec![(14, 0)], 1),
    ];
    let donated = assert_donor_parity::<CompressedTrie>(&trie_pool(), &turns, 7);
    assert!(donated >= 4, "{donated} sets donated items");
}
