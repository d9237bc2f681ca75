//! Allocation budgets of the copy-on-write apply path.
//!
//! An engine apply clones the web while a published snapshot still holds the
//! previous one, repairs the clone, and drops the previous web once its last
//! reader drains. With flat, derived level tables each of the three steps
//! costs heap traffic proportional to the levels and the sets the repair
//! touched — not to the web's total range count — and this file holds them
//! to that with a counting allocator. (Counters are per thread, so the
//! tests may run in parallel.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use skipwebs::core::SkipWeb;
use skipwebs::structures::{CompressedTrie, RangeDetermined, SortedLinkedList};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // A thread tearing down its locals still allocates; those are not ours.
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are plain thread-local cells that
// never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&FREES);
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&ALLOCS);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Whether an apply's allocations are the repair's alone: a debug build
/// follows every incremental apply with the full invariant sweep, which
/// allocates per range.
const APPLY_IS_BARE: bool = !cfg!(debug_assertions);

/// Runs `f` and returns its result with the `(allocations, frees)` this
/// thread made meanwhile.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, f0) = (ALLOCS.get(), FREES.get());
    let out = f();
    (out, ALLOCS.get() - a0, FREES.get() - f0)
}

/// What one copy-on-write update costs the allocator, for an insert of
/// `fresh` into the web `build` makes and then a remove of it again: the
/// clone's allocations, the worse of the two applies' allocations, and the
/// worse of the two frees-on-drop of the pre-apply web. (The web is built
/// twice so that the comparison copy shares nothing with the measured one:
/// a third holder would keep the replaced sets alive through the drop.)
fn update_costs<D>(build: impl Fn() -> SkipWeb<D>, fresh: D::Item) -> (u64, u64, u64)
where
    D: RangeDetermined + PartialEq,
{
    let (pristine, web) = (build(), &mut build());
    let (before_insert, clone_allocs, _) = counted(|| web.clone());
    let (applied, insert_allocs, _) =
        counted(|| web.apply_insert_batch(vec![(fresh.clone(), 0x5EED_B175)]));
    assert_eq!(applied, [true]);
    let ((), _, insert_frees) = counted(|| drop(before_insert));

    let before_remove = web.clone();
    let (applied, remove_allocs, _) = counted(|| web.apply_remove_batch(&[fresh]));
    assert_eq!(applied, [true]);
    let ((), _, remove_frees) = counted(|| drop(before_remove));

    assert!(*web == pristine, "insert then remove restores the web");
    assert_eq!(web.check_invariants(), Ok(()));
    (
        clone_allocs,
        insert_allocs.max(remove_allocs),
        insert_frees.max(remove_frees),
    )
}

#[test]
fn a_list_update_allocates_per_level_and_per_dirty_set() {
    // The `onedim_churn` shape: 85 590 ranges in 5 718 sets over 13 levels.
    let build = || {
        let keys: Vec<u64> = (0..3072).map(|i| i * 2).collect();
        SkipWeb::<SortedLinkedList>::builder(keys).seed(7).build()
    };
    let levels = u64::from(build().top_level()) + 1;
    assert!(build().total_ranges() > 80_000);
    let (clone, apply, drop_old) = update_costs(build, 3001);
    assert!(
        clone <= 8 * levels + 16,
        "clone: {clone} allocations over {levels} levels"
    );
    assert!(
        !APPLY_IS_BARE || apply <= 2_000,
        "apply: {apply} allocations"
    );
    assert!(drop_old <= 2_000, "drop of the old web: {drop_old} frees");
}

#[test]
fn a_trie_update_allocates_per_level_and_per_dirty_item() {
    // The `trie_churn` shape. The items are heap strings, a trie node owns
    // its child lists and a trie range owns its two end strings, so a clone
    // also copies the ground set's `n` strings, and rebuilding and
    // re-linking the dirty sets — level 0 holds every item, level `ℓ` about
    // `n / 2^ℓ` — is `O(n)` allocations that the old web's drop frees a
    // part of. None of it grows with the web's range count the way one
    // table per range did (29 063 / 25 764 / 36 593 before).
    let n = 768u64;
    let build = || {
        let words: Vec<String> = (0..n)
            .map(|i| format!("978{:03}{:06}", i % 48, i * 7919))
            .collect();
        SkipWeb::<CompressedTrie>::builder(words).seed(7).build()
    };
    let levels = u64::from(build().top_level()) + 1;
    assert!(build().total_ranges() > 20_000);
    let (clone, apply, drop_old) = update_costs(build, "978000999999".to_owned());
    assert!(
        clone <= n + 8 * levels + 16,
        "clone: {clone} allocations for {n} items over {levels} levels"
    );
    assert!(
        !APPLY_IS_BARE || apply <= 20 * n,
        "apply: {apply} allocations"
    );
    assert!(drop_old <= 8 * n, "drop of the old web: {drop_old} frees");
}
