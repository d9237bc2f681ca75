//! Allocation budgets of the copy-on-write apply path and of a route.
//!
//! An engine apply clones the web while a published snapshot still holds the
//! previous one, splices the update into the clone, and drops the previous
//! web once its last reader drains. With per-set slot lists, stable slots
//! and derived hyperlinks each of the three steps costs heap traffic
//! proportional to the levels — the clone copies two arrays per level, of
//! 16 bytes per set, and no item or slot list, and a splice rebuilds one
//! set per level — not to the web's total range count; and a route computes
//! the hyperlinks it follows into one buffer per walk. A rebuilt set's items
//! are the exception: a clone shares them, so the splice copies them, which
//! for heap items (a trie's strings) is one allocation per item. The apply
//! stage avoids that copy by refilling a retired web, whose own stale copies
//! of the rebuilt sets donate their items, so a turn there allocates per
//! level again. This file holds them to that with a counting allocator, by
//! allocation and, for the clone, by byte.
//! (The budget counters are per thread; the one test that meters another
//! thread's work counts process wide, so the tests take turns.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use skipwebs::core::engine::{DistributedSkipWeb, Routable};
use skipwebs::core::multidim::QuadtreeRequest;
use skipwebs::core::{SkipWeb, Update};
use skipwebs::net::sim::MessageMeter;
use skipwebs::structures::{
    CompressedQuadtree, CompressedTrie, PointKey, RangeDetermined, Segment, SortedLinkedList,
    TrapezoidalMap,
};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated: the size of every new block, a reallocated one's
    /// whole new size.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Allocations of every thread of the process.
static ALL_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Held by each test for its whole run, so that nothing but the test
/// harness allocates beside the process-wide measurement.
static TURN: Mutex<()> = Mutex::new(());

fn take_turn() -> MutexGuard<'static, ()> {
    TURN.lock().unwrap_or_else(|failed| failed.into_inner())
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>, by: u64) {
    // A thread tearing down its locals still allocates; those are not ours.
    let _ = counter.try_with(|c| c.set(c.get() + by));
}

fn bump_allocs(bytes: usize) {
    bump(&ALLOCS, 1);
    bump(&BYTES, bytes as u64);
    // A statistic nothing synchronizes on.
    ALL_ALLOCS.fetch_add(1, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are plain thread-local cells that
// never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump_allocs(layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&FREES, 1);
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump_allocs(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Whether an apply's allocations are the splices' alone: a debug build
/// follows every apply with the full invariant sweep, which allocates per
/// range.
const APPLY_IS_BARE: bool = !cfg!(debug_assertions);

/// Runs `f` and returns its result with the `(allocations, frees)` this
/// thread made meanwhile.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, f0) = (ALLOCS.get(), FREES.get());
    let out = f();
    (out, ALLOCS.get() - a0, FREES.get() - f0)
}

/// Runs `f` and returns its result with the bytes this thread allocated
/// meanwhile.
fn counted_bytes<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let b0 = BYTES.get();
    let out = f();
    (out, BYTES.get() - b0)
}

/// The `onedim_churn` shape: 3072 even keys, seed 7 — 85 590 ranges in
/// 5 718 sets over 13 levels.
fn list_web() -> SkipWeb<SortedLinkedList> {
    let keys: Vec<u64> = (0..3072).map(|i| i * 2).collect();
    SkipWeb::builder(keys).seed(7).build()
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
    let _turn = take_turn();
    // The `onedim_churn` shape. A splice allocates per level the rebuilt
    // list and slot list, their `Arc` and the structure-table page it
    // copies, and the drop frees those plus the two arrays per level of the
    // clone (measured 28 / 59 / 80; 54 / 72 / 93 while each level kept two
    // arrays of one entry per item beside its sets, 41 / 59 / 67 while each
    // set held its structure's `Arc` itself, 43 / 148 / 69 before slots
    // were stable).
    let levels = u64::from(list_web().top_level()) + 1;
    assert!(list_web().total_ranges() > 80_000);
    let (clone, apply, drop_old) = update_costs(list_web, 3001);
    eprintln!("LIST clone {clone} apply {apply} drop {drop_old} levels {levels}");
    assert!(
        clone <= 8 * levels + 16,
        "clone: {clone} allocations over {levels} levels"
    );
    assert!(
        !APPLY_IS_BARE || apply <= 16 * levels,
        "apply: {apply} allocations over {levels} levels"
    );
    assert!(
        drop_old <= 16 * levels,
        "drop of the old web: {drop_old} frees over {levels} levels"
    );
}

#[test]
fn a_clone_copies_per_set_not_per_item_per_level() {
    let _turn = take_turn();
    // A clone copies the slot table's bit strings (8 B per slot) and every
    // level's sets (16 B each, plus a few of headroom) and page list, and
    // no slot list: those sit in the shared pages (measured 123 768 B;
    // 540 048 B while every level kept two arrays of one entry per item
    // beside its sets).
    let web = list_web();
    let sets: usize = (0..=web.top_level())
        .map(|level| web.level_set_sizes(level).len())
        .sum();
    let (copy, bytes) = counted_bytes(|| web.clone());
    assert!(copy == web, "a clone is equal");
    let budget = 24 * sets + 8 * web.len() + 32 * 1024;
    eprintln!("clone: {bytes} B for {sets} sets and {} slots", web.len());
    assert!(
        bytes <= budget as u64,
        "clone: {bytes} B for {sets} sets and {} slots (budget {budget} B)",
        web.len()
    );
}

/// `n` ISBN-like strings, the `trie_churn` shape.
fn isbns(n: u64) -> Vec<String> {
    (0..n)
        .map(|i| format!("978{:03}{:06}", i % 48, i * 7919))
        .collect()
}

#[test]
fn a_trie_update_allocates_per_level_and_per_dirty_item() {
    let _turn = take_turn();
    // The `trie_churn` shape. The items are heap strings, so splicing one
    // item into the sets of its tower — level 0 holds every item, level `ℓ`
    // about `n / 2^ℓ` — clones about `2n` strings, which the old web's drop
    // frees; a trie itself is a fixed handful of blocks (its nodes name
    // their children in one shared table). The clone copies no string: the
    // ground is level 0's structure, shared like every other (measured 24 /
    // 1 654 / 1 672; 46 / 1 670 / 1 683 while each level kept two arrays of
    // one entry per item, 46 / 3 344 / 3 034 while every trie node owned two
    // child lists, 805 / 3 397 / 3 783 while the web kept its own ground
    // array). None of it grows with the web's range count the way one table
    // per range did (29 063 / 25 764 / 36 593 once), and no range is
    // materialized to re-link a set (805 / 12 587 / 3 845 with stored
    // hyperlinks).
    let n = 768u64;
    let build = || SkipWeb::<CompressedTrie>::builder(isbns(n)).seed(7).build();
    let levels = u64::from(build().top_level()) + 1;
    assert!(build().total_ranges() > 20_000);
    let (clone, apply, drop_old) = update_costs(build, "978000999999".to_owned());
    eprintln!("TRIE clone {clone} apply {apply} drop {drop_old} levels {levels}");
    assert!(
        clone <= 4 * levels + 16,
        "clone: {clone} allocations over {levels} levels"
    );
    assert!(
        !APPLY_IS_BARE || apply <= 3 * n,
        "apply: {apply} allocations for {n} items"
    );
    assert!(
        drop_old <= 3 * n,
        "drop of the old web: {drop_old} frees for {n} items"
    );
}

#[test]
fn a_trie_turn_on_a_refilled_spare_allocates_per_level() {
    let _turn = take_turn();
    // The `trie_churn` shape, as the engine's apply stage runs a turn. The
    // turn before inserted an item into a copy of the web, which stays
    // published; the web it copied has drained, is refilled from it, and
    // takes the item's remove. The refilled web's own structures of the
    // sets the remove rebuilds are a turn stale and no one else holds them,
    // so the refill keeps them as donors, and each rebuild moves its items
    // out of its donor instead of cloning about `2n` strings: what is left
    // is the sets' rebuilds, a fixed handful of blocks per level (measured
    // 109 over 11 levels; 1 654 while every rebuilt set cloned its items).
    let n = 768u64;
    let build = || SkipWeb::<CompressedTrie>::builder(isbns(n)).seed(7).build();
    let levels = u64::from(build().top_level()) + 1;
    let fresh = "978000999999".to_owned();
    let mut retired = build();
    let mut current = retired.clone();
    assert_eq!(
        current.apply_insert_batch(vec![(fresh.clone(), 0x5EED_B175)]),
        [true]
    );
    let ops = vec![Update::Remove { item: fresh }];
    let ((donated, applied, left), allocs, _) = counted(|| {
        let mut donors = retired.refill_from(&current, &ops);
        let donated = donors.len();
        let applied = retired.apply_with(ops, &mut donors);
        (donated, applied, donors)
    });
    assert_eq!(applied, [true]);
    // The insert made the tower's top set, which the retired web lacks.
    assert_eq!(donated as u64, levels - 1, "a donor for every older set");
    assert!(left.is_empty(), "every rebuild took its donor");
    assert!(retired == build(), "insert then remove restores the web");
    eprintln!("TRIE donor turn: {allocs} allocations over {levels} levels");
    assert!(
        !APPLY_IS_BARE || allocs <= 16 * levels + 16,
        "refill + apply: {allocs} allocations over {levels} levels"
    );
}

/// What refilling a retired web costs the allocator, as the engine's apply
/// stage does before its copy-on-write: `retired` is a copy of the web
/// `build` makes from before an insert of `fresh` (and then from before
/// its remove), and `retired.clone_from(&web)` must equal a clone and share
/// every structure page with `web`. Returns the worse refill's allocations.
fn refill_allocs<D>(build: impl Fn() -> SkipWeb<D>, fresh: D::Item) -> u64
where
    D: RangeDetermined + PartialEq,
{
    let mut web = build();
    let mut retired = web.clone();
    let mut refill = |web: &SkipWeb<D>| {
        let ((), allocs, _) = counted(|| retired.clone_from(web));
        assert!(retired == web.clone(), "a refill is a clone");
        assert!(retired.shares_structures_with(web), "a refill shares pages");
        allocs
    };
    assert_eq!(
        web.apply_insert_batch(vec![(fresh.clone(), 0x5EED_B175)]),
        [true]
    );
    let grown = refill(&web);
    assert_eq!(web.apply_remove_batch(&[fresh]), [true]);
    grown.max(refill(&web))
}

#[test]
fn refilling_a_retired_web_allocates_at_most_one_block_per_level() {
    let _turn = take_turn();
    // The `onedim_churn` and `trie_churn` shapes. A refill copies into the
    // retired web's own arrays, which kept their headroom, and bumps one
    // count per page, so a web one update away costs no allocation unless
    // an array outgrew that headroom — at most one block per level
    // (measured 0 for both; 27 and 23 while a refill demanded the whole
    // headroom back).
    let trie = || {
        SkipWeb::<CompressedTrie>::builder(isbns(768))
            .seed(7)
            .build()
    };
    for (name, levels, allocs) in [
        (
            "list",
            u64::from(list_web().top_level()) + 1,
            refill_allocs(list_web, 3001),
        ),
        (
            "trie",
            u64::from(trie().top_level()) + 1,
            refill_allocs(trie, "978000999999".to_owned()),
        ),
    ] {
        eprintln!("{name} refill: {allocs} allocations over {levels} levels");
        assert!(
            allocs <= levels,
            "{name} refill: {allocs} allocations over {levels} levels"
        );
    }
}

/// The allocations `D::build` makes over `items`.
fn build_allocs<D: RangeDetermined>(items: Vec<D::Item>) -> u64 {
    let (built, allocs, _) = counted(|| D::build(items));
    drop(built);
    allocs
}

/// `n` scattered 2-D points, distinct for `n < 2^32`.
fn points(n: u32) -> Vec<PointKey<2>> {
    (0..n)
        .map(|i| PointKey::new([i.wrapping_mul(0x9E37_79B9), i.wrapping_mul(0x85EB_CA6B)]))
        .collect()
}

#[test]
fn a_structure_build_allocates_a_constant_number_of_blocks() {
    let _turn = take_turn();
    // The trees keep their nodes as plain records and every node's children
    // in one shared table, and the trapezoid map its adjacency likewise and
    // its sweep's buffers once, so a build allocates a fixed handful of
    // blocks whatever its size (measured 4 for the trie, 6 for the
    // quadtree, 10 for the map; two per internal node while each node owned
    // its child lists).
    // Stacked bands over interleaved spans: distinct endpoint x's, no two
    // segments touching, and up to `n` segments spanning one slab.
    let segments = |n: i64| -> Vec<Segment> {
        (0..n)
            .map(|i| Segment::new((2 * i, 100 * i), (2 * (n + i) + 1, 100 * i + 7)))
            .collect()
    };
    for (name, small, large, most) in [
        (
            "trie",
            build_allocs::<CompressedTrie>(isbns(64)),
            build_allocs::<CompressedTrie>(isbns(4096)),
            6,
        ),
        (
            "quadtree",
            build_allocs::<CompressedQuadtree<2>>(points(64)),
            build_allocs::<CompressedQuadtree<2>>(points(4096)),
            6,
        ),
        (
            "trapezoid map",
            build_allocs::<TrapezoidalMap>(segments(32)),
            build_allocs::<TrapezoidalMap>(segments(128)),
            12,
        ),
    ] {
        eprintln!("{name} build: {small} / {large} allocations");
        assert_eq!(small, large, "{name}: a build's allocations grow with n");
        assert!(large <= most, "{name}: {large} allocations per build");
    }
}

/// A 1-D web of `n` keys, its level count, and how many allocations one
/// simulator query and one engine query make on it. The engine is a single
/// host, so a query is one `route_step` walk through every level; its
/// allocations happen on the host's thread, so they are counted process
/// wide, as the minimum over rounds of identical queries (whatever the test
/// harness allocates meanwhile only adds).
fn query_costs(n: u64) -> (u64, u64, u64) {
    let keys: Vec<u64> = (0..n).map(|i| i * 2).collect();
    let web = SkipWeb::<SortedLinkedList>::builder(keys).seed(7).build();
    let (origin, q) = (web.random_origin(3), n + 1);
    let simulated = (0..4)
        .map(|_| counted(|| web.query(origin, &q, &mut MessageMeter::new())).1)
        .min();
    let dist = DistributedSkipWeb::builder(&web).consolidated(1).spawn();
    let client = dist.client();
    let routed = (0..16)
        .map(|_| {
            let before = ALL_ALLOCS.load(Ordering::Relaxed);
            dist.query(&client, origin, q).expect("one host, alive");
            ALL_ALLOCS.load(Ordering::Relaxed) - before
        })
        .min();
    dist.shutdown();
    let levels = u64::from(web.top_level()) + 1;
    (levels, simulated.unwrap_or(0), routed.unwrap_or(0))
}

#[test]
fn a_level_descent_allocates_nothing() {
    let _turn = take_turn();
    // Hyperlinks are computed where a route reads them, into the walk's one
    // buffer (which grows to the longest list it meets: a few doublings).
    const BUFFER: u64 = 4;
    let (shallow_levels, _, shallow) = query_costs(16);
    let (levels, simulated, routed) = query_costs(4096);
    assert!(levels >= shallow_levels + 8);
    // The simulator's walk (measured: 23 over 13 levels): one search path —
    // a list — per level, the per-level touch counts, and three buffers
    // that grow as they fill: the hyperlinks and the meter's two host lists.
    assert!(
        simulated <= levels + 1 + 3 * BUFFER,
        "SkipWeb::query: {simulated} allocations over {levels} levels"
    );
    // The engine steps range by range without a path, so eight more levels
    // cost a query nothing but the buffer's growth.
    assert!(
        routed <= shallow + BUFFER,
        "route_step: {routed} allocations over {levels} levels, {shallow} over {shallow_levels}"
    );
    // A trie walk materializes one range per level — the locus whose
    // conflict list it descends through owns its end string — and picks
    // its entry from the table without building any (measured: 24 over 13
    // levels; 218 while `best_entry` built two ranges per candidate).
    let web = SkipWeb::<CompressedTrie>::builder(isbns(4096))
        .seed(7)
        .build();
    let (origin, q) = (web.random_origin(3), "978017000042".to_owned());
    let trie = (0..4)
        .map(|_| counted(|| web.query(origin, &q, &mut MessageMeter::new())).1)
        .min()
        .unwrap_or(0);
    let levels = u64::from(web.top_level()) + 1;
    assert!(
        trie <= levels + 1 + 3 * BUFFER,
        "trie SkipWeb::query: {trie} allocations over {levels} levels"
    );
    // A quadtree walk encodes its query point once per hook and tests cells
    // by code, and its ranges are plain cells: it allocates what the list's
    // walk does (measured: 8 over 13 levels, before and after the query
    // was encoded once).
    let web = SkipWeb::<CompressedQuadtree<2>>::builder(points(4096))
        .seed(7)
        .build();
    let (origin, q) = (
        web.random_origin(3),
        PointKey::new([0x1234_5678, 0x0BAD_CAFE]),
    );
    let quadtree = (0..4)
        .map(|_| counted(|| web.query(origin, &q, &mut MessageMeter::new())).1)
        .min()
        .unwrap_or(0);
    let levels = u64::from(web.top_level()) + 1;
    assert!(
        quadtree <= levels + 1 + 3 * BUFFER,
        "quadtree SkipWeb::query: {quadtree} allocations over {levels} levels"
    );
}

#[test]
fn a_box_report_allocates_per_doubling_not_per_node() {
    let _turn = take_turn();
    // A box report at its locus: ascend to the cell covering the box, then a
    // pruned walk of that subtree reading each node's children in place.
    // What it allocates is the growth of three lists — the nodes visited,
    // the walk's stack and the points found — and the sort's key table, so
    // the count rises by a few blocks each time the visited nodes double,
    // however many nodes that is (measured 5 / 18 / 29 allocations over
    // 20 / 139 / 6 901 touched ranges; 36 / 286 / 13 822 while each visited
    // node built two neighbour lists).
    let qt = CompressedQuadtree::<2>::build(points(4096));
    let centre = 0x8000_0000u32;
    for half in [1u32 << 26, 1 << 28, u32::MAX / 2] {
        let req = QuadtreeRequest::InBox {
            lo: [centre - half, centre - half],
            hi: [centre.saturating_add(half), centre.saturating_add(half)],
        };
        let locus = qt.locate(&CompressedQuadtree::target(&req));
        let mut touched = 0u64;
        let (_, allocs, _) = counted(|| qt.answer(locus, &req, |_| touched += 1));
        let doublings = u64::from(touched.max(1).ilog2()) + 1;
        eprintln!("box ±{half:#x}: {allocs} allocations over {touched} touched ranges");
        assert!(
            allocs <= 3 * doublings + 2,
            "box report: {allocs} allocations over {touched} touched ranges"
        );
    }
}
