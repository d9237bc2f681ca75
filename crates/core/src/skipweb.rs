//! The skip-web structure: levels, hyperlinks, placement, queries (§2.3–2.5)
//! and updates (§4), generic over any range-determined link structure.
//!
//! # Layout
//!
//! A web is a short list of `Level`s over a **slot table**, and each level
//! is a key-sorted array of plain-data sets over a paged table of what each
//! set owns — nothing is one heap block per range:
//!
//! * every stored item keeps one *slot* for its lifetime: its index into the
//!   per-slot bit strings (`item_bits`), the entry its sets list it by, and
//!   — under owner-hosted placement — its host, `HostId(slot)`. A removed
//!   item's slot goes on a free list; an insert takes the lowest free slot,
//!   or a new one at the end of the table; free slots at the end are
//!   truncated, so an insert followed by its remove restores the web byte
//!   for byte. Nothing is keyed by canonical position, so an update
//!   renumbers nothing and moves no other item's ranges;
//! * each set owns its **slot list**: the slots of its items, in its
//!   structure's item order (structure item `i` is the item in slot
//!   `slots[i]`). A slot is found in its level-`ℓ` set by key: the set keyed
//!   by the slot's `ℓ`-bit prefix (`set_key`). The sets are key-sorted, so
//!   that is a binary search, over a window one set wide on the levels that
//!   take every key — which is also how a set finds its parent one level
//!   down (`parent_key`);
//! * the ground is level 0's items: level 0 is the one set of every stored
//!   item, so its structure's `items()` *is* the canonical ground order and
//!   its slot list maps a canonical position to a slot. That is how
//!   [`SkipWeb::ground`], `SkipWeb::bits_of`, query origins and
//!   [`SkipWeb::host_of_item`] take positions while everything else keys by
//!   slot — a web that was never updated has slot `i` at position `i`;
//! * a level's sets' structures and slot lists sit together in a
//!   **structure table** under stable ids, with the slot table's policy
//!   (lowest free id first, free ids at the end truncated), `PAGE` (16) to a
//!   page and each page behind an `Arc`. A `LevelSet` names its entry by id,
//!   so it is 16 bytes of plain data: key and entry id;
//! * hyperlinks are not stored: a range's links into the parent set are its
//!   conflict list `C(Q, S_b')` there (§2.3), a pure function of the two
//!   structures (§2.1), which `SkipWeb::hyperlinks` computes where a route,
//!   the accounting or the bucketed placement reads it. An update therefore
//!   has no link stage: rebuilding a set re-links nothing, neither the set
//!   nor the children whose links index the rebuilt structure's ids;
//! * owner-hosted placement is not stored either: a range lives on its owner
//!   item's host (§2.4), which `SkipWeb::copies` reads off the set's slot
//!   list. Bucketed placement keeps one table for the whole web behind one
//!   `Arc`, each range's unreplicated row of hosts (`placement::HostTable`),
//!   recomputed whenever the web changes. Replicas are derived in both
//!   cases: `placement::Copies` extends a range's base list — owner host or
//!   row — along the ring of host ids to `k` hosts.
//!
//! An update splices its item into — or out of — the one set per level its
//! tower names, and nothing else: the set's items and slot list gain or lose
//! the item, at `O(set)` cost, and the set's structure becomes `D::build` of
//! its new items (once per batch, however many of the batch's items it gains
//! or loses), filed with the new slot list under the set's id. A set the
//! update creates takes the lowest free id; one it empties frees its id.
//! Every other set is left as it was, and no other set is renumbered.
//!
//! A clone of the web — the copy-on-write an engine apply forces while a
//! published snapshot still holds the previous web — therefore copies the
//! slot table (`item_bits` and the free list) and, per level, the sets (16
//! bytes each, with room for a few splices) and the page list, and bumps one
//! reference count per structure page (and, under bucketed placement, one
//! for the host table); it copies no item, no slot list and touches no
//! structure.
//! A one-op apply then copies about one page per level — the page of the
//! set its tower rebuilds — and dropping the previous web frees those
//! arrays and pages plus the structures and slot lists the splices replaced.
//!
//! The set a splice rebuilds starts from a copy of its items, and the items
//! are what a copy costs when they own heap memory (a trie's strings). So
//! the copy is made only where the items are shared: a set whose entry no
//! other web holds moves its items out of it; a shared set clones them,
//! except those it can move out of a *donor* — a stale copy of the same set
//! that no one else holds. The engine's apply stage refills a retired web
//! rather than cloning afresh, and before the refill it takes that web's own
//! structures of the sets the turn rebuilds as donors
//! ([`SkipWeb::refill_from`]): they are a turn or two behind, so a rebuild
//! moves nearly every item and clones only the few the set gained since.

use std::collections::BTreeMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use skipweb_net::sim::{MessageMeter, SimNetwork};
use skipweb_net::HostId;
use skipweb_structures::traits::{RangeDetermined, RangeId};

use crate::engine::Routable;
use crate::levels::{draw_bits, group_by_key, level_count, parent_key, set_key};
use crate::placement::{Blocking, Copies, HostTable, Replication};

/// One level-`ℓ` set `S_b`: its key and the id of its entry — structure
/// `D(S_b)` and slot list — in its level's structure table
/// ([`Level::structure`], [`Level::slots_of`]). Its hyperlinks into the
/// parent set are derived ([`SkipWeb::hyperlinks`]), and so are its ranges'
/// hosts under owner-hosted placement ([`SkipWeb::copies`]). What a route
/// reads and nothing more, as plain data: a clone of a level copies its
/// sets as one block.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LevelSet {
    /// The `ℓ`-bit key `b` of this set.
    pub key: u64,
    /// The id of its entry in the level's structure table.
    id: u32,
}

// A clone copies every level's sets: keep them to key and id.
const _: () = assert!(std::mem::size_of::<LevelSet>() <= 16);

/// What a structure table files under a set's id: the set's structure
/// `D(S_b)` and the slots of its items, in the structure's item order —
/// structure item `i` is the item in slot `slots[i]`. Replaced whole when a
/// splice rebuilds the set, never edited in place.
#[derive(Debug, PartialEq)]
struct SetBody<D> {
    structure: D,
    slots: Vec<u32>,
}

/// Room for this many splices past a cloned array's length, so the first
/// inserts after a copy-on-write clone do not reallocate it.
const SPLICE_HEADROOM: usize = 16;

/// A copy of `items` with capacity for `room` more.
fn with_room<T: Clone>(items: &[T], room: usize) -> Vec<T> {
    let mut copy = Vec::with_capacity(items.len() + room);
    copy.extend_from_slice(items);
    copy
}

/// Overwrites `copy` with `items` in its own buffer. The buffer grows only
/// when it has no room for a splice past them, and then to
/// [`SPLICE_HEADROOM`] past them: a buffer refilled from a web one update
/// away keeps the headroom it has.
fn refill_with_headroom<T: Clone>(copy: &mut Vec<T>, items: &[T]) {
    copy.clear();
    if copy.capacity() <= items.len() {
        copy.reserve_exact(items.len() + SPLICE_HEADROOM);
    }
    copy.extend_from_slice(items);
}

/// Stable ids, the one policy behind the slot table and every level's
/// structure table: a released id goes on a free list, the lowest free id
/// is taken first, and free ids at the end are truncated — so taking an id
/// and releasing it again restores the table exactly.
#[derive(Debug, Default, PartialEq)]
struct Ids {
    /// One past the highest id in use: the table's length.
    end: u32,
    /// The free ids below `end`, strictly descending, so the lowest is last.
    free: Vec<u32>,
}

/// `clone_from` refills the free list's buffer.
impl Clone for Ids {
    fn clone(&self) -> Self {
        Ids {
            end: self.end,
            free: self.free.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.end = source.end;
        self.free.clone_from(&source.free);
    }
}

impl Ids {
    /// The lowest free id, or a new one at the end.
    fn take(&mut self) -> u32 {
        self.free.pop().unwrap_or_else(|| {
            self.end += 1;
            self.end - 1
        })
    }

    /// Frees `id`: onto the free list, or — at the end — off the table,
    /// together with the free ids just below it.
    fn release(&mut self, id: u32) {
        if id + 1 < self.end {
            let at = self.free.partition_point(|&f| f > id);
            self.free.insert(at, id);
            return;
        }
        self.end = id;
        while self.end > 0 && self.free.first() == Some(&(self.end - 1)) {
            self.free.remove(0);
            self.end -= 1;
        }
    }

    /// Whether `id` is in use: below the end and not free.
    fn is_live(&self, id: u32) -> bool {
        id < self.end && self.free.binary_search_by(|f| id.cmp(f)).is_err()
    }

    /// The free list's shape: strictly descending, below the last id.
    fn check(&self, what: &str) -> Result<(), String> {
        if self.free.windows(2).any(|w| w[0] <= w[1]) {
            return Err(format!(
                "{what} free list {:?} not strictly descending",
                self.free
            ));
        }
        if self.free.first().is_some_and(|&f| f + 1 >= self.end) {
            return Err(format!(
                "{what} free list {:?} reaches the table's end ({})",
                self.free, self.end
            ));
        }
        Ok(())
    }
}

/// Structures per page of a level's structure table. A clone bumps one
/// reference count per page and a one-set rebuild copies one page (one
/// count per structure on it), so the page size trades the first against
/// the second. Clone + one-op apply + drop of a 3072-key 1-D web on a
/// 2-core VM: 49–52 µs with pages of 8, 46–48 with 16, 42–49 with 32 — 16
/// and 32 tie inside the noise, and 16 copies half as much per rebuild.
const PAGE: usize = 16;

/// One page of a structure table: the entries of [`PAGE`] consecutive ids,
/// `None` for a free id.
type Page<D> = [Option<Arc<SetBody<D>>>; PAGE];

/// A level's structure table: each set's structure `D(S_b)` and slot list
/// ([`SetBody`]) under the set's stable id ([`Ids`]), in pages behind
/// `Arc`s. A clone of the table bumps one count per page, not one per set;
/// replacing an entry copies its page on write, sharing the page's other
/// entries.
#[derive(Debug)]
struct Structures<D> {
    pages: Vec<Arc<Page<D>>>,
    ids: Ids,
}

/// `clone_from` refills the page list's buffer, sharing the source's pages.
impl<D> Clone for Structures<D> {
    fn clone(&self) -> Self {
        Structures {
            pages: self.pages.clone(),
            ids: self.ids.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.pages.clone_from(&source.pages);
        self.ids.clone_from(&source.ids);
    }
}

impl<D> Structures<D> {
    fn new() -> Self {
        Structures {
            pages: Vec::new(),
            ids: Ids::default(),
        }
    }

    /// The entry under live id `id`.
    fn get(&self, id: u32) -> &Arc<SetBody<D>> {
        match &self.pages[id as usize / PAGE][id as usize % PAGE] {
            Some(body) => body,
            None => unreachable!("structure id {id} is free"),
        }
    }

    /// Takes the entry under live id `id` out of the table when no one else
    /// holds it — neither its page nor the entry is shared — and leaves the
    /// id empty: the caller files a new entry under it, or drops the table.
    fn take_unique(&mut self, id: u32) -> Option<SetBody<D>> {
        let page = Arc::get_mut(&mut self.pages[id as usize / PAGE])?;
        let entry = &mut page[id as usize % PAGE];
        Arc::get_mut(entry.as_mut()?)?;
        Arc::into_inner(entry.take()?)
    }

    /// Puts `body` under `id`, copying its page if a clone shares it.
    fn put(&mut self, id: u32, body: Option<Arc<SetBody<D>>>) {
        Arc::make_mut(&mut self.pages[id as usize / PAGE])[id as usize % PAGE] = body;
    }

    /// Files `body` under the lowest free id and returns the id.
    fn add(&mut self, body: SetBody<D>) -> u32 {
        let id = self.ids.take();
        if id as usize == self.pages.len() * PAGE {
            self.pages.push(Arc::new(std::array::from_fn(|_| None)));
        }
        self.put(id, Some(Arc::new(body)));
        id
    }

    /// Frees `id`, and the pages past the table's new end.
    fn remove(&mut self, id: u32) {
        self.put(id, None);
        self.ids.release(id);
        self.pages.truncate((self.ids.end as usize).div_ceil(PAGE));
    }

    /// The table against `sets`, the sets naming it: each names a live id
    /// no other set names, the free list is strictly descending below the
    /// end, every id below the end is named or free, exactly the named ids
    /// hold a structure, and the pages end with the ids.
    fn check(&self, sets: &[LevelSet]) -> Result<(), String> {
        self.ids.check("structure id")?;
        let end = self.ids.end as usize;
        let mut named = vec![false; end];
        for (si, set) in sets.iter().enumerate() {
            if !self.ids.is_live(set.id) {
                return Err(format!("set {si} names free structure id {}", set.id));
            }
            if std::mem::replace(&mut named[set.id as usize], true) {
                return Err(format!("set {si} names structure id {} twice", set.id));
            }
        }
        if sets.len() + self.ids.free.len() != end {
            return Err(format!(
                "{} sets and {} free ids in a {end}-id structure table",
                sets.len(),
                self.ids.free.len()
            ));
        }
        if self.pages.len() != end.div_ceil(PAGE) {
            return Err(format!(
                "{} pages for {end} structure ids",
                self.pages.len()
            ));
        }
        let filled = self.pages.iter().flat_map(|page| page.iter());
        match (0..)
            .zip(filled)
            .find(|(id, s)| s.is_some() != (*id < end && named[*id]))
        {
            Some((id, _)) => Err(format!("structure id {id}: filled and named disagree")),
            None => Ok(()),
        }
    }
}

/// All sets of one level.
#[derive(Debug)]
pub(crate) struct Level<D: RangeDetermined> {
    /// The level's sets, strictly ascending by key.
    pub sets: Vec<LevelSet>,
    /// The sets' structures and slot lists, by id.
    structures: Structures<D>,
}

/// Copies the sets with room for a few splices — the apply that follows a
/// copy-on-write clone may insert into them, and an exact-capacity copy
/// would reallocate on its first insert — and shares the structure table's
/// pages. `clone_from` does the same into the level's own buffers,
/// allocating only for sets that outgrew their headroom.
impl<D: RangeDetermined> Clone for Level<D> {
    fn clone(&self) -> Self {
        Level {
            sets: with_room(&self.sets, SPLICE_HEADROOM),
            structures: self.structures.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        refill_with_headroom(&mut self.sets, &source.sets);
        self.structures.clone_from(&source.structures);
    }
}

/// Two levels are equal when their sets agree in key, structure and slot
/// list — compared through the ids, not as ids: a spliced level and a
/// rebuilt one file the same entries differently.
impl<D: RangeDetermined + PartialEq> PartialEq for Level<D> {
    fn eq(&self, other: &Self) -> bool {
        let same = |(a, b): (&LevelSet, &LevelSet)| {
            a.key == b.key && self.structures.get(a.id) == other.structures.get(b.id)
        };
        self.sets.len() == other.sets.len() && self.sets.iter().zip(&other.sets).all(same)
    }
}

impl<D: RangeDetermined> Level<D> {
    /// The structure `D(S_b)` of `set`, one of this level's sets.
    pub(crate) fn structure(&self, set: &LevelSet) -> &D {
        &self.structures.get(set.id).structure
    }

    /// The slots of `set`'s items, in its structure's item order.
    pub(crate) fn slots_of(&self, set: &LevelSet) -> &[u32] {
        &self.structures.get(set.id).slots
    }

    /// Index of the set keyed `key`, when the level has one. The keys are
    /// distinct and ascending, so at most `key` sets come before it, and at
    /// least `key` less the keys up to the largest that no set takes: the
    /// binary search runs in that window, which is one set wide on the lower
    /// levels, where every key is taken.
    pub(crate) fn set_index(&self, key: u64) -> Option<usize> {
        let last = self.sets.last()?.key;
        if key > last {
            return None;
        }
        let untaken = last - (self.sets.len() as u64 - 1);
        let (lo, hi) = (key.saturating_sub(untaken) as usize, key as usize);
        let window = &self.sets[lo..=hi.min(self.sets.len() - 1)];
        let found = window.binary_search_by_key(&key, |s| s.key).ok()?;
        Some(lo + found)
    }

    /// Appends a freshly built set — `slots` in its structure's item order.
    fn push_built(&mut self, key: u64, structure: D, slots: Vec<u32>) {
        debug_assert_eq!(structure.len(), slots.len());
        let id = self.structures.add(SetBody { structure, slots });
        self.sets.push(LevelSet { key, id });
    }

    /// A batch's draft of the set keyed `key` at level `li`: on the batch's
    /// first splice into the set, its items and slots, with room for the
    /// batch's `inserts` — empty for a set the level does not have yet. The
    /// room makes the set's new entry exact for a one-op batch.
    ///
    /// The items come from the first of: the set's own entry, moved out when
    /// no one else holds it (its id stays empty until [`commit`](Self::commit));
    /// the set's donor, a stale copy no one else holds, which the current
    /// items are moved out of where it has them ([`adopt`]); a clone of the
    /// current items. The slots are moved with the own entry and copied
    /// otherwise.
    fn draft<'p>(
        &mut self,
        (li, key): (u32, u64),
        inserts: usize,
        drafts: &'p mut Drafts<D>,
        donors: &mut Donors<D>,
    ) -> &'p mut Draft<D> {
        drafts.entry((li, key)).or_insert_with(|| {
            let Some(si) = self.set_index(key) else {
                return Draft {
                    items: Vec::new(),
                    slots: Vec::new(),
                };
            };
            let id = self.sets[si].id;
            if let Some(own) = self.structures.take_unique(id) {
                let (mut items, mut slots) = (own.structure.into_items(), own.slots);
                items.reserve_exact(inserts);
                slots.reserve_exact(inserts);
                return Draft { items, slots };
            }
            let body = self.structures.get(id);
            let items = match donors.0.remove(&(li, key)) {
                Some(donor) => adopt::<D>(body.structure.items(), donor.into_items(), inserts),
                None => with_room(body.structure.items(), inserts),
            };
            Draft {
                items,
                slots: with_room(&body.slots, inserts),
            }
        })
    }

    /// Files the finished `draft` of the set keyed `key`: a kept set's
    /// structure becomes `D::build` of the draft's items, filed with its
    /// slots under the set's id; a new set takes the lowest free id; a set
    /// the batch emptied is dropped, freeing its id, unless `keep_empty`
    /// (level 0 is the ground set, empty or not).
    fn commit(&mut self, key: u64, draft: Draft<D>, keep_empty: bool) {
        let found = self.sets.binary_search_by_key(&key, |s| s.key);
        if draft.slots.is_empty() && !keep_empty {
            if let Ok(si) = found {
                let emptied = self.sets.remove(si);
                self.structures.remove(emptied.id);
            }
            return;
        }
        let body = SetBody {
            structure: D::build(draft.items),
            slots: draft.slots,
        };
        match found {
            Ok(si) => self.structures.put(self.sets[si].id, Some(Arc::new(body))),
            Err(si) => {
                let id = self.structures.add(body);
                self.sets.insert(si, LevelSet { key, id });
            }
        }
    }
}

/// A batch's working copy of one set it splices: the set's items and their
/// slots, both in canonical order. The set's entry is built from it once,
/// when the batch's ops are all in ([`Level::commit`]).
struct Draft<D: RangeDetermined> {
    items: Vec<D::Item>,
    slots: Vec<u32>,
}

impl<D: RangeDetermined> Draft<D> {
    /// Splices `item`, stored in `slot`, in at its canonical place.
    fn splice_in(&mut self, item: &D::Item, slot: u32) {
        let Err(at) = self.items.binary_search_by(|g| D::canonical_cmp(g, item)) else {
            unreachable!("an insert splices in an absent item");
        };
        self.items.insert(at, item.clone());
        self.slots.insert(at, slot);
    }

    /// Splices `item`, stored in `slot`, out: the inverse of
    /// [`splice_in`](Self::splice_in).
    fn splice_out(&mut self, item: &D::Item, slot: u32) {
        let Ok(at) = self.items.binary_search_by(|g| D::canonical_cmp(g, item)) else {
            unreachable!("a stored item sits in its set at every level");
        };
        debug_assert_eq!(self.slots[at], slot, "the set holds the item's slot");
        self.items.remove(at);
        self.slots.remove(at);
    }
}

/// The drafts of every set a batch splices, by `(level, key)`.
type Drafts<D> = BTreeMap<(u32, u64), Draft<D>>;

/// A copy of `items`, with room for `room` more, that moves each item out of
/// `donor` — a stale copy of the same set's items, in the same canonical
/// order — where the donor has it and clones the rest. One walk of both
/// lists: equal items move, items the donor lacks are cloned, and items only
/// the donor has are dropped.
fn adopt<D: RangeDetermined>(items: &[D::Item], donor: Vec<D::Item>, room: usize) -> Vec<D::Item> {
    let mut copy = Vec::with_capacity(items.len() + room);
    let mut donor = donor.into_iter().peekable();
    for item in items {
        let moved = loop {
            match donor.peek().map(|d| D::canonical_cmp(d, item)) {
                Some(std::cmp::Ordering::Less) => drop(donor.next()),
                Some(std::cmp::Ordering::Equal) => break donor.next(),
                _ => break None,
            }
        };
        copy.push(moved.unwrap_or_else(|| item.clone()));
    }
    copy
}

/// Set items an apply may move instead of cloning: the structures of sets,
/// by `(level, key)`, taken from a retired web that no one else holds
/// before it is refilled ([`SkipWeb::refill_from`]). A rebuild of the set
/// with the same `(level, key)` moves the items it shares with the donor
/// out of it ([`SkipWeb::apply_with`]); what no rebuild takes is dropped
/// with the map.
pub struct Donors<D: RangeDetermined>(BTreeMap<(u32, u64), D>);

impl<D: RangeDetermined> Default for Donors<D> {
    fn default() -> Self {
        Donors(BTreeMap::new())
    }
}

impl<D: RangeDetermined> Donors<D> {
    /// How many sets donate items.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no set donates items.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// A batch of `n / this` ops or more is rebuilt whole rather than spliced:
/// by then it touches most sets of the lower levels, and splicing each op
/// into level 0's draft — an `O(n)` shift per op — costs more than building
/// every level once. Measured with `repro rebuild`: splicing wins at 64 ops
/// for every structure and `n` from 1024 to 4096, and loses at 512 ops
/// (n / 2 to n / 9) by 10–50 %.
const INCREMENTAL_DIRTY_FACTOR: usize = 10;

/// One structural change to a skip-web — the only form an update takes, from
/// a client's call ([`DistributedSkipWeb::update_batch`]) through the wire
/// and the durability log down to [`SkipWeb::apply`]. §4 of the paper
/// treats insertion and deletion as one bottom-up repair of the same
/// conflict neighbourhoods; so does every layer here.
///
/// [`DistributedSkipWeb::update_batch`]: crate::engine::DistributedSkipWeb::update_batch
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Update<I> {
    /// Store `item`, at the levels its bit string selects. A no-op
    /// (`applied == false`) when the item is already stored.
    Insert {
        /// The item to store.
        item: I,
        /// The item's level membership bit string (§2.3): at level `ℓ` it
        /// joins the set keyed by the low `ℓ` bits.
        bits: u64,
    },
    /// Delete `item`. A no-op when it is not stored.
    Remove {
        /// The item to delete.
        item: I,
    },
}

impl<I> Update<I> {
    /// The item this update stores or deletes.
    pub fn item(&self) -> &I {
        match self {
            Update::Insert { item, .. } | Update::Remove { item } => item,
        }
    }

    /// Whether this is an [`Insert`](Update::Insert).
    pub fn is_insert(&self) -> bool {
        matches!(self, Update::Insert { .. })
    }
}

/// Result of a skip-web query descent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryOutcome {
    /// The maximal level-0 range containing the query — the answer locus.
    pub locus: RangeId,
    /// Messages spent by this query (also recorded in the meter).
    pub messages: u64,
    /// Ranges touched per level (top level first) — the per-level work that
    /// the set-halving lemmas bound by `O(1)`.
    pub per_level_touches: Vec<u32>,
}

/// A distributed skip-web over structure `D` (§2).
///
/// Build one with [`SkipWeb::builder`]; route queries with
/// [`SkipWeb::query`] and answer them with [`SkipWeb::ask`] — the same
/// [`Routable::answer`] the engine replies with; apply updates with
/// [`SkipWeb::insert`] / [`SkipWeb::remove`]. [`Web<D>`](crate::web::Web)
/// wraps one with the conveniences every structure shares; its aliases in
/// [`crate::onedim`] and [`crate::multidim`] add typed answers.
#[derive(Debug)]
pub struct SkipWeb<D: RangeDetermined> {
    /// Per slot: the level bit string of the item stored there (0 for a
    /// free slot). Its length is the slot table's.
    item_bits: Vec<u64>,
    /// The slot table's ids: its end and its free slots.
    slots: Ids,
    levels: Vec<Level<D>>,
    /// Under bucketed placement, every range's unreplicated hosts
    /// ([`HostTable::bucketed`] of the levels); `None` under owner-hosted
    /// placement, which is derived from the sets ([`copies`](Self::copies)).
    host_table: Option<Arc<HostTable>>,
    hosts: usize,
    blocking: Blocking,
    replication: Replication,
    /// Draws query origins and towers for [`insert`](Self::insert) and
    /// [`remove`](Self::remove); a fabric serving the web starts its own
    /// draws from a copy of it.
    pub(crate) rng: StdRng,
}

/// Copies the slot table with room for a few new slots, like a level's
/// sets. `clone_from` refills a retired web's buffers instead — the
/// engine's apply stage recycles its copy-on-write target this way — so a
/// web of the source's shape is overwritten without allocating, and shares
/// every structure page with the source just as a clone does.
impl<D: RangeDetermined> Clone for SkipWeb<D> {
    fn clone(&self) -> Self {
        SkipWeb {
            item_bits: with_room(&self.item_bits, SPLICE_HEADROOM),
            slots: self.slots.clone(),
            levels: self.levels.clone(),
            host_table: self.host_table.clone(),
            hosts: self.hosts,
            blocking: self.blocking,
            replication: self.replication,
            rng: self.rng.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        refill_with_headroom(&mut self.item_bits, &source.item_bits);
        self.slots.clone_from(&source.slots);
        // Level by level through `Level::clone_from`; only levels the source
        // has beyond this web's are cloned afresh.
        self.levels.clone_from(&source.levels);
        self.host_table.clone_from(&source.host_table);
        self.hosts = source.hosts;
        self.blocking = source.blocking;
        self.replication = source.replication;
        self.rng.clone_from(&source.rng);
    }
}

/// Structural equality: two webs are equal when their slot tables, level
/// hierarchies (each set's key, structure and member slice), stored host
/// tables and host counts all match byte for byte — level 0's structure is
/// the ground set. Structure ids are not compared: equal levels may file
/// the same structures under different ids. Hyperlinks are not compared
/// because nothing stores them: equal structures have equal conflict
/// lists. The insertion rng is
/// deliberately excluded — it only affects *future* random draws, not the
/// structure — so the parity tests can compare an incrementally repaired
/// web against a fully rebuilt one.
impl<D: RangeDetermined + PartialEq> PartialEq for SkipWeb<D> {
    fn eq(&self, other: &Self) -> bool {
        self.item_bits == other.item_bits
            && self.slots == other.slots
            && self.levels == other.levels
            && self.host_table == other.host_table
            && self.hosts == other.hosts
            && self.blocking == other.blocking
            && self.replication == other.replication
    }
}

/// Configures and builds a [`SkipWeb`].
#[derive(Debug, Clone)]
pub struct SkipWebBuilder<D: RangeDetermined> {
    items: Vec<D::Item>,
    seed: u64,
    blocking: Blocking,
    replication: Replication,
    bits: Option<Vec<u64>>,
}

impl<D: RangeDetermined> SkipWebBuilder<D> {
    /// Seeds the randomized level assignment (default 0). Two webs built
    /// with the same items and seed are identical.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Bucketed placement with per-host memory `memory` (§2.4.1), instead
    /// of the default [`Blocking::OwnerHosted`].
    pub fn bucketed(mut self, memory: usize) -> Self {
        self.blocking = Blocking::Bucketed { memory };
        self
    }

    /// Places every range on `k` hosts (the primary plus ring successors),
    /// so the served structure survives up to `k - 1` host crashes
    /// (default [`Replication::NONE`]).
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn replicate(mut self, k: usize) -> Self {
        self.replication = Replication::new(k);
        self
    }

    /// Pins the per-item level bit strings instead of drawing them from the
    /// seed, matched positionally to the **canonical** (structure-sorted)
    /// ground order. Skip-webs are range-determined (§2.1): items plus bits
    /// uniquely determine the whole hierarchy, so a recovery layer that
    /// logged each item's bits can rebuild the exact pre-crash web —
    /// tower-for-tower — rather than a freshly randomized one.
    pub fn bits(mut self, bits: Vec<u64>) -> Self {
        self.bits = Some(bits);
        self
    }

    /// Builds the skip-web.
    ///
    /// # Panics
    ///
    /// Panics if [`bits`](Self::bits) was given a vector whose length does
    /// not match the canonical ground set.
    pub fn build(self) -> SkipWeb<D> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        // Canonicalize the ground set through the structure's own builder.
        let ground = D::build(self.items).items().to_vec();
        let item_bits = match self.bits {
            Some(bits) => {
                assert_eq!(
                    bits.len(),
                    ground.len(),
                    "explicit bits must cover the canonical ground set"
                );
                // Advance the rng exactly as the drawing path would, so
                // later inserts — into this web, or into a fabric serving
                // it, which draws from a copy of this rng — draw the same
                // towers either way.
                let _ = draw_bits(ground.len(), &mut rng);
                bits
            }
            None => draw_bits(ground.len(), &mut rng),
        };
        // A fresh web's slots are its canonical positions.
        let slots: Vec<u32> = (0..ground.len() as u32).collect();
        let mut web = SkipWeb {
            item_bits,
            slots: Ids {
                end: slots.len() as u32,
                free: Vec::new(),
            },
            levels: Vec::new(),
            host_table: None,
            hosts: 0,
            blocking: self.blocking,
            replication: self.replication,
            rng,
        };
        web.rebuild(&ground, &slots);
        web
    }
}

impl<D: RangeDetermined> SkipWeb<D> {
    /// Starts building a skip-web over `items`.
    pub fn builder(items: Vec<D::Item>) -> SkipWebBuilder<D> {
        SkipWebBuilder {
            items,
            seed: 0,
            blocking: Blocking::OwnerHosted,
            replication: Replication::NONE,
            bits: None,
        }
    }

    /// The canonical ground set: level 0's items.
    pub fn ground(&self) -> &[D::Item] {
        self.base().items()
    }

    /// Number of stored items `n`.
    pub fn len(&self) -> usize {
        self.ground_slots().len()
    }

    /// Whether the web stores no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of hosts `H`.
    pub fn hosts(&self) -> usize {
        self.hosts
    }

    /// The top level index `k = ⌈log₂ n⌉`.
    pub fn top_level(&self) -> u32 {
        (self.levels.len() - 1) as u32
    }

    /// The blocking strategy in effect.
    pub fn blocking(&self) -> Blocking {
        self.blocking
    }

    /// The replication policy in effect.
    pub fn replication(&self) -> Replication {
        self.replication
    }

    /// Sizes of the sets at `level` (for the Figure 2 reproduction).
    ///
    /// # Panics
    ///
    /// Panics if `level` exceeds [`top_level`](Self::top_level).
    pub fn level_set_sizes(&self, level: u32) -> Vec<usize> {
        let tables = &self.levels[level as usize];
        let len = |set| tables.slots_of(set).len();
        tables.sets.iter().map(len).collect()
    }

    /// Whether every level's structure table is `other`'s very pages, page
    /// for page — what a clone, or a refill with `clone_from`, leaves until
    /// either web is updated: the two copies share every structure.
    pub fn shares_structures_with(&self, other: &Self) -> bool {
        let same = |(a, b): (&Level<D>, &Level<D>)| {
            let (a, b) = (&a.structures.pages, &b.structures.pages);
            a.len() == b.len() && a.iter().zip(b).all(|(p, q)| Arc::ptr_eq(p, q))
        };
        self.levels.len() == other.levels.len() && self.levels.iter().zip(&other.levels).all(same)
    }

    /// Total ranges stored across all levels (structure nodes + links).
    pub fn total_ranges(&self) -> usize {
        self.levels
            .iter()
            .flat_map(|l| l.sets.iter().map(|s| l.structure(s).num_ranges()))
            .sum()
    }

    /// The level-0 structure `D(S)`.
    pub fn base(&self) -> &D {
        let ground = &self.levels[0];
        ground.structure(&ground.sets[0])
    }

    /// Level 0's slot list: the slot of the item at each canonical position.
    fn ground_slots(&self) -> &[u32] {
        let ground = &self.levels[0];
        ground.slots_of(&ground.sets[0])
    }

    /// The host owning the item at canonical position `item` (query origins
    /// start here): under owner-hosted placement the host of its slot,
    /// under bucketed placement the host of its top-level entry range.
    ///
    /// # Panics
    ///
    /// Panics if `item >= self.len()`.
    pub fn host_of_item(&self, item: usize) -> HostId {
        match self.blocking {
            Blocking::OwnerHosted => HostId(self.ground_slots()[item]),
            Blocking::Bucketed { .. } => {
                let (set, entry) = self.origin_entry(item);
                self.primary(self.top_level() as usize, set, entry)
            }
        }
    }

    /// A deterministic pseudo-random query origin (ground item index).
    ///
    /// # Panics
    ///
    /// Panics if the web is empty.
    pub fn random_origin(&self, seed: u64) -> usize {
        assert!(!self.is_empty(), "an empty web has no query origins");
        let mut rng = StdRng::seed_from_u64(seed);
        rng.gen_range(0..self.len())
    }

    /// Routes a query from the root of `origin_item`'s host down to the
    /// maximal level-0 range containing `q` (§2.5), charging every touched
    /// range's host to `meter`.
    ///
    /// # Panics
    ///
    /// Panics if the web is empty or `origin_item` is out of bounds.
    pub fn query(
        &self,
        origin_item: usize,
        q: &D::Query,
        meter: &mut MessageMeter,
    ) -> QueryOutcome {
        assert!(!self.is_empty(), "cannot query an empty skip-web");
        assert!(origin_item < self.len(), "origin item out of bounds");
        let start_messages = meter.messages();
        let top = self.top_level() as usize;
        let (set_idx, entry) = self.origin_entry(origin_item);
        let mut at = (top, set_idx, entry);
        let mut per_level_touches = vec![0; top + 1];
        // Non-basic ranges are replicated across block hosts; which copy the
        // walk reads is only determined once the descent reaches the basic
        // level below (the block holding the query's cone stores the whole
        // stratum, §2.4.1). Defer their host resolution until that anchor is
        // known, then charge the co-located copy when one exists.
        let mut pending: Vec<Copies<'_>> = Vec::new();
        // The walk's one hyperlink buffer: a level descent allocates nothing.
        let mut links: Vec<RangeId> = Vec::new();
        loop {
            let (level, set_idx, r) = at;
            if self.blocking.is_basic(level as u32) {
                let host = self.primary(level, set_idx, r);
                for mut replicas in pending.drain(..) {
                    let co_located = replicas.clone().any(|h| h == host);
                    meter.visit(if co_located {
                        host
                    } else {
                        replicas.next().unwrap_or(host)
                    });
                }
                meter.visit(host);
            } else {
                pending.push(self.copies(level, set_idx, r));
            }
            per_level_touches[top - level] += 1;
            let Some(next) = self.walk_step(at, q, &mut links) else {
                debug_assert!(pending.is_empty(), "level 0 is always basic");
                return QueryOutcome {
                    locus: r,
                    messages: meter.messages() - start_messages,
                    per_level_touches,
                };
            };
            at = next;
        }
    }

    /// One step of the §2.5 walk, written once: from `at` — `(level, set
    /// index, range)` — toward `q`'s level-0 locus. Searches inside the
    /// level as far as the structure goes ([`RangeDetermined::search_step`]),
    /// then follows the level locus's hyperlinks one level down
    /// ([`descend`](Self::descend), into `links`, the caller's scratch
    /// buffer for the whole walk); `None` at the level-0 locus. The
    /// simulator's meter ([`query`](Self::query)) and the engine's forwarder
    /// both advance through this and differ only in what they do with each
    /// range visited.
    pub(crate) fn walk_step(
        &self,
        (level, set_idx, r): (usize, usize, RangeId),
        q: &D::Query,
        links: &mut Vec<RangeId>,
    ) -> Option<(usize, usize, RangeId)> {
        let tables = &self.levels[level];
        let set = &tables.sets[set_idx];
        if let Some(next) = tables.structure(set).search_step(r, q) {
            return Some((level, set_idx, next));
        }
        let below = level.checked_sub(1)?;
        let (parent_idx, entry) = self.descend(level as u32, set, r, q, links);
        Some((below, parent_idx, entry))
    }

    /// The §2.3 level descent, the step between two levels of every query
    /// and update route: from `locus` — the level locus of `q` in `set`, a
    /// set of level `level ≥ 1` — through its hyperlinks into the parent set
    /// one level down. Returns the parent's set index and the entry range
    /// there, the hyperlink target best placed for `q`
    /// ([`RangeDetermined::best_entry`]). The hyperlinks are computed into
    /// `links`, the caller's scratch buffer for the whole walk.
    fn descend(
        &self,
        level: u32,
        set: &LevelSet,
        locus: RangeId,
        q: &D::Query,
        links: &mut Vec<RangeId>,
    ) -> (usize, RangeId) {
        let parent_idx = self.hyperlinks(level, set, locus, links);
        assert!(
            !links.is_empty(),
            "hyperlinks of a subset range into its superset cannot be empty"
        );
        let below = &self.levels[(level - 1) as usize];
        let parent = below.structure(&below.sets[parent_idx]);
        (parent_idx, parent.best_entry(links, q))
    }

    /// The hyperlinks of range `r` of `set`, a set of level `level ≥ 1`: its
    /// conflict list `C(Q, S_b')` in the parent set (§2.3), written over
    /// `out`. Returns the parent's set index. Nothing stores these lists —
    /// range-determinism (§2.1) makes them a function of the two structures
    /// — so this is where every reader gets them: the descent, the `M(n)`
    /// accounting, the bucketed cones and the invariant sweep.
    pub(crate) fn hyperlinks(
        &self,
        level: u32,
        set: &LevelSet,
        r: RangeId,
        out: &mut Vec<RangeId>,
    ) -> usize {
        let parent_idx = self.parent_set_index(level, set);
        let below = &self.levels[(level - 1) as usize];
        let range = self.levels[level as usize].structure(set).range(r);
        out.clear();
        below
            .structure(&below.sets[parent_idx])
            .conflicts_into(&range, out);
        parent_idx
    }

    /// Index, within level `level - 1`, of the parent of the level-`level`
    /// set `set` — the set its hyperlinks point into, which holds its items
    /// one level down: the set keyed by its key's `level - 1`-bit prefix,
    /// found by a binary search over that level's keys.
    pub(crate) fn parent_set_index(&self, level: u32, set: &LevelSet) -> usize {
        let below = &self.levels[(level - 1) as usize];
        match below.set_index(parent_key(set.key, level)) {
            Some(parent) => parent,
            None => unreachable!("every set above level 0 has its parent"),
        }
    }

    /// Where operations from the item at canonical position `origin_item`
    /// enter the web — the "root node for that host" of §1.1: the item's
    /// top-level set index (the set keyed by its slot's bit prefix) and its
    /// entry range there — the item's place in the set's canonical order.
    /// Two short binary searches.
    pub(crate) fn origin_entry(&self, origin_item: usize) -> (usize, RangeId) {
        let slot = self.ground_slots()[origin_item];
        let item = &self.ground()[origin_item];
        let top_level = self.top_level();
        let top = &self.levels[top_level as usize];
        let Some(set_idx) = top.set_index(set_key(self.item_bits[slot as usize], top_level)) else {
            unreachable!("a stored item sits in a set at every level");
        };
        let structure = top.structure(&top.sets[set_idx]);
        let items = structure.items();
        let local = items.partition_point(|g| D::canonical_cmp(g, item).is_lt());
        (set_idx, structure.entry_of_item(local))
    }

    /// The slot of the item owning range `r` of set `set` at level `level`,
    /// as a host id — the owner-hosted home of the range (§2.4): an item's
    /// tower of ranges lives on the item's host.
    fn owner_host(&self, level: usize, set: usize, r: RangeId) -> HostId {
        let tables = &self.levels[level];
        let set = &tables.sets[set];
        let slots = tables.slots_of(set);
        if slots.is_empty() {
            // The one empty set of an empty web still has a (universe) range.
            return HostId(0);
        }
        // Indexed, not `get`: a range id from a corrupt address must stop
        // here rather than be routed on.
        HostId(slots[tables.structure(set).owner(r)])
    }

    /// The hosts storing a copy of range `r` of set `set` at level `level`,
    /// primary first: its base list — the owner item's host, or its row of
    /// the bucketed host table — extended to `k` hosts along the ring of
    /// host ids ([`Copies`]).
    pub(crate) fn copies(&self, level: usize, set: usize, r: RangeId) -> Copies<'_> {
        let (primary, rest) = match &self.host_table {
            Some(table) => table.base(level, set, r),
            None => (self.owner_host(level, set, r), &[][..]),
        };
        Copies::new(primary, rest, self.replication, self.hosts)
    }

    /// The first of [`copies`](Self::copies): the authoritative copy the
    /// cost model charges.
    pub(crate) fn primary(&self, level: usize, set: usize, r: RangeId) -> HostId {
        match &self.host_table {
            Some(table) => table.base(level, set, r).0,
            None => self.owner_host(level, set, r),
        }
    }

    /// Inserts `item`, charging the §4 bottom-up repair messages to `meter`.
    /// Returns `false` (and charges only the lookup) when the item is
    /// already present.
    pub fn insert(&mut self, item: D::Item, meter: &mut MessageMeter) -> bool {
        let origin = (!self.is_empty()).then(|| self.rng.gen_range(0..self.len()));
        // A duplicate is rejected at its locus without consuming a bit
        // string.
        let bits = if self.contains_item(&item) {
            0
        } else {
            self.rng.gen()
        };
        self.update_with(origin, Update::Insert { item, bits }, meter)
    }

    /// [`update_with`](Self::update_with) for an insert.
    ///
    /// # Panics
    ///
    /// Panics if `origin` is out of bounds.
    pub fn insert_with(
        &mut self,
        origin: Option<usize>,
        item: D::Item,
        bits: u64,
        meter: &mut MessageMeter,
    ) -> bool {
        self.update_with(origin, Update::Insert { item, bits }, meter)
    }

    /// Removes `item`, charging the symmetric §4 repair messages. Returns
    /// `false` when the item was not present.
    pub fn remove(&mut self, item: &D::Item, meter: &mut MessageMeter) -> bool {
        if !self.contains_item(item) {
            return false;
        }
        let origin = (self.len() > 1).then(|| self.rng.gen_range(0..self.len()));
        self.remove_with(origin, item, meter)
    }

    /// [`update_with`](Self::update_with) for a remove.
    ///
    /// # Panics
    ///
    /// Panics if `origin` is out of bounds.
    pub fn remove_with(
        &mut self,
        origin: Option<usize>,
        item: &D::Item,
        meter: &mut MessageMeter,
    ) -> bool {
        self.update_with(origin, Update::Remove { item: item.clone() }, meter)
    }

    /// The deterministic update every simulator entry point runs: routes
    /// from `origin` (when given) to the item's level-0 locus — the paper's
    /// step 1 — charges the §4 repair of the conflict neighbourhoods the
    /// change rewires, bottom-up, and applies it. This is what the
    /// distributed engine mirrors hop for hop: driving the simulator and a
    /// [`crate::engine::DistributedSkipWeb`] with the same `(origin,
    /// update)` yields identical structures and message counts.
    ///
    /// Returns `false` when nothing changed: a duplicate insert pays its
    /// lookup and stops at the locus, an absent remove is free. `origin` is
    /// ignored where the engine skips the lookup too: on an insert into an
    /// empty web and a remove of an absent item or of the only one.
    ///
    /// # Panics
    ///
    /// Panics if `origin` is out of bounds when the lookup runs.
    pub fn update_with(
        &mut self,
        origin: Option<usize>,
        update: Update<D::Item>,
        meter: &mut MessageMeter,
    ) -> bool {
        let (routes, tower) = self.plan(&update);
        if let Some(o) = origin.filter(|_| routes) {
            let _ = self.query(o, &D::item_query(update.item()), meter);
        }
        let Some(bits) = tower else {
            return false;
        };
        self.meter_update_neighbourhood(update.item(), bits, meter);
        let applied = self.apply(vec![update]);
        debug_assert!(applied[0], "the update was just checked against the ground");
        true
    }

    /// The §4 plan of `update` against this web — the one rule the
    /// simulator's [`update_with`](Self::update_with) and the engine both
    /// follow: whether it routes to the item's locus (all but an insert
    /// into an empty web and a remove of an absent item or of the only
    /// one), and the tower its repair walks (the insert's own or the
    /// removed item's stored one; `None` for a duplicate insert or an
    /// absent remove, which change nothing).
    pub(crate) fn plan(&self, update: &Update<D::Item>) -> (bool, Option<u64>) {
        let stored = self.bits_of(update.item());
        match *update {
            Update::Insert { bits, .. } => (!self.is_empty(), stored.is_none().then_some(bits)),
            Update::Remove { .. } => (self.len() > 1 && stored.is_some(), stored),
        }
    }

    /// Applies a batch of updates — inserts and removes in any mix — the
    /// apply half of every update path, with no metering (the distributed
    /// engine calls it once its repair walks have paid the messages).
    ///
    /// The ops resolve in order against the slot table, with sequential
    /// semantics: the returned per-op flags are the ones applying the ops
    /// one at a time would give (`false` for an insert of an item stored at
    /// that point and for a remove of one that is not), so a batch may
    /// insert, remove and re-insert one item, and a re-insert may carry new
    /// bits. Each applied op is spliced into — or out of — exactly the sets
    /// its tower names, one per level (an item with bit string `b` belongs
    /// at level `ℓ` to the set keyed by its `ℓ`-bit prefix); every other set
    /// is left as it was, and no other item changes slot. A spliced set's
    /// structure becomes `D::build` of its old items plus and minus the
    /// batch's, once per batch. A batch that changes the level count drops
    /// the vanished top levels — hyperlinks only point downward — or builds
    /// the new ones from level 0. A batch of `n / 10` ops or more goes
    /// through `apply_full` instead (measured: by then it touches most sets
    /// of the lower levels, and a full rebuild is the cheaper). The result
    /// is byte-identical to the one-at-a-time applies and to
    /// [`apply_full`](Self::apply_full).
    ///
    /// A spliced set's items are moved out of its entry when no other web
    /// shares it — a web that was never cloned, or the sets an earlier apply
    /// rebuilt since — and cloned otherwise.
    pub fn apply(&mut self, ops: Vec<Update<D::Item>>) -> Vec<bool> {
        self.apply_with(ops, &mut Donors::default())
    }

    /// [`apply`](Self::apply) with `donors`: a spliced set that shares its
    /// entry with another web and has a donor takes the items the donor
    /// still holds out of it, and clones only the rest
    /// ([`refill_from`](Self::refill_from)). The donors no set takes are
    /// left in `donors`. The result is the same with any donors or none.
    pub fn apply_with(&mut self, ops: Vec<Update<D::Item>>, donors: &mut Donors<D>) -> Vec<bool> {
        if ops.len() * INCREMENTAL_DIRTY_FACTOR >= self.len() {
            return self.apply_full(ops);
        }
        let mut drafts = Drafts::new();
        let inserts = ops.iter().filter(|op| op.is_insert()).count();
        let applied = ops
            .into_iter()
            .map(|op| self.splice(op, inserts, &mut drafts, donors))
            .collect();
        // Every applied op drafts the ground set, which tells the new size.
        let Some(ground) = drafts.get(&(0, 0)) else {
            return applied;
        };
        let want = level_count(ground.slots.len()) as usize + 1;
        self.levels.truncate(want);
        for ((li, key), draft) in drafts {
            // The drafts of vanished top levels go with them.
            if let Some(level) = self.levels.get_mut(li as usize) {
                level.commit(key, draft, li == 0);
            }
        }
        while self.levels.len() < want {
            let level = self.levels.len() as u32;
            let top = self.build_level(self.ground(), self.ground_slots(), level);
            self.levels.push(top);
        }
        self.assign_hosts();
        self.debug_check_invariants();
        applied
    }

    /// [`apply`](Self::apply) through the full-rebuild path: the ops take
    /// and free slots exactly as `apply`'s do, against a plain copy of the
    /// canonical ground, and then every level set is rebuilt from scratch.
    /// The reference oracle — the parity proptests hold the splicing path to
    /// it byte for byte, and the `rebuild` bench experiment measures the two
    /// against each other.
    pub fn apply_full(&mut self, ops: Vec<Update<D::Item>>) -> Vec<bool> {
        let mut ground = self.ground().to_vec();
        let mut slots = self.ground_slots().to_vec();
        let applied = ops
            .into_iter()
            .map(|op| {
                let at = ground.binary_search_by(|g| D::canonical_cmp(g, op.item()));
                match (op, at) {
                    (Update::Insert { item, bits }, Err(pos)) => {
                        ground.insert(pos, item);
                        slots.insert(pos, self.take_slot(bits));
                    }
                    (Update::Remove { .. }, Ok(pos)) => {
                        ground.remove(pos);
                        self.release_slot(slots.remove(pos));
                    }
                    _ => return false,
                }
                true
            })
            .collect();
        self.rebuild(&ground, &slots);
        applied
    }

    /// Resolves one op of a batch against the web as the batch has left it
    /// and splices it in: an absent item's insert takes a slot and joins
    /// its set's draft at every level; a stored item's remove leaves them
    /// and frees its slot. The sets change when the batch ends. Returns
    /// whether the op applied.
    fn splice(
        &mut self,
        op: Update<D::Item>,
        inserts: usize,
        drafts: &mut Drafts<D>,
        donors: &mut Donors<D>,
    ) -> bool {
        let (ground, slots) = match drafts.get(&(0, 0)) {
            Some(draft) => (draft.items.as_slice(), draft.slots.as_slice()),
            None => (self.ground(), self.ground_slots()),
        };
        let at = ground.binary_search_by(|g| D::canonical_cmp(g, op.item()));
        let (item, slot, bits) = match (op, at) {
            (Update::Insert { item, bits }, Err(_)) => (item, self.take_slot(bits), bits),
            (Update::Remove { item }, Ok(pos)) => {
                let slot = slots[pos];
                (item, slot, self.item_bits[slot as usize])
            }
            _ => return false,
        };
        let inserting = at.is_err();
        for (li, level) in (0u32..).zip(&mut self.levels) {
            let draft = level.draft((li, set_key(bits, li)), inserts, drafts, donors);
            if inserting {
                draft.splice_in(&item, slot);
            } else {
                draft.splice_out(&item, slot);
            }
        }
        if !inserting {
            self.release_slot(slot);
        }
        true
    }

    /// [`clone_from`](Clone::clone_from) that first keeps what an apply of
    /// `ops` to the refilled web can reuse: from every set the ops' towers
    /// name (an insert's bits, a remove's stored bits in `source`), the
    /// structure, when no one else holds it or its page — a set `source` has
    /// since rebuilt. Returns them as the apply's donors
    /// ([`apply_with`](Self::apply_with)). Only items that own heap memory
    /// are worth moving: for any other item type this is `clone_from`, and
    /// the donors are empty.
    pub fn refill_from(&mut self, source: &Self, ops: &[Update<D::Item>]) -> Donors<D> {
        let mut donors = Donors::default();
        if std::mem::needs_drop::<D::Item>() {
            for bits in ops.iter().filter_map(|op| source.plan(op).1) {
                for (li, level) in (0u32..).zip(&mut self.levels) {
                    let key = set_key(bits, li);
                    let Some(si) = level.set_index(key) else {
                        continue;
                    };
                    if let Some(body) = level.structures.take_unique(level.sets[si].id) {
                        donors.0.insert((li, key), body.structure);
                    }
                }
            }
        }
        self.clone_from(source);
        donors
    }

    /// Gives an item with tower `bits` a slot: the lowest free one, or a
    /// new one at the end of the table. One of the two slot-table functions
    /// both apply paths resolve ops with.
    fn take_slot(&mut self, bits: u64) -> u32 {
        let slot = self.slots.take();
        if slot as usize == self.item_bits.len() {
            self.item_bits.push(bits);
        } else {
            self.item_bits[slot as usize] = bits;
        }
        slot
    }

    /// Frees `slot`: onto the free list, or — at the end of the table —
    /// off the table, together with the free slots just below it.
    fn release_slot(&mut self, slot: u32) {
        self.item_bits[slot as usize] = 0;
        self.slots.release(slot);
        self.item_bits.truncate(self.slots.end as usize);
    }

    /// [`apply`](Self::apply) for a batch of inserts.
    pub fn apply_insert_batch(&mut self, items: Vec<(D::Item, u64)>) -> Vec<bool> {
        let insert = |(item, bits)| Update::Insert { item, bits };
        self.apply(items.into_iter().map(insert).collect())
    }

    /// [`apply`](Self::apply) for a batch of removes.
    pub fn apply_remove_batch(&mut self, items: &[D::Item]) -> Vec<bool> {
        let remove = |item: &D::Item| Update::Remove { item: item.clone() };
        self.apply(items.iter().map(remove).collect())
    }

    /// Debug-build-only invariant sweep after a spliced apply: a splice bug
    /// panics at the apply that corrupted the web instead of surfacing as a
    /// rebuild-parity failure many batches later.
    #[inline]
    fn debug_check_invariants(&self) {
        #[cfg(debug_assertions)]
        if let Err(violation) = self.check_invariants() {
            panic!("skip-web invariant violated after apply: {violation}");
        }
    }

    /// Checks every structural invariant the paper's framework guarantees
    /// (§2.1–§2.4), returning the first violation as a description.
    ///
    /// * **Shape** — level 0 is one set, the ground, in strictly canonical
    ///   order; the level table has exactly `level_count(n) + 1` levels.
    /// * **Structure tables** — at every level, each set names a live
    ///   structure id no other set names; the free ids are strictly
    ///   descending below the table's end and named by no set, and together
    ///   with the named ones cover the table; exactly the named ids hold a
    ///   structure.
    /// * **Slots** — level 0's slot list gives every stored item a distinct
    ///   slot; the free list is strictly descending, below the table's last
    ///   slot, and holds exactly the other slots, whose bits are 0 and which
    ///   sit in no set at any level.
    /// * **Membership** — at every level, each item sits in exactly the set
    ///   keyed by its bit prefix (`set_key(bits, ℓ)`), which makes level
    ///   membership monotone in level (a level-`ℓ` set key extends the
    ///   level-`ℓ-1` key).
    /// * **Layout** — the sets are strictly key-sorted and, above level 0,
    ///   non-empty; each set's slot list is as long as its structure, in
    ///   canonical order, and slot by slot the item its structure holds;
    ///   every live slot appears in exactly one slot list per level.
    /// * **Hyperlinks** — every set above level 0 has its parent one level
    ///   down, and every range of it a non-empty conflict list there (§2.3):
    ///   the property each level descent relies on. The lists themselves are
    ///   derived, so there is no stored copy to diverge.
    /// * **Placement** — the stored host table and host count are the ones
    ///   the levels give (no table under owner-hosted placement); every
    ///   range of every set is hosted somewhere, the copies are distinct,
    ///   and all host ids (including `host_of_item`) are in range.
    ///
    /// Intended for `debug_assert!` after incremental applies and for tests;
    /// the sweep computes every conflict list, so it is far too slow for
    /// release hot paths.
    pub fn check_invariants(&self) -> Result<(), String> {
        let ground_sets = self.levels.first().map_or(0, |l| l.sets.len());
        if ground_sets != 1 || self.levels[0].sets[0].key != 0 {
            return Err(format!(
                "level 0 has {ground_sets} sets, not the one ground set"
            ));
        }
        for (li, level) in self.levels.iter().enumerate() {
            level
                .structures
                .check(&level.sets)
                .map_err(|violation| format!("level {li}: {violation}"))?;
        }
        let (ground, n) = (self.ground(), self.len());
        if let Some(i) = (1..n).find(|&i| D::canonical_cmp(&ground[i - 1], &ground[i]).is_ge()) {
            return Err(format!(
                "ground items {} and {i} out of canonical order",
                i - 1
            ));
        }
        let want_levels = level_count(n) as usize + 1;
        if self.levels.len() != want_levels {
            return Err(format!(
                "{} levels for {} items (want {})",
                self.levels.len(),
                n,
                want_levels
            ));
        }

        // The slot table: each live slot's canonical position, from level 0.
        let slots = self.item_bits.len();
        let mut position: Vec<Option<usize>> = vec![None; slots];
        for (i, &g) in self.ground_slots().iter().enumerate() {
            match position.get_mut(g as usize) {
                Some(p @ None) => *p = Some(i),
                Some(_) => return Err(format!("slot {g} holds two ground items")),
                None => return Err(format!("slot {g} is past the {slots}-slot table")),
            }
        }
        self.slots.check("slot")?;
        let free = &self.slots.free;
        if self.slots.end as usize != slots || n + free.len() != slots {
            return Err(format!(
                "{n} items and {} free slots in a {slots}-slot table ending at {}",
                free.len(),
                self.slots.end
            ));
        }
        for &g in free {
            if position[g as usize].is_some() || self.item_bits[g as usize] != 0 {
                return Err(format!("free slot {g} holds an item or bits"));
            }
        }

        for (li, level) in self.levels.iter().enumerate() {
            if let Some(w) = level.sets.windows(2).find(|w| w[0].key >= w[1].key) {
                return Err(format!(
                    "level {li}: set keys {:#x}, {:#x} not strictly ascending",
                    w[0].key, w[1].key
                ));
            }
            let mut claimed = vec![false; slots];
            for (si, set) in level.sets.iter().enumerate() {
                let (structure, set_slots) = (level.structure(set), level.slots_of(set));
                if structure.len() != set_slots.len() {
                    return Err(format!(
                        "level {li} set {si}: structure holds {} items, slot list {}",
                        structure.len(),
                        set_slots.len()
                    ));
                }
                if li > 0 && set_slots.is_empty() {
                    return Err(format!("level {li} set {si} is empty"));
                }
                let mut previous = None;
                for (local, &g) in set_slots.iter().enumerate() {
                    let Some(Some(at)) = position.get(g as usize).copied() else {
                        return Err(format!("level {li} set {si}: slot {g} holds no item"));
                    };
                    if previous.is_some_and(|p| p >= at) {
                        return Err(format!("level {li} set {si}: slots not in canonical order"));
                    }
                    previous = Some(at);
                    let g = g as usize;
                    if std::mem::replace(&mut claimed[g], true) {
                        return Err(format!(
                            "level {li}: slot {g} listed twice (second: set {si})"
                        ));
                    }
                    // Bit-prefix membership; keys nest across levels, so
                    // passing here at every level is exactly the "membership
                    // monotone in level" property.
                    let want_key = set_key(self.item_bits[g], li as u32);
                    if set.key != want_key {
                        return Err(format!(
                            "level {li} set {si}: item {g} has prefix {want_key:#x} but sits in set keyed {:#x}",
                            set.key
                        ));
                    }
                    if structure.items()[local] != ground[at] {
                        return Err(format!(
                            "level {li} set {si}: structure item {local} diverges from the item in slot {g}"
                        ));
                    }
                }
            }
            // Every listed slot is live and listed once, so a live slot no
            // list claims means the level fails to cover the ground.
            if let Some(g) = (0..slots).find(|&g| claimed[g] != position[g].is_some()) {
                return Err(format!("level {li}: live slot {g} belongs to no set"));
            }

            let mut links = Vec::new();
            for (si, set) in level.sets.iter().enumerate() {
                if li > 0 {
                    let pkey = parent_key(set.key, li as u32);
                    if self.levels[li - 1].set_index(pkey).is_none() {
                        return Err(format!(
                            "level {li} set {si}: no parent set keyed {pkey:#x} one level down"
                        ));
                    }
                }
                for r in level.structure(set).range_ids() {
                    if li > 0 {
                        self.hyperlinks(li as u32, set, r, &mut links);
                        if links.is_empty() {
                            return Err(format!(
                                "level {li} set {si}: {r} conflicts with no range of its parent set"
                            ));
                        }
                    }
                }
            }
        }

        // Placement last: the bucketed table is derived through the
        // hyperlinks checked above.
        let (table, placed_hosts) = self.hosting();
        if (self.host_table.as_deref(), self.hosts) != (table.as_ref(), placed_hosts) {
            return Err(format!(
                "the stored placement ({} hosts) is not the levels' ({placed_hosts} hosts)",
                self.hosts
            ));
        }
        let hosts = self.hosts as u32;
        if let Some(i) = (0..n).find(|&i| self.host_of_item(i).0 >= hosts) {
            return Err(format!("item {i} homed past the web's {hosts} hosts"));
        }
        let mut copies = Vec::new();
        for (li, level) in self.levels.iter().enumerate() {
            for (si, set) in level.sets.iter().enumerate() {
                for r in level.structure(set).range_ids() {
                    copies.clear();
                    copies.extend(self.copies(li, si, r));
                    if copies.is_empty() {
                        return Err(format!("level {li} set {si}: {r} is hosted nowhere"));
                    }
                    if copies[0] != self.primary(li, si, r) {
                        return Err(format!(
                            "level {li} set {si}: {r} primary is not its first copy"
                        ));
                    }
                    for (i, host) in copies.iter().enumerate() {
                        if host.0 >= hosts {
                            return Err(format!(
                                "level {li} set {si}: {r} copy on host {} of {} hosts",
                                host.0, hosts
                            ));
                        }
                        if copies[..i].contains(host) {
                            return Err(format!(
                                "level {li} set {si}: {r} lists host {} twice",
                                host.0
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// The level bit string of `item` when it is stored — a binary search
    /// against the canonical ground order, then its slot's entry.
    pub(crate) fn bits_of(&self, item: &D::Item) -> Option<u64> {
        let pos = self
            .ground()
            .binary_search_by(|g| D::canonical_cmp(g, item))
            .ok()?;
        Some(self.item_bits[self.ground_slots()[pos] as usize])
    }

    /// Whether `item` is stored.
    fn contains_item(&self, item: &D::Item) -> bool {
        self.bits_of(item).is_some()
    }

    /// Every stored item with its level bit string, in canonical order.
    pub(crate) fn ground_with_bits(&self) -> impl Iterator<Item = (&D::Item, u64)> {
        let bits = self
            .ground_slots()
            .iter()
            .map(|&g| self.item_bits[g as usize]);
        self.ground().iter().zip(bits)
    }

    /// Charges `meter` the bottom-up repair of §4 for `item` with tower
    /// `bits`. The simulator models the paper's fail-free network: hosts
    /// are the web's logical ones and every replica is alive, so the walk
    /// cannot abort.
    fn meter_update_neighbourhood(&self, item: &D::Item, bits: u64, meter: &mut MessageMeter) {
        let complete =
            self.walk_update_neighbourhood(item, bits, |h| h, |_| true, |h| meter.visit(h));
        debug_assert!(complete, "fail-free walks always complete");
    }

    /// The single §4 repair walk both cost models drive: enumerates,
    /// bottom-up, one host per range conflicting with `item`'s probe range
    /// at every level selected by `bits`, applying the stratum-anchor rule
    /// (within a stratum, non-basic neighbourhoods act on the copy
    /// co-located with the basic block just repaired). The simulator's meter
    /// and the distributed engine's repair trail both call this, so their
    /// message accounting cannot drift apart.
    ///
    /// `host_of` maps the web's logical hosts onto the hosts the caller
    /// meters (the simulator passes the identity, the engine its placement
    /// fold); `alive` filters which of those may be acted on (the simulator
    /// passes `|_| true`; the engine its membership view, which is how a
    /// repair steers around crashed hosts); `visit` observes each acted-on
    /// host in walk order. Levels where the item opens a brand-new set have
    /// nothing to repair and are skipped.
    ///
    /// Returns `false` — aborting the walk — when some range has no alive
    /// replica: more hosts crashed than the replication factor covers, so
    /// the repair cannot complete. With every host alive the walk always
    /// returns `true`.
    pub(crate) fn walk_update_neighbourhood(
        &self,
        item: &D::Item,
        bits: u64,
        host_of: impl Fn(HostId) -> HostId,
        mut alive: impl FnMut(HostId) -> bool,
        mut visit: impl FnMut(HostId),
    ) -> bool {
        let probe_range = D::probe_range(item);
        let mut anchor: Option<HostId> = None;
        let mut conflicts = Vec::new();
        for (level, tables) in self.levels.iter().enumerate() {
            let Some(set_idx) = tables.set_index(set_key(bits, level as u32)) else {
                continue;
            };
            let set = &tables.sets[set_idx];
            let basic = self.blocking.is_basic(level as u32);
            conflicts.clear();
            tables
                .structure(set)
                .conflicts_into(&probe_range, &mut conflicts);
            for (i, &r) in conflicts.iter().enumerate() {
                let mut replicas = self.copies(level, set_idx, r).map(&host_of);
                let host = match anchor {
                    Some(a) if replicas.clone().any(|h| h == a) && alive(a) => a,
                    _ => match replicas.find(|&h| alive(h)) {
                        Some(h) => h,
                        None => return false,
                    },
                };
                visit(host);
                if basic && i == 0 {
                    anchor = Some(host);
                }
            }
        }
        true
    }

    /// Rebuilds every level and the placement from the canonical `ground`,
    /// whose item `i` sits in slot `slots[i]`, and the slot table's bit
    /// strings. Deterministic: items and bit strings fully determine the
    /// hierarchy, so queries and accounting are reproducible.
    fn rebuild(&mut self, ground: &[D::Item], slots: &[u32]) {
        self.levels = (0..=level_count(ground.len()))
            .map(|level| self.build_level(ground, slots, level))
            .collect();
        self.assign_hosts();
    }

    /// Builds level `level` from scratch over the canonical `ground`, whose
    /// item `i` sits in slot `slots[i]`.
    fn build_level(&self, ground: &[D::Item], slots: &[u32], level: u32) -> Level<D> {
        let bits: Vec<u64> = slots.iter().map(|&g| self.item_bits[g as usize]).collect();
        let groups = group_by_key(&bits, level);
        let mut tables = Level {
            sets: Vec::with_capacity(groups.len().max(1)),
            structures: Structures::new(),
        };
        for (key, at) in groups {
            let items = at.iter().map(|&i| ground[i as usize].clone()).collect();
            let structure = D::build(items);
            debug_assert!(
                at.iter()
                    .map(|&i| &ground[i as usize])
                    .eq(structure.items()),
                "D::build must keep the canonical order (canonical_cmp contract)"
            );
            let set_slots = at.into_iter().map(|i| slots[i as usize]).collect();
            tables.push_built(key, structure, set_slots);
        }
        if ground.is_empty() {
            // Level 0 is the one ground set, empty or not.
            tables.push_built(0, D::build(Vec::new()), Vec::new());
        }
        tables
    }

    /// Places every range per the blocking strategy ([`hosting`](Self::hosting)).
    fn assign_hosts(&mut self) {
        let (table, hosts) = self.hosting();
        (self.host_table, self.hosts) = (table.map(Arc::new), hosts);
    }

    /// The placement the levels give and its host count: one host per slot
    /// under owner-hosted placement, which stores nothing per range — it is
    /// derived from the sets' slot lists ([`copies`](Self::copies)) — and
    /// the bucketed host table ([`HostTable::bucketed`]) otherwise.
    fn hosting(&self) -> (Option<HostTable>, usize) {
        match self.blocking {
            Blocking::OwnerHosted => (None, self.item_bits.len().max(1)),
            Blocking::Bucketed { .. } => {
                let (table, hosts) = HostTable::bucketed(self);
                (Some(table), hosts)
            }
        }
    }

    /// Registers the web's storage and reference footprint with a simulated
    /// network (the `M` and `C(n)` accounting of §1.1). The network must
    /// have at least [`hosts`](Self::hosts) hosts.
    ///
    /// # Panics
    ///
    /// Panics if `net` has fewer hosts than the web requires.
    pub fn account(&self, net: &mut SimNetwork) {
        assert!(
            net.hosts() >= self.hosts,
            "network too small: {} hosts < {} required",
            net.hosts(),
            self.hosts
        );
        net.set_items(self.len());
        let mut links = Vec::new();
        for (li, level) in self.levels.iter().enumerate() {
            for (si, set) in level.sets.iter().enumerate() {
                let structure = level.structure(set);
                for r in structure.range_ids() {
                    let neighbors = structure.neighbors(r);
                    // Hyperlink references point across levels, into the
                    // parent set; level 0 has none.
                    links.clear();
                    let parent = (li > 0).then(|| self.hyperlinks(li as u32, set, r, &mut links));
                    for (c, host) in self.copies(li, si, r).enumerate() {
                        let here = |mut copies: Copies<'_>| copies.any(|h| h == host);
                        let mut local = 0u64;
                        for &nb in &neighbors {
                            local += u64::from(here(self.copies(li, si, nb)));
                        }
                        if let Some(parent) = parent {
                            for &t in &links {
                                local += u64::from(here(self.copies(li - 1, parent, t)));
                            }
                        }
                        let pointers = (neighbors.len() + links.len()) as u64;
                        if c == 0 {
                            // The primary copy stores the range plus every
                            // pointer (each a (host, addr) pair).
                            net.add_storage(host, 1 + pointers);
                            net.add_refs(host, local, pointers - local);
                        } else {
                            // Replicas serve the intra-block descent: the
                            // range, its co-located pointers — list
                            // neighbours and hyperlinks alike — and a single
                            // fallback pointer to the primary.
                            net.add_storage(host, 2 + local);
                            net.add_refs(host, local, 1);
                        }
                    }
                }
            }
        }
    }

    /// Fresh simulated network sized for this web with accounting applied.
    pub fn network(&self) -> SimNetwork {
        let mut net = SimNetwork::new(self.hosts.max(1));
        self.account(&mut net);
        net
    }

    pub(crate) fn level_structs(&self) -> &[Level<D>] {
        &self.levels
    }
}

impl<D: Routable> SkipWeb<D> {
    /// Answers `req` exactly as the engine's locus host replies to it:
    /// routes from `origin_item` toward [`Routable::target`] ([`query`](Self::query)),
    /// then asks the structure at the level-0 locus ([`Routable::answer`]),
    /// charging to `meter` the host of every range the answer reads beyond
    /// the locus. The outcome's `messages` include those charges.
    ///
    /// # Panics
    ///
    /// Panics if the web is empty or `origin_item` is out of bounds.
    pub fn ask(
        &self,
        origin_item: usize,
        req: &D::Request,
        meter: &mut MessageMeter,
    ) -> (D::Answer, QueryOutcome) {
        let start = meter.messages();
        let mut outcome = self.query(origin_item, &D::target(req), meter);
        let answer = self.base().answer(outcome.locus, req, |r| {
            meter.visit(self.primary(0, 0, r));
        });
        outcome.messages = meter.messages() - start;
        (answer, outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection;
    use proptest::prelude::*;
    use skipweb_structures::linked_list::SortedLinkedList;
    use skipweb_structures::trie::CompressedTrie;

    fn web(n: u64, seed: u64) -> SkipWeb<SortedLinkedList> {
        SkipWeb::builder((0..n).map(|i| i * 10).collect())
            .seed(seed)
            .build()
    }

    impl<D: RangeDetermined> SkipWeb<D> {
        /// The web's one bucketed host table, for tests of what a copy
        /// shares.
        pub(crate) fn host_table(&self) -> Option<&Arc<HostTable>> {
            self.host_table.as_ref()
        }
    }

    /// The per-range copy lists the web used to store, level → set → range:
    /// the oracle [`SkipWeb::copies`] is held to.
    type RangeHost = Vec<Vec<Vec<Vec<HostId>>>>;

    /// `row(level, (set index, set), range)` of every range, level → set →
    /// range.
    fn per_range<D: RangeDetermined, T>(
        web: &SkipWeb<D>,
        mut row: impl FnMut(usize, (usize, &LevelSet), RangeId) -> T,
    ) -> Vec<Vec<Vec<T>>> {
        let mut per_set = |(li, level): (usize, &Level<D>)| {
            let per_range = |(si, set): (usize, &LevelSet)| {
                let ids = level.structure(set).range_ids();
                ids.map(|r| row(li, (si, set), r)).collect()
            };
            level.sets.iter().enumerate().map(per_range).collect()
        };
        web.levels.iter().enumerate().map(&mut per_set).collect()
    }

    /// Every range's copies as the web gives them — for an unreplicated
    /// bucketed web, the rows of its block placement.
    fn copies_per_range<D: RangeDetermined>(web: &SkipWeb<D>) -> RangeHost {
        per_range(web, |li, (si, _), r| web.copies(li, si, r).collect())
    }

    /// Points every range's copy list at its owning item's host — the
    /// owner-hosted placement sweep the full rebuild used to run.
    fn owner_host_sweep<D: RangeDetermined>(web: &SkipWeb<D>) -> RangeHost {
        let per_set = |level: &Level<D>| {
            let per_range = |set: &LevelSet| {
                let ground = level.slots_of(set);
                let structure = level.structure(set);
                structure
                    .range_ids()
                    .map(|r| {
                        let owner_local = structure.owner(r);
                        let owner_ground = ground.get(owner_local).copied().unwrap_or(0);
                        vec![HostId(owner_ground)]
                    })
                    .collect()
            };
            level.sets.iter().map(per_range).collect()
        };
        web.levels.iter().map(per_set).collect()
    }

    /// The replication pass the web used to run over its stored lists:
    /// extends every copy list to `k` distinct hosts by walking the ring of
    /// host ids upward from the primary.
    fn replicate_along_the_ring(
        range_host: &mut RangeHost,
        replication: Replication,
        hosts: usize,
    ) {
        let hosts = hosts.max(1) as u32;
        let k = replication.k.min(hosts as usize);
        if k <= 1 {
            return;
        }
        for copies in range_host.iter_mut().flatten().flatten() {
            let primary = copies[0].0;
            let mut next = primary;
            while copies.len() < k {
                next = (next + 1) % hosts;
                if next == primary {
                    break; // full circle: fewer hosts than k
                }
                let candidate = HostId(next);
                if !copies.contains(&candidate) {
                    copies.push(candidate);
                }
            }
        }
    }

    /// What the deleted materialising placement code would have stored for
    /// `web`: owner primaries, or the unreplicated block placement of the
    /// same items and towers, extended to `k` replicas.
    fn materialized_range_host(web: &SkipWeb<SortedLinkedList>) -> RangeHost {
        let mut range_host = match web.blocking {
            Blocking::OwnerHosted => owner_host_sweep(web),
            Blocking::Bucketed { .. } => {
                let mut plain = web.clone();
                plain.replication = Replication::NONE;
                plain.assign_hosts();
                copies_per_range(&plain)
            }
        };
        replicate_along_the_ring(&mut range_host, web.replication, web.hosts);
        range_host
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The derived (owner-hosted) and stored (bucketed) copies of every
        /// range equal the lists the web used to materialise, through
        /// incremental repairs and full rebuilds alike.
        #[test]
        fn copies_match_the_materialized_placement(
            n in 1u64..160,
            k in 1usize..=4,
            bucketed in any::<bool>(),
            memory in 4usize..48,
            seed in 0u64..1000,
            steps in collection::vec((any::<bool>(), collection::vec(0u64..400, 1..12)), 0..6),
        ) {
            let mut builder = SkipWeb::<SortedLinkedList>::builder((0..n).map(|i| i * 5).collect())
                .seed(seed)
                .replicate(k);
            if bucketed {
                builder = builder.bucketed(memory);
            }
            let mut web = builder.build();
            for (round, (inserting, keys)) in steps.iter().enumerate() {
                if round > 0 {
                    if *inserting {
                        let batch = keys.iter().map(|&key| (key, key.wrapping_mul(seed | 1))).collect();
                        web.apply_insert_batch(batch);
                    } else {
                        web.apply_remove_batch(keys);
                    }
                }
                prop_assert_eq!(web.check_invariants(), Ok(()));
                prop_assert_eq!(copies_per_range(&web), materialized_range_host(&web));
            }
        }
    }

    /// Every range's hyperlinks (none at level 0), with the parent set found
    /// by key and the list asked of its structure directly: what
    /// [`SkipWeb::hyperlinks`] must derive.
    fn conflict_lists_by_key<D: RangeDetermined>(web: &SkipWeb<D>) -> Vec<Vec<Vec<Vec<RangeId>>>> {
        per_range(web, |li, (_, set), r| {
            let Some(below) = li.checked_sub(1).map(|below| &web.levels[below]) else {
                return Vec::new();
            };
            let parent = below
                .set_index(parent_key(set.key, li as u32))
                .expect("a parent set");
            let range = web.levels[li].structure(set).range(r);
            below.structure(&below.sets[parent]).conflicts(&range)
        })
    }

    /// The same lists through [`SkipWeb::hyperlinks`].
    fn derived_hyperlinks<D: RangeDetermined>(web: &SkipWeb<D>) -> Vec<Vec<Vec<Vec<RangeId>>>> {
        let mut links = Vec::new();
        per_range(web, |li, (_, set), r| {
            if li > 0 {
                let parent = web.hyperlinks(li as u32, set, r, &mut links);
                assert_eq!(parent, web.parent_set_index(li as u32, set));
            }
            links.clone()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Through mixed incremental applies, owner-hosted and bucketed, the
        /// hyperlinks derived on the repaired web are the conflict lists of
        /// a web rebuilt from scratch — no stored table stands in between.
        #[test]
        fn hyperlinks_are_the_conflict_lists_of_a_full_rebuild(
            n in 64u64..200,
            bucketed in any::<bool>(),
            seed in 0u64..1000,
            steps in collection::vec(collection::vec((any::<bool>(), 0u64..1200), 1..10), 1..5),
        ) {
            let mut builder = SkipWeb::<SortedLinkedList>::builder((0..n).map(|i| i * 5).collect())
                .seed(seed);
            if bucketed {
                builder = builder.bucketed(24);
            }
            let mut web = builder.build();
            let mut full = web.clone();
            for step in steps {
                let ops: Vec<Update<u64>> = step
                    .into_iter()
                    .map(|(inserting, item)| match inserting {
                        true => Update::Insert { item, bits: item.wrapping_mul(seed | 1) },
                        false => Update::Remove { item },
                    })
                    .collect();
                prop_assert_eq!(web.apply(ops.clone()), full.apply_full(ops));
                prop_assert_eq!(web.check_invariants(), Ok(()));
                prop_assert_eq!(derived_hyperlinks(&web), conflict_lists_by_key(&full));
            }
        }
    }

    /// Routing over derived hyperlinks is bit-identical to routing over the
    /// stored table it replaced: locus, messages and per-level touches of a
    /// fixed workload, as the last commit with a `down` table answered it.
    #[test]
    fn queries_answer_as_they_did_over_stored_hyperlinks() {
        // Per query: locus, messages, touches at the top level.
        type Golden = [(u32, u64, u32); 6];
        let owner_hosted: Golden = [
            (707, 4, 2),
            (831, 3, 2),
            (956, 4, 2),
            (373, 4, 2),
            (1204, 6, 2),
            (1328, 3, 4),
        ];
        let bucketed: Golden = [
            (707, 2, 2),
            (831, 2, 2),
            (956, 2, 2),
            (373, 2, 2),
            (1204, 3, 2),
            (1328, 3, 4),
        ];
        for (golden, memory) in [(owner_hosted, None), (bucketed, Some(32))] {
            let mut builder =
                SkipWeb::<SortedLinkedList>::builder((0..700).map(|i| i * 10).collect()).seed(21);
            if let Some(memory) = memory {
                builder = builder.bucketed(memory);
            }
            let mut w = builder.build();
            let tower = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xABCD;
            w.apply_insert_batch((0..40).map(|i| (i * 173 + 5, tower(i))).collect());
            w.apply_remove_batch(&(0..30).map(|i| i * 230).collect::<Vec<u64>>());
            assert_eq!(w.len(), 706);
            for (s, (locus, messages, top_touches)) in (0..).zip(golden) {
                let q = s * 1231 + 7;
                let out = w.query(w.random_origin(s), &q, &mut MessageMeter::new());
                // Below the top level every search path is its start alone.
                let mut touches = vec![1; 11];
                touches[0] = top_touches;
                let want = QueryOutcome {
                    locus: RangeId(locus),
                    messages,
                    per_level_touches: touches,
                };
                assert_eq!(out, want, "bucketed: {memory:?}, query {q}");
            }
        }
    }

    #[test]
    fn builder_canonicalizes_ground_set() {
        let w = SkipWeb::<SortedLinkedList>::builder(vec![30, 10, 20, 10]).build();
        assert_eq!(w.ground(), &[10, 20, 30]);
        assert_eq!(w.len(), 3);
        assert_eq!(w.top_level(), 2);
    }

    #[test]
    fn level_sets_partition_items_and_halve() {
        let w = web(256, 1);
        for level in 0..=w.top_level() {
            let sizes = w.level_set_sizes(level);
            assert_eq!(sizes.iter().sum::<usize>(), 256);
        }
        // Level 1 splits into two roughly even halves.
        let l1 = w.level_set_sizes(1);
        assert_eq!(l1.len(), 2);
        assert!(l1.iter().all(|&s| s > 80 && s < 176), "split {l1:?}");
    }

    #[test]
    fn owner_hosted_uses_one_host_per_item() {
        let w = web(64, 2);
        assert_eq!(w.hosts(), 64);
        for i in 0..64 {
            assert_eq!(w.host_of_item(i), HostId(i as u32));
        }
    }

    #[test]
    fn query_finds_the_correct_level0_locus() {
        let w = web(128, 3);
        for q in [0u64, 5, 321, 635, 1270, 9999] {
            let mut meter = MessageMeter::new();
            let outcome = w.query(w.random_origin(q), &q, &mut meter);
            let want = w.base().locate(&q);
            assert_eq!(outcome.locus, want, "locus mismatch for {q}");
            assert_eq!(outcome.messages, meter.messages());
        }
    }

    #[test]
    fn query_touches_constant_work_per_level() {
        let w = web(512, 4);
        let mut total = 0f64;
        let mut count = 0f64;
        for s in 0..50u64 {
            let mut meter = MessageMeter::new();
            let q = s * 101 + 7;
            let outcome = w.query(w.random_origin(s), &q, &mut meter);
            total += outcome
                .per_level_touches
                .iter()
                .map(|&t| t as f64)
                .sum::<f64>();
            count += outcome.per_level_touches.len() as f64;
        }
        let per_level = total / count;
        assert!(per_level < 6.0, "per-level work too high: {per_level}");
    }

    #[test]
    fn query_messages_scale_logarithmically() {
        let w = web(1024, 5);
        let mut worst = 0u64;
        for s in 0..100u64 {
            let mut meter = MessageMeter::new();
            let q = s * 103;
            let outcome = w.query(w.random_origin(s), &q, &mut meter);
            worst = worst.max(outcome.messages);
        }
        // k = 10 levels; expected O(1) messages per level with slack.
        assert!(worst < 60, "query messages {worst} not O(log n)-like");
    }

    #[test]
    fn same_seed_same_web() {
        let a = web(100, 9);
        let b = web(100, 9);
        let mut m1 = MessageMeter::new();
        let mut m2 = MessageMeter::new();
        let o1 = a.query(3, &555, &mut m1);
        let o2 = b.query(3, &555, &mut m2);
        assert_eq!(o1, o2);
    }

    #[test]
    fn bucketed_placement_uses_fewer_hosts_and_scale_free_memory() {
        let memory = 64usize;
        let build = |n: u64| {
            SkipWeb::<SortedLinkedList>::builder((0..n).map(|i| i * 3).collect())
                .seed(6)
                .bucketed(memory)
                .build()
        };
        let small = build(512);
        let big = build(4096);
        assert!(small.hosts() < 512, "bucketing must reduce host count");
        let m_small = small.network().max_memory();
        let m_big = big.network().max_memory();
        // The paper's claim is per-host memory O(M) *independent of n*: an
        // 8x larger ground set must not grow the per-host maximum much
        // (constants cover conflict-list tails and replication).
        assert!(
            (m_big as f64) < (m_small as f64) * 2.5,
            "per-host memory grew with n: {m_small} -> {m_big}"
        );
        // Linear in M with a constant covering pointer fan-out (~12 units
        // per range with closed-interval conflict lists) and stratum overlap.
        assert!(
            m_big <= 50 * memory as u64,
            "per-host memory {m_big} beyond O(M) constants"
        );
        // Doubling M should not blow memory up super-linearly.
        let double = SkipWeb::<SortedLinkedList>::builder((0..4096u64).map(|i| i * 3).collect())
            .seed(6)
            .bucketed(2 * memory)
            .build();
        let m_double = double.network().max_memory();
        assert!(
            (m_double as f64) < (m_big as f64) * 3.0,
            "memory not O(M)-linear: {m_big} -> {m_double}"
        );
    }

    #[test]
    fn bucketed_queries_cross_fewer_hosts() {
        let n: u64 = 4096;
        let items: Vec<u64> = (0..n).map(|i| i * 7).collect();
        let owner = SkipWeb::<SortedLinkedList>::builder(items.clone())
            .seed(7)
            .build();
        let bucket = SkipWeb::<SortedLinkedList>::builder(items)
            .seed(7)
            .bucketed(64)
            .build();
        let mut owner_total = 0u64;
        let mut bucket_total = 0u64;
        for s in 0..60u64 {
            let q = s * 397 + 11;
            let mut m1 = MessageMeter::new();
            owner.query(owner.random_origin(s), &q, &mut m1);
            owner_total += m1.messages();
            let mut m2 = MessageMeter::new();
            bucket.query(bucket.random_origin(s), &q, &mut m2);
            bucket_total += m2.messages();
        }
        assert!(
            bucket_total * 2 < owner_total * 3,
            "bucketed ({bucket_total}) should beat owner-hosted ({owner_total}) on messages"
        );
    }

    #[test]
    fn replication_places_every_range_on_k_distinct_hosts() {
        let w = SkipWeb::<SortedLinkedList>::builder((0..64u64).map(|i| i * 10).collect())
            .seed(5)
            .replicate(3)
            .build();
        assert_eq!(w.replication().k, 3);
        let plain = web(64, 5);
        for (li, level) in w.level_structs().iter().enumerate() {
            for (si, set) in level.sets.iter().enumerate() {
                for r in level.structure(set).range_ids() {
                    let copies: Vec<HostId> = w.copies(li, si, r).collect();
                    assert!(copies.len() >= 3, "range has {} copies", copies.len());
                    let mut unique = copies.clone();
                    unique.sort_unstable();
                    unique.dedup();
                    assert_eq!(unique.len(), copies.len(), "replicas must be distinct");
                    // The primary copy is exactly the unreplicated placement.
                    assert_eq!(copies[0], plain.primary(li, si, r));
                }
            }
        }
        // Owner-hosted metering reads primaries only, so the simulated
        // Q(n) is untouched by the replication factor.
        for s in 0..10u64 {
            let q = s * 37 + 3;
            let mut m_rep = MessageMeter::new();
            let mut m_plain = MessageMeter::new();
            let o_rep = w.query(w.random_origin(s), &q, &mut m_rep);
            let o_plain = plain.query(plain.random_origin(s), &q, &mut m_plain);
            assert_eq!(o_rep.locus, o_plain.locus);
            assert_eq!(m_rep.messages(), m_plain.messages());
        }
    }

    #[test]
    fn replication_is_capped_by_the_host_count() {
        let w = SkipWeb::<SortedLinkedList>::builder(vec![1, 2, 3])
            .seed(6)
            .replicate(64)
            .build();
        for (li, level) in w.level_structs().iter().enumerate() {
            for (si, set) in level.sets.iter().enumerate() {
                for r in level.structure(set).range_ids() {
                    assert!(w.copies(li, si, r).count() <= w.hosts());
                }
            }
        }
    }

    #[test]
    fn insert_makes_item_queryable() {
        let mut w = web(32, 8);
        let mut meter = MessageMeter::new();
        assert!(w.insert(155, &mut meter));
        assert!(meter.messages() > 0 || w.hosts() == 1);
        assert!(w.ground().contains(&155));
        let mut m2 = MessageMeter::new();
        let out = w.query(w.random_origin(1), &155, &mut m2);
        assert_eq!(out.locus, w.base().locate(&155));
    }

    #[test]
    fn duplicate_insert_is_rejected() {
        let mut w = web(16, 8);
        let mut meter = MessageMeter::new();
        assert!(!w.insert(10, &mut meter)); // 10 already present
        assert_eq!(w.len(), 16);
    }

    #[test]
    fn remove_deletes_item_and_keeps_web_consistent() {
        let mut w = web(32, 10);
        let mut meter = MessageMeter::new();
        assert!(w.remove(&100, &mut meter));
        assert!(!w.ground().contains(&100));
        assert_eq!(w.len(), 31);
        // Still queryable, and 100's locus is now a link.
        let mut m2 = MessageMeter::new();
        let out = w.query(w.random_origin(0), &100, &mut m2);
        assert_eq!(out.locus, w.base().locate(&100));
        assert!(!w.remove(&100, &mut MessageMeter::new()));
    }

    #[test]
    fn growth_adds_levels() {
        let mut w = web(2, 11);
        assert_eq!(w.top_level(), 1);
        for i in 0..30u64 {
            w.insert(1000 + i, &mut MessageMeter::new());
        }
        assert_eq!(w.len(), 32);
        assert_eq!(w.top_level(), 5);
    }

    #[test]
    fn batch_applies_match_sequential_applies() {
        // 24 items: the one-op applies splice, the 12-op batch is past the
        // dirty-fraction bound and takes the full rebuild.
        let (mut batch, mut seq) = (web(24, 13), web(24, 13));
        let insert = |item: u64, bits: u64| Update::Insert { item, bits };
        let mut ops: Vec<Update<u64>> = (0..6)
            .map(|i| insert(5 + i * 37, i * 0x9E37 + 11))
            .collect();
        // A value inserted earlier in the batch, a stored one, and removes
        // of a just-inserted, a stored, an absent and an already-removed
        // value: the flags must be the one-at-a-time ones.
        ops.extend([insert(5, 1), insert(10, 0)]);
        ops.extend([5, 100, 99_999, 5].map(|item| Update::Remove { item }));
        let want: Vec<bool> = ops
            .iter()
            .map(|op| seq.apply(vec![op.clone()])[0])
            .collect();
        assert_eq!(want[6..], [false, false, true, true, false, false]);
        assert_eq!(batch.apply(ops), want);
        assert!(batch == seq, "identical hierarchies");
    }

    /// A removed item's slot goes to the next insert — the lowest free slot
    /// first — and free slots at the end of the table are truncated, so the
    /// table, and with it the owner-hosted host count, never outgrows the
    /// web's peak size.
    #[test]
    fn freed_slots_are_reused_lowest_first_and_truncated_at_the_end() {
        let mut w = web(64, 14);
        let slot_of = |w: &SkipWeb<SortedLinkedList>, key: u64| {
            w.ground_slots()[w.ground().binary_search(&key).expect("stored")]
        };
        assert_eq!(
            slot_of(&w, 300),
            30,
            "a fresh web's slots are its positions"
        );
        w.apply_remove_batch(&[300, 100]);
        assert_eq!(
            (w.slots.free.as_slice(), w.hosts()),
            ([30, 10].as_slice(), 64)
        );
        w.apply_insert_batch(vec![(5, 0xA), (15, 0xB), (635, 0xC)]);
        let slots = [5, 15, 635].map(|key| slot_of(&w, key));
        assert_eq!(
            slots,
            [10, 30, 64],
            "the lowest free slot first, then the end"
        );
        w.apply_remove_batch(&[635, 620]);
        assert_eq!(w.item_bits.len(), 64, "slot 64 is truncated");
        assert_eq!(w.slots.free, [62]);
        w.apply_remove_batch(&[630]);
        assert_eq!((w.item_bits.len(), w.hosts()), (62, 62), "62 goes with 63");
        assert!(w.slots.free.is_empty());
        assert_eq!(w.check_invariants(), Ok(()));
    }

    /// The copy-on-write contract of the structure tables, at the
    /// `onedim_churn` shape: a clone shares every page — no structure's
    /// reference count moves — and a one-op apply on the clone copies only
    /// the pages of the sets its tower names, at most two per level (the
    /// rebuilt set's, and a born or emptied set's), so every other set
    /// still resolves to the structure the original holds.
    #[test]
    fn a_clone_and_one_splice_share_all_but_the_towers_pages() {
        let original = SkipWeb::<SortedLinkedList>::builder((0..3072).map(|i| i * 2).collect())
            .seed(7)
            .build();
        let counts = |w: &SkipWeb<SortedLinkedList>| -> Vec<usize> {
            let per_level = |l: &Level<SortedLinkedList>| {
                let counts = l
                    .sets
                    .iter()
                    .map(|s| Arc::strong_count(l.structures.get(s.id)));
                counts.collect::<Vec<_>>()
            };
            w.levels.iter().flat_map(per_level).collect()
        };
        let before = counts(&original);
        let mut copy = original.clone();
        assert_eq!(counts(&original), before, "a clone bumps no structure");

        let bits = 0x5EED_B175;
        assert_eq!(copy.apply_insert_batch(vec![(3001, bits)]), [true]);
        assert_eq!(copy.levels.len(), original.levels.len());
        let levels = original.levels.len();
        let mut copied = 0;
        for (li, (now, was)) in (0u32..).zip(copy.levels.iter().zip(&original.levels)) {
            let (pages, old) = (&now.structures.pages, &was.structures.pages);
            let shared = pages.iter().zip(old).filter(|(a, b)| Arc::ptr_eq(a, b));
            copied += pages.len().max(old.len()) - shared.count();
            let tower = set_key(bits, li);
            for set in now.sets.iter().filter(|s| s.key != tower) {
                let same = was.set_index(set.key).map(|i| &was.sets[i]);
                let same = same.expect("no set but the tower's is born");
                assert!(
                    Arc::ptr_eq(now.structures.get(set.id), was.structures.get(same.id)),
                    "L{li} set {:#x}: structure copied",
                    set.key
                );
            }
        }
        assert!(
            (1..=2 * levels).contains(&copied),
            "{copied} pages copied over {levels} levels"
        );
        assert_eq!(copy.check_invariants(), Ok(()));
    }

    #[test]
    fn accounting_reports_logarithmic_memory_for_owner_hosting() {
        let w = web(256, 12);
        let net = w.network();
        assert_eq!(net.hosts(), 256);
        // Each host stores O(log n) ranges (its tower) with constant-degree
        // pointers; generous constant.
        assert!(
            net.max_memory() <= 40 * 8,
            "owner-hosted max memory {} not O(log n)",
            net.max_memory()
        );
        assert!(net.max_congestion() > 0.0);
    }

    #[test]
    #[should_panic(expected = "empty skip-web")]
    fn querying_empty_web_panics() {
        let w = SkipWeb::<SortedLinkedList>::builder(vec![]).build();
        let mut meter = MessageMeter::new();
        let _ = w.query(0, &5, &mut meter);
    }

    #[test]
    fn a_stale_donor_gives_the_items_it_shares_and_drops_the_rest() {
        // Since the donor's copy, the set lost "a", "d" and "g" and gained
        // "b" and "e".
        let own = |words: &[&str]| -> Vec<String> { words.iter().map(|w| w.to_string()).collect() };
        let items = own(&["b", "c", "e", "f"]);
        let donor = own(&["a", "c", "d", "f", "g"]);
        let shared = [donor[1].as_ptr(), donor[3].as_ptr()];
        let copy = adopt::<CompressedTrie>(&items, donor, 2);
        assert_eq!(copy, items);
        assert!(copy.capacity() >= items.len() + 2, "room for the inserts");
        assert_eq!([copy[1].as_ptr(), copy[3].as_ptr()], shared, "moved");
    }

    #[test]
    fn a_refill_donates_the_sets_its_source_rebuilt_since() {
        let words = (0..200u32).map(|i| format!("{:08b}", i.wrapping_mul(37) % 256));
        let mut retired = SkipWeb::<CompressedTrie>::builder(words.collect())
            .seed(3)
            .build();
        let (gone, fresh, next) = (
            retired.ground()[17].clone(),
            "zz-fresh".to_owned(),
            "zz-next".to_owned(),
        );
        let bits = 0x5EED_B175;
        // One turn: `current` is the copy `retired` was published beside,
        // and drops an item `retired` keeps and gains one it lacks.
        let mut current = retired.clone();
        let turn = vec![
            Update::Remove { item: gone.clone() },
            Update::Insert {
                item: fresh.clone(),
                bits,
            },
        ];
        assert_eq!(current.apply(turn), [true, true]);
        // The next turn refills `retired` from `current`, which stays
        // published, and applies an insert on the same tower.
        let kept: Vec<*const u8> = retired
            .ground()
            .iter()
            .filter(|&item| *item != gone)
            .map(|item| item.as_ptr())
            .collect();
        let ops = vec![Update::Insert {
            item: next.clone(),
            bits,
        }];
        // Every set of the tower that `retired` has, `current` rebuilt.
        let had = (0u32..)
            .zip(&retired.levels)
            .filter(|(li, l)| l.set_index(set_key(bits, *li)).is_some())
            .count();
        assert!(had > 2);
        let mut donors = retired.refill_from(&current, &ops);
        assert!(
            retired.shares_structures_with(&current),
            "a refill is a clone"
        );
        assert_eq!(donors.len(), had, "one donor per set of the tower");
        let mut want = current.clone();
        assert_eq!(want.apply(ops.clone()), [true]);
        assert_eq!(retired.apply_with(ops, &mut donors), [true]);
        assert!(donors.is_empty(), "every level's rebuild took its donor");
        assert!(retired == want);
        for item in retired.ground() {
            let moved = kept.contains(&item.as_ptr());
            assert_eq!(moved, *item != fresh && *item != next, "{item}");
        }
    }

    #[test]
    fn an_unshared_web_moves_its_own_items_into_a_rebuild() {
        let words = (0..200u32).map(|i| format!("{:08b}", i.wrapping_mul(37) % 256));
        let mut web = SkipWeb::<CompressedTrie>::builder(words.collect())
            .seed(3)
            .build();
        let before: Vec<*const u8> = web.ground().iter().map(|item| item.as_ptr()).collect();
        let item = "zz-own".to_owned();
        assert_eq!(
            web.apply_insert_batch(vec![(item.clone(), 0x5EED_B175)]),
            [true]
        );
        let after = web.ground().iter().filter(|&g| *g != item);
        assert!(after.map(|g| g.as_ptr()).eq(before), "moved, in order");
    }
}
