//! The range-determined link structure abstraction (§2.1–§2.2).
//!
//! The skip-web framework is generic over any structure implementing
//! [`RangeDetermined`]. The contract mirrors the paper's definitions:
//!
//! * the structure is built **deterministically** from its ground set
//!   ([`RangeDetermined::build`]),
//! * nodes and links are exposed uniformly as **ranges** with dense
//!   [`RangeId`]s,
//! * [`RangeDetermined::conflicts_into`] enumerates the ranges of `D(S)`
//!   that intersect a given range of `D(T)` for `T ⊆ S` — the conflict list
//!   `C(Q, S)` of §2.2. The hierarchy stores no hyperlinks: every level
//!   descent of a query materializes its locus
//!   ([`RangeDetermined::range`]) and asks the parent structure for the
//!   conflict list, so both are read-path hooks and should cost
//!   `O(answer)`, not `O(n)`,
//! * [`RangeDetermined::search_step`] is one step of the *local* search a
//!   host runs "as far as it can internally" (§2.5). It is the only
//!   navigation hook a structure writes: the cost-model simulator and the
//!   distributed engine both advance a query through it one range at a
//!   time, the first charging each visited range's host and the second
//!   forwarding when the next range lives elsewhere.
//!
//! [`RangeDetermined::search_path`] and [`RangeDetermined::conflicts`] are
//! allocating conveniences provided over those two.

use std::fmt;

/// Dense identifier of a range (a node or a link) within one structure
/// instance. IDs are only meaningful relative to the instance that issued
/// them and are invalidated by rebuilds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RangeId(pub u32);

impl RangeId {
    /// Returns the id as an index into dense per-range tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RangeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "range#{}", self.0)
    }
}

/// A link structure whose nodes and links are determined by ranges over a
/// universe `U` (§2.1).
///
/// Implementations must be **canonical**: `build` applied to the same item
/// set (in any order) yields the same logical structure, because the paper's
/// framework requires `S` and `U` to determine `D(S)` uniquely.
pub trait RangeDetermined: Clone + fmt::Debug {
    /// Ground-set element type.
    type Item: Clone + Ord + fmt::Debug;
    /// Query-point type (an element of the universe `U`, not necessarily of `S`).
    type Query: Clone + fmt::Debug;
    /// Materialized range of a node or link — a describable subset of `U`.
    type Range: Clone + fmt::Debug;

    /// Builds the unique structure for `items`. Duplicates are removed and
    /// items are put in canonical order.
    fn build(items: Vec<Self::Item>) -> Self;

    /// The total order [`build`](Self::build) sorts items into — the
    /// canonical order of §2.1 made comparable one pair at a time, so that
    /// callers maintaining an already-canonical ground set can splice new
    /// items in (and binary-search for membership) without re-running
    /// `build` over the whole set.
    ///
    /// Contract: `canonical_cmp(a, b) == Ordering::Equal` iff `a == b`, and
    /// for any item set, `build`'s item order is sorted under this
    /// comparator. The default is the `Ord` order; structures whose builder
    /// sorts by a derived key (e.g. a space-filling curve) must override it
    /// to match.
    fn canonical_cmp(a: &Self::Item, b: &Self::Item) -> std::cmp::Ordering {
        a.cmp(b)
    }

    /// The ground set in canonical order.
    fn items(&self) -> &[Self::Item];

    /// The ground set in canonical order, moved out of the structure: what
    /// a rebuild of a set reuses instead of cloning [`items`](Self::items)
    /// when no one else holds the structure.
    fn into_items(self) -> Vec<Self::Item>;

    /// Number of stored items.
    fn len(&self) -> usize {
        self.items().len()
    }

    /// Whether the ground set is empty.
    fn is_empty(&self) -> bool {
        self.items().is_empty()
    }

    /// Number of ranges (nodes + links); valid ids are `0..num_ranges`.
    fn num_ranges(&self) -> usize;

    /// Materializes the range for `id`. On the read path: a query calls
    /// this once per level, for the level locus whose hyperlinks it is
    /// about to follow.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    fn range(&self, id: RangeId) -> Self::Range;

    /// The index (into [`items`](Self::items)) of the item that *owns* this
    /// range for host-placement purposes. Node ranges are owned by their
    /// item; links are owned by one canonical endpoint (so that "towers" of
    /// an item land on its host, as in Figure 2).
    fn owner(&self, id: RangeId) -> usize;

    /// The node range of item `item` — where a search starting from that
    /// item's host enters the structure.
    ///
    /// # Panics
    ///
    /// Panics if `item >= self.len()`.
    fn entry_of_item(&self, item: usize) -> RangeId;

    /// Ranges incident to `id` through structure links (used for the local
    /// walk and for the congestion/reference accounting of §1.1).
    fn neighbors(&self, id: RangeId) -> Vec<RangeId>;

    /// The maximal (most specific) range containing the query point — where a
    /// search for `q` terminates in this structure.
    fn locate(&self, q: &Self::Query) -> RangeId;

    /// One navigation step of the walk toward `locate(q)` (§2.5): a range
    /// incident to `from` ([`neighbors`](Self::neighbors)) that is nearer
    /// the locus, or `None` when `from` already is the locus.
    ///
    /// This is the hook every route advances through: a host holding `from`
    /// moves one range at a time, continuing for free while the next range
    /// lives on the same host and forwarding the query otherwise ("process
    /// as far as you can internally"). Implementations must be memoryless —
    /// the step depends on `from` and `q` alone — and stepping repeatedly
    /// from *any* range, node or link, must reach `locate(q)` within
    /// `O(num_ranges)` steps.
    fn search_step(&self, from: RangeId, q: &Self::Query) -> Option<RangeId>;

    /// The whole walk from `from` to `locate(q)`: every range
    /// [`search_step`](Self::search_step) visits, **including both
    /// endpoints**. A convenience for callers that want the list; routes
    /// step instead.
    fn search_path(&self, from: RangeId, q: &Self::Query) -> Vec<RangeId> {
        let mut path = vec![from];
        let mut at = from;
        while let Some(next) = self.search_step(at, q) {
            path.push(next);
            at = next;
        }
        path
    }

    /// Given the conflict list of the maximal range at a finer level, picks
    /// the best range to continue the search for `q` from. Defaults to the
    /// first candidate; structures override this to pick the conflicting
    /// range nearest the query's locus.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    fn best_entry(&self, candidates: &[RangeId], q: &Self::Query) -> RangeId {
        let _ = q;
        *candidates
            .first()
            .expect("conflict lists are nonempty for nonempty structures")
    }

    /// Appends the conflict list `C(external, S)` (§2.2) to `out`: all
    /// ranges of this structure whose range intersects `external`, where
    /// `external` comes from the structure of a subset (or superset) of
    /// this ground set. Every level descent and repair walk calls this,
    /// filling the walk's one buffer instead of allocating a list each
    /// time: a range's hyperlinks are this list, computed when a route
    /// reads them. What `out` already holds is left alone, and the order
    /// appended must be a function of the two structures alone
    /// ([`best_entry`](Self::best_entry) sees it).
    fn conflicts_into(&self, external: &Self::Range, out: &mut Vec<RangeId>);

    /// [`conflicts_into`](Self::conflicts_into) a fresh list — a convenience
    /// for callers off the hot paths.
    fn conflicts(&self, external: &Self::Range) -> Vec<RangeId> {
        let mut out = Vec::new();
        self.conflicts_into(external, &mut out);
        out
    }

    /// A query point probing the location of `item` — used by updates (§4)
    /// to route to the neighbourhood an insertion or deletion will modify.
    fn item_query(item: &Self::Item) -> Self::Query;

    /// The node range `item` occupies in its own singleton structure — the
    /// probe that updates (§4) intersect against every level to enumerate
    /// the conflict neighbourhoods an insertion or deletion rewires. Both
    /// the cost-model simulator and the distributed engine repair through
    /// this hook, so overriding it changes which ranges an update touches
    /// everywhere at once.
    ///
    /// The default materializes a one-item structure; implementations with
    /// a cheap direct construction should override it.
    fn probe_range(item: &Self::Item) -> Self::Range {
        let probe = Self::build(vec![item.clone()]);
        probe.range(probe.entry_of_item(0))
    }

    /// Convenience iterator over all valid range ids.
    fn range_ids(&self) -> RangeIds {
        RangeIds {
            next: 0,
            end: self.num_ranges() as u32,
        }
    }
}

/// Iterator over the dense range ids of a structure; created by
/// [`RangeDetermined::range_ids`].
#[derive(Debug, Clone)]
pub struct RangeIds {
    next: u32,
    end: u32,
}

impl Iterator for RangeIds {
    type Item = RangeId;

    fn next(&mut self) -> Option<RangeId> {
        if self.next < self.end {
            let id = RangeId(self.next);
            self.next += 1;
            Some(id)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = (self.end - self.next) as usize;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for RangeIds {}

/// The contract of [`RangeDetermined::search_step`], checked against hooks
/// that do not go through it: from every range of `d`, each step follows a
/// structure link, and the walk ends — within `2·num_ranges + 2` steps — at
/// `locate(q)`. Shared by the structures' unit tests.
#[cfg(test)]
pub(crate) fn assert_steps_reach_locate<D: RangeDetermined>(d: &D, q: &D::Query) {
    for from in d.range_ids() {
        let (mut at, mut steps) = (from, 0);
        while let Some(next) = d.search_step(at, q) {
            assert!(d.neighbors(at).contains(&next), "{at} -> {next} for {q:?}");
            at = next;
            steps += 1;
            assert!(steps <= 2 * d.num_ranges() + 2, "walk from {from} cycles");
        }
        assert_eq!(at, d.locate(q), "locus for {q:?} from {from}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_id_index_and_display() {
        assert_eq!(RangeId(4).index(), 4);
        assert_eq!(RangeId(4).to_string(), "range#4");
    }

    #[test]
    fn range_ids_iterates_densely() {
        let ids: Vec<RangeId> = RangeIds { next: 0, end: 3 }.collect();
        assert_eq!(ids, vec![RangeId(0), RangeId(1), RangeId(2)]);
    }

    #[test]
    fn range_ids_reports_exact_size() {
        let it = RangeIds { next: 1, end: 5 };
        assert_eq!(it.len(), 4);
    }
}
