//! The range-determined link structure abstraction (§2.1–§2.2).
//!
//! The skip-web framework is generic over any structure implementing
//! [`RangeDetermined`]. The contract mirrors the paper's definitions:
//!
//! * the structure is built **deterministically** from its ground set
//!   ([`RangeDetermined::build`]),
//! * nodes and links are exposed uniformly as **ranges** with dense
//!   [`RangeId`]s,
//! * [`RangeDetermined::conflicts`] enumerates the ranges of `D(S)` that
//!   intersect a given range of `D(T)` for `T ⊆ S` — the conflict list
//!   `C(Q, S)` of §2.2. The hierarchy stores no hyperlinks: every level
//!   descent of a query materializes its locus
//!   ([`RangeDetermined::range`]) and asks the parent structure for the
//!   conflict list ([`RangeDetermined::conflicts_into`]), so both are
//!   read-path hooks and should cost `O(answer)`, not `O(n)`,
//! * [`RangeDetermined::search_path`] performs the *local* search a host runs
//!   "as far as it can internally" (§2.5), reporting every range it touches so
//!   the network meter can charge host crossings.

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

    /// Walks from `from` to `locate(q)` along structure links, returning
    /// every range touched, **including both endpoints**. The walk is what a
    /// host executes internally; the engine meters each touched range's host.
    fn search_path(&self, from: RangeId, q: &Self::Query) -> Vec<RangeId>;

    /// One navigation step of the walk toward `locate(q)` (§2.5): the next
    /// range after `from` on [`search_path`](Self::search_path), or `None`
    /// when `from` already is the locus.
    ///
    /// This is the hook the *distributed* engine routes with: a host holding
    /// `from` advances one range at a time, continuing for free while the
    /// next range lives on the same host and forwarding the query otherwise
    /// ("process as far as you can internally"). Implementations must be
    /// memoryless — stepping repeatedly from any intermediate range must
    /// converge on the same locus as a full `search_path` walk, which holds
    /// for any walk that only depends on the current range and `q`.
    ///
    /// The default derives the step from `search_path`; structures with a
    /// cheap positional comparison should override it.
    fn search_step(&self, from: RangeId, q: &Self::Query) -> Option<RangeId> {
        self.search_path(from, q).get(1).copied()
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

    /// The conflict list `C(external, S)` (§2.2): all ranges of this
    /// structure whose range intersects `external`, where `external` comes
    /// from the structure of a subset (or superset) of this ground set.
    fn conflicts(&self, external: &Self::Range) -> Vec<RangeId>;

    /// Appends [`conflicts(external)`](Self::conflicts) to `out` — the form
    /// every level descent and repair walk calls, filling the walk's one
    /// buffer instead of allocating a list each time: a range's hyperlinks
    /// are this list, computed when a route reads them. The order must be a
    /// function of the two structures alone ([`best_entry`](Self::best_entry)
    /// sees it). The default goes through `conflicts`; structures that can
    /// enumerate the list directly override it (and derive `conflicts` from
    /// it).
    fn conflicts_into(&self, external: &Self::Range, out: &mut Vec<RangeId>) {
        out.extend(self.conflicts(external));
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
