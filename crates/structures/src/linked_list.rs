//! The sorted doubly-linked list — the paper's running example (§2.1) and the
//! base structure of one-dimensional skip-webs.
//!
//! Nodes carry singleton ranges `[x, x]`; links carry the closed interval
//! `[x, y]` of their endpoints, with sentinel links to `±∞` at both ends.
//! Lemma 1 (the set-halving lemma for sorted lists) is validated
//! statistically in [`crate::properties`] and property tests.

use crate::interval::{Endpoint, KeyInterval};
use crate::traits::{RangeDetermined, RangeId};

/// A sorted doubly-linked list over `u64` keys, exposed as a
/// range-determined link structure.
///
/// Range ids are laid out densely: ids `0..m` are the `m` key nodes in
/// sorted order; ids `m..2m+1` are the `m + 1` links (`link j` sits left of
/// `node j`). An empty list has the single link `[-∞, +∞]`.
///
/// # Example
///
/// ```
/// use skipweb_structures::{RangeDetermined, SortedLinkedList};
///
/// let list = SortedLinkedList::build(vec![30, 10, 20, 10]);
/// assert_eq!(list.items(), &[10, 20, 30]);        // deduped + sorted
/// assert_eq!(list.num_ranges(), 7);               // 3 nodes + 4 links
/// let locus = list.locate(&25);
/// assert!(list.range(locus).contains(25));
/// assert_eq!(list.nearest_key(25), Some(20));     // 25 is closer to 20
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortedLinkedList {
    keys: Vec<u64>,
}

impl SortedLinkedList {
    /// Number of keys stored.
    fn m(&self) -> usize {
        self.keys.len()
    }

    /// Maps a range id to its position on the line:
    /// `link j → 2j`, `node i → 2i + 1`. Positions increase left to right.
    fn position(&self, id: RangeId) -> usize {
        let m = self.m();
        let idx = id.index();
        if idx < m {
            2 * idx + 1
        } else {
            2 * (idx - m)
        }
    }

    /// Inverse of [`position`](Self::position).
    fn id_at(&self, pos: usize) -> RangeId {
        let m = self.m();
        if pos % 2 == 1 {
            RangeId((pos / 2) as u32)
        } else {
            RangeId((m + pos / 2) as u32)
        }
    }

    /// The nearest stored key to `q` (ties to the smaller key), or `None`
    /// for an empty list. This is the answer to the paper's 1-D
    /// nearest-neighbour query once the search has reached level 0.
    pub fn nearest_key(&self, q: u64) -> Option<u64> {
        if self.keys.is_empty() {
            return None;
        }
        match self.keys.binary_search(&q) {
            Ok(i) => Some(self.keys[i]),
            Err(0) => Some(self.keys[0]),
            Err(j) if j == self.keys.len() => Some(self.keys[j - 1]),
            Err(j) => {
                let left = self.keys[j - 1];
                let right = self.keys[j];
                if q - left <= right - q {
                    Some(left)
                } else {
                    Some(right)
                }
            }
        }
    }

    /// The ranges immediately left and right of `id` on the line
    /// (`None` at the sentinels' outer ends). Used by distributed shards
    /// that materialize the doubly-linked list per host.
    pub fn adjacent(&self, id: RangeId) -> (Option<RangeId>, Option<RangeId>) {
        if self.m() == 0 {
            return (None, None);
        }
        let pos = self.position(id);
        let last = 2 * self.m();
        let left = (pos > 0).then(|| self.id_at(pos - 1));
        let right = (pos < last).then(|| self.id_at(pos + 1));
        (left, right)
    }
}

impl RangeDetermined for SortedLinkedList {
    type Item = u64;
    type Query = u64;
    type Range = KeyInterval;

    fn build(mut items: Vec<u64>) -> Self {
        items.sort_unstable();
        items.dedup();
        SortedLinkedList { keys: items }
    }

    fn items(&self) -> &[u64] {
        &self.keys
    }

    fn into_items(self) -> Vec<u64> {
        self.keys
    }

    fn num_ranges(&self) -> usize {
        if self.keys.is_empty() {
            1
        } else {
            2 * self.m() + 1
        }
    }

    fn range(&self, id: RangeId) -> KeyInterval {
        let m = self.m();
        if m == 0 {
            assert_eq!(id.index(), 0, "empty list has a single range");
            return KeyInterval::everything();
        }
        let idx = id.index();
        assert!(idx < self.num_ranges(), "range id out of bounds: {id}");
        if idx < m {
            KeyInterval::singleton(self.keys[idx])
        } else {
            let j = idx - m;
            if j == 0 {
                KeyInterval::below(self.keys[0])
            } else if j == m {
                KeyInterval::above(self.keys[m - 1])
            } else {
                KeyInterval::between(self.keys[j - 1], self.keys[j])
            }
        }
    }

    fn owner(&self, id: RangeId) -> usize {
        let m = self.m();
        if m == 0 {
            return 0;
        }
        let idx = id.index();
        if idx < m {
            idx
        } else {
            // Link j is owned by its left key (item j-1); the left sentinel
            // belongs to the minimum key's item.
            (idx - m).saturating_sub(1)
        }
    }

    fn entry_of_item(&self, item: usize) -> RangeId {
        assert!(item < self.m(), "item index out of bounds");
        RangeId(item as u32)
    }

    fn neighbors(&self, id: RangeId) -> Vec<RangeId> {
        let m = self.m();
        if m == 0 {
            return Vec::new();
        }
        let pos = self.position(id);
        let last = 2 * m;
        let mut out = Vec::with_capacity(2);
        if pos > 0 {
            out.push(self.id_at(pos - 1));
        }
        if pos < last {
            out.push(self.id_at(pos + 1));
        }
        out
    }

    fn locate(&self, q: &u64) -> RangeId {
        let m = self.m();
        if m == 0 {
            return RangeId(0);
        }
        match self.keys.binary_search(q) {
            Ok(i) => RangeId(i as u32),
            Err(j) => RangeId((m + j) as u32),
        }
    }

    fn search_step(&self, from: RangeId, q: &u64) -> Option<RangeId> {
        // Ranges are contiguous on the line: compare positions.
        let target = self.position(self.locate(q));
        let at = self.position(from);
        match at.cmp(&target) {
            std::cmp::Ordering::Equal => None,
            std::cmp::Ordering::Less => Some(self.id_at(at + 1)),
            std::cmp::Ordering::Greater => Some(self.id_at(at - 1)),
        }
    }

    fn best_entry(&self, candidates: &[RangeId], q: &u64) -> RangeId {
        assert!(!candidates.is_empty(), "conflict list may not be empty");
        let target = self.position(self.locate(q));
        *candidates
            .iter()
            .min_by_key(|id| {
                let p = self.position(**id);
                p.abs_diff(target)
            })
            .expect("nonempty")
    }

    fn item_query(item: &u64) -> u64 {
        *item
    }

    fn probe_range(item: &u64) -> KeyInterval {
        // A singleton list's node range is just `[item, item]`; skip the
        // structure build the default would pay per update.
        KeyInterval::singleton(*item)
    }

    fn conflicts_into(&self, external: &KeyInterval, out: &mut Vec<RangeId>) {
        let m = self.m();
        if m == 0 {
            out.push(RangeId(0));
            return;
        }
        // Ranges are contiguous on the line, so the conflict list is the run
        // of positions between the leftmost and rightmost intersecting range.
        let lo_pos = match external.lo() {
            Endpoint::NegInf => 0,
            Endpoint::PosInf => 2 * m,
            Endpoint::Key(k) => {
                // Leftmost range whose closed interval reaches k: when k is a
                // stored key, the link ending at k touches it.
                match self.keys.binary_search(&k) {
                    Ok(i) => 2 * i,
                    Err(j) => 2 * j,
                }
            }
        };
        let hi_pos = match external.hi() {
            Endpoint::NegInf => 0,
            Endpoint::PosInf => 2 * m,
            Endpoint::Key(k) => match self.keys.binary_search(&k) {
                // The link starting at a stored key k touches it too.
                Ok(i) => 2 * i + 2,
                Err(j) => 2 * j,
            },
        };
        out.extend((lo_pos..=hi_pos).map(|p| self.id_at(p)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list(keys: &[u64]) -> SortedLinkedList {
        SortedLinkedList::build(keys.to_vec())
    }

    #[test]
    fn build_sorts_and_dedups() {
        let l = list(&[5, 1, 5, 3]);
        assert_eq!(l.items(), &[1, 3, 5]);
        assert_eq!(l.len(), 3);
        assert!(!l.is_empty());
    }

    #[test]
    fn empty_list_has_universe_link() {
        let l = list(&[]);
        assert_eq!(l.num_ranges(), 1);
        assert_eq!(l.range(RangeId(0)), KeyInterval::everything());
        assert_eq!(l.locate(&99), RangeId(0));
        assert!(l.neighbors(RangeId(0)).is_empty());
        assert_eq!(l.nearest_key(7), None);
    }

    #[test]
    fn ranges_tile_the_line() {
        let l = list(&[10, 20]);
        // nodes: 0:{10} 1:{20}; links: 2:[-inf,10] 3:[10,20] 4:[20,+inf]
        assert_eq!(l.num_ranges(), 5);
        assert_eq!(l.range(RangeId(0)), KeyInterval::singleton(10));
        assert_eq!(l.range(RangeId(2)), KeyInterval::below(10));
        assert_eq!(l.range(RangeId(3)), KeyInterval::between(10, 20));
        assert_eq!(l.range(RangeId(4)), KeyInterval::above(20));
    }

    #[test]
    fn incidence_matches_range_intersection() {
        // §2.1: a node and link are incident iff their ranges intersect.
        let l = list(&[10, 20, 30]);
        for id in l.range_ids() {
            let r = l.range(id);
            for other in l.range_ids() {
                if id == other {
                    continue;
                }
                let inc = l.neighbors(id).contains(&other);
                let isect = r.intersects(&l.range(other));
                // Incident ranges always intersect.
                if inc {
                    assert!(isect, "incident but disjoint: {id} {other}");
                }
                // Non-adjacent intersecting pairs can only be node/link pairs
                // sharing an endpoint — for a list, intersection implies
                // adjacency except for identical-endpoint cases.
                if isect && !inc {
                    // the only such pairs share exactly one key endpoint and
                    // are two links around the same node or a node inside
                    // the other's closed interval; for a list of distinct
                    // keys, intersecting non-neighbours must share a key.
                    let a = l.range(id);
                    let b = l.range(other);
                    assert!(
                        a.lo() == b.hi() || b.lo() == a.hi(),
                        "unexpected intersection {a:?} {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn locate_finds_node_for_member_and_link_for_gap() {
        let l = list(&[10, 20, 30]);
        assert_eq!(l.locate(&20), RangeId(1)); // node {20}
        assert_eq!(l.range(l.locate(&25)), KeyInterval::between(20, 30));
        assert_eq!(l.range(l.locate(&5)), KeyInterval::below(10));
        assert_eq!(l.range(l.locate(&35)), KeyInterval::above(30));
    }

    #[test]
    fn search_path_walks_contiguously_and_inclusively() {
        let l = list(&[10, 20, 30]);
        let from = l.entry_of_item(0); // node {10}
        let path = l.search_path(from, &30);
        // {10} -> [10,20] -> {20} -> [20,30] -> {30}
        assert_eq!(path.len(), 5);
        assert_eq!(path[0], from);
        assert_eq!(*path.last().unwrap(), l.locate(&30));
        // Walking right to left works too.
        let back = l.search_path(l.locate(&30), &10);
        assert_eq!(back.len(), 5);
        assert_eq!(*back.last().unwrap(), l.entry_of_item(0));
    }

    #[test]
    fn search_step_walks_the_line_to_the_locate_answer() {
        let l = list(&[10, 20, 30, 40]);
        for q in [0u64, 10, 15, 33, 40, 99] {
            for from in l.range_ids() {
                let target = l.position(l.locate(&q));
                let mut cur = from;
                while let Some(next) = l.search_step(cur, &q) {
                    // One position along the line, toward the locus.
                    let (a, b) = (l.position(cur), l.position(next));
                    assert_eq!(a.abs_diff(b), 1, "q={q} from={from}");
                    assert!(b.abs_diff(target) < a.abs_diff(target));
                    cur = next;
                }
                assert_eq!(cur, l.locate(&q));
            }
        }
    }

    #[test]
    fn search_path_from_target_is_single_range() {
        let l = list(&[10, 20, 30]);
        let at = l.locate(&25);
        assert_eq!(l.search_path(at, &25), vec![at]);
    }

    #[test]
    fn conflicts_match_brute_force_intersection() {
        let l = list(&[10, 20, 30, 40]);
        let cases = [
            KeyInterval::between(15, 35),
            KeyInterval::singleton(20),
            KeyInterval::below(10),
            KeyInterval::above(40),
            KeyInterval::everything(),
            KeyInterval::between(20, 20),
            KeyInterval::between(11, 19),
        ];
        for q in cases {
            let mut got = l.conflicts(&q);
            got.sort();
            let want: Vec<RangeId> = l
                .range_ids()
                .filter(|id| l.range(*id).intersects(&q))
                .collect();
            assert_eq!(got, want, "conflicts for {q}");
        }
    }

    #[test]
    fn conflicts_against_empty_list_hit_the_universe_link() {
        let l = list(&[]);
        assert_eq!(l.conflicts(&KeyInterval::singleton(5)), vec![RangeId(0)]);
    }

    #[test]
    fn best_entry_picks_range_nearest_query() {
        let l = list(&[10, 20, 30]);
        let candidates: Vec<RangeId> = l.range_ids().collect();
        let chosen = l.best_entry(&candidates, &29);
        assert_eq!(chosen, l.locate(&29));
    }

    #[test]
    fn owner_assigns_links_to_left_keys() {
        let l = list(&[10, 20]);
        assert_eq!(l.owner(RangeId(0)), 0); // node {10}
        assert_eq!(l.owner(RangeId(1)), 1); // node {20}
        assert_eq!(l.owner(RangeId(2)), 0); // [-inf,10] -> min key's item
        assert_eq!(l.owner(RangeId(3)), 0); // [10,20] -> left key
        assert_eq!(l.owner(RangeId(4)), 1); // [20,inf] -> left key
    }

    #[test]
    fn nearest_key_prefers_closer_and_breaks_ties_low() {
        let l = list(&[10, 20]);
        assert_eq!(l.nearest_key(14), Some(10));
        assert_eq!(l.nearest_key(16), Some(20));
        assert_eq!(l.nearest_key(15), Some(10)); // tie -> smaller
        assert_eq!(l.nearest_key(10), Some(10));
        assert_eq!(l.nearest_key(0), Some(10));
        assert_eq!(l.nearest_key(u64::MAX), Some(20));
    }

    #[test]
    fn neighbors_connect_the_line() {
        let l = list(&[10, 20]);
        // node {10} (id 0) sits between links [-inf,10] (id 2) and [10,20] (id 3)
        assert_eq!(l.neighbors(RangeId(0)), vec![RangeId(2), RangeId(3)]);
        // left sentinel link has a single right neighbor
        assert_eq!(l.neighbors(RangeId(2)), vec![RangeId(0)]);
        // right sentinel link has a single left neighbor
        assert_eq!(l.neighbors(RangeId(4)), vec![RangeId(1)]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn range_rejects_bad_id() {
        let _ = list(&[1]).range(RangeId(9));
    }
}
