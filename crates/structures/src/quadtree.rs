//! Compressed quadtrees/octrees for `D`-dimensional point sets (§3.1).
//!
//! The tree subdivides the bounding hypercube into `2^D` subcubes and
//! compresses single-child chains into edges, giving `O(n)` nodes and links
//! regardless of point distribution (the uncompressed tree can be `O(n)`
//! deep). The range of a node is its hypercube; the range of a link is the
//! hypercube of its child node, exactly as §3.1 defines.
//!
//! # Conflict lists
//!
//! Quadtree cells **nest**, so the literal "every intersecting range" reading
//! of §2.2 would include the whole ancestor chain of a cell (the root cube
//! intersects everything) — under which no `O(1)` bound can hold. The
//! operative conflict list — the one the skip-web descent and Lemma 3's
//! `O(1)` bound (via the skip-quadtree results of Eppstein, Goodrich, Sun)
//! actually use — is the *minimal relevant set* of `D(S)` for a cell `C` of
//! `D(T)`:
//!
//! * the deepest node of `D(S)` whose cell contains `C` (the location of `C`
//!   in the finer tree), and
//! * the maximal nodes of `D(S)` strictly inside `C` (at most `2^D` of them,
//!   all children of that deepest node), with the links joining them.
//!
//! [`CompressedQuadtree::conflicts`] implements that set; `EXPERIMENTS.md`
//! records the distinction.
//!
//! # Layout
//!
//! The tree is laid out as the `tree` module describes, a node's children
//! in child-digit (Morton) order.
//!
//! Cells are addressed by Morton prefix, as the Skip Quadtree addresses
//! them, and a hook encodes its query once: `locate`, `search_step` and
//! `best_entry` compute the query point's Morton code on entry and test
//! every cell they meet with [`Cell::contains_code`] — a shift and a compare
//! — instead of re-encoding the point per cell. `build` encodes each point
//! once too and keeps the codes beside the points, so a leaf's cell is read
//! off its code.

use crate::geometry::{Cell, GridPoint, MAX_DEPTH};
use crate::traits::{RangeDetermined, RangeId};
use crate::tree::{Node, Tree};

/// Point type stored in quadtrees — re-exported grid points.
pub type PointKey<const D: usize> = GridPoint<D>;

/// What a quadtree node records besides its place in the tree.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Cube<const D: usize> {
    cell: Cell<D>,
    /// Index of the stored point for leaves.
    point: Option<u32>,
}

const _: () = assert!(std::mem::size_of::<Node<Cube<2>>>() == 80);

/// A compressed quadtree (`D = 2`) / octree (`D = 3`) over grid points,
/// exposed as a range-determined link structure.
///
/// Range ids `0..num_nodes` are nodes (root first); the rest are links in
/// parent-before-child discovery order.
///
/// # Example
///
/// ```
/// use skipweb_structures::{CompressedQuadtree, PointKey, RangeDetermined};
///
/// let pts = vec![
///     PointKey::new([1, 1]),
///     PointKey::new([2, 3]),
///     PointKey::new([1_000_000, 2_000_000]),
/// ];
/// let qt = CompressedQuadtree::<2>::build(pts);
/// assert_eq!(qt.len(), 3);
/// let hit = qt.locate(&PointKey::new([1, 1]));
/// assert!(qt.is_leaf(hit));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedQuadtree<const D: usize> {
    points: Vec<GridPoint<D>>,
    codes: Vec<u128>,
    /// Children in child-digit (Morton) order.
    tree: Tree<Cube<D>>,
}

impl<const D: usize> CompressedQuadtree<D> {
    /// Number of tree nodes (internal + leaves + the universe root).
    pub fn num_nodes(&self) -> usize {
        self.tree.num_nodes()
    }

    /// Number of tree links.
    pub fn num_links(&self) -> usize {
        self.tree.num_links()
    }

    /// Whether `id` denotes a leaf node holding a point.
    pub fn is_leaf(&self, id: RangeId) -> bool {
        self.leaf_point(id).is_some()
    }

    /// The point stored at a leaf node, if `id` is a leaf.
    pub fn leaf_point(&self, id: RangeId) -> Option<GridPoint<D>> {
        let node = self.tree.nodes().get(id.index())?;
        node.data.point.map(|p| self.points[p as usize])
    }

    /// The cell of a node id (not a link id).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node.
    pub fn node_cell(&self, id: RangeId) -> Cell<D> {
        self.cell_of(id.index())
    }

    fn cell_of(&self, node: usize) -> Cell<D> {
        self.tree.node(node).data.cell
    }

    /// Depth of a range's cell — deeper is more specific.
    pub fn depth_of(&self, id: RangeId) -> u32 {
        self.range_cell(id).depth()
    }

    /// A link's range is its child's cell.
    fn range_cell(&self, id: RangeId) -> Cell<D> {
        self.cell_of(self.tree.node_of(id))
    }

    /// Item indices of all points in the subtree rooted at node `id`,
    /// capped at `cap` results (breadth-first).
    pub fn subtree_points(&self, id: RangeId, cap: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut queue = std::collections::VecDeque::from([id.index()]);
        while let Some(i) = queue.pop_front() {
            if out.len() >= cap {
                break;
            }
            if let Some(p) = self.tree.node(i).data.point {
                out.push(p as usize);
            }
            queue.extend(self.tree.kids_of(i).iter().map(|&c| c as usize));
        }
        out
    }

    /// The stored point nearest to `q` among the subtree of `node`, used by
    /// the approximate-nearest-neighbour example flows of §3.1.
    pub fn nearest_in_subtree(&self, node: RangeId, q: &GridPoint<D>) -> Option<GridPoint<D>> {
        self.subtree_points(node, usize::MAX)
            .into_iter()
            .map(|i| self.points[i])
            .min_by_key(|p| p.distance_sq(q))
    }

    /// Parent node id of a node, if any.
    pub fn parent_of(&self, id: RangeId) -> Option<RangeId> {
        self.tree.node(id.index()).parent.map(RangeId)
    }

    /// Depth of the smallest cell containing points `lo..hi` (at least two):
    /// the longest common Morton prefix of the sorted slice is that of its
    /// ends.
    fn split_depth(&self, lo: usize, hi: usize) -> u32 {
        let diff = self.codes[lo] ^ self.codes[hi - 1];
        let used_bits = (MAX_DEPTH as usize) * D;
        let lead = (diff.leading_zeros() as usize).saturating_sub(128 - used_bits);
        (lead / D) as u32
    }

    fn build_rec(&mut self, lo: usize, hi: usize, parent: Option<u32>) -> u32 {
        debug_assert!(lo < hi);
        if hi - lo == 1 {
            let leaf = Cube {
                cell: Cell::at_depth(self.codes[lo], MAX_DEPTH),
                point: Some(lo as u32),
            };
            return self.tree.push(parent, lo..hi, true, leaf);
        }
        let depth = self.split_depth(lo, hi);
        debug_assert!(
            depth < MAX_DEPTH,
            "distinct points must split above unit depth"
        );
        let cell = Cell::at_depth(self.codes[lo], depth);
        let node_idx = self
            .tree
            .push(parent, lo..hi, false, Cube { cell, point: None });
        // Partition by the D-bit digit at `depth` and recurse per group.
        let mut start = lo;
        while start < hi {
            let digit = cell.child_digit(self.codes[start]);
            let mut end = start + 1;
            while end < hi && cell.child_digit(self.codes[end]) == digit {
                end += 1;
            }
            let child = self.build_rec(start, end, Some(node_idx));
            self.tree.hang(child);
            start = end;
        }
        node_idx
    }

    /// Checks the tree's tables (see the `tree` module): among other
    /// things, that each node's children run in child-digit order. `build`
    /// establishes this; tests call it.
    pub fn check_tables(&self) -> Result<(), String> {
        self.tree
            .check(|v, c| self.cell_of(v).child_digit(self.cell_of(c).prefix()))
    }

    /// The children of node `id` (node ids, not links), in child-digit —
    /// Morton — order. Borrowed from the tree's one table, so a walk over a
    /// subtree allocates nothing per node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node.
    pub fn children(&self, id: RangeId) -> &[u32] {
        self.tree.kids_of(id.index())
    }

    /// The child of node `idx` whose cell contains the point with Morton
    /// code `code`, if any.
    fn child_containing(&self, idx: usize, code: u128) -> Option<u32> {
        self.tree
            .kids_of(idx)
            .iter()
            .copied()
            .find(|&c| self.cell_of(c as usize).contains_code(code))
    }

    /// Deepest node whose cell contains (or equals) `target`.
    fn deepest_containing(&self, target: &Cell<D>) -> usize {
        let mut cur = 0usize;
        'descend: loop {
            for &c in self.tree.kids_of(cur) {
                if self.cell_of(c as usize).contains_cell(target) {
                    cur = c as usize;
                    continue 'descend;
                }
            }
            return cur;
        }
    }
}

impl<const D: usize> RangeDetermined for CompressedQuadtree<D> {
    type Item = GridPoint<D>;
    type Query = GridPoint<D>;
    type Range = Cell<D>;

    /// Canonical order is the Morton (Z-order) curve, not `GridPoint`'s
    /// derived lexicographic `Ord` — see [`build`](Self::build).
    fn canonical_cmp(a: &GridPoint<D>, b: &GridPoint<D>) -> std::cmp::Ordering {
        a.morton().cmp(&b.morton())
    }

    fn build(mut items: Vec<GridPoint<D>>) -> Self {
        // One Morton code per point: sort the (code, point) pairs once, then
        // split them. Distinct points have distinct codes, so the order is
        // the points' Morton order and a duplicate is a repeated pair.
        let mut keyed: Vec<(u128, GridPoint<D>)> =
            items.drain(..).map(|p| (p.morton(), p)).collect();
        keyed.sort_unstable_by_key(|&(code, _)| code);
        keyed.dedup();
        items.extend(keyed.iter().map(|&(_, p)| p));
        let codes: Vec<u128> = keyed.iter().map(|&(code, _)| code).collect();
        drop(keyed);
        let n = items.len();
        let mut qt = CompressedQuadtree {
            points: items,
            codes,
            tree: Tree::with_capacity(n),
        };
        // The root is always the universe cell so that every query point has
        // a location. When the points span the universe (their Morton codes
        // first differ in the top digit) the compressed top cell *is* that
        // root; otherwise it hangs, an only child, below a universe node.
        if n >= 2 && qt.split_depth(0, n) == 0 {
            qt.build_rec(0, n, None);
        } else {
            let universe = Cube {
                cell: Cell::universe(),
                point: None,
            };
            let root = qt.tree.push(None, 0..n, false, universe);
            if n > 0 {
                let top = qt.build_rec(0, n, Some(root));
                qt.tree.hang(top);
            }
        }
        qt.tree.fill_kids();
        qt
    }

    fn items(&self) -> &[GridPoint<D>] {
        &self.points
    }

    fn into_items(self) -> Vec<GridPoint<D>> {
        self.points
    }

    fn num_ranges(&self) -> usize {
        self.tree.num_ranges()
    }

    fn range(&self, id: RangeId) -> Cell<D> {
        assert!(
            id.index() < self.num_ranges(),
            "range id out of bounds: {id}"
        );
        self.range_cell(id)
    }

    fn owner(&self, id: RangeId) -> usize {
        self.tree.owner(id)
    }

    fn entry_of_item(&self, item: usize) -> RangeId {
        self.tree.entry_of_item(item)
    }

    fn neighbors(&self, id: RangeId) -> Vec<RangeId> {
        self.tree.neighbors(id)
    }

    fn locate(&self, q: &GridPoint<D>) -> RangeId {
        let code = q.morton();
        let mut cur = 0usize;
        while let Some(c) = self.child_containing(cur, code) {
            cur = c as usize;
        }
        RangeId(cur as u32)
    }

    fn search_step(&self, from: RangeId, q: &GridPoint<D>) -> Option<RangeId> {
        let code = q.morton();
        if let Some((p, c)) = self.tree.link(from) {
            // A link is direction-aware: descend to its child endpoint when
            // that subtree still contains q, ascend to the parent otherwise.
            let down = self.cell_of(c as usize).contains_code(code);
            return Some(RangeId(if down { c } else { p }));
        }
        let cur = from.index();
        if !self.cell_of(cur).contains_code(code) {
            // Ascend through the parent link (the root contains everything).
            return Some(self.tree.link_into(from.0));
        }
        // Descend through the containing child's incoming link.
        self.child_containing(cur, code)
            .map(|c| self.tree.link_into(c))
    }

    fn best_entry(&self, candidates: &[RangeId], q: &GridPoint<D>) -> RangeId {
        assert!(!candidates.is_empty(), "conflict list may not be empty");
        let code = q.morton();
        candidates
            .iter()
            .copied()
            .filter(|id| self.range_cell(*id).contains_code(code))
            // Deepest containing cell; on ties prefer the node over its
            // incoming link (both carry the same cell).
            .max_by_key(|id| (self.range_cell(*id).depth(), id.index() < self.num_nodes()))
            .unwrap_or(candidates[0])
    }

    fn item_query(item: &GridPoint<D>) -> GridPoint<D> {
        *item
    }

    /// A one-point tree's entry is the point's leaf: its unit cell.
    fn probe_range(item: &GridPoint<D>) -> Cell<D> {
        Cell::of_point(item)
    }

    fn conflicts_into(&self, external: &Cell<D>, out: &mut Vec<RangeId>) {
        let u = self.deepest_containing(external);
        out.push(RangeId(u as u32));
        for &c in self.tree.kids_of(u) {
            if external.contains_cell(&self.cell_of(c as usize)) {
                out.push(self.tree.link_into(c));
                out.push(RangeId(c));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::assert_steps_reach_locate;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn pts2(v: &[[u32; 2]]) -> Vec<GridPoint<2>> {
        v.iter().map(|&c| GridPoint::new(c)).collect()
    }

    #[test]
    fn build_dedups_and_sorts_by_morton() {
        let qt = CompressedQuadtree::<2>::build(pts2(&[[5, 5], [1, 1], [5, 5]]));
        assert_eq!(qt.len(), 2);
        assert!(qt.items()[0].morton() < qt.items()[1].morton());
    }

    #[test]
    fn empty_tree_is_just_the_universe() {
        let qt = CompressedQuadtree::<2>::build(vec![]);
        assert_eq!(qt.num_nodes(), 1);
        assert_eq!(qt.num_links(), 0);
        assert_eq!(qt.locate(&GridPoint::new([9, 9])), RangeId(0));
        assert!(qt.is_empty());
    }

    #[test]
    fn single_point_hangs_under_universe_root() {
        let qt = CompressedQuadtree::<2>::build(pts2(&[[7, 7]]));
        assert_eq!(qt.num_nodes(), 2);
        assert_eq!(qt.num_links(), 1);
        let leaf = qt.entry_of_item(0);
        assert!(qt.is_leaf(leaf));
        assert_eq!(qt.leaf_point(leaf), Some(GridPoint::new([7, 7])));
        assert_eq!(qt.parent_of(leaf), Some(RangeId(0)));
    }

    #[test]
    fn internal_nodes_have_at_least_two_children_below_root() {
        let qt = CompressedQuadtree::<2>::build(pts2(&[
            [0, 0],
            [1, 0],
            [0, 1],
            [1 << 30, 1 << 30],
            [3 << 29, 5],
        ]));
        for (i, node) in qt.tree.nodes().iter().enumerate() {
            if i == 0 || node.data.point.is_some() {
                continue; // root or leaves
            }
            assert!(
                node.kid_count >= 2,
                "compressed internal node {i} must branch"
            );
        }
    }

    #[test]
    fn locate_finds_the_leaf_for_member_points() {
        let points = pts2(&[[3, 3], [100, 100], [3, 100], [1 << 31, 1 << 20]]);
        let qt = CompressedQuadtree::<2>::build(points.clone());
        for (i, p) in qt.items().iter().enumerate() {
            let hit = qt.locate(p);
            assert!(qt.is_leaf(hit), "member point must land on its leaf");
            assert_eq!(qt.leaf_point(hit), Some(*p));
            assert_eq!(qt.entry_of_item(i), hit);
        }
        let _ = points;
    }

    #[test]
    fn locate_nonmember_lands_on_deepest_containing_cell() {
        let qt = CompressedQuadtree::<2>::build(pts2(&[[0, 0], [0, 2], [1 << 31, 1 << 31]]));
        let q = GridPoint::new([5, 5]);
        let hit = qt.locate(&q);
        assert!(qt.node_cell(hit).contains_point(&q));
        // Every child of the hit must exclude q (deepest).
        for nb in qt.neighbors(hit) {
            if nb.index() >= qt.num_nodes() {
                let cell = qt.range(nb);
                if cell.depth() > qt.node_cell(hit).depth() {
                    assert!(!cell.contains_point(&q));
                }
            }
        }
    }

    #[test]
    fn search_path_ascends_then_descends() {
        let qt = CompressedQuadtree::<2>::build(pts2(&[[0, 0], [3, 3], [1 << 31, 1 << 31]]));
        let from = qt.entry_of_item(0); // leaf at (0,0)
        let q = GridPoint::new([1 << 31, 1 << 31]);
        let path = qt.search_path(from, &q);
        assert_eq!(path[0], from);
        let last = *path.last().unwrap();
        assert_eq!(last, qt.locate(&q));
        // Consecutive path entries are incident ranges.
        for pair in path.windows(2) {
            assert!(
                qt.neighbors(pair[0]).contains(&pair[1])
                    || qt.neighbors(pair[1]).contains(&pair[0]),
                "path must follow structure links"
            );
        }
    }

    #[test]
    fn search_step_converges_on_the_locate_answer() {
        let qt = CompressedQuadtree::<2>::build(pts2(&[
            [0, 0],
            [3, 3],
            [7, 1],
            [1 << 31, 1 << 31],
            [(1 << 31) + 9, 5],
        ]));
        for q in [[1u32 << 31, 1 << 31], [5, 5], [0, 0], [1 << 20, 1 << 10]] {
            // From every range — nodes and links, and there is no dead one.
            assert_steps_reach_locate(&qt, &GridPoint::new(q));
        }
    }

    #[test]
    fn points_spanning_the_universe_build_no_unreachable_range() {
        // The compressed top cell is the universe here: it must be the root
        // itself, not a second node left dangling beside it.
        let qt = CompressedQuadtree::<2>::build(pts2(&[[0, 0], [3, 3], [1 << 31, 1 << 31]]));
        assert_eq!(qt.node_cell(RangeId(0)), Cell::universe());
        // root + (cluster cell + 2 leaves) + far leaf, one link per non-root.
        assert_eq!((qt.num_nodes(), qt.num_links()), (5, 4));
        for id in (1..qt.num_nodes()).map(|i| RangeId(i as u32)) {
            assert!(qt.parent_of(id).is_some(), "{id} hangs from nothing");
        }
        // A cluster confined to one quadrant keeps the universe root above
        // its top cell.
        let low = CompressedQuadtree::<2>::build(pts2(&[[0, 0], [3, 3]]));
        assert_eq!(low.node_cell(RangeId(0)), Cell::universe());
        assert_eq!((low.num_nodes(), low.num_links()), (4, 3));
    }

    #[test]
    fn conflicts_contain_a_range_holding_any_point_of_the_cell() {
        let coarse = CompressedQuadtree::<2>::build(pts2(&[[0, 0], [1 << 31, 1 << 31]]));
        let fine = CompressedQuadtree::<2>::build(pts2(&[
            [0, 0],
            [4, 4],
            [9, 1],
            [1 << 31, 1 << 31],
            [(1 << 31) + 5, 1 << 31],
        ]));
        let q = GridPoint::new([5, 5]);
        let coarse_range = coarse.range(coarse.locate(&q));
        let conflicts = fine.conflicts(&coarse_range);
        assert!(!conflicts.is_empty());
        // The descent invariant: some conflicting range contains q.
        assert!(conflicts
            .iter()
            .any(|id| fine.range(*id).contains_point(&q)));
    }

    #[test]
    fn conflicts_of_universe_are_constant_size() {
        let fine =
            CompressedQuadtree::<2>::build(pts2(&[[0, 0], [1, 1], [2, 2], [3, 3], [1 << 31, 1]]));
        let conflicts = fine.conflicts(&Cell::universe());
        // root + at most 2^D children and their links
        assert!(conflicts.len() <= 1 + 2 * 4);
    }

    #[test]
    fn best_entry_prefers_deepest_containing_cell() {
        let qt = CompressedQuadtree::<2>::build(pts2(&[[0, 0], [6, 6], [1 << 31, 0]]));
        let q = GridPoint::new([6, 6]);
        let all: Vec<RangeId> = qt.range_ids().collect();
        let best = qt.best_entry(&all, &q);
        assert_eq!(best, qt.locate(&q));
    }

    #[test]
    fn owner_is_a_subtree_member() {
        let qt = CompressedQuadtree::<2>::build(pts2(&[[0, 0], [9, 9], [1 << 31, 1 << 31]]));
        for id in qt.range_ids() {
            let owner = qt.owner(id);
            assert!(owner < qt.len());
        }
    }

    #[test]
    fn octree_3d_builds_and_locates() {
        let pts = vec![
            GridPoint::new([0u32, 0, 0]),
            GridPoint::new([5, 5, 5]),
            GridPoint::new([1 << 31, 0, 1 << 20]),
        ];
        let qt = CompressedQuadtree::<3>::build(pts);
        for (i, p) in qt.items().iter().enumerate() {
            assert_eq!(qt.locate(p), qt.entry_of_item(i));
        }
    }

    #[test]
    fn probe_range_is_the_one_point_trees_entry() {
        // The trait default, which the override replaces: build a one-item
        // tree and read its entry's range.
        fn by_build<const D: usize>(p: GridPoint<D>) -> Cell<D> {
            let probe = CompressedQuadtree::<D>::build(vec![p]);
            probe.range(probe.entry_of_item(0))
        }
        let mut rng = StdRng::seed_from_u64(0x9B0BE);
        for _ in 0..256 {
            let p2 = GridPoint::new([rng.gen(), rng.gen()]);
            assert_eq!(CompressedQuadtree::<2>::probe_range(&p2), by_build(p2));
            let p3 = GridPoint::new([rng.gen(), rng.gen(), rng.gen()]);
            assert_eq!(CompressedQuadtree::<3>::probe_range(&p3), by_build(p3));
        }
        for edge in [0, u32::MAX, 1 << 31] {
            let p = GridPoint::new([edge, edge]);
            assert_eq!(CompressedQuadtree::<2>::probe_range(&p), by_build(p));
        }
    }

    #[test]
    fn children_are_the_child_links_far_ends_in_morton_order() {
        let qt = CompressedQuadtree::<2>::build(pts2(&[
            [0, 0],
            [3, 3],
            [7, 1],
            [1 << 31, 1 << 31],
            [(1 << 31) + 9, 5],
        ]));
        for v in 0..qt.num_nodes() {
            let id = RangeId(v as u32);
            let via_links: Vec<u32> = qt
                .neighbors(id)
                .into_iter()
                .filter(|l| qt.depth_of(*l) > qt.depth_of(id))
                .map(|l| qt.tree.link(l).unwrap().1)
                .collect();
            assert_eq!(qt.children(id), via_links, "node {v}");
            let codes: Vec<u128> = qt
                .children(id)
                .iter()
                .map(|&c| qt.node_cell(RangeId(c)).prefix())
                .collect();
            assert!(codes.windows(2).all(|w| w[0] < w[1]), "node {v}");
        }
    }

    #[test]
    fn nearest_in_subtree_returns_closest_point() {
        let qt = CompressedQuadtree::<2>::build(pts2(&[[0, 0], [10, 10], [200, 200]]));
        let q = GridPoint::new([11, 11]);
        let best = qt.nearest_in_subtree(RangeId(0), &q).unwrap();
        assert_eq!(best, GridPoint::new([10, 10]));
    }

    #[test]
    fn build_is_canonical_under_input_order() {
        let a = CompressedQuadtree::<2>::build(pts2(&[[9, 9], [1, 1], [5, 0]]));
        let b = CompressedQuadtree::<2>::build(pts2(&[[5, 0], [9, 9], [1, 1]]));
        assert_eq!(a, b, "same point set must yield the same structure");
    }

    #[test]
    fn deep_cluster_stays_shallow_via_compression() {
        // A tight cluster that would be ~30 deep uncompressed.
        let pts = pts2(&[[0, 0], [0, 1], [1, 0], [1, 1], [1 << 31, 1 << 31]]);
        let qt = CompressedQuadtree::<2>::build(pts);
        // Nodes: universe root + top split + cluster cell(s) + 5 leaves.
        assert!(qt.num_nodes() <= 11, "compression bounds node count");
    }
}
