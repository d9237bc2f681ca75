//! Trapezoidal maps of non-crossing line segments (§3.3).
//!
//! The map subdivides the plane by the input segments plus vertical
//! extensions shot up and down from every segment endpoint until they hit
//! another segment (Figure 4). Construction here is *canonical* (slab
//! decomposition + merge), so `D(S)` depends only on the set `S` as the
//! range-determined framework requires — no insertion-order artifacts.
//!
//! Ranges are the (open) trapezoid regions; two ranges conflict when the
//! regions overlap with positive area. Lemma 5 proves the conflict count of
//! a half-sample trapezoid is exactly `1 + a + 2b + 3c` (`a` segments
//! crossing clean through, `b` with one endpoint inside, `c` with both) and
//! `O(1)` in expectation; both are verified in tests and the `fig4` bench.
//!
//! Inputs must be in *general position*: pairwise disjoint segments, no
//! vertical segments, all endpoint x-coordinates distinct, coordinates
//! within `i32` range (so the exact `i128` rational predicates cannot
//! overflow).
//!
//! # Layout
//!
//! Trapezoids are plain records in one array and own no heap memory: a
//! trapezoid's `(neighbour, link)` pairs sit next to each other, in link-id
//! order, in the map's one `adjacency` array, named by the record's
//! `first_adj` and `adj_count`. `build` fills that array once, after the
//! link pass, with one stable counting pass over `link_ends`, and reuses one
//! buffer of each kind across the slabs of its sweep, so a map is a fixed
//! handful of heap blocks whatever its size.

use std::collections::{HashMap, VecDeque};
use std::fmt;

use crate::geometry::{orient, Rational};
use crate::traits::{RangeDetermined, RangeId};

/// A non-vertical line segment with integer endpoints, stored left-to-right.
///
/// # Example
///
/// ```
/// use skipweb_structures::Segment;
/// let s = Segment::new((10, 0), (0, 5)); // endpoints reorder automatically
/// assert_eq!(s.left(), (0, 5));
/// assert_eq!(s.right(), (10, 0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Segment {
    x1: i64,
    y1: i64,
    x2: i64,
    y2: i64,
}

impl Segment {
    /// Creates a segment; endpoints are normalized left-to-right.
    ///
    /// # Panics
    ///
    /// Panics if the segment is vertical or a coordinate exceeds `i32`
    /// range (required for exact predicates).
    pub fn new(p: (i64, i64), q: (i64, i64)) -> Self {
        assert!(p.0 != q.0, "vertical segments violate general position");
        for v in [p.0, p.1, q.0, q.1] {
            assert!(
                i32::try_from(v).is_ok(),
                "coordinates must fit in i32 for exact arithmetic"
            );
        }
        if p.0 < q.0 {
            Segment {
                x1: p.0,
                y1: p.1,
                x2: q.0,
                y2: q.1,
            }
        } else {
            Segment {
                x1: q.0,
                y1: q.1,
                x2: p.0,
                y2: p.1,
            }
        }
    }

    /// The left endpoint.
    pub fn left(&self) -> (i64, i64) {
        (self.x1, self.y1)
    }

    /// The right endpoint.
    pub fn right(&self) -> (i64, i64) {
        (self.x2, self.y2)
    }

    /// Exact `y` value of the supporting line at rational `x = num/den`.
    fn y_at(&self, num: i128, den: i128) -> Rational {
        // y = y1 + (y2-y1) * (x - x1) / (x2 - x1)
        let dx = (self.x2 - self.x1) as i128;
        let dy = (self.y2 - self.y1) as i128;
        Rational::new(
            self.y1 as i128 * dx * den + dy * (num - self.x1 as i128 * den),
            dx * den,
        )
    }

    /// Exact `y` at integer `x` (which must lie within the segment's span
    /// for the value to be meaningful as a segment height).
    pub fn y_at_int(&self, x: i64) -> Rational {
        self.y_at(x as i128, 1)
    }

    /// Whether two segments share any point (endpoint contact counts).
    pub fn touches(&self, other: &Segment) -> bool {
        let (a, b) = (self.left(), self.right());
        let (c, d) = (other.left(), other.right());
        let d1 = orient(a, b, c);
        let d2 = orient(a, b, d);
        let d3 = orient(c, d, a);
        let d4 = orient(c, d, b);
        if d1 * d2 < 0 && d3 * d4 < 0 {
            return true;
        }
        let on = |p: (i64, i64), q: (i64, i64), r: (i64, i64)| {
            orient(p, q, r) == 0
                && r.0 >= p.0.min(q.0)
                && r.0 <= p.0.max(q.0)
                && r.1 >= p.1.min(q.1)
                && r.1 <= p.1.max(q.1)
        };
        on(a, b, c) || on(a, b, d) || on(c, d, a) || on(c, d, b)
    }
}

impl fmt::Display for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})-({},{})", self.x1, self.y1, self.x2, self.y2)
    }
}

/// Extended y-bound: a segment or an infinity.
fn bound_y(seg: Option<&Segment>, x_num: i128, x_den: i128, positive: bool) -> Option<Rational> {
    match seg {
        Some(s) => Some(s.y_at(x_num, x_den)),
        None => {
            let _ = positive;
            None // caller interprets None as the matching infinity
        }
    }
}

/// A trapezoid of the map: the open region bounded above by `top` (or `+∞`),
/// below by `bottom` (or `-∞`), left by the vertical wall at `left_x` (or
/// `-∞`) and right by the wall at `right_x` (or `+∞`). The default is the
/// whole plane, the one trapezoid of an empty map.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Trapezoid {
    /// Upper bounding segment, `None` for `+∞`.
    pub top: Option<Segment>,
    /// Lower bounding segment, `None` for `-∞`.
    pub bottom: Option<Segment>,
    /// Left wall x-coordinate, `None` for `-∞`.
    pub left_x: Option<i64>,
    /// Right wall x-coordinate, `None` for `+∞`.
    pub right_x: Option<i64>,
}

impl Trapezoid {
    /// Whether the point lies in the trapezoid under the canonical tiling
    /// rule: `left_x ≤ x < right_x` and strictly between bottom and top.
    pub fn contains(&self, q: (i64, i64)) -> bool {
        if let Some(l) = self.left_x {
            if q.0 < l {
                return false;
            }
        }
        if let Some(r) = self.right_x {
            if q.0 >= r {
                return false;
            }
        }
        let y = Rational::integer(q.1);
        if let Some(b) = &self.bottom {
            if y <= b.y_at_int(q.0) {
                return false;
            }
        }
        if let Some(t) = &self.top {
            if y >= t.y_at_int(q.0) {
                return false;
            }
        }
        true
    }

    /// An interior x strictly inside the overlap of the two x-intervals,
    /// as a rational, or `None` if the open overlap is empty.
    fn overlap_x(&self, other: &Trapezoid) -> Option<(i128, i128)> {
        let lo = match (self.left_x, other.left_x) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (Some(a), None) | (None, Some(a)) => Some(a),
            (None, None) => None,
        };
        let hi = match (self.right_x, other.right_x) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) | (None, Some(a)) => Some(a),
            (None, None) => None,
        };
        match (lo, hi) {
            (Some(l), Some(h)) if l >= h => None,
            (Some(l), Some(h)) => Some((l as i128 + h as i128, 2)),
            (Some(l), None) => Some((l as i128 + 1, 1)),
            (None, Some(h)) => Some((h as i128 - 1, 1)),
            (None, None) => Some((0, 1)),
        }
    }

    /// Whether the two open trapezoid regions overlap with positive area —
    /// the conflict relation of Lemma 5.
    pub fn overlaps(&self, other: &Trapezoid) -> bool {
        let Some((num, den)) = self.overlap_x(other) else {
            return false;
        };
        // Bounding segments never cross, so their vertical order is constant
        // across the open x-overlap: test at one interior x.
        let bottoms = [
            bound_y(self.bottom.as_ref(), num, den, false),
            bound_y(other.bottom.as_ref(), num, den, false),
        ];
        let tops = [
            bound_y(self.top.as_ref(), num, den, true),
            bound_y(other.top.as_ref(), num, den, true),
        ];
        let max_bottom = bottoms.iter().flatten().max().copied();
        let min_top = tops.iter().flatten().min().copied();
        match (max_bottom, min_top) {
            (Some(b), Some(t)) => b < t,
            _ => true, // one side unbounded: the gap is nonempty
        }
    }
}

impl fmt::Display for Trapezoid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let x = |v: Option<i64>, inf: &str| v.map(|x| x.to_string()).unwrap_or_else(|| inf.into());
        write!(
            f,
            "trap[x:{}..{}, bottom:{}, top:{}]",
            x(self.left_x, "-inf"),
            x(self.right_x, "+inf"),
            self.bottom
                .map(|s| s.to_string())
                .unwrap_or_else(|| "-inf".into()),
            self.top
                .map(|s| s.to_string())
                .unwrap_or_else(|| "+inf".into()),
        )
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct TrapRecord {
    trap: Trapezoid,
    /// Segment index of the bottom (preferred) or top bounding segment,
    /// used for ownership; 0 for the empty map's universe trapezoid.
    owner: u32,
    /// The neighbours are `adjacency[first_adj..][..adj_count]`.
    first_adj: u32,
    adj_count: u32,
}

impl TrapRecord {
    fn new(trap: Trapezoid, owner: u32) -> Self {
        TrapRecord {
            trap,
            owner,
            first_adj: 0,
            adj_count: 0,
        }
    }
}

/// A trapezoidal map over pairwise-disjoint segments, exposed as a
/// range-determined link structure. Nodes are trapezoids; links join
/// trapezoids sharing a wall or a bounding-segment stretch.
///
/// # Example
///
/// ```
/// use skipweb_structures::{RangeDetermined, Segment, TrapezoidalMap};
///
/// let map = TrapezoidalMap::build(vec![
///     Segment::new((0, 0), (10, 0)),
///     Segment::new((2, 5), (11, 6)),
/// ]);
/// assert!(map.num_trapezoids() <= 3 * 2 + 1); // ≤ 3n + 1 trapezoids
/// let hit = map.locate(&(5, 2));
/// assert!(map.trapezoid(hit).contains((5, 2)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrapezoidalMap {
    segments: Vec<Segment>,
    traps: Vec<TrapRecord>,
    /// Link `l` joins `link_ends[l].0` and `link_ends[l].1` (trap indices).
    link_ends: Vec<(u32, u32)>,
    /// `(neighbor trap, link id)` of every trapezoid, grouped by trapezoid.
    adjacency: Vec<(u32, u32)>,
    /// A trapezoid bounded below by each segment (its entry).
    item_trap: Vec<u32>,
}

impl TrapezoidalMap {
    /// Number of trapezoids in the map.
    pub fn num_trapezoids(&self) -> usize {
        self.traps.len()
    }

    /// Number of adjacency links.
    pub fn num_links(&self) -> usize {
        self.link_ends.len()
    }

    /// The trapezoid region of node id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node id.
    pub fn trapezoid(&self, id: RangeId) -> Trapezoid {
        self.traps[id.index()].trap
    }

    /// Whether `candidate` keeps the stored set in general position — the
    /// admission check a live update must pass before it may rebuild the
    /// map (building with a violating segment panics, which an actor
    /// serving wire input must never do). The stored set is already valid,
    /// so only the candidate is checked, in O(n): endpoint x-coordinates
    /// distinct from every stored endpoint, and no contact with any stored
    /// segment.
    pub fn admits(&self, candidate: &Segment) -> bool {
        if self.items().contains(candidate) {
            return true; // duplicate: rejected later as a no-op, not a panic
        }
        self.items().iter().all(|s| {
            candidate.x1 != s.x1
                && candidate.x1 != s.x2
                && candidate.x2 != s.x1
                && candidate.x2 != s.x2
                && !candidate.touches(s)
        })
    }

    /// Validates general position: pairwise disjoint, non-vertical, all
    /// endpoint x distinct, returning an error message on violation.
    fn validate(segments: &[Segment]) -> Result<(), String> {
        let mut xs: Vec<i64> = segments.iter().flat_map(|s| [s.x1, s.x2]).collect();
        xs.sort_unstable();
        if xs.windows(2).any(|w| w[0] == w[1]) {
            return Err("endpoint x-coordinates must be pairwise distinct".into());
        }
        for (i, a) in segments.iter().enumerate() {
            for b in &segments[i + 1..] {
                if a.touches(b) {
                    return Err(format!("segments must be disjoint: {a} touches {b}"));
                }
            }
        }
        Ok(())
    }

    fn node_count(&self) -> usize {
        self.traps.len()
    }

    /// The `(neighbor trap, link id)` pairs of trapezoid `t`, in link order.
    fn adjacent(&self, t: usize) -> &[(u32, u32)] {
        let rec = &self.traps[t];
        &self.adjacency[rec.first_adj as usize..][..rec.adj_count as usize]
    }

    /// Lays every trapezoid's `(neighbor, link)` pairs out in `adjacency`,
    /// grouped by trapezoid: one stable counting pass over `link_ends`, so
    /// each group runs in link-id order.
    fn fill_adjacency(&mut self) {
        for &(a, b) in &self.link_ends {
            self.traps[a as usize].adj_count += 1;
            self.traps[b as usize].adj_count += 1;
        }
        let mut first = 0;
        for rec in &mut self.traps {
            rec.first_adj = first;
            first += rec.adj_count;
            rec.adj_count = 0;
        }
        self.adjacency = vec![(0, 0); 2 * self.link_ends.len()];
        for (link, &(a, b)) in self.link_ends.iter().enumerate() {
            for (t, nb) in [(a, b), (b, a)] {
                let rec = &mut self.traps[t as usize];
                self.adjacency[(rec.first_adj + rec.adj_count) as usize] = (nb, link as u32);
                rec.adj_count += 1;
            }
        }
    }

    /// Checks that the adjacency table is exactly the inverse of the links:
    /// the trapezoids' rows tile it in trapezoid order, each row runs in
    /// link-id order, and each link sits in the rows of both trapezoids it
    /// joins, naming the other one, and in no other row. `build`
    /// establishes this; tests call it.
    pub fn check_tables(&self) -> Result<(), String> {
        let mut rows_holding = vec![0u32; self.link_ends.len()];
        let mut end = 0u32;
        for (t, rec) in self.traps.iter().enumerate() {
            if rec.first_adj != end {
                return Err(format!(
                    "trapezoid {t}'s row starts at {}, not {end}",
                    rec.first_adj
                ));
            }
            end += rec.adj_count;
            let row = self
                .adjacency
                .get(rec.first_adj as usize..end as usize)
                .ok_or(format!("trapezoid {t}'s row overruns the table"))?;
            let (t, mut last) = (t as u32, None);
            for &(nb, link) in row {
                let ends = self.link_ends.get(link as usize);
                if ends != Some(&(t, nb)) && ends != Some(&(nb, t)) {
                    return Err(format!("link {link} does not join trapezoid {t} to {nb}"));
                }
                if Some(link) <= last {
                    return Err(format!("trapezoid {t}'s row leaves link order at {link}"));
                }
                last = Some(link);
                rows_holding[link as usize] += 1;
            }
        }
        if end as usize != self.adjacency.len() {
            return Err(format!(
                "the rows cover {end} of {} entries",
                self.adjacency.len()
            ));
        }
        match rows_holding.iter().position(|&rows| rows != 2) {
            Some(l) => Err(format!("link {l} sits in {} rows", rows_holding[l])),
            None => Ok(()),
        }
    }

    /// One BFS from `from` returning the link-hop distances to `to_a` and
    /// `to_b`, stopping as soon as both are settled (used to resolve the
    /// direction of a link during stepping).
    fn bfs_dists(&self, from: usize, to_a: usize, to_b: usize) -> (usize, usize) {
        let n = self.node_count();
        let mut dist: Vec<Option<usize>> = vec![None; n];
        dist[from] = Some(0);
        let mut queue = VecDeque::from([from]);
        while let Some(cur) = queue.pop_front() {
            if dist[to_a].is_some() && dist[to_b].is_some() {
                break;
            }
            let d = dist[cur].expect("queued nodes have distances");
            for &(nb, _) in self.adjacent(cur) {
                if dist[nb as usize].is_none() {
                    dist[nb as usize] = Some(d + 1);
                    queue.push_back(nb as usize);
                }
            }
        }
        (
            dist[to_a].expect("trapezoid adjacency graph is connected"),
            dist[to_b].expect("trapezoid adjacency graph is connected"),
        )
    }

    /// The first link of a breadth-first shortest path from trapezoid `from`
    /// to a different trapezoid `to` (entry and target are O(1) apart in
    /// expectation by Lemma 5, so the search is short even though we compute
    /// it exactly).
    fn first_link_toward(&self, from: usize, to: usize) -> RangeId {
        debug_assert_ne!(from, to);
        let n = self.node_count();
        let mut prev: Vec<Option<(u32, u32)>> = vec![None; n];
        let mut seen = vec![false; n];
        seen[from] = true;
        let mut queue = VecDeque::from([from]);
        while let Some(cur) = queue.pop_front() {
            if cur == to {
                break;
            }
            for &(nb, link) in self.adjacent(cur) {
                if !seen[nb as usize] {
                    seen[nb as usize] = true;
                    prev[nb as usize] = Some((cur as u32, link));
                    queue.push_back(nb as usize);
                }
            }
        }
        let mut cur = to;
        loop {
            let (p, link) = prev[cur].expect("trapezoid adjacency graph is connected");
            if p as usize == from {
                return RangeId((n + link as usize) as u32);
            }
            cur = p as usize;
        }
    }
}

impl RangeDetermined for TrapezoidalMap {
    type Item = Segment;
    type Query = (i64, i64);
    type Range = Trapezoid;

    fn build(mut items: Vec<Segment>) -> Self {
        // Equal segments are indistinguishable, so the unstable sort is the
        // stable one, without its temporary buffer.
        items.sort_unstable();
        items.dedup();
        if let Err(msg) = Self::validate(&items) {
            panic!("invalid trapezoidal map input: {msg}");
        }
        let n = items.len();
        let mut map = TrapezoidalMap {
            segments: items,
            // A map of `n` segments in general position has `3n + 1`
            // trapezoids.
            traps: Vec::with_capacity(3 * n + 1),
            link_ends: Vec::new(),
            adjacency: Vec::new(),
            item_trap: vec![0; n],
        };
        if n == 0 {
            map.traps.push(TrapRecord::new(Trapezoid::default(), 0));
            return map;
        }
        // --- Slab decomposition -------------------------------------------------
        let mut xs: Vec<i64> = map.segments.iter().flat_map(|s| [s.x1, s.x2]).collect();
        xs.sort_unstable();
        // Cells of the previous slab keyed by (bottom, top) segment indices
        // (usize::MAX encodes the infinity sides) -> open trapezoid index.
        // A slab has at most `n + 1` gaps; every slab reuses these buffers.
        let mut open: HashMap<(usize, usize), usize> = HashMap::with_capacity(n + 1);
        let mut next_open: HashMap<(usize, usize), usize> = HashMap::with_capacity(n + 1);
        let mut spanning: Vec<usize> = Vec::with_capacity(n);
        let mut bounds: Vec<usize> = Vec::with_capacity(n + 2);
        // The leftmost slab (-inf, xs[0]) is a single unbounded cell.
        map.traps.push(TrapRecord::new(Trapezoid::default(), 0));
        open.insert((usize::MAX, usize::MAX), 0);
        for (i, &x) in xs.iter().enumerate() {
            // Slab (xs[i], xs[i+1]) — or (xs[last], +inf).
            let lo = x;
            let hi = xs.get(i + 1).copied();
            // Segments spanning the slab.
            spanning.clear();
            spanning.extend((0..n).filter(|&s| {
                let seg = &map.segments[s];
                seg.x1 <= lo && hi.is_none_or(|h| seg.x2 >= h) && seg.x2 > lo
            }));
            // Vertical order at an interior x of the slab (disjoint segments
            // never tie there).
            let (mx_num, mx_den) = match hi {
                Some(h) => (lo as i128 + h as i128, 2i128),
                None => (lo as i128 + 1, 1),
            };
            spanning.sort_unstable_by_key(|&s| map.segments[s].y_at(mx_num, mx_den));
            // Gaps bottom-to-top: (-inf, s0), (s0, s1), ..., (sk-1, +inf).
            next_open.clear();
            bounds.clear();
            bounds.push(usize::MAX);
            bounds.extend(&spanning);
            bounds.push(usize::MAX);
            for w in 0..bounds.len() - 1 {
                let bottom = bounds[w];
                let top = bounds[w + 1];
                let key = (bottom, top);
                // Same bounding pair on both sides of the wall => merge
                // (the vertical extension at x only cuts the gap holding
                // the endpoint, which never has a matching pair).
                if let Some(&t) = open.get(&key) {
                    next_open.insert(key, t);
                } else {
                    let idx = map.traps.len();
                    let trap = Trapezoid {
                        bottom: (bottom != usize::MAX).then(|| map.segments[bottom]),
                        top: (top != usize::MAX).then(|| map.segments[top]),
                        left_x: Some(lo),
                        right_x: None, // patched when the run closes
                    };
                    let owner = if bottom != usize::MAX {
                        bottom as u32
                    } else if top != usize::MAX {
                        top as u32
                    } else {
                        0
                    };
                    map.traps.push(TrapRecord::new(trap, owner));
                    next_open.insert(key, idx);
                }
            }
            // Close every cell of the previous slab that did not carry over.
            for (key, &t) in &open {
                if next_open.get(key) != Some(&t) {
                    map.traps[t].trap.right_x = Some(lo);
                }
            }
            std::mem::swap(&mut open, &mut next_open);
        }
        // Cells still open extend to +inf (right_x stays None).
        // --- Ownership entries ---------------------------------------------------
        for (t, rec) in map.traps.iter().enumerate() {
            if let Some(b) = &rec.trap.bottom {
                let s = map
                    .segments
                    .binary_search(b)
                    .expect("bottom segments come from the input set");
                if map.item_trap[s] == 0 {
                    map.item_trap[s] = t as u32;
                }
            }
        }
        // Every segment bounds at least one trapezoid from below; fix any
        // entry that defaulted to 0 incorrectly.
        for s in 0..n {
            if map.traps[map.item_trap[s] as usize].trap.bottom != Some(map.segments[s]) {
                let t = map
                    .traps
                    .iter()
                    .position(|r| r.trap.bottom == Some(map.segments[s]))
                    .expect("every segment bounds a trapezoid from below");
                map.item_trap[s] = t as u32;
            }
        }
        // --- Adjacency ------------------------------------------------------------
        let t_count = map.traps.len();
        // Fewer than three links a trapezoid: at most two across each
        // endpoint's wall (4n), and across each segment one fewer than the
        // trapezoids on its two sides (2T - n), so 3n + 2T = 3T - 1.
        map.link_ends.reserve_exact(3 * t_count);
        for a in 0..t_count {
            for b in (a + 1)..t_count {
                let (ta, tb) = (map.traps[a].trap, map.traps[b].trap);
                // Wall adjacency: shared vertical wall with overlapping gap.
                let wall = |l: &Trapezoid, r: &Trapezoid| -> bool {
                    match (l.right_x, r.left_x) {
                        (Some(x), Some(y)) if x == y => {
                            let bottoms = [
                                l.bottom.map(|s| s.y_at_int(x)),
                                r.bottom.map(|s| s.y_at_int(x)),
                            ];
                            let tops = [l.top.map(|s| s.y_at_int(x)), r.top.map(|s| s.y_at_int(x))];
                            let max_b = bottoms.iter().flatten().max().copied();
                            let min_t = tops.iter().flatten().min().copied();
                            match (max_b, min_t) {
                                (Some(bb), Some(tt)) => bb < tt,
                                _ => true,
                            }
                        }
                        _ => false,
                    }
                };
                // Segment adjacency: one's top is the other's bottom with
                // x-overlap.
                let stacked = |lower: &Trapezoid, upper: &Trapezoid| -> bool {
                    match (&lower.top, &upper.bottom) {
                        (Some(s1), Some(s2)) if s1 == s2 => {
                            let lo = match (lower.left_x, upper.left_x) {
                                (Some(p), Some(q)) => Some(p.max(q)),
                                (Some(p), None) | (None, Some(p)) => Some(p),
                                (None, None) => None,
                            };
                            let hi = match (lower.right_x, upper.right_x) {
                                (Some(p), Some(q)) => Some(p.min(q)),
                                (Some(p), None) | (None, Some(p)) => Some(p),
                                (None, None) => None,
                            };
                            match (lo, hi) {
                                (Some(l), Some(h)) => l < h,
                                _ => true,
                            }
                        }
                        _ => false,
                    }
                };
                if wall(&ta, &tb) || wall(&tb, &ta) || stacked(&ta, &tb) || stacked(&tb, &ta) {
                    map.link_ends.push((a as u32, b as u32));
                }
            }
        }
        map.fill_adjacency();
        map
    }

    fn items(&self) -> &[Segment] {
        &self.segments
    }

    fn into_items(self) -> Vec<Segment> {
        self.segments
    }

    fn num_ranges(&self) -> usize {
        self.traps.len() + self.link_ends.len()
    }

    fn range(&self, id: RangeId) -> Trapezoid {
        let n = self.node_count();
        let idx = id.index();
        assert!(idx < self.num_ranges(), "range id out of bounds: {id}");
        if idx < n {
            self.traps[idx].trap
        } else {
            self.traps[self.link_ends[idx - n].1 as usize].trap
        }
    }

    fn owner(&self, id: RangeId) -> usize {
        let n = self.node_count();
        let idx = id.index();
        let t = if idx < n {
            idx
        } else {
            self.link_ends[idx - n].1 as usize
        };
        self.traps[t].owner as usize
    }

    fn entry_of_item(&self, item: usize) -> RangeId {
        assert!(item < self.segments.len(), "item index out of bounds");
        RangeId(self.item_trap[item])
    }

    fn neighbors(&self, id: RangeId) -> Vec<RangeId> {
        let n = self.node_count();
        let idx = id.index();
        if idx < n {
            self.adjacent(idx)
                .iter()
                .map(|&(_, link)| RangeId((n + link as usize) as u32))
                .collect()
        } else {
            let (a, b) = self.link_ends[idx - n];
            vec![RangeId(a), RangeId(b)]
        }
    }

    fn locate(&self, q: &(i64, i64)) -> RangeId {
        for (i, rec) in self.traps.iter().enumerate() {
            if rec.trap.contains(*q) {
                return RangeId(i as u32);
            }
        }
        // Boundary fallback (queries on segments/walls): nearest by closure.
        for (i, rec) in self.traps.iter().enumerate() {
            let t = &rec.trap;
            let x_ok = t.left_x.is_none_or(|l| q.0 >= l) && t.right_x.is_none_or(|r| q.0 <= r);
            if !x_ok {
                continue;
            }
            let y = Rational::integer(q.1);
            let below_top = t.top.as_ref().is_none_or(|s| y <= s.y_at_int(q.0));
            let above_bottom = t.bottom.as_ref().is_none_or(|s| y >= s.y_at_int(q.0));
            if below_top && above_bottom {
                return RangeId(i as u32);
            }
        }
        unreachable!("trapezoids tile the plane")
    }

    fn search_step(&self, from: RangeId, q: &(i64, i64)) -> Option<RangeId> {
        let n = self.node_count();
        // O(1) termination probe: the unique trapezoid strictly containing
        // q is its locate answer, so the locus needs no scan or BFS. (The
        // remaining steps do pay a locate + BFS each — acceptable because
        // Lemma 5 keeps walks at O(1) expected ranges.)
        if from.index() < n && self.traps[from.index()].trap.contains(*q) {
            return None;
        }
        let target = self.locate(q).index();
        if from.index() < n {
            if from.index() == target {
                return None;
            }
            // The link toward the target on a shortest path.
            return Some(self.first_link_toward(from.index(), target));
        }
        // A link is direction-aware: continue to whichever endpoint is
        // nearer the target. One BFS from the target resolves both endpoint
        // distances.
        let (a, b) = self.link_ends[from.index() - n];
        let (a, b) = (a as usize, b as usize);
        if a == target {
            return Some(RangeId(a as u32));
        }
        if b == target {
            return Some(RangeId(b as u32));
        }
        let (da, db) = self.bfs_dists(target, a, b);
        Some(RangeId(if da <= db { a } else { b } as u32))
    }

    fn best_entry(&self, candidates: &[RangeId], q: &(i64, i64)) -> RangeId {
        assert!(!candidates.is_empty(), "conflict list may not be empty");
        candidates
            .iter()
            .copied()
            .find(|id| self.range(*id).contains(*q))
            .unwrap_or(candidates[0])
    }

    fn item_query(item: &Segment) -> (i64, i64) {
        // A point just above the segment near its midpoint: updates route to
        // the trapezoid(s) the segment's insertion or removal reshapes.
        let xm = (item.x1 + item.x2).div_euclid(2);
        let y = item.y_at_int(xm);
        (xm, y.ceil_i64().saturating_add(1))
    }

    fn conflicts_into(&self, external: &Trapezoid, out: &mut Vec<RangeId>) {
        let n = self.node_count();
        let base = out.len();
        out.extend(
            (0..n)
                .filter(|&i| self.traps[i].trap.overlaps(external))
                .map(|i| RangeId(i as u32)),
        );
        // A link conflicts when its far trapezoid does; the hits just pushed
        // are ascending.
        let hits = out.len();
        for (l, &(_, b)) in self.link_ends.iter().enumerate() {
            if out[base..hits].binary_search(&RangeId(b)).is_ok() {
                out.push(RangeId((n + l) as u32));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::assert_steps_reach_locate;

    fn seg(p: (i64, i64), q: (i64, i64)) -> Segment {
        Segment::new(p, q)
    }

    #[test]
    fn empty_map_is_the_whole_plane() {
        let m = TrapezoidalMap::build(vec![]);
        assert_eq!(m.num_trapezoids(), 1);
        assert_eq!(m.num_links(), 0);
        assert!(m.trapezoid(RangeId(0)).contains((123, -456)));
    }

    #[test]
    fn single_segment_yields_four_trapezoids() {
        let m = TrapezoidalMap::build(vec![seg((0, 0), (10, 0))]);
        // left unbounded, above, below, right unbounded
        assert_eq!(m.num_trapezoids(), 4);
        let above = m.locate(&(5, 3));
        let below = m.locate(&(5, -3));
        assert_ne!(above, below);
        assert_eq!(m.trapezoid(above).bottom, Some(seg((0, 0), (10, 0))));
        assert_eq!(m.trapezoid(below).top, Some(seg((0, 0), (10, 0))));
    }

    #[test]
    fn trapezoid_count_respects_3n_plus_1() {
        let segments = vec![
            seg((0, 0), (9, 1)),
            seg((2, 5), (11, 6)),
            seg((-8, -5), (-1, -4)),
            seg((13, 2), (20, -2)),
        ];
        let n = segments.len();
        let m = TrapezoidalMap::build(segments);
        assert!(
            m.num_trapezoids() <= 3 * n + 1,
            "{} > 3n+1",
            m.num_trapezoids()
        );
    }

    #[test]
    fn locate_agrees_with_containment_everywhere() {
        let m = TrapezoidalMap::build(vec![seg((0, 0), (9, 1)), seg((2, 5), (11, 6))]);
        for q in [
            (1, 2),
            (5, 3),
            (5, -7),
            (10, 8),
            (-100, 0),
            (100, 0),
            (5, 100),
        ] {
            let hit = m.locate(&q);
            assert!(
                m.trapezoid(hit).contains(q),
                "locate({q:?}) returned a non-containing trapezoid"
            );
            // Exactly one trapezoid strictly contains an off-boundary point.
            let count = (0..m.num_trapezoids())
                .filter(|&i| m.trapezoid(RangeId(i as u32)).contains(q))
                .count();
            assert_eq!(count, 1, "point {q:?} must lie in exactly one trapezoid");
        }
    }

    #[test]
    fn walls_only_cut_the_gap_with_the_endpoint() {
        // A long low segment and a short high one: the region above the low
        // segment to the right of the high one's right endpoint must merge
        // across that endpoint's wall only where the wall does not cut.
        let low = seg((0, 0), (21, 0));
        let high = seg((3, 10), (8, 10));
        let m = TrapezoidalMap::build(vec![low, high]);
        // Under `low`, x walls at 0 and 21 only: one trapezoid spans 0..21.
        let under = m.locate(&(10, -1));
        let t = m.trapezoid(under);
        assert_eq!(t.left_x, Some(0));
        assert_eq!(t.right_x, Some(21));
        // Between low and high, walls at 3 and 8 cut: three trapezoids.
        let mid_left = m.locate(&(1, 5));
        let mid_center = m.locate(&(5, 5));
        let mid_right = m.locate(&(15, 5));
        assert_ne!(mid_left, mid_center);
        assert_ne!(mid_center, mid_right);
        assert_ne!(mid_left, mid_right);
    }

    #[test]
    fn adjacency_graph_is_connected() {
        let m = TrapezoidalMap::build(vec![seg((0, 0), (9, 1)), seg((2, 5), (11, 6))]);
        let n = m.num_trapezoids();
        let mut seen = vec![false; n];
        let mut queue = VecDeque::from([0usize]);
        seen[0] = true;
        let mut visited = 1;
        while let Some(cur) = queue.pop_front() {
            for &(nb, _) in m.adjacent(cur) {
                if !seen[nb as usize] {
                    seen[nb as usize] = true;
                    visited += 1;
                    queue.push_back(nb as usize);
                }
            }
        }
        assert_eq!(visited, n, "trapezoid adjacency must be connected");
    }

    #[test]
    fn search_path_reaches_the_target_through_links() {
        let m = TrapezoidalMap::build(vec![seg((0, 0), (9, 1)), seg((2, 5), (11, 6))]);
        let from = m.entry_of_item(0);
        let q = (10, 8);
        let path = m.search_path(from, &q);
        assert_eq!(*path.last().unwrap(), m.locate(&q));
        for pair in path.windows(2) {
            assert!(
                m.neighbors(pair[0]).contains(&pair[1]) || m.neighbors(pair[1]).contains(&pair[0]),
                "path must follow links"
            );
        }
    }

    #[test]
    fn search_step_converges_on_the_locate_answer() {
        let m = TrapezoidalMap::build(vec![
            seg((0, 0), (9, 1)),
            seg((2, 5), (11, 6)),
            seg((13, 2), (20, -2)),
        ]);
        for q in [(10, 8), (-50, 0), (15, 0), (5, 3)] {
            assert_steps_reach_locate(&m, &q);
        }
    }

    #[test]
    fn conflicts_count_matches_lemma5_identity() {
        // D(T) with T ⊂ S; check conflicts = 1 + a + 2b + 3c for the
        // trapezoid of D(T) containing a probe point.
        let s_all = vec![
            seg((0, 0), (9, 1)),
            seg((2, 5), (11, 6)),
            seg((-8, -5), (-1, -4)),
            seg((13, 2), (20, -2)),
            seg((4, -9), (7, -8)),
        ];
        let t_sub = vec![s_all[0], s_all[1]];
        let coarse = TrapezoidalMap::build(t_sub.clone());
        let fine = TrapezoidalMap::build(s_all.clone());
        for probe in [(5, 3), (-20, 0), (15, 10), (5, -20)] {
            let t = coarse.trapezoid(coarse.locate(&probe));
            let node_conflicts = (0..fine.num_trapezoids())
                .filter(|&i| fine.trapezoid(RangeId(i as u32)).overlaps(&t))
                .count();
            let mut a = 0usize;
            let mut b = 0usize;
            let mut c = 0usize;
            for s in &s_all {
                if t_sub.contains(s) {
                    continue;
                }
                let inside = |p: (i64, i64)| t.contains(p);
                let ends = [inside(s.left()), inside(s.right())]
                    .iter()
                    .filter(|&&v| v)
                    .count();
                match ends {
                    2 => c += 1,
                    1 => b += 1,
                    0 => {
                        // crosses clean through iff it overlaps the region
                        let seg_strip = Trapezoid {
                            top: Some(*s),
                            bottom: Some(*s),
                            left_x: Some(s.x1),
                            right_x: Some(s.x2),
                        };
                        // a segment "cuts" t if its span overlaps t's x-range
                        // and it lies strictly between t's bounds somewhere;
                        // approximate via midpoint sampling of the x-overlap.
                        let _ = seg_strip;
                        let lo = t.left_x.map_or(s.x1, |l| l.max(s.x1));
                        let hi = t.right_x.map_or(s.x2, |r| r.min(s.x2));
                        if lo < hi {
                            let y = s.y_at(lo as i128 + hi as i128, 2);
                            let below_top = t
                                .top
                                .as_ref()
                                .is_none_or(|ts| y < ts.y_at(lo as i128 + hi as i128, 2));
                            let above_bottom = t
                                .bottom
                                .as_ref()
                                .is_none_or(|bs| y > bs.y_at(lo as i128 + hi as i128, 2));
                            if below_top && above_bottom {
                                a += 1;
                            }
                        }
                    }
                    _ => unreachable!(),
                }
            }
            assert_eq!(
                node_conflicts,
                1 + a + 2 * b + 3 * c,
                "Lemma 5 identity for probe {probe:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn crossing_segments_are_rejected() {
        let _ = TrapezoidalMap::build(vec![seg((0, 0), (10, 10)), seg((1, 9), (9, 1))]);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn duplicate_endpoint_x_rejected() {
        let _ = TrapezoidalMap::build(vec![seg((0, 0), (10, 0)), seg((0, 5), (11, 5))]);
    }

    #[test]
    #[should_panic(expected = "vertical")]
    fn vertical_segment_rejected() {
        let _ = Segment::new((0, 0), (0, 5));
    }

    #[test]
    fn segment_normalizes_left_right() {
        let s = seg((10, 1), (2, 3));
        assert_eq!(s.left(), (2, 3));
        assert_eq!(s.right(), (10, 1));
    }

    #[test]
    fn build_is_canonical_under_input_order() {
        let s1 = seg((0, 0), (9, 1));
        let s2 = seg((2, 5), (11, 6));
        let a = TrapezoidalMap::build(vec![s1, s2]);
        let b = TrapezoidalMap::build(vec![s2, s1]);
        assert_eq!(a, b, "same segment set must yield the same map");
    }

    #[test]
    fn owner_entry_trapezoid_sits_on_its_segment() {
        let segs = vec![seg((0, 0), (9, 1)), seg((2, 5), (11, 6))];
        let m = TrapezoidalMap::build(segs.clone());
        for (i, s) in m.items().iter().enumerate() {
            let t = m.trapezoid(m.entry_of_item(i));
            assert_eq!(t.bottom, Some(*s), "entry trapezoid lies above its segment");
        }
    }
}
