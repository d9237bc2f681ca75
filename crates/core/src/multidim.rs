//! Multi-dimensional skip-webs (§3): quadtree/octree point location and
//! approximate nearest neighbour, trie prefix search, and trapezoidal-map
//! point location — each `O(log n)` messages even when the underlying
//! structure has `O(n)` depth.

use skipweb_net::sim::MessageMeter;
use skipweb_structures::geometry::Cell;
use skipweb_structures::quadtree::{CompressedQuadtree, PointKey};
use skipweb_structures::traits::{RangeDetermined, RangeId};
use skipweb_structures::trapezoid::{Segment, Trapezoid, TrapezoidalMap};
use skipweb_structures::trie::CompressedTrie;

use crate::engine::Routable;
use crate::web::Web;

/// A request routed through a distributed quadtree skip-web.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuadtreeRequest<const D: usize> {
    /// Point location (and approximate nearest neighbour) for a point.
    Locate(PointKey<D>),
    /// Orthogonal range reporting over the axis-aligned box `[lo, hi]`
    /// (inclusive corners); the descent routes toward the box centre, then
    /// the anchoring host scans output-sensitively (§3.1). Corners given
    /// out of order are normalized per axis before routing — actors never
    /// trust wire input enough to panic on it.
    InBox {
        /// Lower corner, per axis.
        lo: [u32; D],
        /// Upper corner, per axis.
        hi: [u32; D],
    },
}

/// Normalizes box corners so `lo[a] <= hi[a]` on every axis.
fn normalized_box<const D: usize>(lo: &[u32; D], hi: &[u32; D]) -> ([u32; D], [u32; D]) {
    let mut nlo = *lo;
    let mut nhi = *hi;
    for a in 0..D {
        if nlo[a] > nhi[a] {
            std::mem::swap(&mut nlo[a], &mut nhi[a]);
        }
    }
    (nlo, nhi)
}

/// The answer to a [`QuadtreeRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuadtreeAnswer<const D: usize> {
    /// Point-location result.
    Located {
        /// The deepest quadtree cell containing the query point.
        cell: Cell<D>,
        /// The approximate nearest neighbour of §3.1.
        approx_nearest: Option<PointKey<D>>,
    },
    /// Stored points inside the requested box, in Morton order.
    Points(Vec<PointKey<D>>),
}

impl<const D: usize> Routable for CompressedQuadtree<D> {
    type Request = QuadtreeRequest<D>;
    type Answer = QuadtreeAnswer<D>;

    fn target(req: &QuadtreeRequest<D>) -> PointKey<D> {
        match req {
            QuadtreeRequest::Locate(p) => *p,
            QuadtreeRequest::InBox { lo, hi } => {
                let (lo, hi) = normalized_box(lo, hi);
                let mut centre = [0u32; D];
                for a in 0..D {
                    centre[a] = lo[a] + (hi[a] - lo[a]) / 2;
                }
                PointKey::new(centre)
            }
        }
    }

    fn answer(
        &self,
        locus: RangeId,
        req: &QuadtreeRequest<D>,
        touch: impl FnMut(RangeId),
    ) -> QuadtreeAnswer<D> {
        match req {
            QuadtreeRequest::Locate(q) => {
                // The located range is a node (search terminates on nodes);
                // widen to its parent subtree for the approximate-NN
                // candidate set.
                let around = self.parent_of(locus).unwrap_or(locus);
                QuadtreeAnswer::Located {
                    cell: RangeDetermined::range(self, locus),
                    approx_nearest: self.nearest_in_subtree(around, q),
                }
            }
            QuadtreeRequest::InBox { lo, hi } => {
                let (lo, hi) = normalized_box(lo, hi);
                let nodes = box_report_nodes(self, locus, &lo, &hi, touch);
                QuadtreeAnswer::Points(points_from_nodes(self, &nodes, &lo, &hi))
            }
        }
    }

    fn report_ranges(&self, locus: RangeId, req: &QuadtreeRequest<D>) -> Option<Vec<RangeId>> {
        match req {
            // A walk ends on a node: only a malformed envelope names a link
            // as the locus, and it reports nothing.
            QuadtreeRequest::InBox { lo, hi } if locus.index() < self.num_nodes() => {
                let (lo, hi) = normalized_box(lo, hi);
                Some(box_report_nodes(self, locus, &lo, &hi, |_| {}))
            }
            _ => None,
        }
    }

    fn partial_answer(&self, ranges: &[RangeId], req: &QuadtreeRequest<D>) -> QuadtreeAnswer<D> {
        match req {
            // A locate never reports, so the wire decoder admits no
            // scatter of one; degrade to the empty report all the same.
            QuadtreeRequest::Locate(_) => QuadtreeAnswer::default(),
            QuadtreeRequest::InBox { lo, hi } => {
                let (lo, hi) = normalized_box(lo, hi);
                QuadtreeAnswer::Points(points_from_nodes(self, ranges, &lo, &hi))
            }
        }
    }

    fn merge_answers(parts: Vec<QuadtreeAnswer<D>>) -> QuadtreeAnswer<D> {
        // Partials cover disjoint node sets, so a merge is concatenation
        // back into Morton order — byte-identical to the serial scan.
        let mut points: Vec<PointKey<D>> = parts
            .into_iter()
            .flat_map(|p| match p {
                QuadtreeAnswer::Points(pts) => pts,
                QuadtreeAnswer::Located { .. } => Vec::new(),
            })
            .collect();
        points.sort_by_cached_key(PointKey::morton);
        QuadtreeAnswer::Points(points)
    }
}

/// The empty box report: what a malformed scatter-gather exchange degrades
/// to (see [`Routable::partial_answer`]).
impl<const D: usize> Default for QuadtreeAnswer<D> {
    fn default() -> Self {
        QuadtreeAnswer::Points(Vec::new())
    }
}

/// The answer to a distributed trie prefix query.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PrefixAnswer {
    /// How many bytes of the query lie on the stored-set trie.
    pub matched_len: usize,
    /// Stored strings extending the full query prefix (empty when the query
    /// diverges before its end), sorted.
    pub matches: Vec<String>,
}

impl Routable for CompressedTrie {
    type Request = String;
    type Answer = PrefixAnswer;

    fn target(req: &String) -> String {
        req.clone()
    }

    fn answer(&self, _locus: RangeId, req: &String, _touch: impl FnMut(RangeId)) -> PrefixAnswer {
        let matched_len = self.matched_len(req.as_bytes());
        let matches = if matched_len == req.len() {
            self.strings_with_prefix(req.as_bytes())
                .into_iter()
                .map(str::to_owned)
                .collect()
        } else {
            Vec::new()
        };
        PrefixAnswer {
            matched_len,
            matches,
        }
    }

    fn report_ranges(&self, _locus: RangeId, req: &String) -> Option<Vec<RangeId>> {
        if self.matched_len(req.as_bytes()) != req.len() {
            // Off-trie prefix: the answer is an empty match list, computed
            // for free at the locus — nothing to scatter.
            return None;
        }
        // The matching strings are a contiguous run of the sorted ground
        // set; each item's node range names the host storing it.
        let items = self.items();
        let start = items.partition_point(|s| s.as_str() < req.as_str());
        let ids: Vec<RangeId> = items[start..]
            .iter()
            .take_while(|s| s.starts_with(req.as_str()))
            .enumerate()
            .map(|(off, _)| self.entry_of_item(start + off))
            .collect();
        (!ids.is_empty()).then_some(ids)
    }

    fn partial_answer(&self, ranges: &[RangeId], req: &String) -> PrefixAnswer {
        let matched_len = self.matched_len(req.as_bytes());
        let mut matches: Vec<String> = ranges
            .iter()
            .filter_map(|&r| self.terminal_item(r))
            .map(|i| self.items()[i].clone())
            .filter(|s| s.starts_with(req.as_str()))
            .collect();
        matches.sort();
        PrefixAnswer {
            matched_len,
            matches,
        }
    }

    fn merge_answers(parts: Vec<PrefixAnswer>) -> PrefixAnswer {
        // Every partial computes matched_len from the shared structure
        // description, so any of them carries the right value.
        let matched_len = parts.iter().map(|p| p.matched_len).max().unwrap_or(0);
        let mut matches: Vec<String> = parts.into_iter().flat_map(|p| p.matches).collect();
        matches.sort();
        matches.dedup();
        PrefixAnswer {
            matched_len,
            matches,
        }
    }
}

impl Routable for TrapezoidalMap {
    type Request = (i64, i64);
    type Answer = Trapezoid;

    fn target(req: &(i64, i64)) -> (i64, i64) {
        *req
    }

    fn answer(&self, locus: RangeId, _req: &(i64, i64), _touch: impl FnMut(RangeId)) -> Trapezoid {
        RangeDetermined::range(self, locus)
    }

    fn admissible(&self, item: &Segment) -> bool {
        // Building with a general-position violation panics; a live insert
        // over the wire must degrade to a rejected no-op instead.
        self.admits(item)
    }
}

mod codecs {
    //! [`WireCodec`] layouts for the multi-dimensional webs. Decoders guard
    //! every constructor precondition (cell depth bounds, segment general
    //! position) so malformed wire bytes degrade to `None`, never a panic.

    use skipweb_net::wire::{put_i64, put_str, put_u128, put_u32, put_u8, WireReader};
    use skipweb_structures::geometry::MAX_DEPTH;

    use super::*;
    use crate::wire::WireCodec;

    fn put_point<const D: usize>(p: &PointKey<D>, buf: &mut Vec<u8>) {
        for c in p.coords() {
            put_u32(buf, c);
        }
    }

    fn read_point<const D: usize>(r: &mut WireReader<'_>) -> Option<PointKey<D>> {
        let mut coords = [0u32; D];
        for c in &mut coords {
            *c = r.read_u32()?;
        }
        Some(PointKey::new(coords))
    }

    fn put_cell<const D: usize>(cell: &Cell<D>, buf: &mut Vec<u8>) {
        put_u128(buf, cell.prefix());
        put_u32(buf, cell.depth());
    }

    fn read_cell<const D: usize>(r: &mut WireReader<'_>) -> Option<Cell<D>> {
        let prefix = r.read_u128()?;
        let depth = r.read_u32()?;
        (depth <= MAX_DEPTH).then(|| Cell::at_depth(prefix, depth))
    }

    /// Requests and items are raw per-axis `u32` coordinates (1 or 2 point
    /// tuples behind a variant tag); answers tag `Located`/`Points`.
    impl<const D: usize> WireCodec for CompressedQuadtree<D> {
        fn encode_request(req: &QuadtreeRequest<D>, buf: &mut Vec<u8>) {
            match req {
                QuadtreeRequest::Locate(p) => {
                    put_u8(buf, 0);
                    put_point(p, buf);
                }
                QuadtreeRequest::InBox { lo, hi } => {
                    put_u8(buf, 1);
                    put_point(&PointKey::new(*lo), buf);
                    put_point(&PointKey::new(*hi), buf);
                }
            }
        }

        fn decode_request(r: &mut WireReader<'_>) -> Option<QuadtreeRequest<D>> {
            match r.read_u8()? {
                0 => Some(QuadtreeRequest::Locate(read_point(r)?)),
                1 => Some(QuadtreeRequest::InBox {
                    lo: read_point::<D>(r)?.coords(),
                    hi: read_point::<D>(r)?.coords(),
                }),
                _ => None,
            }
        }

        fn encode_answer(ans: &QuadtreeAnswer<D>, buf: &mut Vec<u8>) {
            match ans {
                QuadtreeAnswer::Located {
                    cell,
                    approx_nearest,
                } => {
                    put_u8(buf, 0);
                    put_cell(cell, buf);
                    match approx_nearest {
                        None => put_u8(buf, 0),
                        Some(p) => {
                            put_u8(buf, 1);
                            put_point(p, buf);
                        }
                    }
                }
                QuadtreeAnswer::Points(ps) => {
                    put_u8(buf, 1);
                    put_u32(buf, ps.len() as u32);
                    for p in ps {
                        put_point(p, buf);
                    }
                }
            }
        }

        fn decode_answer(r: &mut WireReader<'_>) -> Option<QuadtreeAnswer<D>> {
            match r.read_u8()? {
                0 => {
                    let cell = read_cell(r)?;
                    let approx_nearest = match r.read_u8()? {
                        0 => None,
                        1 => Some(read_point(r)?),
                        _ => return None,
                    };
                    Some(QuadtreeAnswer::Located {
                        cell,
                        approx_nearest,
                    })
                }
                1 => {
                    let len = r.read_u32()? as usize;
                    let mut ps = Vec::with_capacity(len.min(1024));
                    for _ in 0..len {
                        ps.push(read_point(r)?);
                    }
                    Some(QuadtreeAnswer::Points(ps))
                }
                _ => None,
            }
        }

        fn encode_item(item: &PointKey<D>, buf: &mut Vec<u8>) {
            put_point(item, buf);
        }

        fn decode_item(r: &mut WireReader<'_>) -> Option<PointKey<D>> {
            read_point(r)
        }
    }

    /// Requests and items are length-prefixed UTF-8; the answer is the
    /// matched length followed by the sorted match list.
    impl WireCodec for CompressedTrie {
        fn encode_request(req: &String, buf: &mut Vec<u8>) {
            put_str(buf, req);
        }

        fn decode_request(r: &mut WireReader<'_>) -> Option<String> {
            r.read_str()
        }

        fn encode_answer(ans: &PrefixAnswer, buf: &mut Vec<u8>) {
            put_u32(buf, ans.matched_len as u32);
            put_u32(buf, ans.matches.len() as u32);
            for m in &ans.matches {
                put_str(buf, m);
            }
        }

        fn decode_answer(r: &mut WireReader<'_>) -> Option<PrefixAnswer> {
            let matched_len = r.read_u32()? as usize;
            let len = r.read_u32()? as usize;
            let mut matches = Vec::with_capacity(len.min(1024));
            for _ in 0..len {
                matches.push(r.read_str()?);
            }
            Some(PrefixAnswer {
                matched_len,
                matches,
            })
        }

        fn encode_item(item: &String, buf: &mut Vec<u8>) {
            put_str(buf, item);
        }

        fn decode_item(r: &mut WireReader<'_>) -> Option<String> {
            r.read_str()
        }
    }

    fn put_segment(s: &Segment, buf: &mut Vec<u8>) {
        let (lx, ly) = s.left();
        let (rx, ry) = s.right();
        put_i64(buf, lx);
        put_i64(buf, ly);
        put_i64(buf, rx);
        put_i64(buf, ry);
    }

    fn read_segment(r: &mut WireReader<'_>) -> Option<Segment> {
        let p = (r.read_i64()?, r.read_i64()?);
        let q = (r.read_i64()?, r.read_i64()?);
        // Segment::new asserts general position and i32-range coordinates;
        // check both so wire input cannot panic the host.
        let in_range = [p.0, p.1, q.0, q.1]
            .iter()
            .all(|&v| i32::try_from(v).is_ok());
        (p.0 != q.0 && in_range).then(|| Segment::new(p, q))
    }

    fn put_opt_i64(v: &Option<i64>, buf: &mut Vec<u8>) {
        match v {
            None => put_u8(buf, 0),
            Some(x) => {
                put_u8(buf, 1);
                put_i64(buf, *x);
            }
        }
    }

    fn read_opt_i64(r: &mut WireReader<'_>) -> Option<Option<i64>> {
        match r.read_u8()? {
            0 => Some(None),
            1 => Some(Some(r.read_i64()?)),
            _ => None,
        }
    }

    /// Requests are `(x, y)` query points; answers serialize the four
    /// optional trapezoid bounds; items are segments as two endpoints.
    impl WireCodec for TrapezoidalMap {
        fn encode_request(req: &(i64, i64), buf: &mut Vec<u8>) {
            put_i64(buf, req.0);
            put_i64(buf, req.1);
        }

        fn decode_request(r: &mut WireReader<'_>) -> Option<(i64, i64)> {
            Some((r.read_i64()?, r.read_i64()?))
        }

        fn encode_answer(ans: &Trapezoid, buf: &mut Vec<u8>) {
            for side in [&ans.top, &ans.bottom] {
                match side {
                    None => put_u8(buf, 0),
                    Some(s) => {
                        put_u8(buf, 1);
                        put_segment(s, buf);
                    }
                }
            }
            put_opt_i64(&ans.left_x, buf);
            put_opt_i64(&ans.right_x, buf);
        }

        fn decode_answer(r: &mut WireReader<'_>) -> Option<Trapezoid> {
            let mut sides = [None, None];
            for side in &mut sides {
                *side = match r.read_u8()? {
                    0 => None,
                    1 => Some(read_segment(r)?),
                    _ => return None,
                };
            }
            Some(Trapezoid {
                top: sides[0],
                bottom: sides[1],
                left_x: read_opt_i64(r)?,
                right_x: read_opt_i64(r)?,
            })
        }

        fn encode_item(item: &Segment, buf: &mut Vec<u8>) {
            put_segment(item, buf);
        }

        fn decode_item(r: &mut WireReader<'_>) -> Option<Segment> {
            read_segment(r)
        }
    }
}

/// The node ranges supporting a box report: ascend from `locus` to the
/// smallest cell covering the whole box, then DFS with subtree pruning —
/// every node visited in walk order, and observed by `touch` (the simulator
/// meters its host). The stored points of exactly these nodes (filtered
/// through the box) are the report's answer, which is what lets a
/// scatter-gather split them across owning hosts. The box's corners are
/// encoded once and a node's children read in place, so the walk allocates
/// only the two lists it grows, nothing per node.
pub(crate) fn box_report_nodes<const D: usize>(
    base: &CompressedQuadtree<D>,
    locus: RangeId,
    lo: &[u32; D],
    hi: &[u32; D],
    mut touch: impl FnMut(RangeId),
) -> Vec<RangeId> {
    let (lo_code, hi_code) = (PointKey::new(*lo).morton(), PointKey::new(*hi).morton());
    // Ascend to the smallest node whose cell covers the whole box.
    let mut node = locus;
    while !(base.node_cell(node).contains_code(lo_code)
        && base.node_cell(node).contains_code(hi_code))
    {
        match base.parent_of(node) {
            Some(p) => {
                node = p;
                touch(node);
            }
            None => break, // the universe root covers everything
        }
    }
    // Output-sensitive DFS, pruning subtrees outside the box.
    let mut visited = Vec::new();
    let mut stack = vec![node];
    while let Some(v) = stack.pop() {
        if !base.node_cell(v).intersects_box(lo, hi) {
            continue;
        }
        touch(v);
        visited.push(v);
        stack.extend(
            base.children(v)
                .iter()
                .map(|&c| RangeId(c))
                .filter(|&c| base.node_cell(c).intersects_box(lo, hi)),
        );
    }
    visited
}

/// The stored points of `nodes` inside the box, in Morton order — the
/// answer (or one scattered partial of it) of a box report.
pub(crate) fn points_from_nodes<const D: usize>(
    base: &CompressedQuadtree<D>,
    nodes: &[RangeId],
    lo: &[u32; D],
    hi: &[u32; D],
) -> Vec<PointKey<D>> {
    let mut points: Vec<PointKey<D>> = nodes
        .iter()
        .filter_map(|&v| base.leaf_point(v))
        .filter(|p| p.in_box(lo, hi))
        .collect();
    // One code per point, not two per comparison.
    points.sort_by_cached_key(PointKey::morton);
    points
}

/// Outcome of a point-location query in a quadtree skip-web.
#[derive(Debug, Clone)]
pub struct CellOutcome<const D: usize> {
    /// The deepest quadtree cell containing the query point.
    pub cell: Cell<D>,
    /// The stored point nearest the query within that cell's subtree (and
    /// its parent's subtree) — the approximate nearest neighbour that §3.1
    /// derives from point location.
    pub approx_nearest: Option<PointKey<D>>,
    /// Messages spent.
    pub messages: u64,
    /// Ranges touched per level, top first.
    pub per_level_touches: Vec<u32>,
}

/// A distributed skip-web over a compressed quadtree (`D = 2`) or octree
/// (`D = 3`), supporting point location and approximate nearest neighbour
/// with `O(log n)` messages (§3.1).
///
/// # Example
///
/// ```
/// use skipweb_core::multidim::QuadtreeSkipWeb;
/// use skipweb_structures::PointKey;
///
/// let pts: Vec<PointKey<2>> = (0..64).map(|i| PointKey::new([i * 13, i * 29])).collect();
/// let web = QuadtreeSkipWeb::builder(pts).seed(2).build();
/// let out = web.locate_point(web.random_origin(0), PointKey::new([100, 230]));
/// assert!(out.cell.contains_point(&PointKey::new([100, 230])));
/// ```
pub type QuadtreeSkipWeb<const D: usize> = Web<CompressedQuadtree<D>>;

impl<const D: usize> QuadtreeSkipWeb<D> {
    /// The stored points (Morton order).
    pub fn points(&self) -> &[PointKey<D>] {
        self.inner().ground()
    }

    /// Point location: routes to the deepest level-0 cell containing `q`
    /// and extracts the approximate nearest neighbour (§3.1).
    pub fn locate_point(&self, origin_item: usize, q: PointKey<D>) -> CellOutcome<D> {
        let (req, meter) = (QuadtreeRequest::Locate(q), &mut MessageMeter::new());
        let (answer, outcome) = self.inner().ask(origin_item, &req, meter);
        let QuadtreeAnswer::Located {
            cell,
            approx_nearest,
        } = answer
        else {
            unreachable!("a locate answers with a location");
        };
        CellOutcome {
            cell,
            approx_nearest,
            messages: outcome.messages,
            per_level_touches: outcome.per_level_touches,
        }
    }

    /// Reports every stored point in the axis-aligned box `[lo, hi]`
    /// (inclusive corners) — the approximate range searching §3.1 derives
    /// from point location. Routes to the box's covering cell in
    /// `O(log n)` messages, then scans output-sensitively.
    ///
    /// # Panics
    ///
    /// Panics if the web is empty or `lo` exceeds `hi` on any axis.
    pub fn points_in_box(&self, origin_item: usize, lo: [u32; D], hi: [u32; D]) -> BoxOutcome<D> {
        assert!((0..D).all(|a| lo[a] <= hi[a]), "box corners out of order");
        let (req, meter) = (QuadtreeRequest::InBox { lo, hi }, &mut MessageMeter::new());
        let (answer, outcome) = self.inner().ask(origin_item, &req, meter);
        let QuadtreeAnswer::Points(points) = answer else {
            unreachable!("a box answers with points");
        };
        BoxOutcome {
            points,
            messages: outcome.messages,
        }
    }
}

/// Outcome of a box-reporting query in a quadtree skip-web.
#[derive(Debug, Clone)]
pub struct BoxOutcome<const D: usize> {
    /// Stored points inside the box, in Morton order.
    pub points: Vec<PointKey<D>>,
    /// Messages spent: descent + ascent to the box's covering cell + the
    /// output-sensitive subtree scan.
    pub messages: u64,
}

/// Outcome of a prefix query in a trie skip-web.
#[derive(Debug, Clone)]
pub struct PrefixOutcome {
    /// How many bytes of the query lie on the stored-set trie.
    pub matched_len: usize,
    /// Stored strings extending the full query prefix (empty when the query
    /// diverges before its end), sorted.
    pub matches: Vec<String>,
    /// Messages spent routing to the locus.
    pub messages: u64,
    /// Ranges touched per level, top first.
    pub per_level_touches: Vec<u32>,
}

/// A distributed skip-web over a compressed trie: string prefix search with
/// `O(log n)` messages even for `O(n)`-depth tries (§3.2).
///
/// # Example
///
/// ```
/// use skipweb_core::multidim::TrieSkipWeb;
///
/// let web = TrieSkipWeb::builder(vec![
///     "9780201demo".into(),
///     "9780201rust".into(),
///     "9781492next".into(),
/// ]).build();
/// let out = web.prefix_search(web.random_origin(1), "9780201");
/// assert_eq!(out.matches.len(), 2);
/// ```
pub type TrieSkipWeb = Web<CompressedTrie>;

impl TrieSkipWeb {
    /// The stored strings (sorted).
    pub fn strings(&self) -> &[String] {
        self.inner().ground()
    }

    /// Prefix search: routes to the trie locus of `prefix` and collects the
    /// stored strings extending it.
    pub fn prefix_search(&self, origin_item: usize, prefix: &str) -> PrefixOutcome {
        let meter = &mut MessageMeter::new();
        let (answer, outcome) = self.inner().ask(origin_item, &prefix.to_string(), meter);
        PrefixOutcome {
            matched_len: answer.matched_len,
            matches: answer.matches,
            messages: outcome.messages,
            per_level_touches: outcome.per_level_touches,
        }
    }
}

/// Outcome of a point-location query in a trapezoidal-map skip-web.
#[derive(Debug, Clone)]
pub struct TrapezoidOutcome {
    /// The trapezoid containing the query point.
    pub trapezoid: Trapezoid,
    /// Messages spent.
    pub messages: u64,
    /// Ranges touched per level, top first.
    pub per_level_touches: Vec<u32>,
}

/// A distributed skip-web over a trapezoidal map: planar point location in a
/// subdivision by non-crossing segments (§3.3), e.g. a campus or city map.
///
/// # Example
///
/// ```
/// use skipweb_core::multidim::TrapezoidSkipWeb;
/// use skipweb_structures::Segment;
///
/// let web = TrapezoidSkipWeb::builder(vec![
///     Segment::new((0, 0), (11, 1)),
///     Segment::new((2, 6), (15, 7)),
/// ]).build();
/// let out = web.locate_point(0, (5, 3));
/// assert!(out.trapezoid.contains((5, 3)));
/// ```
pub type TrapezoidSkipWeb = Web<TrapezoidalMap>;

impl TrapezoidSkipWeb {
    /// The stored segments (sorted).
    pub fn segments(&self) -> &[Segment] {
        self.inner().ground()
    }

    /// Point location: routes to the trapezoid containing `q`.
    pub fn locate_point(&self, origin_item: usize, q: (i64, i64)) -> TrapezoidOutcome {
        let (trapezoid, outcome) = self.inner().ask(origin_item, &q, &mut MessageMeter::new());
        TrapezoidOutcome {
            trapezoid,
            messages: outcome.messages,
            per_level_touches: outcome.per_level_touches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, seed: u64) -> Vec<PointKey<2>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| PointKey::new([rng.gen(), rng.gen()]))
            .collect()
    }

    #[test]
    fn quadtree_point_location_matches_oracle() {
        let pts = random_points(128, 1);
        let web = QuadtreeSkipWeb::builder(pts).seed(1).build();
        let mut rng = StdRng::seed_from_u64(2);
        for s in 0..40u64 {
            let q = PointKey::new([rng.gen(), rng.gen()]);
            let out = web.locate_point(web.random_origin(s), q);
            let oracle = web.inner().base().range(web.inner().base().locate(&q));
            assert_eq!(out.cell, oracle);
        }
    }

    #[test]
    fn quadtree_approx_nearest_is_reasonable() {
        // A grid of points: the approximate NN must land within the located
        // neighbourhood — for member queries it is exact.
        let pts: Vec<PointKey<2>> = (0..8)
            .flat_map(|x| (0..8).map(move |y| PointKey::new([x * 1000, y * 1000])))
            .collect();
        let web = QuadtreeSkipWeb::builder(pts.clone()).seed(3).build();
        for p in pts.iter().step_by(7) {
            let out = web.locate_point(0, *p);
            assert_eq!(out.approx_nearest, Some(*p), "member point is its own NN");
        }
    }

    #[test]
    fn quadtree_messages_logarithmic_even_for_deep_trees() {
        // A clustered set that makes the uncompressed quadtree very deep.
        let mut pts = vec![PointKey::new([0u32, 0]), PointKey::new([1, 1])];
        pts.extend((0..126).map(|i| PointKey::new([i * 33_000_000 + 7, i * 17_000_000 + 3])));
        let web = QuadtreeSkipWeb::builder(pts).seed(4).build();
        let out = web.locate_point(web.random_origin(1), PointKey::new([2, 2]));
        assert!(out.messages < 60, "messages {} not O(log n)", out.messages);
    }

    #[test]
    fn box_reporting_matches_filter_oracle() {
        let pts = random_points(300, 31);
        let web = QuadtreeSkipWeb::builder(pts.clone()).seed(31).build();
        let boxes: [([u32; 2], [u32; 2]); 3] = [
            ([0, 0], [u32::MAX / 2, u32::MAX / 2]),
            ([1 << 30, 1 << 29], [3 << 30, 3 << 29]),
            ([5, 5], [6, 6]),
        ];
        for (lo, hi) in boxes {
            let out = web.points_in_box(web.random_origin(1), lo, hi);
            let mut want: Vec<PointKey<2>> = web
                .points()
                .iter()
                .copied()
                .filter(|p| p.in_box(&lo, &hi))
                .collect();
            want.sort_by_key(PointKey::morton);
            assert_eq!(out.points, want, "box {lo:?}..{hi:?}");
        }
    }

    #[test]
    fn box_reporting_is_output_sensitive() {
        let pts = random_points(512, 33);
        let web = QuadtreeSkipWeb::builder(pts).seed(33).build();
        let tiny = web.points_in_box(0, [0, 0], [1000, 1000]);
        assert!(tiny.messages < 80, "empty box cost {}", tiny.messages);
        let huge = web.points_in_box(0, [0, 0], [u32::MAX, u32::MAX]);
        assert_eq!(huge.points.len(), 512);
    }

    #[test]
    fn trie_prefix_search_returns_all_matches() {
        let mut strings: Vec<String> = (0..60).map(|i| format!("978020{i:02}rest")).collect();
        strings.push("9799999zzz".into());
        let web = TrieSkipWeb::builder(strings).seed(5).build();
        let out = web.prefix_search(web.random_origin(1), "97802");
        assert_eq!(out.matches.len(), 60);
        assert_eq!(out.matched_len, 5);
        let none = web.prefix_search(web.random_origin(2), "000");
        assert!(none.matches.is_empty());
    }

    #[test]
    fn trie_updates_route_and_apply() {
        let strings: Vec<String> = (0..32).map(|i| format!("w{i:03}")).collect();
        let mut web = TrieSkipWeb::builder(strings).seed(6).build();
        assert!(web.insert("w999x".into()).is_some());
        let out = web.prefix_search(0, "w999");
        assert_eq!(out.matches, vec!["w999x".to_string()]);
        assert!(web.remove(&"w999x".to_string()).is_some());
        assert!(web.prefix_search(0, "w999").matches.is_empty());
    }

    #[test]
    fn trapezoid_point_location_matches_oracle() {
        let segments: Vec<Segment> = (0..24)
            .map(|i| {
                let x = i * 100;
                Segment::new((x, i * 5), (x + 60, i * 5 + 3))
            })
            .collect();
        let web = TrapezoidSkipWeb::builder(segments).seed(7).build();
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..30 {
            let q = (rng.gen_range(-200..2600), rng.gen_range(-50..200));
            let out = web.locate_point(web.random_origin(3), q);
            let base = web.inner().base();
            let oracle = base.trapezoid(base.locate(&q));
            assert_eq!(out.trapezoid, oracle, "query {q:?}");
        }
    }

    #[test]
    fn trapezoid_updates_route_and_apply() {
        let segments: Vec<Segment> = (0..16)
            .map(|i| Segment::new((i * 100, i * 50), (i * 100 + 60, i * 50 + 3)))
            .collect();
        let mut web = TrapezoidSkipWeb::builder(segments).seed(11).build();
        let fresh = Segment::new((41, 2_000), (83, 2_001)); // above all bands
        let cost = web.insert(fresh).expect("new segment");
        assert!(cost > 0);
        assert!(web.insert(fresh).is_none(), "duplicate rejected");
        // The new segment's trapezoids are now locatable.
        let probe = (60i64, 2_005i64);
        let out = web.locate_point(0, probe);
        assert_eq!(out.trapezoid.bottom, Some(fresh));
        assert!(web.remove(&fresh).is_some());
        assert!(web.remove(&fresh).is_none());
        let out = web.locate_point(0, probe);
        assert_ne!(out.trapezoid.bottom, Some(fresh));
    }

    #[test]
    fn trapezoid_queries_touch_constant_per_level() {
        let segments: Vec<Segment> = (0..32)
            .map(|i| Segment::new((i * 50, (i % 7) * 9), (i * 50 + 30, (i % 7) * 9 + 2)))
            .collect();
        let web = TrapezoidSkipWeb::builder(segments).seed(9).build();
        let out = web.locate_point(0, (777, 33));
        let mean = out.per_level_touches.iter().map(|&t| t as f64).sum::<f64>()
            / out.per_level_touches.len() as f64;
        assert!(
            mean < 8.0,
            "per-level touches {mean} should be constant-ish"
        );
    }
}
