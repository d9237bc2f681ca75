//! Compressed digital tries over a fixed alphabet (§3.2).
//!
//! The range of a node `v` is the singleton `{str(v)}` — the string spelled
//! by the path to `v` — and the range of an edge `(v, w)` is the set of
//! strings `str(v)·y` for `y` a (possibly empty) prefix of the edge label,
//! i.e. the *path* from `str(v)` to `str(w)` in the infinite prefix tree.
//! Two ranges conflict when those paths share a vertex. Lemma 4 bounds the
//! expected conflicts of a half-sample trie range by `O(1)` for fixed
//! alphabets; [`crate::properties`] validates it statistically.
//!
//! # Layout
//!
//! Nodes are plain records in one array, root first, and own no heap
//! memory: a node's children sit next to each other, in branching-byte
//! order, in the trie's one `kids` array, named by the node's `first_kid`
//! and `kid_count`; a child's edge is its own `parent_edge`. `build` fills
//! `kids` at the end with one stable counting pass over the edges, so a
//! trie is a fixed handful of heap blocks whatever its size, and a walk
//! scans one slice per node.

use std::fmt;

use crate::traits::{RangeDetermined, RangeId};

fn is_prefix(a: &[u8], b: &[u8]) -> bool {
    a.len() <= b.len() && &b[..a.len()] == a
}

fn lcp_len(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// A trie range: the path of prefix-tree vertices from `start` to `end`,
/// where `start` is a prefix of `end`. Node ranges have `start == end`.
///
/// # Example
///
/// ```
/// use skipweb_structures::trie::TrieRange;
///
/// let edge = TrieRange::path(b"ca".to_vec(), b"cart".to_vec());
/// assert!(edge.covers(b"car"));
/// assert!(!edge.covers(b"cat"));
/// let node = TrieRange::point(b"carp".to_vec());
/// assert!(!edge.intersects(&node));
/// assert!(edge.intersects(&TrieRange::path(b"cart".to_vec(), b"cartoon".to_vec())));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TrieRange {
    /// The last vertex; the first is its prefix of `start_len` bytes, so a
    /// range is one string however long its path.
    end: Vec<u8>,
    start_len: usize,
}

impl TrieRange {
    /// The singleton range of a node spelling `s`.
    pub fn point(s: Vec<u8>) -> Self {
        TrieRange {
            start_len: s.len(),
            end: s,
        }
    }

    /// The path range from `start` to `end`.
    ///
    /// # Panics
    ///
    /// Panics if `start` is not a prefix of `end`.
    pub fn path(start: Vec<u8>, end: Vec<u8>) -> Self {
        assert!(
            is_prefix(&start, &end),
            "trie range start must be a prefix of its end"
        );
        TrieRange {
            start_len: start.len(),
            end,
        }
    }

    /// First vertex of the path.
    pub fn start(&self) -> &[u8] {
        &self.end[..self.start_len]
    }

    /// Last vertex of the path.
    pub fn end(&self) -> &[u8] {
        &self.end
    }

    /// Whether the path passes through the prefix-tree vertex `s`.
    pub fn covers(&self, s: &[u8]) -> bool {
        is_prefix(self.start(), s) && is_prefix(s, &self.end)
    }

    /// Whether two paths share a prefix-tree vertex — the conflict relation.
    pub fn intersects(&self, other: &TrieRange) -> bool {
        let (a, b) = (self.start(), other.start());
        let meet = if a.len() >= b.len() { a } else { b };
        is_prefix(a, meet)
            && is_prefix(b, meet)
            && is_prefix(meet, &self.end)
            && is_prefix(meet, &other.end)
            // starts must be comparable for `meet` to lie on both paths
            && (is_prefix(a, b) || is_prefix(b, a))
    }
}

impl fmt::Display for TrieRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:?} -> {:?}]",
            String::from_utf8_lossy(self.start()),
            String::from_utf8_lossy(&self.end)
        )
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct TrieNode {
    /// `str(v)` is `items[repr][..prefix_len]`.
    prefix_len: u32,
    repr: u32,
    parent: Option<u32>,
    parent_edge: Option<u32>,
    /// The children are `kids[first_kid..][..kid_count]`.
    first_kid: u32,
    kid_count: u32,
    /// Item index when `str(v)` is itself a stored string.
    terminal: Option<u32>,
}

impl TrieNode {
    fn new(prefix_len: u32, repr: u32, parent: Option<u32>, terminal: Option<u32>) -> Self {
        TrieNode {
            prefix_len,
            repr,
            parent,
            parent_edge: None,
            first_kid: 0,
            kid_count: 0,
            terminal,
        }
    }
}

/// A compressed (Patricia) trie over byte strings, exposed as a
/// range-determined link structure.
///
/// Range ids `0..num_nodes` are nodes (root first); the rest are edges.
///
/// # Example
///
/// ```
/// use skipweb_structures::{CompressedTrie, RangeDetermined};
///
/// let trie = CompressedTrie::build(vec![
///     "car".to_string(),
///     "cart".to_string(),
///     "dog".to_string(),
/// ]);
/// assert_eq!(trie.strings_with_prefix(b"ca"), vec!["car", "cart"]);
/// let locus = trie.locate(&"care".to_string());
/// assert!(trie.range(locus).covers(b"car"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedTrie {
    items: Vec<String>,
    nodes: Vec<TrieNode>,
    /// Edge `e` joins `edge_ends[e].0` (parent) to `edge_ends[e].1` (child).
    edge_ends: Vec<(u32, u32)>,
    /// Every node's children, grouped by parent.
    kids: Vec<u32>,
    /// Terminal node of each item.
    item_node: Vec<u32>,
}

impl CompressedTrie {
    /// Number of trie nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of trie edges.
    pub fn num_edges(&self) -> usize {
        self.edge_ends.len()
    }

    fn str_of(&self, node: usize) -> &[u8] {
        let n = &self.nodes[node];
        &self.items[n.repr as usize].as_bytes()[..n.prefix_len as usize]
    }

    /// The children of `node`, in branching-byte order.
    fn kids_of(&self, node: usize) -> &[u32] {
        let n = &self.nodes[node];
        &self.kids[n.first_kid as usize..][..n.kid_count as usize]
    }

    /// The range id of the edge hanging `child` from its parent.
    fn edge_into(&self, child: u32) -> RangeId {
        let e = self.nodes[child as usize]
            .parent_edge
            .expect("a child hangs from an edge");
        RangeId((self.nodes.len() + e as usize) as u32)
    }

    /// Range `idx`'s start length and end string, read from the tables
    /// without building the [`TrieRange`].
    fn range_parts(&self, idx: usize) -> (usize, &[u8]) {
        let n = self.nodes.len();
        if idx < n {
            (self.nodes[idx].prefix_len as usize, self.str_of(idx))
        } else {
            // A child spells an extension of its parent's string.
            let (p, c) = self.edge_ends[idx - n];
            let start_len = self.nodes[p as usize].prefix_len as usize;
            (start_len, self.str_of(c as usize))
        }
    }

    /// The string spelled by the path to node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node.
    pub fn node_string(&self, id: RangeId) -> &str {
        let n = &self.nodes[id.index()];
        &self.items[n.repr as usize][..n.prefix_len as usize]
    }

    /// Whether `id` denotes a terminal node (a stored string).
    pub fn is_terminal(&self, id: RangeId) -> bool {
        id.index() < self.nodes.len() && self.nodes[id.index()].terminal.is_some()
    }

    /// All stored strings having `prefix` as a prefix, in sorted order —
    /// the paper's motivating "ISBN prefix" query.
    pub fn strings_with_prefix(&self, prefix: &[u8]) -> Vec<&str> {
        let lo = self.items.partition_point(|s| s.as_bytes() < prefix);
        self.items[lo..]
            .iter()
            .take_while(|s| is_prefix(prefix, s.as_bytes()))
            .map(String::as_str)
            .collect()
    }

    /// The longest prefix of `q` that lies on the trie (is a prefix of some
    /// stored string), as its byte length.
    pub fn matched_len(&self, q: &[u8]) -> usize {
        let (_, matched) = self.walk(q);
        matched
    }

    /// Walks from the root matching `q`; returns the deepest fully-matched
    /// node and the number of bytes of `q` that lie on the trie.
    fn walk(&self, q: &[u8]) -> (usize, usize) {
        let mut cur = 0usize;
        loop {
            let cur_len = self.nodes[cur].prefix_len as usize;
            if cur_len == q.len() {
                return (cur, cur_len);
            }
            let next_byte = q[cur_len];
            let mut advanced = false;
            for &c in self.kids_of(cur) {
                let cs = self.str_of(c as usize);
                if cs[cur_len] == next_byte {
                    // Match as much of the edge label as possible.
                    let l = lcp_len(&cs[cur_len..], &q[cur_len..]);
                    if cur_len + l == cs.len() {
                        cur = c as usize;
                        advanced = true;
                    } else {
                        return (cur, cur_len + l);
                    }
                    break;
                }
            }
            if !advanced {
                return (cur, cur_len);
            }
        }
    }

    /// Node or edge range covering the prefix-tree vertex `p` (which must
    /// lie on the trie). Returns the node when `p` spells a node exactly.
    fn position_of(&self, p: &[u8]) -> Option<RangeId> {
        let (node, matched) = self.walk(p);
        if matched < p.len() {
            return None; // p leaves the trie
        }
        let node_len = self.nodes[node].prefix_len as usize;
        if node_len == p.len() {
            return Some(RangeId(node as u32));
        }
        // p sits strictly inside the child edge continuing with p[node_len].
        for &c in self.kids_of(node) {
            let cs = self.str_of(c as usize);
            if cs.len() > node_len && cs[node_len] == p[node_len] {
                debug_assert!(is_prefix(p, cs));
                return Some(self.edge_into(c));
            }
        }
        None
    }

    /// The locus of `qb` and the number of its bytes that lie on the trie.
    fn locate_bytes(&self, qb: &[u8]) -> (RangeId, usize) {
        let (node, matched) = self.walk(qb);
        let node_len = self.nodes[node].prefix_len as usize;
        if matched == node_len {
            return (RangeId(node as u32), matched);
        }
        // The locus sits inside the child edge continuing with q[node_len].
        for &c in self.kids_of(node) {
            let cs = self.str_of(c as usize);
            if cs.len() > node_len && cs[node_len] == qb[node_len] {
                return (self.edge_into(c), matched);
            }
        }
        (RangeId(node as u32), matched)
    }

    fn build_rec(&mut self, lo: usize, hi: usize, parent: Option<u32>) -> u32 {
        debug_assert!(lo < hi);
        let node_idx = self.nodes.len() as u32;
        let first = self.items[lo].as_bytes();
        let last = self.items[hi - 1].as_bytes();
        let l = lcp_len(first, last);
        let mut terminal = None;
        let mut child_start = lo;
        if first.len() == l {
            terminal = Some(lo as u32);
            child_start = lo + 1;
        }
        self.nodes
            .push(TrieNode::new(l as u32, lo as u32, parent, terminal));
        if terminal.is_some() {
            self.item_node[lo] = node_idx;
        }
        let mut start = child_start;
        while start < hi {
            let digit = self.items[start].as_bytes()[l];
            let mut end = start + 1;
            while end < hi && self.items[end].as_bytes()[l] == digit {
                end += 1;
            }
            let child = self.build_rec(start, end, Some(node_idx));
            let edge_idx = self.edge_ends.len() as u32;
            self.edge_ends.push((node_idx, child));
            self.nodes[child as usize].parent_edge = Some(edge_idx);
            start = end;
        }
        node_idx
    }

    /// Lays every node's children out in `kids`, grouped by parent: one
    /// stable counting pass over the edges, whose ids rise in
    /// branching-byte order among siblings (a child's edge is numbered
    /// after its whole subtree, before its next sibling's).
    fn fill_kids(&mut self) {
        for &(p, _) in &self.edge_ends {
            self.nodes[p as usize].kid_count += 1;
        }
        let mut first = 0;
        for node in &mut self.nodes {
            node.first_kid = first;
            first += node.kid_count;
            node.kid_count = 0;
        }
        self.kids = vec![0; self.edge_ends.len()];
        for &(p, c) in &self.edge_ends {
            let node = &mut self.nodes[p as usize];
            self.kids[(node.first_kid + node.kid_count) as usize] = c;
            node.kid_count += 1;
        }
    }

    /// Checks that the children table is exactly the inverse of the parent
    /// pointers: the nodes' rows tile it in node order, every node but the
    /// root sits in exactly one row, its parent's, each row runs in
    /// branching-byte order, and each child's edge joins it to that parent.
    /// `build` establishes this; tests call it.
    pub fn check_tables(&self) -> Result<(), String> {
        let mut placed = vec![false; self.nodes.len()];
        let mut end = 0u32;
        for (v, node) in self.nodes.iter().enumerate() {
            if node.first_kid != end {
                return Err(format!(
                    "node {v}'s row starts at {}, not {end}",
                    node.first_kid
                ));
            }
            end += node.kid_count;
            let row = self
                .kids
                .get(node.first_kid as usize..end as usize)
                .ok_or(format!("node {v}'s row overruns the table"))?;
            let mut last = None;
            for &c in row {
                let child = self
                    .nodes
                    .get(c as usize)
                    .ok_or(format!("node {v} names child {c}, which is no node"))?;
                if std::mem::replace(&mut placed[c as usize], true) {
                    return Err(format!("node {c} sits in two rows"));
                }
                if child.parent != Some(v as u32) {
                    return Err(format!("node {c} sits in node {v}'s row but not below it"));
                }
                let edge = child
                    .parent_edge
                    .and_then(|e| self.edge_ends.get(e as usize));
                if edge != Some(&(v as u32, c)) {
                    return Err(format!("node {c}'s edge does not join it to node {v}"));
                }
                let digit = self.str_of(c as usize).get(node.prefix_len as usize);
                if digit <= last {
                    return Err(format!("node {v}'s row leaves byte order at node {c}"));
                }
                last = digit;
            }
        }
        if end as usize != self.kids.len() {
            return Err(format!("the rows cover {end} of {} kids", self.kids.len()));
        }
        // The root has no parent, so the rows cannot name it.
        match (1..self.nodes.len()).find(|&v| !placed[v]) {
            Some(v) => Err(format!("node {v} sits in no row")),
            None => Ok(()),
        }
    }
}

impl RangeDetermined for CompressedTrie {
    type Item = String;
    type Query = String;
    type Range = TrieRange;

    fn build(mut items: Vec<String>) -> Self {
        // Equal strings are indistinguishable, so the unstable sort is the
        // stable one, without its temporary buffer.
        items.sort_unstable();
        items.dedup();
        let n = items.len();
        // A compressed trie has at most `2n` nodes besides the root.
        let mut trie = CompressedTrie {
            items,
            nodes: Vec::with_capacity(2 * n + 1),
            edge_ends: Vec::with_capacity(2 * n),
            kids: Vec::new(),
            item_node: vec![0; n],
        };
        if n == 0 {
            trie.nodes.push(TrieNode::new(0, 0, None, None));
            return trie;
        }
        // Force the root to spell the empty string so every query has a
        // location, hanging the compressed top below it when necessary.
        let first_nonempty_lcp = {
            let first = trie.items[0].as_bytes();
            let last = trie.items[n - 1].as_bytes();
            lcp_len(first, last)
        };
        if first_nonempty_lcp == 0 {
            trie.build_rec(0, n, None);
        } else {
            trie.nodes.push(TrieNode::new(0, 0, None, None));
            let top = trie.build_rec(0, n, Some(0));
            let edge_idx = trie.edge_ends.len() as u32;
            trie.edge_ends.push((0, top));
            trie.nodes[top as usize].parent_edge = Some(edge_idx);
        }
        trie.fill_kids();
        trie
    }

    fn items(&self) -> &[String] {
        &self.items
    }

    fn num_ranges(&self) -> usize {
        self.nodes.len() + self.edge_ends.len()
    }

    fn range(&self, id: RangeId) -> TrieRange {
        assert!(
            id.index() < self.num_ranges(),
            "range id out of bounds: {id}"
        );
        let (start_len, end) = self.range_parts(id.index());
        TrieRange {
            start_len,
            end: end.to_vec(),
        }
    }

    fn owner(&self, id: RangeId) -> usize {
        let n = self.nodes.len();
        let idx = id.index();
        if idx < n {
            self.nodes[idx].repr as usize
        } else {
            let (_, c) = self.edge_ends[idx - n];
            self.nodes[c as usize].repr as usize
        }
    }

    fn entry_of_item(&self, item: usize) -> RangeId {
        assert!(item < self.items.len(), "item index out of bounds");
        RangeId(self.item_node[item])
    }

    fn neighbors(&self, id: RangeId) -> Vec<RangeId> {
        let n = self.nodes.len();
        let idx = id.index();
        if idx < n {
            let node = &self.nodes[idx];
            let mut out = Vec::with_capacity(node.kid_count as usize + 1);
            if let Some(pe) = node.parent_edge {
                out.push(RangeId((n + pe as usize) as u32));
            }
            out.extend(self.kids_of(idx).iter().map(|&c| self.edge_into(c)));
            out
        } else {
            let (p, c) = self.edge_ends[idx - n];
            vec![RangeId(p), RangeId(c)]
        }
    }

    fn locate(&self, q: &String) -> RangeId {
        self.locate_bytes(q.as_bytes()).0
    }

    fn search_step(&self, from: RangeId, q: &String) -> Option<RangeId> {
        let n = self.nodes.len();
        let qb = q.as_bytes();
        let (target, matched) = self.locate_bytes(qb);
        if from == target {
            return None;
        }
        let line = &qb[..matched];
        let edge_id = |e: u32| RangeId((n + e as usize) as u32);
        if from.index() >= n {
            // An edge moves toward the locus: down while its child still
            // spells a prefix of the matched line, up otherwise.
            let (p, c) = self.edge_ends[from.index() - n];
            let down = is_prefix(self.str_of(c as usize), line);
            return Some(RangeId(if down { c } else { p }));
        }
        let node = &self.nodes[from.index()];
        if !is_prefix(self.str_of(from.index()), line) {
            // Off the matched line: ascend. The locus itself can be the
            // parent edge (the query diverges inside it); the next step
            // stops there.
            let parent = node.parent.expect("the root lies on every line");
            return Some(node.parent_edge.map_or(RangeId(parent), edge_id));
        }
        // On the line above the locus: descend through the edge spelling
        // the query's next byte.
        let at = node.prefix_len as usize;
        self.kids_of(from.index())
            .iter()
            .find(|&&c| at < matched && self.str_of(c as usize)[at] == qb[at])
            .map(|&c| self.edge_into(c))
    }

    fn best_entry(&self, candidates: &[RangeId], q: &String) -> RangeId {
        assert!(!candidates.is_empty(), "conflict list may not be empty");
        let qb = q.as_bytes();
        candidates
            .iter()
            .map(|&id| (id, self.range_parts(id.index())))
            .filter(|&(_, (start_len, end))| is_prefix(&end[..start_len], qb))
            .max_by_key(|&(_, (start_len, end))| (start_len, lcp_len(end, qb)))
            .map_or(candidates[0], |(id, _)| id)
    }

    fn item_query(item: &String) -> String {
        item.clone()
    }

    fn conflicts_into(&self, external: &TrieRange, out: &mut Vec<RangeId>) {
        let n = self.nodes.len();
        let a = external.start();
        let b = external.end();
        let Some(pos_a) = self.position_of(a) else {
            return;
        };
        // De-duplicate against this call's own entries only: `out` may
        // already hold other lists.
        let base = out.len();
        let push = |id: RangeId, out: &mut Vec<RangeId>| {
            if !out[base..].contains(&id) {
                out.push(id);
            }
        };
        // Walk the b-line from the position of `a`, collecting every node on
        // the line and every edge touching it.
        let mut cur: usize = if pos_a.index() < n {
            pos_a.index()
        } else {
            // `a` sits strictly inside an edge: that edge conflicts; continue
            // from its child endpoint if still on the line toward b.
            push(pos_a, out);
            let (_, c) = self.edge_ends[pos_a.index() - n];
            let cs = self.str_of(c as usize);
            if !is_prefix(cs, b) {
                // The edge dives past b or off the line; if its child string
                // extends b within the edge, the edge is the sole conflict.
                return;
            }
            c as usize
        };
        loop {
            let cur_s = self.str_of(cur);
            debug_assert!(is_prefix(a, cur_s) || is_prefix(cur_s, a));
            if is_prefix(a, cur_s) {
                // Node on the path [a, b].
                push(RangeId(cur as u32), out);
                if let Some(pe) = self.nodes[cur].parent_edge {
                    push(RangeId((n + pe as usize) as u32), out);
                }
            }
            // Every child edge touches str(cur) ∈ [a, b], hence conflicts.
            let cur_len = cur_s.len();
            let mut next: Option<usize> = None;
            for &c in self.kids_of(cur) {
                if is_prefix(a, cur_s) {
                    push(self.edge_into(c), out);
                }
                let cs = self.str_of(c as usize);
                if cur_len < b.len() && cs[cur_len] == b[cur_len] && is_prefix(cs, b) {
                    next = Some(c as usize);
                }
            }
            match next {
                Some(c) => cur = c,
                None => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::assert_steps_reach_locate;

    fn trie(words: &[&str]) -> CompressedTrie {
        CompressedTrie::build(words.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn build_sorts_and_dedups() {
        let t = trie(&["dog", "cat", "dog", "car"]);
        assert_eq!(t.items(), &["car", "cat", "dog"]);
    }

    #[test]
    fn empty_trie_is_a_bare_root() {
        let t = trie(&[]);
        assert_eq!(t.num_nodes(), 1);
        assert_eq!(t.num_edges(), 0);
        assert_eq!(t.locate(&"x".to_string()), RangeId(0));
    }

    #[test]
    fn root_spells_empty_string_even_with_common_prefix() {
        let t = trie(&["car", "cart"]);
        assert_eq!(t.node_string(RangeId(0)), "");
        // root -> "car" -> "cart"
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.num_edges(), 2);
    }

    #[test]
    fn terminal_nodes_mark_stored_strings() {
        let t = trie(&["car", "cart", "dog"]);
        for (i, s) in t.items().iter().enumerate() {
            let node = t.entry_of_item(i);
            assert!(t.is_terminal(node));
            assert_eq!(t.node_string(node), s);
        }
    }

    #[test]
    fn compression_branches_below_root() {
        let t = trie(&["abcde", "abcdf", "xyz"]);
        // nodes: root, "abcd", "abcde", "abcdf", "xyz"
        assert_eq!(t.num_nodes(), 5);
        let inner = (0..t.num_nodes())
            .map(|v| RangeId(v as u32))
            .find(|id| t.node_string(*id) == "abcd")
            .expect("lcp node exists");
        assert!(!t.is_terminal(inner));
    }

    #[test]
    fn search_step_converges_on_the_locate_answer() {
        let t = trie(&["car", "carpet", "cart", "dog", "dot", "x"]);
        for q in ["car", "care", "carpets", "do", "zebra", ""] {
            assert_steps_reach_locate(&t, &q.to_string());
        }
    }

    #[test]
    fn locate_exact_match_hits_terminal_node() {
        let t = trie(&["car", "cart", "dog"]);
        let id = t.locate(&"cart".to_string());
        assert!(t.is_terminal(id));
        assert_eq!(t.node_string(id), "cart");
    }

    #[test]
    fn locate_divergence_inside_edge_returns_edge() {
        let t = trie(&["cart", "dog"]);
        // "care" diverges inside the root->"cart" edge after "car".
        let id = t.locate(&"care".to_string());
        let r = t.range(id);
        assert!(r.covers(b"car"));
        assert!(r.start().len() < 3 || r.start() == b"car");
    }

    #[test]
    fn locate_query_extending_leaf_hits_leaf() {
        let t = trie(&["car", "dog"]);
        let id = t.locate(&"carpet".to_string());
        // matched stops at "car" (a node); locus is that node.
        assert_eq!(t.node_string(id), "car");
    }

    #[test]
    fn matched_len_is_longest_on_trie_prefix() {
        let t = trie(&["cart", "dog"]);
        assert_eq!(t.matched_len(b"care"), 3);
        assert_eq!(t.matched_len(b"dig"), 1);
        assert_eq!(t.matched_len(b"zebra"), 0);
        assert_eq!(t.matched_len(b"cart"), 4);
        assert_eq!(t.matched_len(b"carts"), 4);
    }

    #[test]
    fn strings_with_prefix_returns_sorted_matches() {
        let t = trie(&["car", "cart", "carbon", "dog"]);
        assert_eq!(t.strings_with_prefix(b"car"), vec!["car", "carbon", "cart"]);
        assert_eq!(t.strings_with_prefix(b"ca"), vec!["car", "carbon", "cart"]);
        assert!(t.strings_with_prefix(b"z").is_empty());
        assert_eq!(t.strings_with_prefix(b"").len(), 4);
    }

    #[test]
    fn ranges_of_nodes_are_points_and_edges_are_paths() {
        let t = trie(&["car", "cart"]);
        for id in t.range_ids() {
            let r = t.range(id);
            if id.index() < t.num_nodes() {
                assert_eq!(r.start(), r.end());
            } else {
                assert!(r.start().len() < r.end().len());
            }
        }
    }

    #[test]
    fn trie_range_intersection_rules() {
        let e1 = TrieRange::path(b"".to_vec(), b"car".to_vec());
        let e2 = TrieRange::path(b"car".to_vec(), b"cart".to_vec());
        let e3 = TrieRange::path(b"cat".to_vec(), b"cats".to_vec());
        assert!(e1.intersects(&e2)); // share vertex "car"
        assert!(!e2.intersects(&e3)); // diverge at "ca"
        assert!(!e1.intersects(&e3)); // "cat" not on [.."car"]
        let n = TrieRange::point(b"ca".to_vec());
        assert!(e1.intersects(&n));
        assert!(!e2.intersects(&n));
    }

    #[test]
    fn conflicts_match_brute_force_intersection() {
        let coarse = trie(&["car", "dote"]);
        let fine = trie(&["car", "cart", "carbon", "dog", "dote", "dove"]);
        for id in coarse.range_ids() {
            let ext = coarse.range(id);
            let got = {
                let mut v = fine.conflicts(&ext);
                v.sort();
                v
            };
            let want: Vec<RangeId> = fine
                .range_ids()
                .filter(|rid| fine.range(*rid).intersects(&ext))
                .collect();
            assert_eq!(got, want, "conflicts for {ext}");
        }
    }

    #[test]
    fn conflicts_off_trie_are_empty() {
        let fine = trie(&["car"]);
        let ext = TrieRange::point(b"zebra".to_vec());
        assert!(fine.conflicts(&ext).is_empty());
    }

    #[test]
    fn search_path_walks_to_locus() {
        let t = trie(&["car", "cart", "dog", "dove"]);
        let from = t.entry_of_item(0); // "car"
        let q = "dove".to_string();
        let path = t.search_path(from, &q);
        assert_eq!(path[0], from);
        assert_eq!(*path.last().unwrap(), t.locate(&q));
        for pair in path.windows(2) {
            assert!(
                t.neighbors(pair[0]).contains(&pair[1]) || t.neighbors(pair[1]).contains(&pair[0]),
                "path must follow trie edges"
            );
        }
    }

    #[test]
    fn search_path_from_target_is_trivial() {
        let t = trie(&["car", "dog"]);
        let q = "car".to_string();
        let at = t.locate(&q);
        assert_eq!(t.search_path(at, &q), vec![at]);
    }

    #[test]
    fn best_entry_prefers_deepest_on_line() {
        let t = trie(&["car", "cart", "carton", "dog"]);
        let all: Vec<RangeId> = t.range_ids().collect();
        let q = "carton".to_string();
        let best = t.best_entry(&all, &q);
        assert_eq!(best, t.locate(&q));
    }

    #[test]
    fn build_is_canonical_under_input_order() {
        let a = trie(&["cart", "car", "dog"]);
        let b = trie(&["dog", "cart", "car"]);
        assert_eq!(a, b, "same string set must yield the same structure");
    }

    #[test]
    fn owner_points_to_subtree_representative() {
        let t = trie(&["car", "cart", "dog"]);
        for id in t.range_ids() {
            assert!(t.owner(id) < t.len());
        }
        // The terminal node of "dog" is owned by "dog" itself.
        let dog = t.entry_of_item(2);
        assert_eq!(t.owner(dog), 2);
    }
}
