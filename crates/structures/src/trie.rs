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
//! The trie is laid out as the `tree` module describes: its edges are that
//! layout's links, and a node's children run in branching-byte order.

use std::fmt;

use crate::traits::{RangeDetermined, RangeId};
use crate::tree::{Node, Tree};

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

/// What a trie node records besides its place in the tree.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Spelling {
    /// `str(v)` is the first `prefix_len` bytes of every item below `v`; the
    /// trie reads its owner's.
    prefix_len: u32,
    /// Item index when `str(v)` is itself a stored string.
    terminal: Option<u32>,
}

const _: () = assert!(std::mem::size_of::<Node<Spelling>>() == 40);

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
    /// Children in branching-byte order.
    tree: Tree<Spelling>,
}

impl CompressedTrie {
    /// Number of trie nodes.
    pub fn num_nodes(&self) -> usize {
        self.tree.num_nodes()
    }

    /// Number of trie edges.
    pub fn num_edges(&self) -> usize {
        self.tree.num_links()
    }

    fn prefix_len(&self, node: usize) -> usize {
        self.tree.node(node).data.prefix_len as usize
    }

    fn str_of(&self, node: usize) -> &[u8] {
        let n = self.tree.node(node);
        // An empty trie's root is owned by item 0 of no items: it spells "".
        self.items
            .get(n.owner as usize)
            .map_or(&[][..], |s| &s.as_bytes()[..n.data.prefix_len as usize])
    }

    /// Range `id`'s start length and end string, read from the tables
    /// without building the [`TrieRange`]. A child spells an extension of
    /// its parent's string.
    fn range_parts(&self, id: RangeId) -> (usize, &[u8]) {
        match self.tree.link(id) {
            None => (self.prefix_len(id.index()), self.str_of(id.index())),
            Some((p, c)) => (self.prefix_len(p as usize), self.str_of(c as usize)),
        }
    }

    /// The string spelled by the path to node `id`. The trie branches on
    /// bytes, so a node's path may end inside a multi-byte character (`"é"`
    /// and `"è"` share their first byte): this is then the longest prefix of
    /// it that ends on a char boundary.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node.
    pub fn node_string(&self, id: RangeId) -> &str {
        let bytes = self.str_of(id.index());
        std::str::from_utf8(bytes).unwrap_or_else(|cut| {
            let whole = &bytes[..cut.valid_up_to()];
            std::str::from_utf8(whole).unwrap_or_default()
        })
    }

    /// The item `id` spells when it is a terminal node (a stored string).
    pub fn terminal_item(&self, id: RangeId) -> Option<usize> {
        let node = self.tree.nodes().get(id.index())?;
        node.data.terminal.map(|t| t as usize)
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
            let cur_len = self.prefix_len(cur);
            if cur_len == q.len() {
                return (cur, cur_len);
            }
            let next_byte = q[cur_len];
            let mut advanced = false;
            for &c in self.tree.kids_of(cur) {
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
        let node_len = self.prefix_len(node);
        if node_len == p.len() {
            return Some(RangeId(node as u32));
        }
        // p sits strictly inside the child edge continuing with p[node_len].
        for &c in self.tree.kids_of(node) {
            let cs = self.str_of(c as usize);
            if cs.len() > node_len && cs[node_len] == p[node_len] {
                debug_assert!(is_prefix(p, cs));
                return Some(self.tree.link_into(c));
            }
        }
        None
    }

    /// The locus of `qb` and the number of its bytes that lie on the trie.
    fn locate_bytes(&self, qb: &[u8]) -> (RangeId, usize) {
        let (node, matched) = self.walk(qb);
        let node_len = self.prefix_len(node);
        if matched == node_len {
            return (RangeId(node as u32), matched);
        }
        // The locus sits inside the child edge continuing with q[node_len].
        for &c in self.tree.kids_of(node) {
            let cs = self.str_of(c as usize);
            if cs.len() > node_len && cs[node_len] == qb[node_len] {
                return (self.tree.link_into(c), matched);
            }
        }
        (RangeId(node as u32), matched)
    }

    fn build_rec(&mut self, lo: usize, hi: usize, parent: Option<u32>) -> u32 {
        debug_assert!(lo < hi);
        let first = self.items[lo].as_bytes();
        let l = lcp_len(first, self.items[hi - 1].as_bytes());
        let terminal = (first.len() == l).then_some(lo as u32);
        let spelling = Spelling {
            prefix_len: l as u32,
            terminal,
        };
        let node_idx = self.tree.push(parent, lo..hi, terminal.is_some(), spelling);
        let mut start = lo + usize::from(terminal.is_some());
        while start < hi {
            let digit = self.items[start].as_bytes()[l];
            let mut end = start + 1;
            while end < hi && self.items[end].as_bytes()[l] == digit {
                end += 1;
            }
            let child = self.build_rec(start, end, Some(node_idx));
            self.tree.hang(child);
            start = end;
        }
        node_idx
    }

    /// Checks the trie's tables (see the `tree` module): among other
    /// things, that each node's children run in branching-byte order.
    /// `build` establishes this; tests call it.
    pub fn check_tables(&self) -> Result<(), String> {
        self.tree
            .check(|v, c| self.str_of(c).get(self.prefix_len(v)).copied())
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
        let mut trie = CompressedTrie {
            tree: Tree::with_capacity(n),
            items,
        };
        // Force the root to spell the empty string so every query has a
        // location, hanging the compressed top below it when necessary.
        if n > 0 && lcp_len(trie.items[0].as_bytes(), trie.items[n - 1].as_bytes()) == 0 {
            trie.build_rec(0, n, None);
        } else {
            let spelling = Spelling {
                prefix_len: 0,
                terminal: None,
            };
            let root = trie.tree.push(None, 0..n, false, spelling);
            if n > 0 {
                let top = trie.build_rec(0, n, Some(root));
                trie.tree.hang(top);
            }
        }
        trie.tree.fill_kids();
        trie
    }

    fn items(&self) -> &[String] {
        &self.items
    }

    fn into_items(self) -> Vec<String> {
        self.items
    }

    fn num_ranges(&self) -> usize {
        self.tree.num_ranges()
    }

    fn range(&self, id: RangeId) -> TrieRange {
        assert!(
            id.index() < self.num_ranges(),
            "range id out of bounds: {id}"
        );
        let (start_len, end) = self.range_parts(id);
        TrieRange {
            start_len,
            end: end.to_vec(),
        }
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

    fn locate(&self, q: &String) -> RangeId {
        self.locate_bytes(q.as_bytes()).0
    }

    fn search_step(&self, from: RangeId, q: &String) -> Option<RangeId> {
        let qb = q.as_bytes();
        let (target, matched) = self.locate_bytes(qb);
        if from == target {
            return None;
        }
        let line = &qb[..matched];
        if let Some((p, c)) = self.tree.link(from) {
            // An edge moves toward the locus: down while its child still
            // spells a prefix of the matched line, up otherwise.
            let down = is_prefix(self.str_of(c as usize), line);
            return Some(RangeId(if down { c } else { p }));
        }
        let v = from.index();
        if !is_prefix(self.str_of(v), line) {
            // Off the matched line: ascend (the root lies on every line).
            // The locus itself can be the parent edge (the query diverges
            // inside it); the next step stops there.
            return Some(self.tree.link_into(from.0));
        }
        // On the line above the locus: descend through the edge spelling
        // the query's next byte.
        let at = self.prefix_len(v);
        self.tree
            .kids_of(v)
            .iter()
            .find(|&&c| at < matched && self.str_of(c as usize)[at] == qb[at])
            .map(|&c| self.tree.link_into(c))
    }

    fn best_entry(&self, candidates: &[RangeId], q: &String) -> RangeId {
        assert!(!candidates.is_empty(), "conflict list may not be empty");
        let qb = q.as_bytes();
        candidates
            .iter()
            .map(|&id| (id, self.range_parts(id)))
            .filter(|&(_, (start_len, end))| is_prefix(&end[..start_len], qb))
            .max_by_key(|&(_, (start_len, end))| (start_len, lcp_len(end, qb)))
            .map_or(candidates[0], |(id, _)| id)
    }

    fn item_query(item: &String) -> String {
        item.clone()
    }

    fn conflicts_into(&self, external: &TrieRange, out: &mut Vec<RangeId>) {
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
        let mut cur = match self.tree.link(pos_a) {
            None => pos_a.index(),
            Some((_, c)) => {
                // `a` sits strictly inside an edge: that edge conflicts;
                // continue from its child endpoint if still on the line
                // toward b.
                push(pos_a, out);
                if !is_prefix(self.str_of(c as usize), b) {
                    // The edge dives past b or off the line; if its child
                    // string extends b within the edge, the edge is the sole
                    // conflict.
                    return;
                }
                c as usize
            }
        };
        loop {
            let cur_s = self.str_of(cur);
            debug_assert!(is_prefix(a, cur_s) || is_prefix(cur_s, a));
            if is_prefix(a, cur_s) {
                // Node on the path [a, b].
                push(RangeId(cur as u32), out);
                if let Some(up) = self.tree.link_above(cur) {
                    push(up, out);
                }
            }
            // Every child edge touches str(cur) ∈ [a, b], hence conflicts.
            let cur_len = cur_s.len();
            let mut next: Option<usize> = None;
            for &c in self.tree.kids_of(cur) {
                if is_prefix(a, cur_s) {
                    push(self.tree.link_into(c), out);
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
    fn empty_trie_reads_its_root_as_the_empty_string() {
        let t = CompressedTrie::build(vec![]);
        assert_eq!(t.node_string(RangeId(0)), "");
        assert_eq!(t.range(RangeId(0)), TrieRange::point(vec![]));
        assert_eq!(t.conflicts(&TrieRange::point(vec![])), vec![RangeId(0)]);
    }

    #[test]
    fn a_node_inside_a_character_reads_up_to_its_last_whole_one() {
        // "é" and "è" share their first byte, 0xC3: the node where they
        // branch spells half a character.
        let t = trie(&["é", "è"]);
        let strings: Vec<&str> = (0..t.num_nodes())
            .map(|node| t.node_string(RangeId(node as u32)))
            .collect();
        assert!(strings.contains(&"é") && strings.contains(&"è"));
        assert_eq!(strings.iter().filter(|s| s.is_empty()).count(), 2);
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
            assert_eq!(t.terminal_item(node), Some(i));
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
        assert_eq!(t.terminal_item(inner), None);
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
        assert_eq!(t.terminal_item(id), Some(1));
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
