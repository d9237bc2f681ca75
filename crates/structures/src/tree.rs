//! The flat layout shared by the compressed quadtree (§3.1) and the
//! compressed trie (§3.2): both are trees whose ranges are their nodes and
//! their links, and each is a [`Tree`] whose node records carry what the
//! structure itself needs (a cell and a point, a prefix length and a
//! terminal item).
//!
//! # Layout
//!
//! Nodes are plain records reached by index, as the Skip Quadtree stores
//! them: one node array, root first and every parent before its children,
//! in which no node owns heap memory. A node's children sit next to each
//! other, in the structure's sibling order (child digit, branching byte), in
//! the tree's one `kids` array, named by the node's `first_kid` and
//! `kid_count`; a child's link is its own `parent_link`. A build ends with
//! [`Tree::fill_kids`], one stable counting pass over the links, so a tree
//! is a fixed handful of heap blocks whatever its size, and a walk scans one
//! slice per node.
//!
//! # Range ids
//!
//! Range ids `0..num_nodes` are nodes, root first; range `num_nodes + l` is
//! link `l`. Links are numbered as the build hangs them: a child's link
//! after its whole subtree, before its next sibling's.
//!
//! # Owners
//!
//! A structure builds over its items in sorted order, so every subtree
//! holds a run of them. A node belongs to the first item of its subtree, and
//! a link to its child's owner; owner-hosted placement stores each range on
//! its owner's host.

use std::ops::Range;

use crate::traits::RangeId;

/// One node: its place in the tree, its owner, and the structure's data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Node<P> {
    pub(crate) parent: Option<u32>,
    pub(crate) parent_link: Option<u32>,
    /// The children are `kids[first_kid..][..kid_count]`.
    pub(crate) first_kid: u32,
    pub(crate) kid_count: u32,
    /// The item whose host stores the node.
    pub(crate) owner: u32,
    pub(crate) data: P,
}

/// A compressed tree over a sorted item set, in the layout the module doc
/// describes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Tree<P> {
    nodes: Vec<Node<P>>,
    /// Link `l` joins `links[l].0` (parent) to `links[l].1` (child).
    links: Vec<(u32, u32)>,
    /// Every node's children, grouped by parent.
    kids: Vec<u32>,
    /// The node holding each item.
    item_node: Vec<u32>,
}

impl<P> Tree<P> {
    /// An empty tree with room for the nodes and links over `items` items:
    /// a compressed tree has at most `2 · items` nodes besides the root.
    pub(crate) fn with_capacity(items: usize) -> Self {
        Tree {
            nodes: Vec::with_capacity(2 * items + 1),
            links: Vec::with_capacity(2 * items),
            kids: Vec::new(),
            item_node: vec![0; items],
        }
    }

    /// Pushes a node below `parent` whose subtree holds `items`, and returns
    /// its id. `holds_first` says the node itself holds the run's first item
    /// (a stored string, a leaf's point).
    pub(crate) fn push(
        &mut self,
        parent: Option<u32>,
        items: Range<usize>,
        holds_first: bool,
        data: P,
    ) -> u32 {
        let id = self.nodes.len() as u32;
        if holds_first {
            self.item_node[items.start] = id;
        }
        self.nodes.push(Node {
            parent,
            parent_link: None,
            first_kid: 0,
            kid_count: 0,
            owner: items.start as u32,
            data,
        });
        id
    }

    /// Hangs `child` from its parent by the next link.
    pub(crate) fn hang(&mut self, child: u32) {
        let node = &mut self.nodes[child as usize];
        let parent = node.parent.expect("only a child hangs from a link");
        node.parent_link = Some(self.links.len() as u32);
        self.links.push((parent, child));
    }

    /// Lays every node's children out in `kids`, grouped by parent: one
    /// stable counting pass over the links, whose ids rise in sibling order.
    pub(crate) fn fill_kids(&mut self) {
        for &(p, _) in &self.links {
            self.nodes[p as usize].kid_count += 1;
        }
        let mut first = 0;
        for node in &mut self.nodes {
            node.first_kid = first;
            first += node.kid_count;
            node.kid_count = 0;
        }
        self.kids = vec![0; self.links.len()];
        for &(p, c) in &self.links {
            let node = &mut self.nodes[p as usize];
            self.kids[(node.first_kid + node.kid_count) as usize] = c;
            node.kid_count += 1;
        }
    }

    pub(crate) fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    pub(crate) fn num_links(&self) -> usize {
        self.links.len()
    }

    pub(crate) fn num_ranges(&self) -> usize {
        self.nodes.len() + self.links.len()
    }

    pub(crate) fn nodes(&self) -> &[Node<P>] {
        &self.nodes
    }

    pub(crate) fn node(&self, v: usize) -> &Node<P> {
        &self.nodes[v]
    }

    /// The children of node `v`, in sibling order.
    pub(crate) fn kids_of(&self, v: usize) -> &[u32] {
        let node = &self.nodes[v];
        &self.kids[node.first_kid as usize..][..node.kid_count as usize]
    }

    /// The parent and child that range `id` joins, or `None` if it is a node.
    pub(crate) fn link(&self, id: RangeId) -> Option<(u32, u32)> {
        let l = id.index().checked_sub(self.nodes.len())?;
        Some(self.links[l])
    }

    /// The node whose record describes range `id`: the node itself, or a
    /// link's child end.
    pub(crate) fn node_of(&self, id: RangeId) -> usize {
        self.link(id).map_or(id.index(), |(_, c)| c as usize)
    }

    /// The range id of the link hanging node `v` from its parent; `None` at
    /// the root.
    pub(crate) fn link_above(&self, v: usize) -> Option<RangeId> {
        let l = self.nodes[v].parent_link?;
        Some(RangeId((self.nodes.len() + l as usize) as u32))
    }

    /// The range id of the link hanging `child` from its parent.
    pub(crate) fn link_into(&self, child: u32) -> RangeId {
        self.link_above(child as usize)
            .expect("a child hangs from a link")
    }

    pub(crate) fn owner(&self, id: RangeId) -> usize {
        self.nodes[self.node_of(id)].owner as usize
    }

    pub(crate) fn entry_of_item(&self, item: usize) -> RangeId {
        assert!(item < self.item_node.len(), "item index out of bounds");
        RangeId(self.item_node[item])
    }

    /// A node's links (the parent link first, then its children's); a
    /// link's two ends.
    pub(crate) fn neighbors(&self, id: RangeId) -> Vec<RangeId> {
        if let Some((p, c)) = self.link(id) {
            return vec![RangeId(p), RangeId(c)];
        }
        let v = id.index();
        let mut out = Vec::with_capacity(self.nodes[v].kid_count as usize + 1);
        out.extend(self.link_above(v));
        out.extend(self.kids_of(v).iter().map(|&c| self.link_into(c)));
        out
    }

    /// Checks the layout against the parent pointers and the owner rule:
    /// the nodes' rows tile `kids` in node order; every node but the root
    /// sits in exactly one row, its parent's, where `sibling_key(parent,
    /// child)` rises strictly; each child's link joins it to that parent;
    /// each node belongs to the first item of its subtree, and each link to
    /// its child's owner. A build establishes all of it; tests call it.
    pub(crate) fn check<K: Ord>(
        &self,
        sibling_key: impl Fn(usize, usize) -> K,
    ) -> Result<(), String> {
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
                let link = child.parent_link.and_then(|l| self.links.get(l as usize));
                if link != Some(&(v as u32, c)) {
                    return Err(format!("node {c}'s link does not join it to node {v}"));
                }
                let key = Some(sibling_key(v, c as usize));
                if key <= last {
                    return Err(format!("node {v}'s row leaves sibling order at node {c}"));
                }
                last = key;
            }
        }
        if end as usize != self.kids.len() {
            return Err(format!("the rows cover {end} of {} kids", self.kids.len()));
        }
        // The root has no parent, so the rows cannot name it.
        if let Some(v) = (1..self.nodes.len()).find(|&v| !placed[v]) {
            return Err(format!("node {v} sits in no row"));
        }
        // Each item, smallest first, marks its node and the ancestors no
        // smaller item has marked: each node ends marked by its subtree's
        // first item.
        let mut first: Vec<Option<u32>> = vec![None; self.nodes.len()];
        for (item, &at) in self.item_node.iter().enumerate() {
            let mut v = Some(at);
            while let Some(u) = v {
                let mark = first
                    .get_mut(u as usize)
                    .ok_or(format!("item {item} sits at {u}, which is no node"))?;
                if mark.is_some() {
                    break;
                }
                *mark = Some(item as u32);
                v = self.nodes[u as usize].parent;
            }
        }
        for (v, node) in self.nodes.iter().enumerate() {
            if let Some(f) = first[v].filter(|&f| f != node.owner) {
                return Err(format!(
                    "node {v} belongs to item {}, not to its subtree's first item {f}",
                    node.owner
                ));
            }
        }
        for (l, &(_, c)) in self.links.iter().enumerate() {
            let id = RangeId((self.nodes.len() + l) as u32);
            if self.owner(id) != self.nodes[c as usize].owner as usize {
                return Err(format!("link {l} does not belong to its child's owner"));
            }
        }
        Ok(())
    }
}
