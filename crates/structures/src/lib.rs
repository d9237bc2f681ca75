#![warn(missing_docs)]

//! Range-determined link structures (§2.1 of the skip-webs paper).
//!
//! A *range-determined link structure* `D(S)` is a data structure built
//! deterministically from a ground set `S ⊆ U`, made of nodes and links, where
//! every node and link carries a **range** (a subset of the universe `U`) and
//! incidence between a node and a link holds exactly when their ranges
//! intersect. Two ranges *conflict* when they intersect (§2.2).
//!
//! The paper instantiates the framework with four such structures, all
//! implemented here:
//!
//! * [`linked_list`] — sorted doubly-linked lists over a total order
//!   (Lemma 1: set-halving with `E[|C(Q,S)|] ≤ 7`),
//! * [`quadtree`] — compressed quadtrees/octrees for points in `R^d`
//!   (Lemma 3),
//! * [`trie`] — compressed digital tries over a fixed alphabet (Lemma 4),
//! * [`trapezoid`] — trapezoidal maps of non-crossing segments (Lemma 5).
//!
//! The common abstraction is [`traits::RangeDetermined`]; the skip-web core
//! is generic over it. [`properties`] hosts the statistical set-halving
//! validators shared by tests and the figure-reproduction benches.

pub mod geometry;
pub mod interval;
pub mod linked_list;
pub mod properties;
pub mod quadtree;
pub mod traits;
pub mod trapezoid;
mod tree;
pub mod trie;

pub use interval::KeyInterval;
pub use linked_list::SortedLinkedList;
pub use quadtree::{CompressedQuadtree, PointKey};
pub use traits::{RangeDetermined, RangeId};
pub use trapezoid::{Segment, TrapezoidalMap};
pub use trie::CompressedTrie;
