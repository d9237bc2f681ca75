//! Distributed blocking: which hosts store each structure range (§2.4).
//!
//! Two strategies from the paper:
//!
//! * [`Blocking::OwnerHosted`] — `H = n`: every ground item owns a host and
//!   every range lives with its owning item, so an item's "tower" of ranges
//!   across levels is co-located (Figure 2's gray nodes). This is the
//!   arbitrary-assignment regime of §2.4 with skip-graph-style ownership.
//!   Nothing is stored: a range's host is read off its set's slot list.
//! * [`Blocking::Bucketed { memory }`] — §2.4.1: levels are stratified with
//!   *basic* levels every `L = ⌈log₂ M⌉` levels; each basic-level structure
//!   is cut into blocks of `~M/L` contiguous ranges, one block per host, and
//!   every non-basic range is stored with the basic block it projects onto
//!   (following its hyperlink chain downward). A query then pays messages
//!   only when crossing basic levels: `O(log n / log M)` in expectation.
//!   `HostTable::bucketed` computes the one table this stores, a row of
//!   hosts per range, level by level, whenever the web changes.
//!
//! Either way a range has a *base list* — its owner item's host, or its
//! row — and one rule, `Copies`, extends that list to the [`Replication`]
//! factor's `k` hosts.

use std::fmt;

use skipweb_net::HostId;
use skipweb_structures::traits::{RangeDetermined, RangeId};

use crate::skipweb::SkipWeb;

/// Strategy for assigning ranges to hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Blocking {
    /// One host per ground item; ranges live with their owner item.
    OwnerHosted,
    /// Bucketed placement of §2.4.1 with per-host memory budget `memory`
    /// (the paper's `M`).
    Bucketed {
        /// Per-host memory budget `M ≥ 2` (items + pointers + host IDs).
        memory: usize,
    },
}

impl Blocking {
    /// The stratification width `L = ⌈log₂ M⌉` for bucketed placement
    /// (1 for owner-hosted placement, where every level is "basic").
    pub fn stratum_width(&self) -> u32 {
        match self {
            Blocking::OwnerHosted => 1,
            Blocking::Bucketed { memory } => {
                let m = (*memory).max(2);
                (usize::BITS - (m - 1).leading_zeros()).max(1)
            }
        }
    }

    /// Whether `level` is a basic level under this strategy.
    pub fn is_basic(&self, level: u32) -> bool {
        level.is_multiple_of(self.stratum_width())
    }

    /// The basic level at or below `level`.
    pub fn basic_below(&self, level: u32) -> u32 {
        level - (level % self.stratum_width())
    }

    /// Block size in ranges for basic levels (`max(1, M / L)`); meaningless
    /// for owner-hosted placement.
    pub fn block_size(&self) -> usize {
        match self {
            Blocking::OwnerHosted => 1,
            Blocking::Bucketed { memory } => {
                let l = self.stratum_width() as usize;
                (memory / l).max(1)
            }
        }
    }
}

impl fmt::Display for Blocking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Blocking::OwnerHosted => write!(f, "owner-hosted (H = n)"),
            Blocking::Bucketed { memory } => write!(f, "bucketed (M = {memory})"),
        }
    }
}

/// Replication factor layered over a [`Blocking`] strategy: every range's
/// replica set is extended to `k` distinct hosts (the primary plus its ring
/// successors), so each `GlobalRef` resolves to a *replica set* instead of
/// a single host and the structure stays available through up to `k - 1`
/// host crashes.
///
/// `k = 1` (the default, [`Replication::NONE`]) reproduces the paper's
/// fail-free model exactly: one authoritative copy per range (plus whatever
/// co-location bucketed placement already does), and the engine's hop
/// accounting stays in lock-step with the cost-model simulator. With
/// `k ≥ 2` the placement trades that exact hop parity for availability:
/// replicas create extra co-location, so live hop counts can only shrink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Replication {
    /// Number of hosts storing a copy of every range (`k ≥ 1`).
    pub k: usize,
}

impl Replication {
    /// No replication: one copy per range, the paper's fail-free model.
    pub const NONE: Replication = Replication { k: 1 };

    /// Replication factor `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero (every range needs at least one copy).
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "every range needs at least one copy");
        Replication { k }
    }

    /// How many simultaneous host crashes this factor survives (`k - 1`).
    pub fn survives_crashes(&self) -> usize {
        self.k - 1
    }
}

impl Default for Replication {
    fn default() -> Self {
        Replication::NONE
    }
}

impl fmt::Display for Replication {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k = {}", self.k)
    }
}

/// The hosts storing a copy of one range, primary first: the range's base
/// list, then the ring successors of the primary that the list does not
/// already hold, until there are `min(k, hosts)` hosts (a base list longer
/// than that is yielded whole). Cloneable and allocation-free, so a caller
/// can scan it for a particular host and then take the first alive one.
#[derive(Debug, Clone)]
pub(crate) struct Copies<'a> {
    primary: u32,
    /// The base list after the primary.
    rest: &'a [HostId],
    /// How much of the base list is yielded: the primary, then `rest`.
    yielded: u32,
    /// How many ring successors are still to yield.
    left: u32,
    /// The last ring position tried.
    ring: u32,
    hosts: u32,
}

impl<'a> Copies<'a> {
    /// The copies of a range whose base list is `primary` then `rest`, on a
    /// ring of `hosts` hosts.
    pub(crate) fn new(
        primary: HostId,
        rest: &'a [HostId],
        replication: Replication,
        hosts: usize,
    ) -> Self {
        let hosts = hosts.max(1);
        Copies {
            primary: primary.0,
            rest,
            yielded: 0,
            left: replication.k.min(hosts).saturating_sub(1 + rest.len()) as u32,
            ring: primary.0,
            hosts: hosts as u32,
        }
    }
}

impl Iterator for Copies<'_> {
    type Item = HostId;

    fn next(&mut self) -> Option<HostId> {
        let at = self.yielded as usize;
        if at <= self.rest.len() {
            self.yielded += 1;
            return Some(match at {
                0 => HostId(self.primary),
                i => self.rest[i - 1],
            });
        }
        self.left = self.left.checked_sub(1)?;
        // The base list holds distinct hosts below `hosts`, and `left` counts
        // only hosts it lacks, so the ring finds one before it comes round
        // to the primary again.
        loop {
            self.ring = (self.ring + 1) % self.hosts;
            debug_assert_ne!(self.ring, self.primary, "the ring came full circle");
            let host = HostId(self.ring);
            if !self.rest.contains(&host) {
                return Some(host);
            }
        }
    }
}

/// A bucketed web's placement: per level, per set (by index), per range,
/// the range's base list — its block's host at a basic level, the sorted
/// hosts of its cone one level down at a non-basic one. Unreplicated:
/// [`Copies`] adds the replicas. Each level's rows sit in one offset + data
/// layout, so the table is a handful of heap blocks per level however many
/// sets and ranges it covers, and the web keeps it behind one `Arc` that a
/// clone bumps instead of copying.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct HostTable {
    levels: Vec<LevelRows>,
}

/// One level's rows: range `r` of set `s` is row `first[s] + r`, and row
/// `i` is `hosts[offsets[i]..offsets[i + 1]]`. `first` ends with the row
/// count, `offsets` with the host count.
#[derive(Debug, PartialEq, Eq)]
struct LevelRows {
    first: Vec<u32>,
    offsets: Vec<u32>,
    hosts: Vec<HostId>,
}

impl LevelRows {
    fn new(sets: usize) -> Self {
        LevelRows {
            first: Vec::with_capacity(sets + 1),
            offsets: vec![0],
            hosts: Vec::new(),
        }
    }

    /// Starts the next set's rows.
    fn start_set(&mut self) {
        self.first.push(self.offsets.len() as u32 - 1);
    }

    /// Appends a row.
    fn push(&mut self, row: &[HostId]) {
        self.hosts.extend_from_slice(row);
        assert!(
            self.hosts.len() <= u32::MAX as usize,
            "row offsets are 32-bit: {} hosts",
            self.hosts.len()
        );
        self.offsets.push(self.hosts.len() as u32);
    }

    /// Row `r` of set `set`.
    fn row(&self, set: usize, r: RangeId) -> &[HostId] {
        let i = self.first[set] as usize + r.index();
        debug_assert!(i < self.first[set + 1] as usize, "{r} past its set's rows");
        &self.hosts[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

impl HostTable {
    /// The bucketed placement of §2.4.1 over `web`'s levels, and the number
    /// of hosts it uses. Basic levels are chopped into blocks of
    /// [`Blocking::block_size`] contiguous ranges, one host each; a
    /// non-basic range is stored on every host holding a range it
    /// hyperlinks to one level down, so each block's whole non-basic cone
    /// is co-located with it, as §2.4.1 describes. Levels go bottom-up, so
    /// the level below is always placed first.
    pub(crate) fn bucketed<D: RangeDetermined>(web: &SkipWeb<D>) -> (HostTable, usize) {
        let (blocking, level_sets) = (web.blocking(), web.level_structs());
        let block_size = blocking.block_size();
        let mut levels: Vec<LevelRows> = Vec::with_capacity(level_sets.len());
        let mut next_host: u32 = 0;
        let (mut order, mut block_of, mut links, mut cone) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for (li, level) in (0u32..).zip(level_sets) {
            let mut rows = LevelRows::new(level.sets.len());
            if blocking.is_basic(li) {
                // Blocks fill across set boundaries (sets in key order), so
                // the many tiny sets of high levels share hosts instead of
                // each burning one — keeping H within the paper's
                // O(n log n / M).
                let (mut fill, mut started) = (0usize, false);
                for set in &level.sets {
                    rows.start_set();
                    // Contiguity: order ranges by (owning item, id) — owner
                    // order follows the structure's canonical layout.
                    let structure = level.structure(set);
                    order.clear();
                    order.extend(structure.range_ids());
                    order.sort_by_key(|r: &RangeId| (structure.owner(*r), r.index()));
                    block_of.clear();
                    block_of.resize(order.len(), HostId(0));
                    for r in &order {
                        if fill == block_size || !started {
                            next_host += u32::from(started);
                            (fill, started) = (0, true);
                        }
                        block_of[r.index()] = HostId(next_host);
                        fill += 1;
                    }
                    for host in &block_of {
                        rows.push(std::slice::from_ref(host));
                    }
                }
                // Close the level's last open block.
                next_host += u32::from(started);
            } else {
                let below = &levels[li as usize - 1];
                for set in &level.sets {
                    rows.start_set();
                    for r in level.structure(set).range_ids() {
                        let parent = web.hyperlinks(li, set, r, &mut links);
                        cone.clear();
                        for &t in &links {
                            cone.extend_from_slice(below.row(parent, t));
                        }
                        cone.sort_unstable();
                        cone.dedup();
                        debug_assert!(!cone.is_empty(), "non-basic range must have a cone");
                        rows.push(&cone);
                    }
                }
            }
            rows.start_set();
            levels.push(rows);
        }
        (HostTable { levels }, (next_host as usize).max(1))
    }

    /// The base list of range `r` of set `set` at level `level`: its
    /// primary, then the rest of its row.
    pub(crate) fn base(&self, level: usize, set: usize, r: RangeId) -> (HostId, &[HostId]) {
        match self.levels[level].row(set, r).split_first() {
            Some((&primary, rest)) => (primary, rest),
            None => unreachable!("every bucketed range has a host"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_hosted_treats_every_level_as_basic() {
        let b = Blocking::OwnerHosted;
        assert_eq!(b.stratum_width(), 1);
        assert!(b.is_basic(0));
        assert!(b.is_basic(7));
        assert_eq!(b.basic_below(7), 7);
    }

    #[test]
    fn bucketed_stratum_width_is_ceil_log2_memory() {
        assert_eq!(Blocking::Bucketed { memory: 2 }.stratum_width(), 1);
        assert_eq!(Blocking::Bucketed { memory: 4 }.stratum_width(), 2);
        assert_eq!(Blocking::Bucketed { memory: 5 }.stratum_width(), 3);
        assert_eq!(Blocking::Bucketed { memory: 1024 }.stratum_width(), 10);
    }

    #[test]
    fn basic_levels_are_multiples_of_the_width() {
        let b = Blocking::Bucketed { memory: 16 }; // L = 4
        assert!(b.is_basic(0));
        assert!(b.is_basic(4));
        assert!(!b.is_basic(5));
        assert_eq!(b.basic_below(5), 4);
        assert_eq!(b.basic_below(7), 4);
        assert_eq!(b.basic_below(8), 8);
    }

    #[test]
    fn block_size_splits_memory_over_the_stratum() {
        let b = Blocking::Bucketed { memory: 64 }; // L = 6
        assert_eq!(b.block_size(), 64 / 6);
        let tiny = Blocking::Bucketed { memory: 2 };
        assert!(tiny.block_size() >= 1);
    }

    #[test]
    fn display_names_the_strategy() {
        assert!(Blocking::OwnerHosted.to_string().contains("H = n"));
        assert!(Blocking::Bucketed { memory: 8 }
            .to_string()
            .contains("M = 8"));
    }

    #[test]
    fn replication_defaults_to_a_single_copy() {
        assert_eq!(Replication::default(), Replication::NONE);
        assert_eq!(Replication::NONE.k, 1);
        assert_eq!(Replication::NONE.survives_crashes(), 0);
    }

    #[test]
    fn replication_factor_names_its_crash_budget() {
        let r = Replication::new(3);
        assert_eq!(r.k, 3);
        assert_eq!(r.survives_crashes(), 2);
        assert_eq!(r.to_string(), "k = 3");
    }

    fn copies(primary: u32, rest: &[HostId], k: usize, hosts: usize) -> Vec<u32> {
        let copies = Copies::new(HostId(primary), rest, Replication::new(k), hosts);
        copies.map(|h| h.0).collect()
    }

    #[test]
    fn copies_extend_the_base_list_along_the_ring() {
        // An owner's host and its successors, wrapping round the ring.
        assert_eq!(copies(4, &[], 3, 6), [4, 5, 0]);
        assert_eq!(copies(4, &[], 1, 6), [4]);
        // A cone row: the ring skips the hosts the row already holds.
        assert_eq!(copies(3, &[HostId(5)], 4, 6), [3, 5, 4, 0]);
        // A row as long as `k` or longer is yielded whole.
        assert_eq!(copies(1, &[HostId(2), HostId(4)], 2, 6), [1, 2, 4]);
        // Never more copies than hosts.
        assert_eq!(copies(1, &[], 5, 3), [1, 2, 0]);
        let base = Copies::new(HostId(2), &[], Replication::new(2), 3);
        assert!(base.clone().eq(base), "a clone yields the same hosts");
    }

    #[test]
    #[should_panic(expected = "at least one copy")]
    fn zero_replication_is_rejected() {
        let _ = Replication::new(0);
    }
}
