//! The skip-web structure: levels, hyperlinks, placement, queries (§2.3–2.5)
//! and updates (§4), generic over any range-determined link structure.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use skipweb_net::sim::{MessageMeter, SimNetwork};
use skipweb_net::HostId;
use skipweb_structures::traits::{RangeDetermined, RangeId};

use crate::levels::{draw_bits, group_by_key, level_count, parent_key, set_key};
use crate::placement::{Blocking, Replication};

/// One level-`ℓ` set `S_b` with its structure `D(S_b)`, hyperlinks, and
/// host placement. The structure and the hyperlink lists sit behind `Arc`s:
/// a clone of the web (the copy-on-write an engine apply forces while a
/// published snapshot still holds the previous web) shares both with every
/// set the repair neither rebuilt nor re-linked.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LevelSet<D: RangeDetermined> {
    /// The `ℓ`-bit key `b` of this set.
    pub key: u64,
    /// The structure `D(S_b)`.
    pub structure: Arc<D>,
    /// Structure item index → ground item index.
    pub ground: Vec<u32>,
    /// Per range: hyperlinks to the conflicting ranges `C(Q, S_{b'})` in the
    /// parent set one level down (§2.3). Empty at level 0.
    pub down: Arc<[Vec<RangeId>]>,
    /// Per range: the hosts storing a copy of it. Owner-hosted placement
    /// keeps a single copy; bucketed placement replicates non-basic ranges
    /// onto every block host whose cone they belong to (§2.4.1 notes that
    /// "copies of some of these ranges may be stored on multiple hosts").
    pub range_host: Vec<Vec<HostId>>,
}

/// All sets of one level.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Level<D: RangeDetermined> {
    pub sets: Vec<LevelSet<D>>,
    /// Ground item index → set index within this level.
    pub set_of_item: Vec<u32>,
    /// Ground item index → item index inside its set's structure.
    pub local_of_item: Vec<u32>,
    /// Set key → set index.
    pub set_by_key: HashMap<u64, u32>,
}

/// Below this many stored items a full rebuild is cheaper than planning an
/// incremental repair.
const INCREMENTAL_MIN_N: usize = 64;

/// Fall back to a full rebuild once a batch changes ≥ 1/this of the ground
/// set: most level sets are dirty anyway at that point.
const INCREMENTAL_DIRTY_FACTOR: usize = 4;

/// The staged outcome of an incremental batch apply: the ground set and bit
/// array are already spliced; these are the sets left to rebuild.
#[derive(Debug)]
struct RepairPlan {
    /// The `(level, key)` pairs whose membership changed.
    dirty: BTreeSet<(u32, u64)>,
    /// One rebuild job per dirty set with surviving members, sorted by
    /// `(level, key)`.
    builds: Vec<BuildJob>,
    /// Old ground index → new ground index (`u32::MAX` for removed items).
    remap: Vec<u32>,
}

/// One dirty set to rebuild.
#[derive(Debug)]
struct BuildJob {
    level: u32,
    key: u64,
    /// New ground indices of the members, ascending — which is canonical
    /// order, since the spliced ground set is canonically sorted.
    members: Vec<u32>,
}

/// Points every range's copy list at its owning item's host — the
/// owner-hosted placement sweep of the full-rebuild path. (The repair
/// path never runs it: rebuilt sets are born with owner primaries and
/// kept sets have theirs remapped in place during the install.)
/// Clear-and-push keeps each copy list's buffer across reassignments.
fn owner_host_sweep<D: RangeDetermined>(levels: &mut [Level<D>]) {
    for level in levels {
        for set in &mut level.sets {
            for r in set.structure.range_ids() {
                let owner_local = set.structure.owner(r);
                let owner_ground = set.ground.get(owner_local).copied().unwrap_or(0);
                let copies = &mut set.range_host[r.index()];
                copies.clear();
                copies.push(HostId(owner_ground));
            }
        }
    }
}

/// Moves `adjust(arr[g])` to `arr[remap[g]]` in place for an
/// order-preserving splice remap, then sizes `arr` to `n_new`. Growing
/// remaps copy back-to-front (every target sits at or beyond its source,
/// and strictly beyond any smaller source's target), shrinking ones
/// front-to-back (targets trail their sources), skipping the `u32::MAX`
/// holes of removed entries — so every read still sees the original value.
fn permute_by_remap(arr: &mut Vec<u32>, remap: &[u32], n_new: usize, adjust: impl Fn(u32) -> u32) {
    let n_old = remap.len();
    debug_assert_eq!(arr.len(), n_old);
    if n_new >= n_old {
        arr.resize(n_new, 0);
        for g in (0..n_old).rev() {
            arr[remap[g] as usize] = adjust(arr[g]);
        }
    } else {
        for g in 0..n_old {
            let target = remap[g];
            if target != u32::MAX {
                arr[target as usize] = adjust(arr[g]);
            }
        }
        arr.truncate(n_new);
    }
}

/// Merges one level's rebuilt sets into its tables: old sets keep their
/// structures and hyperlinks verbatim (ground indices remapped through the
/// splice), emptied sets are dropped, new sets land at their key-sorted
/// position, and the level's item maps are brought back in sync. `jobs` /
/// `built` are this level's slice of the repair plan (see
/// `SkipWeb::split_installs`).
fn install_level<D: RangeDetermined>(
    level: &mut Level<D>,
    li: u32,
    jobs: &[BuildJob],
    built: Vec<LevelSet<D>>,
    plan: &RepairPlan,
    n: usize,
    owner_hosted: bool,
) {
    let (dirty, remap) = (&plan.dirty, &plan.remap[..]);
    debug_assert!(jobs.iter().all(|j| j.level == li));
    let mut incoming = jobs.iter().zip(built).peekable();
    // A freshly grown top level has no maps to update in place.
    let fresh_level = level.set_of_item.len() != remap.len();
    let old_sets = std::mem::take(&mut level.sets);
    let mut sets: Vec<LevelSet<D>> = Vec::with_capacity(old_sets.len() + 1);
    // A set added or dropped mid-level shifts every later set's index by
    // one. `breaks` records, per add/drop, the old index it happened
    // before — turning the old→new index fix-up into a prefix count
    // instead of a wholesale map rebuild.
    let mut breaks: Vec<u32> = Vec::new();
    let mut added: Vec<(u64, u32)> = Vec::new();
    let mut dropped_keys: Vec<u64> = Vec::new();
    let mut old_idx: u32 = 0;
    for mut set in old_sets {
        while incoming.peek().is_some_and(|(j, _)| j.key < set.key) {
            let (job, built_set) = incoming.next().expect("peeked");
            added.push((job.key, sets.len() as u32));
            breaks.push(old_idx);
            sets.push(built_set);
        }
        if dirty.contains(&(li, set.key)) {
            // Replaced by its rebuilt version — or emptied: drop.
            if incoming.peek().is_some_and(|(j, _)| j.key == set.key) {
                sets.push(incoming.next().expect("peeked").1);
            } else {
                dropped_keys.push(set.key);
                breaks.push(old_idx);
            }
        } else {
            // Untouched sets never contain removed items (a removed item
            // dirties its set at every level), so every entry remaps
            // cleanly.
            for g in &mut set.ground {
                *g = remap[*g as usize];
                debug_assert!(*g != u32::MAX);
            }
            if owner_hosted {
                // Each range's primary copy is its owning item — a member
                // of this clean set — so the owner-hosted placement remaps
                // right along with the ground entries; replicas beyond the
                // primary are ring successors of stale host ids, dropped
                // here and regrown by `extend_replicas`.
                for copies in &mut set.range_host {
                    copies.truncate(1);
                    if let Some(primary) = copies.first_mut() {
                        primary.0 = remap[primary.0 as usize];
                        debug_assert!(primary.0 != u32::MAX);
                    }
                }
            }
            sets.push(set);
        }
        old_idx += 1;
    }
    for (job, built_set) in incoming {
        added.push((job.key, sets.len() as u32));
        breaks.push(old_idx);
        sets.push(built_set);
    }
    if fresh_level {
        // Build the maps wholesale; every slot is covered because the sets
        // partition the ground set.
        let mut set_of_item = vec![0u32; n];
        let mut local_of_item = vec![0u32; n];
        level.set_by_key = sets
            .iter()
            .enumerate()
            .map(|(si, s)| (s.key, si as u32))
            .collect();
        for (si, set) in sets.iter().enumerate() {
            for (local, &g) in set.ground.iter().enumerate() {
                set_of_item[g as usize] = si as u32;
                local_of_item[g as usize] = local as u32;
            }
        }
        level.set_of_item = set_of_item;
        level.local_of_item = local_of_item;
    } else {
        // Untouched items keep their map entries verbatim modulo the index
        // shifts: permute them to the spliced ground positions in place
        // (folding the shift fix-up into the copy), then patch only the
        // rebuilt sets' members — which include every item the batch
        // touched. A single plan only ever adds sets (inserts never empty
        // one) or only drops them (removes never create one), so the shift
        // direction is uniform.
        debug_assert!(added.is_empty() || dropped_keys.is_empty());
        let delta: i64 = if dropped_keys.is_empty() { 1 } else { -1 };
        let adjust = |si: u32| -> u32 {
            if breaks.is_empty() {
                return si;
            }
            let crossed = breaks.partition_point(|&b| b <= si) as i64;
            (i64::from(si) + delta * crossed) as u32
        };
        for key in &dropped_keys {
            level.set_by_key.remove(key);
        }
        if !breaks.is_empty() {
            for v in level.set_by_key.values_mut() {
                *v = adjust(*v);
            }
        }
        for &(key, idx) in &added {
            level.set_by_key.insert(key, idx);
        }
        permute_by_remap(&mut level.set_of_item, remap, n, adjust);
        permute_by_remap(&mut level.local_of_item, remap, n, |local| local);
        for job in jobs {
            let si = level.set_by_key[&job.key];
            for (local, &g) in job.members.iter().enumerate() {
                level.set_of_item[g as usize] = si;
                level.local_of_item[g as usize] = local as u32;
            }
        }
    }
    level.sets = sets;
}

/// Result of a skip-web query descent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryOutcome {
    /// The maximal level-0 range containing the query — the answer locus.
    pub locus: RangeId,
    /// Messages spent by this query (also recorded in the meter).
    pub messages: u64,
    /// Ranges touched per level (top level first) — the per-level work that
    /// the set-halving lemmas bound by `O(1)`.
    pub per_level_touches: Vec<u32>,
}

/// A distributed skip-web over structure `D` (§2).
///
/// Build one with [`SkipWeb::builder`]; run queries with
/// [`SkipWeb::query`]; apply updates with [`SkipWeb::insert`] /
/// [`SkipWeb::remove`]. Domain-specific wrappers with typed answers live in
/// [`crate::onedim`] and [`crate::multidim`].
#[derive(Debug, Clone)]
pub struct SkipWeb<D: RangeDetermined> {
    ground: Vec<D::Item>,
    item_bits: Vec<u64>,
    levels: Vec<Level<D>>,
    host_of_item: Vec<HostId>,
    hosts: usize,
    blocking: Blocking,
    replication: Replication,
    rng: StdRng,
}

/// Structural equality: two webs are equal when their ground sets, bit
/// assignments, level hierarchies (sets, hyperlinks, placement) and host
/// maps all match byte for byte. The insertion rng is deliberately
/// excluded — it only affects *future* random draws, not the structure —
/// so the parity tests can compare an incrementally repaired web against a
/// fully rebuilt one.
impl<D: RangeDetermined + PartialEq> PartialEq for SkipWeb<D> {
    fn eq(&self, other: &Self) -> bool {
        self.ground == other.ground
            && self.item_bits == other.item_bits
            && self.levels == other.levels
            && self.host_of_item == other.host_of_item
            && self.hosts == other.hosts
            && self.blocking == other.blocking
            && self.replication == other.replication
    }
}

/// Configures and builds a [`SkipWeb`].
#[derive(Debug, Clone)]
pub struct SkipWebBuilder<D: RangeDetermined> {
    items: Vec<D::Item>,
    seed: u64,
    blocking: Blocking,
    replication: Replication,
    bits: Option<Vec<u64>>,
}

impl<D: RangeDetermined> SkipWebBuilder<D> {
    /// Seeds the randomized level assignment (default 0). Two webs built
    /// with the same items and seed are identical.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Chooses the blocking strategy (default [`Blocking::OwnerHosted`]).
    pub fn blocking(mut self, blocking: Blocking) -> Self {
        self.blocking = blocking;
        self
    }

    /// Bucketed placement with per-host memory `memory` (§2.4.1).
    pub fn bucketed(self, memory: usize) -> Self {
        self.blocking(Blocking::Bucketed { memory })
    }

    /// Chooses the replication policy (default [`Replication::NONE`]).
    pub fn replication(mut self, replication: Replication) -> Self {
        self.replication = replication;
        self
    }

    /// Places every range on `k` hosts (the primary plus ring successors),
    /// so the served structure survives up to `k - 1` host crashes.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn replicate(self, k: usize) -> Self {
        self.replication(Replication::new(k))
    }

    /// Pins the per-item level bit strings instead of drawing them from the
    /// seed, matched positionally to the **canonical** (structure-sorted)
    /// ground order. Skip-webs are range-determined (§2.1): items plus bits
    /// uniquely determine the whole hierarchy, so a recovery layer that
    /// logged each item's bits can rebuild the exact pre-crash web —
    /// tower-for-tower — rather than a freshly randomized one.
    pub fn bits(mut self, bits: Vec<u64>) -> Self {
        self.bits = Some(bits);
        self
    }

    /// Builds the skip-web.
    ///
    /// # Panics
    ///
    /// Panics if [`bits`](Self::bits) was given a vector whose length does
    /// not match the canonical ground set.
    pub fn build(self) -> SkipWeb<D> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        // Canonicalize the ground set through the structure's own builder.
        let ground = D::build(self.items).items().to_vec();
        let item_bits = match self.bits {
            Some(bits) => {
                assert_eq!(
                    bits.len(),
                    ground.len(),
                    "explicit bits must cover the canonical ground set"
                );
                // Advance the rng exactly as the drawing path would, so
                // later live inserts draw the same towers either way.
                let _ = draw_bits(ground.len(), &mut rng);
                bits
            }
            None => draw_bits(ground.len(), &mut rng),
        };
        let mut web = SkipWeb {
            ground,
            item_bits,
            levels: Vec::new(),
            host_of_item: Vec::new(),
            hosts: 0,
            blocking: self.blocking,
            replication: self.replication,
            rng,
        };
        web.rebuild();
        web
    }
}

impl<D: RangeDetermined> SkipWeb<D> {
    /// Starts building a skip-web over `items`.
    pub fn builder(items: Vec<D::Item>) -> SkipWebBuilder<D> {
        SkipWebBuilder {
            items,
            seed: 0,
            blocking: Blocking::OwnerHosted,
            replication: Replication::NONE,
            bits: None,
        }
    }

    /// A copy of this web rebuilt under replication policy `replication` —
    /// same ground set, same towers (the level bits are kept), different
    /// range-to-host placement. This is how
    /// [`FabricBuilder::replicate`](crate::engine::FabricBuilder::replicate)
    /// overrides a build-time policy at deployment time.
    pub fn with_replication(&self, replication: Replication) -> SkipWeb<D> {
        let mut web = self.clone();
        web.replication = replication;
        web.rebuild();
        web
    }

    /// The canonical ground set.
    pub fn ground(&self) -> &[D::Item] {
        &self.ground
    }

    /// Number of stored items `n`.
    pub fn len(&self) -> usize {
        self.ground.len()
    }

    /// Whether the web stores no items.
    pub fn is_empty(&self) -> bool {
        self.ground.is_empty()
    }

    /// Number of hosts `H`.
    pub fn hosts(&self) -> usize {
        self.hosts
    }

    /// The top level index `k = ⌈log₂ n⌉`.
    pub fn top_level(&self) -> u32 {
        (self.levels.len() - 1) as u32
    }

    /// The blocking strategy in effect.
    pub fn blocking(&self) -> Blocking {
        self.blocking
    }

    /// The replication policy in effect.
    pub fn replication(&self) -> Replication {
        self.replication
    }

    /// Sizes of the sets at `level` (for the Figure 2 reproduction).
    ///
    /// # Panics
    ///
    /// Panics if `level` exceeds [`top_level`](Self::top_level).
    pub fn level_set_sizes(&self, level: u32) -> Vec<usize> {
        self.levels[level as usize]
            .sets
            .iter()
            .map(|s| s.ground.len())
            .collect()
    }

    /// Total ranges stored across all levels (structure nodes + links).
    pub fn total_ranges(&self) -> usize {
        self.levels
            .iter()
            .flat_map(|l| &l.sets)
            .map(|s| s.structure.num_ranges())
            .sum()
    }

    /// The level-0 structure `D(S)`.
    pub fn base(&self) -> &D {
        &self.levels[0].sets[0].structure
    }

    /// The host owning ground item `item` (query origins start here).
    ///
    /// # Panics
    ///
    /// Panics if `item >= self.len()`.
    pub fn host_of_item(&self, item: usize) -> HostId {
        self.host_of_item[item]
    }

    /// A deterministic pseudo-random query origin (ground item index).
    ///
    /// # Panics
    ///
    /// Panics if the web is empty.
    pub fn random_origin(&self, seed: u64) -> usize {
        assert!(!self.is_empty(), "an empty web has no query origins");
        let mut rng = StdRng::seed_from_u64(seed);
        rng.gen_range(0..self.len())
    }

    /// Routes a query from the root of `origin_item`'s host down to the
    /// maximal level-0 range containing `q` (§2.5), charging every touched
    /// range's host to `meter`.
    ///
    /// # Panics
    ///
    /// Panics if the web is empty or `origin_item` is out of bounds.
    pub fn query(
        &self,
        origin_item: usize,
        q: &D::Query,
        meter: &mut MessageMeter,
    ) -> QueryOutcome {
        assert!(!self.is_empty(), "cannot query an empty skip-web");
        assert!(origin_item < self.len(), "origin item out of bounds");
        let start_messages = meter.messages();
        let top = self.top_level() as usize;
        let mut level = top;
        let (mut set_idx, mut entry) = self.origin_entry(origin_item);
        let mut per_level_touches = Vec::with_capacity(top + 1);
        // Non-basic ranges are replicated across block hosts; which copy the
        // walk reads is only determined once the descent reaches the basic
        // level below (the block holding the query's cone stores the whole
        // stratum, §2.4.1). Defer their host resolution until that anchor is
        // known, then charge the co-located copy when one exists.
        let mut pending: Vec<Vec<HostId>> = Vec::new();
        loop {
            let set = &self.levels[level].sets[set_idx];
            let path = set.structure.search_path(entry, q);
            if self.blocking.is_basic(level as u32) {
                for (i, r) in path.iter().enumerate() {
                    let host = set.range_host[r.index()][0];
                    if i == 0 {
                        for replicas in pending.drain(..) {
                            let copy = if replicas.contains(&host) {
                                host
                            } else {
                                replicas[0]
                            };
                            meter.visit(copy);
                        }
                    }
                    meter.visit(host);
                }
            } else {
                for r in &path {
                    pending.push(set.range_host[r.index()].clone());
                }
            }
            per_level_touches.push(path.len() as u32);
            let locus = *path.last().expect("search paths include their start");
            if level == 0 {
                debug_assert!(pending.is_empty(), "level 0 is always basic");
                return QueryOutcome {
                    locus,
                    messages: meter.messages() - start_messages,
                    per_level_touches,
                };
            }
            let candidates = &set.down[locus.index()];
            assert!(
                !candidates.is_empty(),
                "hyperlinks of a subset range into its superset cannot be empty"
            );
            let parent_idx = self.parent_set_index(level as u32, set);
            let parent = &self.levels[level - 1].sets[parent_idx];
            entry = parent.structure.best_entry(candidates, q);
            level -= 1;
            set_idx = parent_idx;
        }
    }

    /// Index, within level `level - 1`, of the parent of the level-`level`
    /// set `set` — the set its down-hyperlinks point into, which is the one
    /// holding its items one level down (sets above level 0 are never
    /// empty). Two indexed reads rather than a `set_by_key` probe: this
    /// sits on every level descent of a query, where hashing the key and
    /// the probe's two cold cache lines measurably slow reads.
    pub(crate) fn parent_set_index(&self, level: u32, set: &LevelSet<D>) -> usize {
        self.levels[(level - 1) as usize].set_of_item[set.ground[0] as usize] as usize
    }

    /// Where operations from `origin_item` enter the web — the "root node
    /// for that host" of §1.1: the item's top-level set index and its entry
    /// range there.
    pub(crate) fn origin_entry(&self, origin_item: usize) -> (usize, RangeId) {
        let top = &self.levels[self.top_level() as usize];
        let set_idx = top.set_of_item[origin_item] as usize;
        let entry = top.sets[set_idx]
            .structure
            .entry_of_item(top.local_of_item[origin_item] as usize);
        (set_idx, entry)
    }

    /// Inserts `item`, charging the §4 bottom-up repair messages to `meter`.
    /// Returns `false` (and charges only the lookup) when the item is
    /// already present.
    pub fn insert(&mut self, item: D::Item, meter: &mut MessageMeter) -> bool {
        let origin = if self.is_empty() {
            None
        } else {
            Some(self.rng.gen_range(0..self.len()))
        };
        if self.contains_item(&item) {
            // Route to the duplicate's locus (the paper's step 1) so the
            // failed insert still pays its lookup, then reject it without
            // consuming a bit string.
            if let Some(o) = origin {
                let q = D::item_query(&item);
                let _ = self.query(o, &q, meter);
            }
            return false;
        }
        let bits: u64 = self.rng.gen();
        self.insert_with(origin, item, bits, meter)
    }

    /// Deterministic insert: routes from `origin` (when given) to the
    /// item's level-0 locus, charges the §4 repair neighbourhoods, and
    /// installs the item at the levels selected by `bits`. This is the
    /// entry point the distributed engine mirrors hop for hop — driving
    /// the simulator and a [`crate::engine::DistributedSkipWeb`] with the
    /// same `(origin, bits)` yields identical structures and message
    /// counts. Returns `false` when the item is already present.
    ///
    /// # Panics
    ///
    /// Panics if `origin` is out of bounds.
    pub fn insert_with(
        &mut self,
        origin: Option<usize>,
        item: D::Item,
        bits: u64,
        meter: &mut MessageMeter,
    ) -> bool {
        // Route to the item's level-0 locus first (the paper's step 1).
        if let Some(o) = origin {
            let q = D::item_query(&item);
            let _ = self.query(o, &q, meter);
        }
        if self.contains_item(&item) {
            return false;
        }
        // Charge the per-level conflict neighbourhoods that the insertion
        // rewires, bottom-up (§4): the ranges conflicting with the item's
        // new node range at every level it joins.
        self.meter_update_neighbourhood(&item, bits, meter);
        self.apply_insert(item, bits);
        true
    }

    /// Removes `item`, charging the symmetric §4 repair messages. Returns
    /// `false` when the item was not present.
    pub fn remove(&mut self, item: &D::Item, meter: &mut MessageMeter) -> bool {
        if !self.contains_item(item) {
            return false;
        }
        let origin = if self.len() > 1 {
            Some(self.rng.gen_range(0..self.len()))
        } else {
            None
        };
        self.remove_with(origin, item, meter)
    }

    /// Deterministic remove: routes from `origin` (when given) to the
    /// item's locus and charges the symmetric §4 repair — the counterpart
    /// of [`insert_with`](Self::insert_with) that the distributed engine
    /// mirrors. Returns `false` (charging nothing) when the item was not
    /// present.
    ///
    /// # Panics
    ///
    /// Panics if `origin` is out of bounds.
    pub fn remove_with(
        &mut self,
        origin: Option<usize>,
        item: &D::Item,
        meter: &mut MessageMeter,
    ) -> bool {
        let Some(bits) = self.bits_of(item) else {
            return false;
        };
        if let Some(o) = origin {
            let q = D::item_query(item);
            let _ = self.query(o, &q, meter);
        }
        self.meter_update_neighbourhood(item, bits, meter);
        let applied = self.apply_remove_batch(std::slice::from_ref(item));
        debug_assert!(applied[0], "the item was just located");
        true
    }

    /// Installs `item` at the levels selected by `bits` without any
    /// metering — the structural half of an insert, applied by the
    /// distributed engine once its repair walk has already paid the
    /// messages. Returns `false` for duplicates.
    pub(crate) fn apply_insert(&mut self, item: D::Item, bits: u64) -> bool {
        self.apply_insert_batch(vec![(item, bits)])[0]
    }

    /// Installs a batch of `(item, bits)` pairs in **one** structural
    /// repair — the apply half of the engine's batched update path. The
    /// final structure is identical to applying the pairs one at a time
    /// (the hierarchy is fully determined by the surviving ground set and
    /// its bit strings), and byte-identical to a from-scratch
    /// [`apply_insert_batch_full`](Self::apply_insert_batch_full), but only
    /// the level sets the batch dirties are rebuilt: an item with bit
    /// string `b` belongs at level `ℓ` to exactly the set keyed by its
    /// `ℓ`-bit prefix, so a batch touches a bounded `(level, key)`
    /// collection and every other set is reused verbatim. Returns the
    /// per-item applied flags in input order; duplicates — against the
    /// stored set or earlier in the same batch — come back `false`.
    pub fn apply_insert_batch(&mut self, items: Vec<(D::Item, u64)>) -> Vec<bool> {
        let (applied, plan) = self.stage_inserts(items, false);
        if let Some(plan) = plan {
            self.repair(plan);
        }
        applied
    }

    /// [`apply_insert_batch`](Self::apply_insert_batch) through the
    /// original full-rebuild path: every level set is rebuilt from scratch.
    /// Kept as the reference implementation — the parity proptests assert
    /// the incremental path matches it byte for byte, and the `rebuild`
    /// bench experiment measures the two against each other.
    pub fn apply_insert_batch_full(&mut self, items: Vec<(D::Item, u64)>) -> Vec<bool> {
        self.stage_inserts(items, true).0
    }

    /// Removes a batch of items in **one** structural repair — the
    /// structural half of distributed removes, the counterpart of
    /// [`apply_insert_batch`](Self::apply_insert_batch), with the same
    /// dirty-set incrementality. Returns the per-item applied flags in
    /// input order (`false` for absent items and repeats within the batch).
    pub fn apply_remove_batch(&mut self, items: &[D::Item]) -> Vec<bool> {
        let (applied, plan) = self.stage_removes(items, false);
        if let Some(plan) = plan {
            self.repair(plan);
        }
        applied
    }

    /// [`apply_remove_batch`](Self::apply_remove_batch) through the
    /// original full-rebuild path — the reference implementation for parity
    /// tests and the rebuild benchmark.
    pub fn apply_remove_batch_full(&mut self, items: &[D::Item]) -> Vec<bool> {
        self.stage_removes(items, true).0
    }

    /// Whether an incremental repair is impossible or not worth planning:
    /// the web is tiny, the batch empties it, or the batch dirties too
    /// large a fraction of the ground set — at which point most level sets
    /// need rebuilding anyway and the full path's simplicity wins. A
    /// level-count change of one is handled incrementally (a new top level
    /// is planned wholesale, a vanishing one is dropped); larger jumps
    /// would need multiple levels rebuilt, but the dirty-fraction bound
    /// already makes them unreachable (crossing two power-of-two
    /// boundaries requires changing more than a quarter of the items), so
    /// the guard is defensive.
    fn must_rebuild_fully(&self, n_old: usize, n_new: usize, changed: usize) -> bool {
        n_old < INCREMENTAL_MIN_N
            || n_new == 0
            || level_count(n_old).abs_diff(level_count(n_new)) > 1
            || changed * INCREMENTAL_DIRTY_FACTOR >= n_old
    }

    /// Grows or shrinks the level table to match the spliced ground size —
    /// by at most one level, per [`must_rebuild_fully`]'s guard. A grown
    /// top level starts empty and returns `true`: the caller's repair plan
    /// marks every item's set there dirty, so the install stage populates
    /// it. A dropped level just vanishes — no `down` link points upward
    /// into it.
    fn sync_level_count(&mut self) -> bool {
        let want = level_count(self.ground.len()) as usize + 1;
        match want.cmp(&self.levels.len()) {
            std::cmp::Ordering::Greater => {
                debug_assert_eq!(want, self.levels.len() + 1);
                self.levels.push(Level {
                    sets: Vec::new(),
                    set_of_item: Vec::new(),
                    local_of_item: Vec::new(),
                    set_by_key: HashMap::new(),
                });
                true
            }
            std::cmp::Ordering::Less => {
                debug_assert_eq!(want, self.levels.len() - 1);
                self.levels.pop();
                false
            }
            std::cmp::Ordering::Equal => false,
        }
    }

    /// Insert staging: dedups the batch, splices the fresh items into the
    /// canonical ground order (one merge pass — no whole-set `D::build`
    /// reorder), and computes the dirty-set repair plan. Returns the
    /// per-item applied flags, plus `None` when nothing changed or the
    /// full-rebuild fallback already ran (`force_full`, or
    /// [`must_rebuild_fully`](Self::must_rebuild_fully)).
    fn stage_inserts(
        &mut self,
        items: Vec<(D::Item, u64)>,
        force_full: bool,
    ) -> (Vec<bool>, Option<RepairPlan>) {
        let mut applied = Vec::with_capacity(items.len());
        // Membership and batch-internal dedup in one pass: `fresh` is kept
        // sorted under the canonical order, so each candidate costs one
        // binary search against the ground set and one against the batch —
        // replacing the old per-item `ground.contains` linear scans.
        let mut fresh: Vec<(D::Item, u64)> = Vec::new();
        for (item, bits) in items {
            if self.contains_item(&item) {
                applied.push(false);
                continue;
            }
            match fresh.binary_search_by(|(f, _)| D::canonical_cmp(f, &item)) {
                Ok(_) => applied.push(false),
                Err(pos) => {
                    fresh.insert(pos, (item, bits));
                    applied.push(true);
                }
            }
        }
        if fresh.is_empty() {
            return (applied, None);
        }
        let n_old = self.ground.len();
        let n_new = n_old + fresh.len();
        if force_full || self.must_rebuild_fully(n_old, n_new, fresh.len()) {
            for (item, bits) in fresh {
                self.ground.push(item);
                self.item_bits.push(bits);
            }
            self.rebuild();
            return (applied, None);
        }
        // Splice: merge the sorted fresh items into the (already canonical)
        // ground order, recording the old→new index remap as a side effect.
        let mut ground = Vec::with_capacity(n_new);
        let mut bits_vec = Vec::with_capacity(n_new);
        let mut remap = Vec::with_capacity(n_old);
        let mut dirty_bits = Vec::with_capacity(fresh.len());
        let mut fresh_iter = fresh.into_iter().peekable();
        let old_items = std::mem::take(&mut self.ground);
        let old_bits = std::mem::take(&mut self.item_bits);
        for (item, bits) in old_items.into_iter().zip(old_bits) {
            while fresh_iter
                .peek()
                .is_some_and(|(f, _)| D::canonical_cmp(f, &item).is_lt())
            {
                let (f, fb) = fresh_iter.next().expect("peeked");
                dirty_bits.push(fb);
                ground.push(f);
                bits_vec.push(fb);
            }
            remap.push(ground.len() as u32);
            ground.push(item);
            bits_vec.push(bits);
        }
        for (f, fb) in fresh_iter {
            dirty_bits.push(fb);
            ground.push(f);
            bits_vec.push(fb);
        }
        self.ground = ground;
        self.item_bits = bits_vec;
        let grew_top = self.sync_level_count();
        let plan = self.plan_from_dirty_bits(&dirty_bits, remap, grew_top);
        (applied, Some(plan))
    }

    /// Remove staging: resolves the batch against the canonical order,
    /// compacts the ground set in a single pass (replacing the old
    /// per-item `position` scans and shifting `Vec::remove`s), and computes
    /// the dirty-set repair plan — or runs the full-rebuild fallback.
    fn stage_removes(
        &mut self,
        items: &[D::Item],
        force_full: bool,
    ) -> (Vec<bool>, Option<RepairPlan>) {
        let mut applied = Vec::with_capacity(items.len());
        let n_old = self.ground.len();
        let mut doomed = vec![false; n_old];
        let mut changed = 0usize;
        for item in items {
            match self.ground.binary_search_by(|g| D::canonical_cmp(g, item)) {
                Ok(pos) if !doomed[pos] => {
                    doomed[pos] = true;
                    changed += 1;
                    applied.push(true);
                }
                _ => applied.push(false),
            }
        }
        if changed == 0 {
            return (applied, None);
        }
        let n_new = n_old - changed;
        let full = force_full || self.must_rebuild_fully(n_old, n_new, changed);
        // One compaction pass either way, building the old→new remap
        // (`u32::MAX` marks the removed slots).
        let mut remap = vec![u32::MAX; n_old];
        let mut dirty_bits = Vec::with_capacity(changed);
        let mut write = 0usize;
        for read in 0..n_old {
            if doomed[read] {
                dirty_bits.push(self.item_bits[read]);
                continue;
            }
            if write != read {
                self.ground.swap(write, read);
                self.item_bits.swap(write, read);
            }
            remap[read] = write as u32;
            write += 1;
        }
        self.ground.truncate(write);
        self.item_bits.truncate(write);
        if full {
            self.rebuild();
            return (applied, None);
        }
        let grew_top = self.sync_level_count();
        debug_assert!(!grew_top, "removals cannot raise the level count");
        let plan = self.plan_from_dirty_bits(&dirty_bits, remap, false);
        (applied, Some(plan))
    }

    /// Collects the dirty `(level, key)` pairs selected by the changed
    /// items' bit strings — plus, when `new_top` is set, every item's set
    /// at the freshly grown top level — then scans the (already-spliced)
    /// bit array once per level to compute each dirty set's surviving
    /// membership — in ground order, which *is* the canonical order, so
    /// the rebuild jobs need no per-set reorder.
    fn plan_from_dirty_bits(
        &self,
        changed_bits: &[u64],
        remap: Vec<u32>,
        new_top: bool,
    ) -> RepairPlan {
        let k = level_count(self.ground.len());
        debug_assert_eq!(
            k as usize + 1,
            self.levels.len(),
            "sync_level_count runs before planning"
        );
        let mut dirty: BTreeSet<(u32, u64)> = BTreeSet::new();
        for &bits in changed_bits {
            for level in 0..=k {
                dirty.insert((level, set_key(bits, level)));
            }
        }
        if new_top {
            for &bits in &self.item_bits {
                dirty.insert((k, set_key(bits, k)));
            }
        }
        // Dirty keys land in `builds` key-sorted per level (from the
        // BTreeSet), so the membership scan resolves each item's set by
        // binary search over a contiguous slice — much cheaper per probe
        // than the tree-map this replaced.
        let mut builds: Vec<BuildJob> = Vec::with_capacity(dirty.len());
        let mut level_bounds: Vec<(usize, usize)> = Vec::with_capacity(k as usize + 1);
        for level in 0..=k {
            let start = builds.len();
            builds.extend(
                dirty
                    .range((level, 0)..=(level, u64::MAX))
                    .map(|&(_, key)| BuildJob {
                        level,
                        key,
                        members: Vec::new(),
                    }),
            );
            level_bounds.push((start, builds.len()));
        }
        // Content-dirtiness is downward-monotone in the level: a set is
        // dirty iff it holds a changed item, and sharing an `ℓ`-bit prefix
        // with that item implies sharing every shorter prefix. So each
        // item's dirty sets occupy levels `[0, L]` — walk up and stop at
        // the first clean level, instead of scanning every item at every
        // level. A freshly grown top level is dirty by fiat (not by
        // content), so it is excluded from the walk and scanned in full.
        let walk_levels = if new_top { k } else { k + 1 };
        for (g, &bits) in self.item_bits.iter().enumerate() {
            for level in 0..walk_levels {
                let (s, e) = level_bounds[level as usize];
                let fresh = &mut builds[s..e];
                match fresh.binary_search_by_key(&set_key(bits, level), |j| j.key) {
                    Ok(i) => fresh[i].members.push(g as u32),
                    Err(_) => break,
                }
            }
        }
        if new_top {
            let (s, e) = level_bounds[k as usize];
            let fresh = &mut builds[s..e];
            for (g, &bits) in self.item_bits.iter().enumerate() {
                if let Ok(i) = fresh.binary_search_by_key(&set_key(bits, k), |j| j.key) {
                    fresh[i].members.push(g as u32);
                }
            }
        }
        // A dirty key with no surviving members is a set deletion: no build
        // job; the install stage drops it.
        builds.retain(|j| !j.members.is_empty());
        RepairPlan {
            dirty,
            builds,
            remap,
        }
    }

    /// Runs a repair plan: rebuild the dirty sets, merge them into the level
    /// tables, recompute the hyperlinks the rebuilds invalidated, and finish
    /// the host tables.
    fn repair(&mut self, plan: RepairPlan) {
        let built = plan.builds.iter().map(|j| self.exec_build(j)).collect();
        let links = self.install_sets(&plan, built);
        let downs = links.iter().map(|&j| self.exec_link(j)).collect();
        self.install_links(&links, downs);
        self.finish_hosts();
        self.debug_check_invariants();
    }

    /// Debug-build-only invariant sweep after an incremental repair: a
    /// repair bug panics at the apply that corrupted the web instead of
    /// surfacing as a rebuild-parity failure many batches later.
    #[inline]
    fn debug_check_invariants(&self) {
        #[cfg(debug_assertions)]
        if let Err(violation) = self.check_invariants() {
            panic!("skip-web invariant violated after apply: {violation}");
        }
    }

    /// Checks every structural invariant the paper's framework guarantees
    /// (§2.1–§2.4), returning the first violation as a description.
    ///
    /// * **Shape** — `item_bits` matches the ground set; the level table has
    ///   exactly `level_count(n) + 1` levels.
    /// * **Membership** — at every level, each item sits in exactly the set
    ///   keyed by its bit prefix (`set_key(bits, ℓ)`), which makes level
    ///   membership monotone in level (a level-`ℓ` set key extends the
    ///   level-`ℓ-1` key); `set_of_item` / `local_of_item` form a
    ///   permutation consistent with each set's `ground`, and `set_by_key`
    ///   indexes the sets bijectively.
    /// * **Hyperlinks** — at level 0 all `down` lists are empty; above it,
    ///   each range's `down` list equals its conflict list in the parent
    ///   set one level down (§2.3).
    /// * **Placement** — every range of every set is hosted somewhere, the
    ///   copies are distinct, and all host ids (including `host_of_item`)
    ///   are in range.
    ///
    /// Intended for `debug_assert!` after incremental applies and for tests;
    /// the sweep recomputes every conflict list, so it is far too slow for
    /// release hot paths.
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.ground.len();
        if self.item_bits.len() != n {
            return Err(format!(
                "item_bits has {} entries for {} ground items",
                self.item_bits.len(),
                n
            ));
        }
        let want_levels = level_count(n) as usize + 1;
        if self.levels.len() != want_levels {
            return Err(format!(
                "{} levels for {} items (want {})",
                self.levels.len(),
                n,
                want_levels
            ));
        }
        if self.host_of_item.len() != n {
            return Err(format!(
                "host_of_item has {} entries for {} ground items",
                self.host_of_item.len(),
                n
            ));
        }
        let hosts = self.hosts as u32;
        for (g, host) in self.host_of_item.iter().enumerate() {
            if host.0 >= hosts {
                return Err(format!(
                    "item {g} homed on host {} of {} hosts",
                    host.0, hosts
                ));
            }
        }

        for (li, level) in self.levels.iter().enumerate() {
            let li = li as u32;
            if level.set_of_item.len() != n || level.local_of_item.len() != n {
                return Err(format!("level {li}: item maps not sized to the ground set"));
            }
            if level.set_by_key.len() != level.sets.len() {
                return Err(format!(
                    "level {li}: {} keys index {} sets",
                    level.set_by_key.len(),
                    level.sets.len()
                ));
            }
            let mut claimed = vec![false; n];
            for (si, set) in level.sets.iter().enumerate() {
                let si = si as u32;
                if level.set_by_key.get(&set.key) != Some(&si) {
                    return Err(format!(
                        "level {li}: set {si} (key {:#x}) not indexed by its key",
                        set.key
                    ));
                }
                if set.structure.len() != set.ground.len() {
                    return Err(format!(
                        "level {li} set {si}: structure holds {} items, ground map {}",
                        set.structure.len(),
                        set.ground.len()
                    ));
                }
                let num_ranges = set.structure.num_ranges();
                if set.down.len() != num_ranges || set.range_host.len() != num_ranges {
                    return Err(format!(
                        "level {li} set {si}: down/range_host not sized to {num_ranges} ranges"
                    ));
                }
                for (local, &g) in set.ground.iter().enumerate() {
                    let g = g as usize;
                    if g >= n {
                        return Err(format!(
                            "level {li} set {si}: ground index {g} out of bounds"
                        ));
                    }
                    if claimed[g] {
                        return Err(format!(
                            "level {li}: item {g} belongs to two sets (second: {si})"
                        ));
                    }
                    claimed[g] = true;
                    // Bit-prefix membership; keys nest across levels, so
                    // passing here at every level is exactly the "membership
                    // monotone in level" property.
                    let want_key = set_key(self.item_bits[g], li);
                    if set.key != want_key {
                        return Err(format!(
                            "level {li} set {si}: item {g} has prefix {want_key:#x} but sits in set keyed {:#x}",
                            set.key
                        ));
                    }
                    if set.structure.items()[local] != self.ground[g] {
                        return Err(format!(
                            "level {li} set {si}: structure item {local} diverges from ground item {g}"
                        ));
                    }
                    if level.set_of_item[g] != si || level.local_of_item[g] as usize != local {
                        return Err(format!(
                            "level {li}: item map points item {g} at ({}, {}), set says ({si}, {local})",
                            level.set_of_item[g], level.local_of_item[g]
                        ));
                    }
                }
            }
            // With per-item claims unique and the maps agreeing, any
            // unclaimed item means some level fails to cover the ground set.
            if let Some(g) = claimed.iter().position(|&c| !c) {
                return Err(format!("level {li}: item {g} belongs to no set"));
            }

            for (si, set) in level.sets.iter().enumerate() {
                let parent = (li > 0)
                    .then(|| {
                        let below = &self.levels[li as usize - 1];
                        let pkey = parent_key(set.key, li);
                        below
                            .set_by_key
                            .get(&pkey)
                            .map(|&pi| &below.sets[pi as usize])
                            .ok_or_else(|| {
                                format!(
                                    "level {li} set {si}: no parent set keyed {pkey:#x} one level down"
                                )
                            })
                    })
                    .transpose()?;
                for r in set.structure.range_ids() {
                    let down = &set.down[r.index()];
                    match parent {
                        None => {
                            if !down.is_empty() {
                                return Err(format!(
                                    "level 0 set {si}: {r} carries {} down links",
                                    down.len()
                                ));
                            }
                        }
                        Some(parent) => {
                            let want = parent.structure.conflicts(&set.structure.range(r));
                            if *down != want {
                                return Err(format!(
                                    "level {li} set {si}: {r} down links diverge from the parent conflict list ({down:?} vs {want:?})"
                                ));
                            }
                        }
                    }
                    let copies = &set.range_host[r.index()];
                    if copies.is_empty() {
                        return Err(format!("level {li} set {si}: {r} is hosted nowhere"));
                    }
                    for (i, host) in copies.iter().enumerate() {
                        if host.0 >= hosts {
                            return Err(format!(
                                "level {li} set {si}: {r} copy on host {} of {} hosts",
                                host.0, hosts
                            ));
                        }
                        if copies[..i].contains(host) {
                            return Err(format!(
                                "level {li} set {si}: {r} lists host {} twice",
                                host.0
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Rebuilds one dirty set from its (already-spliced) members: reads the
    /// ground set immutably and returns an owned set, with hyperlinks and
    /// placement filled in by the later stages.
    fn exec_build(&self, job: &BuildJob) -> LevelSet<D> {
        let items: Vec<D::Item> = job
            .members
            .iter()
            .map(|&g| self.ground[g as usize].clone())
            .collect();
        let structure = D::build(items);
        debug_assert!(
            structure.items().len() == job.members.len()
                && structure
                    .items()
                    .iter()
                    .zip(&job.members)
                    .all(|(it, &g)| *it == self.ground[g as usize]),
            "splice must preserve the canonical order (canonical_cmp contract)"
        );
        let num_ranges = structure.num_ranges();
        // Owner-hosted primaries are fused into the build: each range's
        // copy list starts at its owning item's host, so the repair path
        // never needs the full placement sweep. Bucketed webs get their
        // placement wholesale from `assign_bucketed` instead.
        let range_host = if matches!(self.blocking, Blocking::OwnerHosted) {
            structure
                .range_ids()
                .map(|r| {
                    let owner_local = structure.owner(r);
                    let owner_ground = job.members.get(owner_local).copied().unwrap_or(0);
                    vec![HostId(owner_ground)]
                })
                .collect()
        } else {
            vec![Vec::new(); num_ranges]
        };
        LevelSet {
            key: job.key,
            structure: Arc::new(structure),
            ground: job.members.clone(),
            down: vec![Vec::new(); num_ranges].into(),
            range_host,
        }
    }

    /// Splits the `(level, key)`-sorted build jobs and their rebuilt sets
    /// into per-level chunks aligned with `self.levels`, so each level's
    /// merge ([`install_level`]) is self-contained.
    fn split_installs(
        plan: &RepairPlan,
        built: Vec<LevelSet<D>>,
        levels: usize,
    ) -> Vec<(&[BuildJob], Vec<LevelSet<D>>)> {
        let mut built_iter = built.into_iter();
        let mut cursor = 0usize;
        let parts: Vec<(&[BuildJob], Vec<LevelSet<D>>)> = (0..levels as u32)
            .map(|li| {
                let s = cursor;
                while cursor < plan.builds.len() && plan.builds[cursor].level == li {
                    cursor += 1;
                }
                let jobs = &plan.builds[s..cursor];
                let sets: Vec<LevelSet<D>> = built_iter.by_ref().take(jobs.len()).collect();
                (jobs, sets)
            })
            .collect();
        debug_assert!(
            cursor == plan.builds.len() && built_iter.next().is_none(),
            "every rebuilt set must land on a level"
        );
        parts
    }

    /// Merges the rebuilt sets into the level tables — old sets keep their
    /// structures and hyperlinks verbatim (ground indices remapped through
    /// the splice), emptied sets are dropped, new sets land at their
    /// key-sorted position — and recomputes the per-level item maps.
    /// Returns the sets whose hyperlinks must be recomputed: every rebuilt
    /// set plus the children of rebuilt parents (their `down` arrays index
    /// into the parent's new structure).
    fn install_sets(&mut self, plan: &RepairPlan, built: Vec<LevelSet<D>>) -> Vec<(u32, u32)> {
        let n = self.ground.len();
        let owner_hosted = matches!(self.blocking, Blocking::OwnerHosted);
        let parts = Self::split_installs(plan, built, self.levels.len());
        for ((li, level), (jobs, sets)) in (0u32..).zip(self.levels.iter_mut()).zip(parts) {
            install_level(level, li, jobs, sets, plan, n, owner_hosted);
        }
        self.link_jobs(plan)
    }

    /// Host-table finisher for the repair path. Owner-hosted placement was
    /// fused into the repair itself — rebuilt sets are born with owner
    /// primaries ([`exec_build`](Self::exec_build)) and kept sets have
    /// theirs remapped in place ([`install_level`]) — leaving only the host
    /// count, the item homes, and the replica regrowth. Bucketed placement
    /// numbers blocks sequentially over the whole web, so it reruns
    /// [`assign_hosts`](Self::assign_hosts) wholesale.
    fn finish_hosts(&mut self) {
        match self.blocking {
            Blocking::OwnerHosted => {
                let n = self.ground.len();
                self.hosts = n.max(1);
                self.host_of_item.clear();
                self.host_of_item.extend((0..n).map(|i| HostId(i as u32)));
                self.extend_replicas();
            }
            Blocking::Bucketed { .. } => self.assign_hosts(),
        }
    }

    /// The hyperlink recompute jobs a repair implies: every rebuilt set
    /// plus the children of rebuilt parents, resolved to surviving
    /// `(level, set_index)` pairs.
    fn link_jobs(&self, plan: &RepairPlan) -> Vec<(u32, u32)> {
        let mut link_keys: BTreeSet<(u32, u64)> = BTreeSet::new();
        let top = (self.levels.len() - 1) as u32;
        for &(level, key) in &plan.dirty {
            if level >= 1 {
                link_keys.insert((level, key));
            }
            if level < top {
                // Children of a level-`ℓ` set extend its key by bit `ℓ`.
                link_keys.insert((level + 1, key));
                link_keys.insert((level + 1, key | (1u64 << level)));
            }
        }
        link_keys
            .into_iter()
            .filter_map(|(level, key)| {
                self.levels[level as usize]
                    .set_by_key
                    .get(&key)
                    .map(|&si| (level, si))
            })
            .collect()
    }

    /// Recomputes one set's hyperlinks into its parent (§2.3), reading the
    /// installed levels immutably.
    fn exec_link(&self, (level, set_idx): (u32, u32)) -> Vec<Vec<RangeId>> {
        let set = &self.levels[level as usize].sets[set_idx as usize];
        let pkey = parent_key(set.key, level);
        let parent_level = &self.levels[level as usize - 1];
        let parent = &parent_level.sets[parent_level.set_by_key[&pkey] as usize];
        set.structure
            .range_ids()
            .map(|r| parent.structure.conflicts(&set.structure.range(r)))
            .collect()
    }

    fn install_links(&mut self, jobs: &[(u32, u32)], downs: Vec<Vec<Vec<RangeId>>>) {
        for (&(level, set_idx), down) in jobs.iter().zip(downs) {
            self.levels[level as usize].sets[set_idx as usize].down = down.into();
        }
    }

    /// The level bit string of `item` when it is stored — a binary search
    /// against the canonical ground order.
    pub(crate) fn bits_of(&self, item: &D::Item) -> Option<u64> {
        self.ground
            .binary_search_by(|g| D::canonical_cmp(g, item))
            .ok()
            .map(|pos| self.item_bits[pos])
    }

    /// Whether `item` is stored.
    fn contains_item(&self, item: &D::Item) -> bool {
        self.bits_of(item).is_some()
    }

    /// Per-item level bit strings, aligned with [`ground`](Self::ground).
    pub(crate) fn item_bits(&self) -> &[u64] {
        &self.item_bits
    }

    /// Charges `meter` the bottom-up repair of §4 for `item` with tower
    /// `bits`. The simulator models the paper's fail-free network: hosts
    /// are the web's logical ones and every replica is alive, so the walk
    /// cannot abort.
    fn meter_update_neighbourhood(&self, item: &D::Item, bits: u64, meter: &mut MessageMeter) {
        let complete =
            self.walk_update_neighbourhood(item, bits, |h| h, |_| true, |h| meter.visit(h));
        debug_assert!(complete, "fail-free walks always complete");
    }

    /// The single §4 repair walk both cost models drive: enumerates,
    /// bottom-up, one host per range conflicting with `item`'s probe range
    /// at every level selected by `bits`, applying the stratum-anchor rule
    /// (within a stratum, non-basic neighbourhoods act on the copy
    /// co-located with the basic block just repaired). The simulator's meter
    /// and the distributed engine's repair trail both call this, so their
    /// message accounting cannot drift apart.
    ///
    /// `host_of` maps the web's logical hosts onto the hosts the caller
    /// meters (the simulator passes the identity, the engine its placement
    /// fold); `alive` filters which of those may be acted on (the simulator
    /// passes `|_| true`; the engine its membership view, which is how a
    /// repair steers around crashed hosts); `visit` observes each acted-on
    /// host in walk order. Levels where the item opens a brand-new set have
    /// nothing to repair and are skipped.
    ///
    /// Returns `false` — aborting the walk — when some range has no alive
    /// replica: more hosts crashed than the replication factor covers, so
    /// the repair cannot complete. With every host alive the walk always
    /// returns `true`.
    pub(crate) fn walk_update_neighbourhood(
        &self,
        item: &D::Item,
        bits: u64,
        host_of: impl Fn(HostId) -> HostId,
        mut alive: impl FnMut(HostId) -> bool,
        mut visit: impl FnMut(HostId),
    ) -> bool {
        let probe_range = D::probe_range(item);
        let mut anchor: Option<HostId> = None;
        for (level, tables) in (0u32..).zip(&self.levels) {
            let Some(&set_idx) = tables.set_by_key.get(&set_key(bits, level)) else {
                continue;
            };
            let set = &tables.sets[set_idx as usize];
            let basic = self.blocking.is_basic(level);
            for (i, r) in set
                .structure
                .conflicts(&probe_range)
                .into_iter()
                .enumerate()
            {
                let mut replicas = set.range_host[r.index()].iter().map(|&h| host_of(h));
                let host = match anchor {
                    Some(a) if replicas.clone().any(|h| h == a) && alive(a) => a,
                    _ => match replicas.find(|&h| alive(h)) {
                        Some(h) => h,
                        None => return false,
                    },
                };
                visit(host);
                if basic && i == 0 {
                    anchor = Some(host);
                }
            }
        }
        true
    }

    /// Rebuilds levels, hyperlinks and placement from the current ground
    /// set and bit assignment. Deterministic: bit strings fully determine
    /// the hierarchy, so queries and accounting are reproducible.
    fn rebuild(&mut self) {
        let n = self.ground.len();
        let k = level_count(n);
        // Canonical order may have changed after an update: reorder ground
        // (and bits) through the structure builder once.
        let canonical = D::build(self.ground.clone());
        let order: Vec<usize> = {
            let mut index: BTreeMap<&D::Item, usize> = BTreeMap::new();
            for (i, it) in self.ground.iter().enumerate() {
                index.insert(it, i);
            }
            canonical.items().iter().map(|it| index[it]).collect()
        };
        let bits: Vec<u64> = order.iter().map(|&i| self.item_bits[i]).collect();
        self.ground = canonical.items().to_vec();
        self.item_bits = bits;

        let item_index: BTreeMap<&D::Item, u32> = self
            .ground
            .iter()
            .enumerate()
            .map(|(i, it)| (it, i as u32))
            .collect();

        // --- Levels ---------------------------------------------------------
        let mut levels: Vec<Level<D>> = Vec::with_capacity(k as usize + 1);
        for level in 0..=k {
            let groups = group_by_key(&self.item_bits, level);
            let mut sets = Vec::with_capacity(groups.len());
            let mut set_of_item = vec![0u32; n];
            let mut local_of_item = vec![0u32; n];
            let mut set_by_key = HashMap::with_capacity(groups.len());
            for (key, members) in groups {
                let items: Vec<D::Item> = members
                    .iter()
                    .map(|&g| self.ground[g as usize].clone())
                    .collect();
                let structure = D::build(items);
                let ground: Vec<u32> = structure.items().iter().map(|it| item_index[it]).collect();
                let set_idx = sets.len() as u32;
                for (local, &g) in ground.iter().enumerate() {
                    set_of_item[g as usize] = set_idx;
                    local_of_item[g as usize] = local as u32;
                }
                set_by_key.insert(key, set_idx);
                let num_ranges = structure.num_ranges();
                sets.push(LevelSet {
                    key,
                    structure: Arc::new(structure),
                    ground,
                    down: vec![Vec::new(); num_ranges].into(),
                    range_host: vec![Vec::new(); num_ranges],
                });
            }
            if n == 0 {
                // Keep a single empty level-0 set for uniformity.
                let structure = D::build(Vec::new());
                let num_ranges = structure.num_ranges();
                sets.push(LevelSet {
                    key: 0,
                    structure: Arc::new(structure),
                    ground: Vec::new(),
                    down: vec![Vec::new(); num_ranges].into(),
                    range_host: vec![Vec::new(); num_ranges],
                });
                set_by_key.insert(0, 0);
            }
            levels.push(Level {
                sets,
                set_of_item,
                local_of_item,
                set_by_key,
            });
        }

        self.levels = levels;

        // --- Hyperlinks (§2.3) ----------------------------------------------
        for level in 1..=k {
            for set_idx in 0..self.levels[level as usize].sets.len() as u32 {
                let down = self.exec_link((level, set_idx));
                self.levels[level as usize].sets[set_idx as usize].down = down.into();
            }
        }

        self.assign_hosts();
    }

    /// Computes `range_host` for every set per the blocking strategy, plus
    /// per-item home hosts.
    fn assign_hosts(&mut self) {
        let n = self.ground.len();
        match self.blocking {
            Blocking::OwnerHosted => {
                self.hosts = n.max(1);
                self.host_of_item.clear();
                self.host_of_item.extend((0..n).map(|i| HostId(i as u32)));
                owner_host_sweep(&mut self.levels);
                if n == 0 {
                    self.host_of_item.clear();
                }
            }
            Blocking::Bucketed { .. } => self.assign_bucketed(),
        }
        self.extend_replicas();
    }

    /// The replication pass layered over either blocking strategy: extends
    /// every range's copy list to `k` distinct hosts by walking the ring of
    /// host ids upward from the primary. The primary stays `copies[0]`, so
    /// all single-copy accounting (and the `k = 1` default) is untouched.
    fn extend_replicas(&mut self) {
        let hosts = self.hosts.max(1) as u32;
        let k = self.replication.k.min(hosts as usize);
        if k <= 1 {
            return;
        }
        for level in &mut self.levels {
            for set in &mut level.sets {
                for copies in &mut set.range_host {
                    let primary = copies[0].0;
                    let mut next = primary;
                    while copies.len() < k {
                        next = (next + 1) % hosts;
                        if next == primary {
                            break; // full circle: fewer hosts than k
                        }
                        let candidate = HostId(next);
                        if !copies.contains(&candidate) {
                            copies.push(candidate);
                        }
                    }
                }
            }
        }
    }

    /// The bucketed placement of §2.4.1: basic levels are chopped into
    /// blocks of contiguous ranges (one host each); non-basic ranges follow
    /// their hyperlink chain down to the basic level and live with the block
    /// they land on.
    fn assign_bucketed(&mut self) {
        let block_size = self.blocking.block_size();
        let mut next_host: u32 = 0;
        // Pass 1: basic levels, blocks of contiguous ranges. Blocks fill
        // across set boundaries (sets visited in key order) so that the many
        // tiny sets of high levels share hosts instead of each burning one —
        // keeping H within the paper's O(n log n / M).
        for (level_idx, level) in self.levels.iter_mut().enumerate() {
            if !self.blocking.is_basic(level_idx as u32) {
                continue;
            }
            let mut fill = 0usize;
            let mut started = false;
            for set in &mut level.sets {
                // Contiguity: order ranges by (owning item, id) — owner order
                // follows the structure's canonical layout.
                let mut order: Vec<RangeId> = set.structure.range_ids().collect();
                order.sort_by_key(|r| (set.structure.owner(*r), r.index()));
                for r in order {
                    if fill == block_size || !started {
                        if started {
                            next_host += 1;
                        }
                        started = true;
                        fill = 0;
                    }
                    set.range_host[r.index()] = vec![HostId(next_host)];
                    fill += 1;
                }
            }
            if started {
                next_host += 1; // close the level's last open block
            }
        }
        // Pass 2: non-basic ranges are replicated onto every host holding a
        // copy of a range they hyperlink to one level down (so each block's
        // whole non-basic cone is co-located with it, as §2.4.1 describes).
        // Ascending level order guarantees the level below is already placed.
        for level_idx in 1..self.levels.len() {
            if self.blocking.is_basic(level_idx as u32) {
                continue;
            }
            for set_idx in 0..self.levels[level_idx].sets.len() {
                let parent_idx =
                    self.parent_set_index(level_idx as u32, &self.levels[level_idx].sets[set_idx]);
                for r_idx in 0..self.levels[level_idx].sets[set_idx].range_host.len() {
                    let mut hosts: Vec<HostId> = Vec::new();
                    for t in &self.levels[level_idx].sets[set_idx].down[r_idx] {
                        hosts.extend(
                            self.levels[level_idx - 1].sets[parent_idx].range_host[t.index()]
                                .iter()
                                .copied(),
                        );
                    }
                    hosts.sort_unstable();
                    hosts.dedup();
                    debug_assert!(!hosts.is_empty(), "non-basic range must have a cone");
                    self.levels[level_idx].sets[set_idx].range_host[r_idx] = hosts;
                }
            }
        }
        self.hosts = (next_host as usize).max(1);
        // Item homes: the host of the item's top-level entry range.
        let top = self.top_level() as usize;
        self.host_of_item = (0..self.ground.len())
            .map(|g| {
                let (set_idx, entry) = self.origin_entry(g);
                self.levels[top].sets[set_idx].range_host[entry.index()][0]
            })
            .collect();
    }

    /// Registers the web's storage and reference footprint with a simulated
    /// network (the `M` and `C(n)` accounting of §1.1). The network must
    /// have at least [`hosts`](Self::hosts) hosts.
    ///
    /// # Panics
    ///
    /// Panics if `net` has fewer hosts than the web requires.
    pub fn account(&self, net: &mut SimNetwork) {
        assert!(
            net.hosts() >= self.hosts,
            "network too small: {} hosts < {} required",
            net.hosts(),
            self.hosts
        );
        net.set_items(self.len());
        for level in &self.levels {
            for set in &level.sets {
                for r in set.structure.range_ids() {
                    let neighbors = set.structure.neighbors(r);
                    let down = &set.down[r.index()];
                    let copies = &set.range_host[r.index()];
                    for (c, &host) in copies.iter().enumerate() {
                        let mut local = 0u64;
                        let mut remote = 0u64;
                        for nb in &neighbors {
                            if set.range_host[nb.index()].contains(&host) {
                                local += 1;
                            } else {
                                remote += 1;
                            }
                        }
                        if c == 0 {
                            // The primary copy stores the range plus every
                            // pointer (each a (host, addr) pair).
                            net.add_storage(host, 1 + neighbors.len() as u64 + down.len() as u64);
                            net.add_refs(host, local, remote);
                        } else {
                            // Replicas serve the intra-block descent: the
                            // range, its co-located pointers, and a single
                            // fallback pointer to the primary.
                            net.add_storage(host, 2 + local);
                            net.add_refs(host, local, 1);
                        }
                    }
                }
            }
        }
        // Hyperlink references point across levels.
        for level_idx in 1..self.levels.len() {
            for set in &self.levels[level_idx].sets {
                let parent_idx = self.parent_set_index(level_idx as u32, set);
                let parent = &self.levels[level_idx - 1].sets[parent_idx];
                for r in set.structure.range_ids() {
                    for (c, &host) in set.range_host[r.index()].iter().enumerate() {
                        let mut local = 0u64;
                        let mut remote = 0u64;
                        for t in &set.down[r.index()] {
                            if parent.range_host[t.index()].contains(&host) {
                                local += 1;
                            } else {
                                remote += 1;
                            }
                        }
                        if c == 0 {
                            net.add_refs(host, local, remote);
                        } else {
                            // Replicas keep co-located hyperlinks only.
                            net.add_refs(host, local, 0);
                            net.add_storage(host, local);
                        }
                    }
                }
            }
        }
    }

    /// Fresh simulated network sized for this web with accounting applied.
    pub fn network(&self) -> SimNetwork {
        let mut net = SimNetwork::new(self.hosts.max(1));
        self.account(&mut net);
        net
    }

    pub(crate) fn level_structs(&self) -> &[Level<D>] {
        &self.levels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skipweb_structures::linked_list::SortedLinkedList;

    fn web(n: u64, seed: u64) -> SkipWeb<SortedLinkedList> {
        SkipWeb::builder((0..n).map(|i| i * 10).collect())
            .seed(seed)
            .build()
    }

    #[test]
    fn builder_canonicalizes_ground_set() {
        let w = SkipWeb::<SortedLinkedList>::builder(vec![30, 10, 20, 10]).build();
        assert_eq!(w.ground(), &[10, 20, 30]);
        assert_eq!(w.len(), 3);
        assert_eq!(w.top_level(), 2);
    }

    #[test]
    fn level_sets_partition_items_and_halve() {
        let w = web(256, 1);
        for level in 0..=w.top_level() {
            let sizes = w.level_set_sizes(level);
            assert_eq!(sizes.iter().sum::<usize>(), 256);
        }
        // Level 1 splits into two roughly even halves.
        let l1 = w.level_set_sizes(1);
        assert_eq!(l1.len(), 2);
        assert!(l1.iter().all(|&s| s > 80 && s < 176), "split {l1:?}");
    }

    #[test]
    fn owner_hosted_uses_one_host_per_item() {
        let w = web(64, 2);
        assert_eq!(w.hosts(), 64);
        for i in 0..64 {
            assert_eq!(w.host_of_item(i), HostId(i as u32));
        }
    }

    #[test]
    fn query_finds_the_correct_level0_locus() {
        let w = web(128, 3);
        for q in [0u64, 5, 321, 635, 1270, 9999] {
            let mut meter = MessageMeter::new();
            let outcome = w.query(w.random_origin(q), &q, &mut meter);
            let want = w.base().locate(&q);
            assert_eq!(outcome.locus, want, "locus mismatch for {q}");
            assert_eq!(outcome.messages, meter.messages());
        }
    }

    #[test]
    fn query_touches_constant_work_per_level() {
        let w = web(512, 4);
        let mut total = 0f64;
        let mut count = 0f64;
        for s in 0..50u64 {
            let mut meter = MessageMeter::new();
            let q = s * 101 + 7;
            let outcome = w.query(w.random_origin(s), &q, &mut meter);
            total += outcome
                .per_level_touches
                .iter()
                .map(|&t| t as f64)
                .sum::<f64>();
            count += outcome.per_level_touches.len() as f64;
        }
        let per_level = total / count;
        assert!(per_level < 6.0, "per-level work too high: {per_level}");
    }

    #[test]
    fn query_messages_scale_logarithmically() {
        let w = web(1024, 5);
        let mut worst = 0u64;
        for s in 0..100u64 {
            let mut meter = MessageMeter::new();
            let q = s * 103;
            let outcome = w.query(w.random_origin(s), &q, &mut meter);
            worst = worst.max(outcome.messages);
        }
        // k = 10 levels; expected O(1) messages per level with slack.
        assert!(worst < 60, "query messages {worst} not O(log n)-like");
    }

    #[test]
    fn same_seed_same_web() {
        let a = web(100, 9);
        let b = web(100, 9);
        let mut m1 = MessageMeter::new();
        let mut m2 = MessageMeter::new();
        let o1 = a.query(3, &555, &mut m1);
        let o2 = b.query(3, &555, &mut m2);
        assert_eq!(o1, o2);
    }

    #[test]
    fn bucketed_placement_uses_fewer_hosts_and_scale_free_memory() {
        let memory = 64usize;
        let build = |n: u64| {
            SkipWeb::<SortedLinkedList>::builder((0..n).map(|i| i * 3).collect())
                .seed(6)
                .bucketed(memory)
                .build()
        };
        let small = build(512);
        let big = build(4096);
        assert!(small.hosts() < 512, "bucketing must reduce host count");
        let m_small = small.network().max_memory();
        let m_big = big.network().max_memory();
        // The paper's claim is per-host memory O(M) *independent of n*: an
        // 8x larger ground set must not grow the per-host maximum much
        // (constants cover conflict-list tails and replication).
        assert!(
            (m_big as f64) < (m_small as f64) * 2.5,
            "per-host memory grew with n: {m_small} -> {m_big}"
        );
        // Linear in M with a constant covering pointer fan-out (~12 units
        // per range with closed-interval conflict lists) and stratum overlap.
        assert!(
            m_big <= 50 * memory as u64,
            "per-host memory {m_big} beyond O(M) constants"
        );
        // Doubling M should not blow memory up super-linearly.
        let double = SkipWeb::<SortedLinkedList>::builder((0..4096u64).map(|i| i * 3).collect())
            .seed(6)
            .bucketed(2 * memory)
            .build();
        let m_double = double.network().max_memory();
        assert!(
            (m_double as f64) < (m_big as f64) * 3.0,
            "memory not O(M)-linear: {m_big} -> {m_double}"
        );
    }

    #[test]
    fn bucketed_queries_cross_fewer_hosts() {
        let n: u64 = 4096;
        let items: Vec<u64> = (0..n).map(|i| i * 7).collect();
        let owner = SkipWeb::<SortedLinkedList>::builder(items.clone())
            .seed(7)
            .build();
        let bucket = SkipWeb::<SortedLinkedList>::builder(items)
            .seed(7)
            .bucketed(64)
            .build();
        let mut owner_total = 0u64;
        let mut bucket_total = 0u64;
        for s in 0..60u64 {
            let q = s * 397 + 11;
            let mut m1 = MessageMeter::new();
            owner.query(owner.random_origin(s), &q, &mut m1);
            owner_total += m1.messages();
            let mut m2 = MessageMeter::new();
            bucket.query(bucket.random_origin(s), &q, &mut m2);
            bucket_total += m2.messages();
        }
        assert!(
            bucket_total * 2 < owner_total * 3,
            "bucketed ({bucket_total}) should beat owner-hosted ({owner_total}) on messages"
        );
    }

    #[test]
    fn replication_places_every_range_on_k_distinct_hosts() {
        let w = SkipWeb::<SortedLinkedList>::builder((0..64u64).map(|i| i * 10).collect())
            .seed(5)
            .replicate(3)
            .build();
        assert_eq!(w.replication().k, 3);
        let plain = web(64, 5);
        for (level, plain_level) in w.level_structs().iter().zip(plain.level_structs()) {
            for (set, plain_set) in level.sets.iter().zip(&plain_level.sets) {
                for (copies, plain_copies) in set.range_host.iter().zip(&plain_set.range_host) {
                    assert!(copies.len() >= 3, "range has {} copies", copies.len());
                    let mut unique = copies.clone();
                    unique.sort_unstable();
                    unique.dedup();
                    assert_eq!(unique.len(), copies.len(), "replicas must be distinct");
                    // The primary copy is exactly the unreplicated placement.
                    assert_eq!(copies[0], plain_copies[0]);
                }
            }
        }
        // Owner-hosted metering reads primaries only, so the simulated
        // Q(n) is untouched by the replication factor.
        for s in 0..10u64 {
            let q = s * 37 + 3;
            let mut m_rep = MessageMeter::new();
            let mut m_plain = MessageMeter::new();
            let o_rep = w.query(w.random_origin(s), &q, &mut m_rep);
            let o_plain = plain.query(plain.random_origin(s), &q, &mut m_plain);
            assert_eq!(o_rep.locus, o_plain.locus);
            assert_eq!(m_rep.messages(), m_plain.messages());
        }
    }

    #[test]
    fn replication_is_capped_by_the_host_count() {
        let w = SkipWeb::<SortedLinkedList>::builder(vec![1, 2, 3])
            .seed(6)
            .replicate(64)
            .build();
        for level in w.level_structs() {
            for set in &level.sets {
                for copies in &set.range_host {
                    assert!(copies.len() <= w.hosts());
                }
            }
        }
    }

    #[test]
    fn insert_makes_item_queryable() {
        let mut w = web(32, 8);
        let mut meter = MessageMeter::new();
        assert!(w.insert(155, &mut meter));
        assert!(meter.messages() > 0 || w.hosts() == 1);
        assert!(w.ground().contains(&155));
        let mut m2 = MessageMeter::new();
        let out = w.query(w.random_origin(1), &155, &mut m2);
        assert_eq!(out.locus, w.base().locate(&155));
    }

    #[test]
    fn duplicate_insert_is_rejected() {
        let mut w = web(16, 8);
        let mut meter = MessageMeter::new();
        assert!(!w.insert(10, &mut meter)); // 10 already present
        assert_eq!(w.len(), 16);
    }

    #[test]
    fn remove_deletes_item_and_keeps_web_consistent() {
        let mut w = web(32, 10);
        let mut meter = MessageMeter::new();
        assert!(w.remove(&100, &mut meter));
        assert!(!w.ground().contains(&100));
        assert_eq!(w.len(), 31);
        // Still queryable, and 100's locus is now a link.
        let mut m2 = MessageMeter::new();
        let out = w.query(w.random_origin(0), &100, &mut m2);
        assert_eq!(out.locus, w.base().locate(&100));
        assert!(!w.remove(&100, &mut MessageMeter::new()));
    }

    #[test]
    fn growth_adds_levels() {
        let mut w = web(2, 11);
        assert_eq!(w.top_level(), 1);
        for i in 0..30u64 {
            w.insert(1000 + i, &mut MessageMeter::new());
        }
        assert_eq!(w.len(), 32);
        assert_eq!(w.top_level(), 5);
    }

    #[test]
    fn batch_applies_match_sequential_applies() {
        let mut batch = web(24, 13);
        let mut seq = web(24, 13);
        let inserts: Vec<(u64, u64)> = (0..6).map(|i| (5 + i * 37, i * 0x9E37 + 11)).collect();
        // A mid-batch duplicate (value already inserted earlier in the same
        // batch) and a stored duplicate must both come back `false`.
        let mut with_dups = inserts.clone();
        with_dups.push(inserts[0]);
        with_dups.push((10, 0));
        let flags = batch.apply_insert_batch(with_dups.clone());
        let want: Vec<bool> = with_dups
            .iter()
            .map(|&(k, b)| seq.apply_insert(k, b))
            .collect();
        assert_eq!(flags, want);
        assert_eq!(batch.ground(), seq.ground());
        let removes: Vec<u64> = vec![5, 100, 99_999, 5];
        let flags = batch.apply_remove_batch(&removes);
        let want: Vec<bool> = removes
            .iter()
            .map(|k| seq.apply_remove_batch(std::slice::from_ref(k))[0])
            .collect();
        assert_eq!(flags, want);
        assert_eq!(batch.ground(), seq.ground());
        // Identical hierarchies: same query loci everywhere.
        for q in [0u64, 42, 151, 500] {
            let mut m1 = MessageMeter::new();
            let mut m2 = MessageMeter::new();
            assert_eq!(
                batch.query(0, &q, &mut m1).locus,
                seq.query(0, &q, &mut m2).locus
            );
        }
    }

    #[test]
    fn accounting_reports_logarithmic_memory_for_owner_hosting() {
        let w = web(256, 12);
        let net = w.network();
        assert_eq!(net.hosts(), 256);
        // Each host stores O(log n) ranges (its tower) with constant-degree
        // pointers; generous constant.
        assert!(
            net.max_memory() <= 40 * 8,
            "owner-hosted max memory {} not O(log n)",
            net.max_memory()
        );
        assert!(net.max_congestion() > 0.0);
    }

    #[test]
    #[should_panic(expected = "empty skip-web")]
    fn querying_empty_web_panics() {
        let w = SkipWeb::<SortedLinkedList>::builder(vec![]).build();
        let mut meter = MessageMeter::new();
        let _ = w.query(0, &5, &mut meter);
    }
}
