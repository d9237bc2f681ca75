//! The generic distributed skip-web engine: any range-determined structure
//! served by the threaded actor runtime — queries *and* dynamic updates.
//!
//! # Protocol (§2.3–§2.5, §4)
//!
//! The engine turns a built [`SkipWeb<D>`] into a live network of actor
//! threads, one per host, executing the paper's routing protocol for real.
//! Where ranges live is the web's own choice (blocking and replication are
//! set when it is built); [`FabricBuilder`] only picks the thread count,
//! transport, client timeouts and write-ahead sink.
//!
//! * **Addressing (§2.3).** Every range of every level set gets a
//!   [`GlobalRef`] — `(level, set, range)` — and the placement computed by
//!   the builder assigns each ref one or more hosts. The pair
//!   `(host, GlobalRef)` is exactly the paper's *(host, address)* pointer,
//!   the form list neighbours, hyperlinks and query origins all take. None
//!   of them is a stored table: neighbours come from the structure, origins
//!   from the level's member arrays, and a range's hyperlinks — its
//!   conflict list in the parent set — are computed by the host that
//!   descends through them (`SkipWeb::hyperlinks`), which
//!   range-determinism (§2.1) makes the same list everywhere.
//! * **Sharding (§2.4).** A host's shard is the set of ranges placed on it
//!   (owner-hosted: each item's tower; bucketed: a block plus its non-basic
//!   cone). A host may only *act* on ranges of its own shard; touching any
//!   other range requires forwarding the operation to a host that stores it.
//!   Because structures are *range-determined* (§2.1 — `S` and `U` uniquely
//!   determine `D(S)`), the deterministic structure description itself is
//!   shared read-only across the process; what is distributed, metered, and
//!   paid for in messages is the *authority to act* on a range.
//! * **Forwarding (§2.5).** A query enters at its origin item's root and
//!   descends level by level. The walk itself is not written here: the
//!   host advances through `SkipWeb::walk_step`, the one stepper the
//!   cost-model simulator ([`SkipWeb::query`]) meters — one navigation step
//!   inside the level ([`RangeDetermined::search_step`]), else at a level
//!   locus through the hyperlinks (picking the continuation with
//!   [`RangeDetermined::best_entry`]). What the engine adds is what to do
//!   with the next range: it loops — *"processes the query as far as it can
//!   internally"* — while that range is in its own shard, and otherwise
//!   sends one message handing the query to a host that stores it.
//!   Replicated ranges prefer the co-located copy, so bucketed placement
//!   pays only on basic-stratum crossings.
//! * **Updates (§4).** An [`Update`] — insert or remove, one type at every
//!   layer — rides the *same* forwarding loop: the op first routes to the
//!   item's level-0 locus like a query, then walks the conflict
//!   neighbourhoods the structural change rewires, bottom-up, level by
//!   level — paying one message per host crossing, exactly what the
//!   cost-model simulator meters in [`SkipWeb::update_with`]. The host that
//!   completes the repair hands the structural change to the fabric's
//!   *apply stage*, which applies it ([`SkipWeb::apply`]) and publishes a
//!   new topology snapshot (below).
//!
//! # The apply stage
//!
//! Each fabric runs one apply stage: a dedicated thread that is not a host
//! (it has no mailbox in the runtime, routes nothing and pays no messages),
//! fed over a channel by the actors. An actor whose turn completes repair
//! walks hands those updates off and goes straight back to its mailbox, so
//! a read that hops through it never waits out someone else's apply — §4
//! charges an update its `O(log n)` messages and a query its own route,
//! nothing more. The stage blocks for the first hand-off, takes the state
//! lock, and drains every hand-off queued meanwhile into **one** turn: the
//! idempotence ledger claims in arrival order, one [`SkipWeb::apply`], one
//! [`Durability`] append, one publish, then one reply per op — outside the
//! lock, through the runtime's [`Replier`] for the host that handed the op
//! off. Under load, updates queue while a turn runs, so turns grow and each
//! op's share of the copy and the publish shrinks (the batch-dynamic
//! amortisation). The copy-on-write target is recycled: the stage keeps up
//! to two retired webs and refills one ([`Clone::clone_from`]) once its last
//! snapshot has drained, so retired webs are freed and refilled by the
//! stage, never on whichever actor dropped the last snapshot.
//!
//! # Consistency under concurrent churn
//!
//! Every in-flight operation carries an [`Arc`] of the immutable topology
//! snapshot it was admitted under, and an update's repair ends in a single
//! atomic snapshot swap. A snapshot is the web's own level sets (an
//! `Arc<SkipWeb>`, which a [`GlobalRef`] indexes directly) plus the
//! logical→physical host fold in effect — the engine keeps no second copy
//! of the hierarchy. A publish shares the authoritative web's `Arc`; the
//! next apply clones it on write, sharing the structure of every level set
//! its repair leaves alone; a membership change swaps only
//! the fold. A query therefore *never observes a half-applied
//! update*: it sees either the structure entirely before or entirely after
//! each update — operations serialize at their snapshot-capture and
//! snapshot-publish points, and old snapshots are reclaimed automatically
//! when their last in-flight message drains. Concurrent updates are safe in
//! any interleaving (each applies to the then-current authoritative web
//! under a lock); their *message accounting* matches the simulator exactly
//! when updates are admitted one at a time, which is what the parity suite
//! pins down.
//!
//! Each operation carries a correlation id, so one client can keep many
//! operations in flight concurrently and match replies as they arrive out
//! of order ([`DistributedSkipWeb::submit`] / [`EngineClient::recv_corr`]).
//! Replies report the exact number of remote hops the operation paid, which
//! for owner-hosted placement equals the simulator's metered host crossings
//! — the parity property the integration tests pin down.
//!
//! # Fault tolerance: replication, failover, membership
//!
//! The paper assumes hosts never fail; the engine does not. Three pieces
//! make the served structure survive crashes:
//!
//! * **`k`-replica placement.** Building the web with
//!   [`Replication`](crate::placement::Replication) (`.replicate(k)` on any
//!   web builder) puts every range on `k` hosts, so each [`GlobalRef`] resolves
//!   to a replica set. With `k = 1` (the default) hop accounting matches
//!   the cost-model simulator exactly; with `k ≥ 2` replicas add
//!   co-location, so hops can only shrink — and any `k - 1` hosts may crash
//!   without losing availability.
//! * **Failover routing.** Every hop consults the runtime's
//!   [`Membership`] view: the forwarding loop and the repair walk pick the
//!   nearest *alive* replica of the next range and steer around dead hosts.
//!   When no alive replica remains (more crashes than `k - 1`), the
//!   operation fails fast with [`ReplyBody::Unavailable`] /
//!   [`RuntimeError::Unavailable`] instead of black-holing. Operations that
//!   were sitting in a crashed host's mailbox are lost like real packets;
//!   the blocking [`query`](DistributedSkipWeb::query) entry point
//!   resubmits once when it times out while a host is dead.
//! * **Live membership changes.** [`DistributedSkipWeb::decommission`]
//!   re-homes a leaving host's blocks (a new topology snapshot excludes it)
//!   before the runtime marks it as draining, so nothing is lost;
//!   [`DistributedSkipWeb::spawn_host`] grows the fabric and rebalances
//!   onto the new host; [`DistributedSkipWeb::heal`] re-homes around hosts
//!   that crashed. Each change is one atomic snapshot swap with a bumped
//!   [`version`](DistributedSkipWeb::health) — in-flight operations finish
//!   under the snapshot they were admitted with, and stale replicas catch
//!   up simply by seeing the next snapshot.
//!
//! [`DistributedSkipWeb::health`] reports the whole picture: alive / dead /
//! decommissioned hosts, the replication factor, and the topology version.
//!
//! # Batched operations and scatter-gather (§2.5 congestion)
//!
//! The paper's congestion analysis assumes many concurrent operations share
//! the fabric; the batched layer makes them share *envelopes* too:
//!
//! * **Batching.** [`query_batch`](DistributedSkipWeb::query_batch) and
//!   [`update_batch`](DistributedSkipWeb::update_batch) submit many ops
//!   under one snapshot. Ops that share an entry host enter in one
//!   message, and at every hop the ops that agree on their next host are
//!   coalesced into a single [`FabricMsg::Batch`] envelope — metered as
//!   **one** host crossing. Updates that reach the apply stage together —
//!   whose repair trails end in one handler turn, or on any hosts while a
//!   turn runs; inserts and removes in any mix — apply under one state
//!   lock, one [`SkipWeb::apply`] and one snapshot publish.
//!   Answers, applied flags, and final structures are byte-identical to
//!   the serial paths; a batch of N ops crosses strictly fewer host
//!   boundaries.
//! * **Scatter-gather reports.**
//!   [`query_scatter`](DistributedSkipWeb::query_scatter) splits a range
//!   report (quadtree box, trie prefix) at its locus across the hosts
//!   owning the output ([`Routable::report_ranges`]); the partial answers
//!   stream back to the client in parallel and merge
//!   ([`Routable::merge_answers`]) into the serial answer, byte for byte —
//!   instead of the locus walking the whole output serially.
//! * **Exactly-once resubmits.** Blocking entry points resubmit once when
//!   a wait times out while a host is dead. Queries are idempotent;
//!   updates are re-tagged with the *original* op id, and the apply path
//!   keeps an idempotence ledger keyed on `(client, op id)` — a resubmit
//!   whose first attempt actually landed is echoed its recorded outcome,
//!   never applied twice. Late replies of abandoned attempts are dropped
//!   on arrival and counted in [`HostTraffic::stale_replies`].
//!
//! # Example
//!
//! ```
//! use skipweb_core::engine::DistributedSkipWeb;
//! use skipweb_core::onedim::OneDimSkipWeb;
//!
//! let web = OneDimSkipWeb::builder((0..64).map(|i| i * 10).collect()).build();
//! let dist = DistributedSkipWeb::builder(web.inner()).spawn();
//! let client = dist.client();
//! let reply = dist.query(&client, web.random_origin(1), 137).unwrap();
//! assert_eq!(reply.answer, Some(140));
//!
//! // Dynamic updates route over the same actor fabric (§4).
//! assert!(dist.insert(&client, 141).unwrap().applied);
//! let reply = dist.query(&client, 0, 141).unwrap();
//! assert_eq!(reply.answer, Some(141));
//! dist.shutdown();
//! ```

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam_channel as channel;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use skipweb_net::runtime::{
    Actor, Client, ClientId, Context, Membership, Replier, Runtime, RuntimeError, Sender,
    TrafficClass,
};
use skipweb_net::tcp::{TcpCodec, TcpConfig, TcpTransport};
use skipweb_net::transport::Transport;
use skipweb_net::wan::{SimWanConfig, SimWanTransport};
use skipweb_net::{HostId, HostTraffic, TransportStats};
use skipweb_structures::traits::{RangeDetermined, RangeId};

use crate::skipweb::{Copies, LevelSet, SkipWeb, Update};

/// Globally unique address of a range: level, set index, range index — the
/// "address" half of the paper's `(host, address)` pointers (§2.3). Refs are
/// only meaningful relative to one topology snapshot; every in-flight
/// message carries the snapshot its refs resolve against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GlobalRef {
    /// Level in the hierarchy (0 = ground).
    pub level: u16,
    /// Set index within the level.
    pub set: u32,
    /// Range id within the set's structure.
    pub range: u32,
}

impl fmt::Display for GlobalRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}/S{}/R{}", self.level, self.set, self.range)
    }
}

/// A structure that the distributed engine can route operations for: on top
/// of the navigation primitives of [`RangeDetermined`], it names the
/// wire-level request/answer types, how the terminal host turns a level-0
/// locus into an answer, and which items it will admit as live inserts.
/// The simulator answers through the same hook ([`SkipWeb::ask`]).
pub trait Routable: RangeDetermined<Item: Send + Sync + 'static> {
    /// What clients send: a query request (possibly richer than
    /// [`RangeDetermined::Query`] — e.g. an orthogonal box whose descent
    /// routes toward its centre point).
    type Request: Clone + Send + fmt::Debug + 'static;
    /// What the terminal host replies with; the default value is what a
    /// malformed scatter-gather exchange degrades to.
    type Answer: Clone + Default + Send + fmt::Debug + 'static;

    /// The point of the universe the descent routes toward for `req`.
    fn target(req: &Self::Request) -> Self::Query;

    /// Computes the answer once the descent reached the maximal level-0
    /// range `locus` containing the target — executed by the host anchoring
    /// that locus. `touch` must visit, in reading order, every level-0 range
    /// the answer reads beyond the locus's local neighbourhood (a box
    /// report's ascent and scan; a point answer touches none): the
    /// simulator charges each one's host a hop, the engine passes a no-op.
    fn answer(
        &self,
        locus: RangeId,
        req: &Self::Request,
        touch: impl FnMut(RangeId),
    ) -> Self::Answer;

    /// Whether `item` may be admitted as a live insert against the current
    /// ground set. Actors serve wire input and must never panic on it, so
    /// structures with build-time preconditions (e.g. the trapezoidal map's
    /// general-position requirement) override this to reject violating
    /// items; the insert then completes as a no-op (`applied == false`).
    fn admissible(&self, item: &Self::Item) -> bool {
        let _ = item;
        true
    }

    /// The level-0 ranges whose stored data supports the answer to `req`
    /// at `locus` — `Some` for range-reporting requests whose answer set
    /// spans many hosts and benefits from scatter-gather fan-out (quadtree
    /// box reporting, trie prefix enumeration), `None` (the default) for
    /// point queries answered entirely from the locus neighbourhood.
    ///
    /// When `Some`, a [`DistributedSkipWeb::query_scatter`] splits the
    /// report at the locus: the engine groups the returned ranges by owning
    /// host, sends each remote group one sub-scan message, and the partial
    /// answers stream back to the client in parallel instead of the locus
    /// walking the whole output serially. Implementors must override
    /// [`partial_answer`](Self::partial_answer) and
    /// [`merge_answers`](Self::merge_answers) alongside this, and the merge
    /// of the partials over any partition of the ranges must equal
    /// [`answer`](Self::answer) byte for byte.
    fn report_ranges(&self, locus: RangeId, req: &Self::Request) -> Option<Vec<RangeId>> {
        let _ = (locus, req);
        None
    }

    /// Computes the partial answer supported by a subset of the ranges
    /// [`report_ranges`](Self::report_ranges) returned — executed by the
    /// host owning that subset during a scatter-gather report. The wire
    /// decoder admits only scatters over ranges `report_ranges` names, so
    /// the default (structures that never report) is unreachable.
    fn partial_answer(&self, ranges: &[RangeId], req: &Self::Request) -> Self::Answer {
        let _ = (ranges, req);
        Self::Answer::default()
    }

    /// Merges the streamed partial answers of a scatter-gather report into
    /// the final answer. Must be insensitive to arrival order (partials
    /// stream back in parallel) and, over any partition of the report
    /// ranges, equal the serial [`answer`](Self::answer). The default keeps
    /// the first partial: only a malformed reply can deliver one.
    fn merge_answers(parts: Vec<Self::Answer>) -> Self::Answer {
        parts.into_iter().next().unwrap_or_default()
    }
}

/// What an [`EngineMsg`] is carrying through the fabric.
#[derive(Debug, Clone)]
pub(crate) enum EngineOp<D: Routable> {
    /// A query descending toward its target's locus. With `gather` set, a
    /// range-reporting request is split at the locus into per-host sub-scans
    /// whose partial answers stream back to the client in parallel.
    Query {
        /// The structure-specific request.
        req: D::Request,
        /// Whether to scatter-gather the report at the locus (see
        /// [`Routable::report_ranges`]).
        gather: bool,
    },
    /// An insert/remove routing to its locus, then repairing bottom-up.
    Update(UpdateOp<D>),
    /// One scattered sub-scan of a range report: compute the partial answer
    /// supported by `ranges` of the locus set and reply it to the client,
    /// which gathers `of` partials in total.
    Scatter {
        /// The originating request.
        req: D::Request,
        /// The level-0 ranges this host's partial covers.
        ranges: Vec<RangeId>,
        /// Total partial replies the client must gather.
        of: u32,
    },
}

/// The update half of [`EngineOp`].
#[derive(Debug, Clone)]
pub(crate) struct UpdateOp<D: Routable> {
    pub(crate) update: Update<D::Item>,
    pub(crate) phase: UpdatePhase,
    /// Identity of the *logical* operation, stable across timeout-resubmits
    /// (the correlation id of the first attempt). The apply path keys its
    /// idempotence record on `(client, op_id)`, so a resubmitted update that
    /// already landed is echoed, never applied twice.
    pub(crate) op_id: u64,
}

/// Where an update is in its two-phase life (§4): routing to the item's
/// locus, then walking the bottom-up repair trail. The trail is computed
/// once — when the repair starts — and rides in the message so later hosts
/// never recompute the conflict scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum UpdatePhase {
    /// Descending toward the item's level-0 locus, exactly like a query.
    Route,
    /// Walking the conflict-neighbourhood trail; `cursor` indexes the next
    /// unvisited trail entry.
    Repair {
        /// Next unvisited position on the repair trail.
        cursor: usize,
        /// The ordered hosts the repair acts on, fixed at repair start.
        trail: Vec<HostId>,
    },
}

/// One in-flight operation of the engine. Carries the topology snapshot the
/// operation was admitted under, so its [`GlobalRef`]s stay valid across
/// concurrent updates.
#[derive(Debug)]
pub struct EngineMsg<D: Routable> {
    pub(crate) op: EngineOp<D>,
    pub(crate) at: GlobalRef,
    pub(crate) client: ClientId,
    pub(crate) corr: u64,
    pub(crate) hops: u32,
    pub(crate) topo: Arc<Topology<D>>,
}

impl<D: Routable + Send + Sync + 'static> EngineMsg<D> {
    /// Ends this operation here: replies `body` to its client.
    fn reply(&self, ctx: &mut Context<'_, FabricMsg<D>, EngineReply<D>>, body: ReplyBody<D>) {
        ctx.reply(
            self.client,
            EngineReply {
                corr: self.corr,
                hops: self.hops,
                body,
            },
        );
    }
}

/// The wire envelope hosts exchange: a single operation, or a coalesced
/// batch of operations that were all bound for the same next host. A batch
/// envelope is metered as **one** host crossing however many ops it carries
/// — the congestion lever of §2.5 the batched entry points
/// ([`DistributedSkipWeb::query_batch`], [`DistributedSkipWeb::update_batch`])
/// pull: at every hop, ops that agree on their next host share an envelope.
#[derive(Debug)]
pub enum FabricMsg<D: Routable> {
    /// One operation.
    One(EngineMsg<D>),
    /// Many operations bound for the same host, sharing one crossing.
    Batch(BatchMsg<D>),
}

/// The multi-op body of a [`FabricMsg::Batch`] envelope.
#[derive(Debug)]
pub struct BatchMsg<D: Routable> {
    pub(crate) ops: Vec<EngineMsg<D>>,
}

/// Wraps a group of ops bound for one host: a bare message for a single op,
/// a coalesced batch envelope otherwise.
fn envelope<D: Routable>(ops: Vec<EngineMsg<D>>) -> FabricMsg<D> {
    match <[EngineMsg<D>; 1]>::try_from(ops) {
        Ok([only]) => FabricMsg::One(only),
        Err(ops) => FabricMsg::Batch(BatchMsg { ops }),
    }
}

/// Reply delivered to the submitting client: the correlation id, the remote
/// hops paid end to end, and either a query answer or an update outcome.
#[derive(Debug, Clone)]
pub struct EngineReply<D: Routable> {
    /// Correlation id of the originating submit call.
    pub corr: u64,
    /// Remote hops the operation paid end to end (for owner-hosted
    /// placement this equals the simulator's metered host crossings).
    pub hops: u32,
    /// The operation's outcome.
    pub body: ReplyBody<D>,
}

/// The payload of an [`EngineReply`].
#[derive(Debug, Clone)]
pub enum ReplyBody<D: Routable> {
    /// A query's structure-specific answer.
    Answer(D::Answer),
    /// One partial answer of a scatter-gather range report: the client
    /// gathers `of` partials for this correlation id and merges them with
    /// [`Routable::merge_answers`]. Partials stream back in parallel from
    /// the hosts owning the report's output.
    Partial {
        /// The partial answer.
        answer: D::Answer,
        /// Total partial replies to gather.
        of: u32,
    },
    /// An update's outcome.
    Updated {
        /// Whether the structure changed (`false` for duplicate inserts,
        /// absent removes, and inadmissible items).
        applied: bool,
    },
    /// The operation could not make progress: every replica of a range it
    /// needed has crashed (more failures than the replication factor
    /// tolerates). Blocking entry points surface this as
    /// [`RuntimeError::Unavailable`].
    Unavailable,
}

/// Which kind of payload a [`ReplyBody`] carried — the vocabulary of
/// [`ReplyMismatch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyKind {
    /// A full query answer.
    Answer,
    /// One scatter-gather partial.
    Partial,
    /// An update outcome.
    Updated,
    /// A fail-fast unavailability notice.
    Unavailable,
}

impl<D: Routable> ReplyBody<D> {
    /// The kind of payload this body carries.
    pub fn kind(&self) -> ReplyKind {
        match self {
            ReplyBody::Answer(_) => ReplyKind::Answer,
            ReplyBody::Partial { .. } => ReplyKind::Partial,
            ReplyBody::Updated { .. } => ReplyKind::Updated,
            ReplyBody::Unavailable => ReplyKind::Unavailable,
        }
    }

    /// The error of an accessor that asked for `expected` and found this.
    fn mismatch(&self, expected: ReplyKind) -> ReplyMismatch {
        ReplyMismatch {
            expected,
            got: self.kind(),
        }
    }
}

/// A reply carried a different payload than the accessor asked for. With
/// the wire path, mismatched replies are a real input (a confused or
/// malicious peer can send anything), so the `try_*` accessors surface
/// this as a value instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplyMismatch {
    /// The payload kind the accessor asked for.
    pub expected: ReplyKind,
    /// The payload kind the reply actually carried.
    pub got: ReplyKind,
}

impl fmt::Display for ReplyMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reply carries {:?}, accessor expected {:?}",
            self.got, self.expected
        )
    }
}

impl std::error::Error for ReplyMismatch {}

impl<D: Routable> EngineReply<D> {
    /// Consumes the reply, returning the query answer, or a
    /// [`ReplyMismatch`] if the reply carried something else.
    ///
    /// # Errors
    ///
    /// Returns the mismatch describing what the reply actually carried.
    pub fn try_into_answer(self) -> Result<D::Answer, ReplyMismatch> {
        match self.body {
            ReplyBody::Answer(a) => Ok(a),
            other => Err(other.mismatch(ReplyKind::Answer)),
        }
    }

    /// Whether the update changed the structure, or a [`ReplyMismatch`] if
    /// this reply belongs to a query or was unavailable.
    ///
    /// # Errors
    ///
    /// Returns the mismatch describing what the reply actually carried.
    pub fn try_applied(&self) -> Result<bool, ReplyMismatch> {
        match &self.body {
            ReplyBody::Updated { applied } => Ok(*applied),
            other => Err(other.mismatch(ReplyKind::Updated)),
        }
    }
}

/// A completed query: the answer plus its cost accounting.
#[derive(Debug, Clone)]
pub struct QueryReply<D: Routable> {
    /// Correlation id of the originating [`DistributedSkipWeb::submit`].
    pub corr: u64,
    /// The structure-specific answer.
    pub answer: D::Answer,
    /// Remote hops the query paid end to end.
    pub hops: u32,
}

/// A completed update: whether it applied, plus its cost accounting.
#[derive(Debug, Clone, Copy)]
pub struct UpdateReply {
    /// Correlation id of the originating submit call.
    pub corr: u64,
    /// Whether the structure changed (`false` for duplicate inserts, absent
    /// removes, and inadmissible items).
    pub applied: bool,
    /// Remote hops the update paid: the locus lookup plus the bottom-up
    /// repair walk (§4) — equal to the simulator's metered `U(n)` for
    /// owner-hosted placement.
    pub hops: u32,
}

impl<D: Routable> QueryReply<D> {
    /// The final reply of a query's wait loop, as the blocking entry points
    /// return it.
    fn of(reply: EngineReply<D>) -> Self {
        match reply.body {
            ReplyBody::Answer(answer) => QueryReply {
                corr: reply.corr,
                answer,
                hops: reply.hops,
            },
            other => unreachable!("a query resolved to {:?}", other.kind()),
        }
    }
}

impl UpdateReply {
    /// The final reply of an update's wait loop, as the blocking entry
    /// points return it.
    fn of<D: Routable>(reply: EngineReply<D>) -> Self {
        match reply.body {
            ReplyBody::Updated { applied } => UpdateReply {
                corr: reply.corr,
                applied,
                hops: reply.hops,
            },
            other => unreachable!("an update resolved to {:?}", other.kind()),
        }
    }
}

/// One immutable snapshot of the routing topology: the web's own level
/// sets — the only topology representation; a [`GlobalRef`] indexes
/// straight into them — plus the placement fold in effect and a version.
/// The current snapshot is swapped atomically when an update applies or the
/// membership changes; every in-flight message holds the snapshot it routes
/// under, so old snapshots are reclaimed when their last message drains.
///
/// A publish never copies the web: the snapshot shares the engine state's
/// `Arc`, and the *next* apply clones-on-write, sharing the structure of
/// every level set its repair leaves alone. A membership-only publish swaps
/// `ctl` over the same web.
#[derive(Debug)]
pub(crate) struct Topology<D: RangeDetermined> {
    pub(crate) web: Arc<SkipWeb<D>>,
    /// The logical→physical host fold, applied at route time to the web's
    /// logical [`copies`](SkipWeb::copies). While the web's host count stays within
    /// `ctl.phys` and nothing is excluded the fold is the identity, so
    /// owner-hosted message accounting matches the simulator exactly.
    pub(crate) ctl: PlacementCtl,
    /// Monotone snapshot counter: every publish (update apply,
    /// decommission, spawn-host, heal) bumps it, so replicas that routed an
    /// operation under an old snapshot can tell they were stale.
    pub(crate) version: u64,
}

impl<D: RangeDetermined> Topology<D> {
    fn set(&self, at: GlobalRef) -> &LevelSet {
        &self.web.level_structs()[at.level as usize].sets[at.set as usize]
    }

    /// The structure of the set `at` names.
    fn structure(&self, at: GlobalRef) -> &D {
        self.web.level_structs()[at.level as usize].structure(self.set(at))
    }

    /// The logical hosts storing a copy of the range at `at`.
    fn copies(&self, at: GlobalRef) -> Copies<'_> {
        self.web
            .copies(at.level as usize, self.set(at), RangeId(at.range))
    }

    /// The address where `origin_item`'s operations start (the "root node
    /// for that host" of §1.1) and the logical hosts storing it.
    fn origin(&self, origin_item: usize) -> (GlobalRef, Copies<'_>) {
        let (set, entry) = self.web.origin_entry(origin_item);
        let at = GlobalRef {
            level: self.web.top_level() as u16,
            set: set as u32,
            range: entry.0,
        };
        (at, self.copies(at))
    }
}

/// How the web's logical hosts map onto physical actor threads: the fold
/// modulus plus the hosts excluded from placement (decommissioned, or dead
/// hosts healed around). Part of the engine's evolving state, serialized by
/// the state lock.
#[derive(Debug, Clone)]
pub(crate) struct PlacementCtl {
    /// Number of physical actor threads; logical hosts fold onto them
    /// (`logical % phys`), so the web may grow past the thread count.
    phys: usize,
    /// Physical hosts no new placement may target. Ranges that would fold
    /// onto one are re-homed to the next non-excluded host on the ring.
    excluded: BTreeSet<u32>,
}

impl PlacementCtl {
    pub(crate) fn new(phys: usize) -> Self {
        PlacementCtl {
            phys: phys.max(1),
            excluded: BTreeSet::new(),
        }
    }

    /// Folds a logical host onto a physical one, re-homing off excluded
    /// hosts. With nothing excluded this is exactly `logical % phys`, so
    /// owner-hosted accounting parity is untouched.
    fn fold(&self, h: HostId) -> HostId {
        let phys = self.phys as u32;
        let mut p = h.0 % phys;
        if self.excluded.len() >= self.phys {
            return HostId(p); // nowhere left to re-home; let routing fail fast
        }
        while self.excluded.contains(&p) {
            p = (p + 1) % phys;
        }
        HostId(p)
    }
}

/// Resolves a replicated range — its logical `copies`, folded onto physical
/// hosts by `ctl` — to a host from the perspective of `me`: the co-located
/// copy when one exists (free to act on), else the nearest surviving copy
/// in replica order (`routable`: decommissioned hosts still serve while
/// they drain; only crashed ones are skipped). `None` when every copy has
/// crashed — more failures than the replication factor tolerates. Folding
/// can alias distinct logical hosts; membership and first-match are both
/// blind to the repeats, so the folded list is never materialized.
fn pick_alive(
    copies: impl Iterator<Item = HostId>,
    ctl: &PlacementCtl,
    me: HostId,
    routable: impl Fn(HostId) -> bool,
) -> Option<HostId> {
    let mut nearest = None;
    for copy in copies {
        let host = ctl.fold(copy);
        if host == me {
            // The executing host is by definition functioning, whatever
            // the membership snapshot says.
            return Some(me);
        }
        if nearest.is_none() && routable(host) {
            nearest = Some(host);
        }
    }
    nearest
}

/// Outcome of processing an operation "as far as we can internally" (§2.5).
enum RouteOutcome {
    /// The descent reached the maximal level-0 range containing the target.
    AtLocus(GlobalRef),
    /// The next range lives elsewhere: hand the operation to `host`.
    Forward { next: GlobalRef, host: HostId },
    /// Every replica of the next range has crashed: the operation cannot
    /// make progress under this snapshot.
    Unavailable,
}

/// Runs the §2.5 walk ([`SkipWeb::walk_step`], the stepper the simulator
/// meters) from `at` toward `q`'s level-0 locus, advancing for free while
/// the next range is in `me`'s shard and steering each hop toward an alive
/// replica.
fn route_step<D: Routable + Send + Sync + 'static>(
    topo: &Topology<D>,
    me: HostId,
    mut at: GlobalRef,
    q: &D::Query,
    membership: &Membership,
) -> RouteOutcome {
    // The walk's one hyperlink buffer: a level descent allocates nothing.
    let mut links = Vec::new();
    loop {
        let here = (at.level as usize, at.set as usize, RangeId(at.range));
        let Some((level, set, range)) = topo.web.walk_step(here, q, &mut links) else {
            return RouteOutcome::AtLocus(at);
        };
        let next = GlobalRef {
            level: level as u16,
            set: set as u32,
            range: range.0,
        };
        match pick_alive(topo.copies(next), &topo.ctl, me, |h| {
            membership.is_routable(h)
        }) {
            Some(host) if host == me => {
                // Process as far as we can internally (§2.5): free.
                at = next;
            }
            Some(host) => return RouteOutcome::Forward { next, host },
            None => return RouteOutcome::Unavailable,
        }
    }
}

/// The ordered hosts an update's bottom-up repair must act on (§4): the
/// web's own [`SkipWeb::walk_update_neighbourhood`] — the walk the
/// simulator meters — under this snapshot's placement fold, so the walk's
/// host transitions equal the metered messages when every host is alive.
/// Dead hosts are steered around via their alive replicas; `None` when some
/// range has no alive replica left (the update is unavailable under this
/// snapshot). Empty trail for a remove whose item is not in the snapshot.
fn repair_trail<D: Routable + Send + Sync + 'static>(
    topo: &Topology<D>,
    update: &Update<D::Item>,
    membership: &Membership,
) -> Option<Vec<HostId>> {
    // The tower the repair walks: an insert brings its own, a remove's is
    // the stored one.
    let bits = match *update {
        Update::Insert { bits, .. } => bits,
        Update::Remove { ref item } => match topo.web.bits_of(item) {
            Some(bits) => bits,
            None => return Some(Vec::new()),
        },
    };
    let mut trail = Vec::new();
    topo.web
        .walk_update_neighbourhood(
            update.item(),
            bits,
            |host| topo.ctl.fold(host),
            |host| membership.is_routable(host),
            |host| trail.push(host),
        )
        .then_some(trail)
}

/// Most recent update outcomes remembered for exactly-once resubmits; old
/// entries are evicted FIFO once the ledger exceeds this.
const APPLIED_OPS_CAP: usize = 1 << 16;

/// The authoritative evolving web every host shares, with the idempotence
/// ledger and the apply stage's spare webs. Taken by the apply stage for a
/// turn (which includes the structural rebuild) and by the client-side
/// membership calls — never by an actor — so its lock is off the read path.
struct EngineState<D: Routable + Send + Sync + 'static> {
    /// The same `Arc` the current snapshot holds. An apply mutates it
    /// copy-on-write under the state lock ([`recycle`](Self::recycle)):
    /// in-flight operations keep the previous web, and the copy shares
    /// every level set's structure the repair does not replace.
    web: Arc<SkipWeb<D>>,
    /// Webs that earlier applies replaced, oldest first, at most
    /// [`SPARE_WEBS`]: the copy-on-write targets the apply stage refills
    /// once no snapshot holds them any more.
    spares: VecDeque<Arc<SkipWeb<D>>>,
    /// Draws origins and level bits for the convenience
    /// [`DistributedSkipWeb::insert`] / [`DistributedSkipWeb::remove`]
    /// entry points (explicit-bits APIs bypass it).
    rng: StdRng,
    /// The logical→physical host fold plus the excluded (decommissioned /
    /// healed-around) hosts.
    placement: PlacementCtl,
    /// Outcomes of updates that reached the apply step, keyed by the
    /// logical operation's `(client, op_id)`. A timeout-resubmit whose
    /// first attempt actually landed finds its record here and is echoed
    /// instead of applied again — the exactly-once guarantee.
    applied_ops: HashMap<(ClientId, u64), bool>,
    /// FIFO eviction order for `applied_ops` (bounded memory).
    applied_order: VecDeque<(ClientId, u64)>,
}

/// Retired webs the apply stage keeps to refill. One is usually still held
/// by in-flight operations admitted under the previous snapshot; the other
/// has drained.
const SPARE_WEBS: usize = 2;

impl<D: Routable + Send + Sync + 'static> EngineState<D> {
    /// Claims the ledger slot of a logical update the first time it reaches
    /// apply, with `applied` as its outcome so far; `false` — leaving the
    /// recorded outcome alone — when the slot is taken: the op is a replay.
    fn record_outcome(&mut self, key: (ClientId, u64), applied: bool) -> bool {
        use std::collections::hash_map::Entry;
        match self.applied_ops.entry(key) {
            Entry::Vacant(slot) => {
                slot.insert(applied);
                self.applied_order.push_back(key);
                true
            }
            Entry::Occupied(_) => false,
        }
    }

    /// Evicts the oldest ledger entries past [`APPLIED_OPS_CAP`]. Run once
    /// a turn has resolved every outcome it claimed, so nothing it still
    /// has to read is evicted under it.
    fn trim_ledger(&mut self) {
        while self.applied_order.len() > APPLIED_OPS_CAP {
            if let Some(old) = self.applied_order.pop_front() {
                self.applied_ops.remove(&old);
            }
        }
    }

    /// Makes `web` the only reference to its web, so the apply that follows
    /// mutates it in place. The published snapshot holds the current web,
    /// so this swaps in a copy: a spare no snapshot holds any more, refilled
    /// in its own buffers (`clone_from`), else a fresh clone. The replaced
    /// web joins the spares; a spare that falls off the end is returned,
    /// for the caller to drop after releasing the state lock.
    fn recycle(&mut self) -> Option<Arc<SkipWeb<D>>> {
        if Arc::get_mut(&mut self.web).is_some() {
            return None;
        }
        let drained = self
            .spares
            .iter_mut()
            .position(|spare| Arc::get_mut(spare).is_some());
        let copy = match drained.and_then(|i| self.spares.remove(i)) {
            Some(mut spare) => {
                // The only reference, so `make_mut` copies nothing.
                Arc::make_mut(&mut spare).clone_from(&self.web);
                spare
            }
            None => Arc::new(SkipWeb::clone(&self.web)),
        };
        let replaced = std::mem::replace(&mut self.web, copy);
        self.spares.push_back(replaced);
        if self.spares.len() > SPARE_WEBS {
            self.spares.pop_front()
        } else {
            None
        }
    }
}

/// One update that reached the apply step, as handed to a [`Durability`]
/// sink: the logical operation identity the idempotence ledger keys on,
/// the structural change, and whether it actually changed the web.
#[derive(Debug)]
pub struct DurableOp<'a, D: Routable> {
    /// The submitting client.
    pub client: ClientId,
    /// The client-scoped operation id (resubmits reuse it).
    pub op_id: u64,
    /// The structural change. An insert carries the level bit string that
    /// shapes the item's tower — logged so recovery can rebuild the
    /// identical hierarchy
    /// ([`SkipWebBuilder::bits`](crate::skipweb::SkipWebBuilder::bits)).
    pub update: &'a Update<D::Item>,
    /// Whether the web changed (`false` for duplicate inserts, absent
    /// removes, and inadmissible items — logged anyway so replay restores
    /// the ledger entry and keeps resubmits exactly-once across a crash).
    pub applied: bool,
}

/// A write-ahead sink for the engine's apply path. [`FabricBuilder::
/// durability`](FabricBuilder::durability) installs one per deployment;
/// the fabric's apply stage then calls [`append`](Self::append) once per
/// turn **under the same state lock as the structural change**
/// ([`SkipWeb::apply`]), before the new topology snapshot publishes. Log
/// order therefore equals apply order, and no operation can be observed by
/// queries before it is logged. There is one stage per fabric and it is
/// not a host, so the log has one writer and no per-host lanes.
///
/// Only operations that reach the apply step arrive here: idempotence-
/// ledger echoes (timeout-resubmits of already-landed ops) and locus-side
/// no-op short-circuits are not re-logged. Implementations must not call
/// back into the fabric (the state lock is held).
pub trait Durability<D: Routable + Send + Sync + 'static>: Send + Sync {
    /// Appends one apply turn's operations to the log, in apply order.
    fn append(&self, ops: &[DurableOp<'_, D>]);
}

/// What one actor turn hands the apply stage: the updates whose repair
/// walks completed on its host, the locus-side no-ops to echo, the
/// membership view the turn routed under, and the handle that replies for
/// that host.
struct Handoff<D: Routable> {
    applies: Vec<EngineMsg<D>>,
    /// Updates that stopped at their locus as no-ops — a duplicate insert
    /// or an absent remove. Each is echoed the outcome the ledger holds for
    /// it (a resubmit whose first attempt landed), or `false`; an echo
    /// claims no ledger slot and is not logged.
    echoes: Vec<EngineMsg<D>>,
    membership: Arc<Membership>,
    replier: Replier<FabricMsg<D>, EngineReply<D>>,
}

/// What the apply stage's channel carries: a hand-off, or `None` to stop.
type StageMsg<D> = Option<Handoff<D>>;

struct Shared<D: Routable + Send + Sync + 'static> {
    state: Mutex<EngineState<D>>,
    /// The current topology snapshot, in its own cell so submits only pay
    /// an `Arc` clone — never a wait on an in-progress rebuild. Swapped by
    /// the apply stage *while still holding the state lock* (lock order is
    /// always `state` then `topo`), so publish order equals apply order.
    topo: Mutex<Arc<Topology<D>>>,
    /// The apply stage's inbox.
    stage: channel::Sender<StageMsg<D>>,
    /// Apply-stage turns that applied at least one update, and the updates
    /// they applied (ledger replays included, locus-side echoes not). The
    /// stage bumps `updates_applied` first and `apply_turns` second, with
    /// release ordering, and [`DistributedSkipWeb::health`] loads them in
    /// the other order, so a reading never counts a turn without its ops.
    apply_turns: AtomicU64,
    updates_applied: AtomicU64,
    /// Write-ahead sink fed by the apply path, when the deployment was
    /// built with one ([`FabricBuilder::durability`]).
    durability: Option<Arc<dyn Durability<D>>>,
    /// The wait-and-retry policy newly registered clients start with
    /// ([`FabricBuilder::timeouts`]).
    default_timeouts: Timeouts,
}

impl<D: Routable + Send + Sync + 'static> Shared<D> {
    /// The current topology snapshot (cheap: one lock + `Arc` clone).
    fn current_topo(&self) -> Arc<Topology<D>> {
        self.topo.lock().clone()
    }

    /// Publishes the current web under the current placement, additionally
    /// excluding every host the membership reports as dead or
    /// decommissioned, with a bumped snapshot version — `O(1)` in the web:
    /// the snapshot shares the state's `Arc`. The caller must hold the
    /// state lock, so publish order equals apply order.
    ///
    /// Returns the snapshot it replaced. When no in-flight message holds
    /// that snapshot any more, dropping it frees what the previous web did
    /// not share with the new one (the apply stage keeps that web as a
    /// spare instead) — so the caller drops it only after releasing the
    /// state lock, and never under `topo`, which every client submit takes.
    #[must_use = "drop the retired snapshot after releasing the state lock"]
    fn republish(&self, st: &EngineState<D>, membership: &Membership) -> Arc<Topology<D>> {
        let mut ctl = st.placement.clone();
        for h in membership.dead_hosts() {
            ctl.excluded.insert(h.0);
        }
        for h in membership.decommissioned_hosts() {
            ctl.excluded.insert(h.0);
        }
        let mut topo = self.topo.lock();
        let next = Arc::new(Topology {
            web: Arc::clone(&st.web),
            ctl,
            version: topo.version + 1,
        });
        std::mem::replace(&mut *topo, next)
    }

    /// Stops the apply stage and joins its thread. Called once the actors
    /// have been joined, so every update they handed off is applied and
    /// answered first; a hand-off after this is answered
    /// [`Unavailable`](ReplyBody::Unavailable).
    fn stop_stage(&self, stage: JoinHandle<()>) {
        let _ = self.stage.send(None);
        let _ = stage.join();
    }

    /// The apply stage's thread body: one [`apply_turn`](Self::apply_turn)
    /// per wake-up until a stop marker arrives. Its first allocation comes
    /// before `started` fires (see [`start_stage`]).
    fn run_stage(&self, inbox: &channel::Receiver<StageMsg<D>>, started: channel::Sender<()>) {
        let mut turn: Vec<Handoff<D>> = Vec::with_capacity(16);
        let _ = started.send(());
        drop(started);
        while let Ok(Some(first)) = inbox.recv() {
            turn.push(first);
            if !self.apply_turn(&mut turn, inbox) {
                break;
            }
        }
    }

    /// One turn of the apply stage, over `turn`'s hand-off and every one
    /// queued behind it by the time the state lock is taken: atomically
    /// applies every structural change they carry — inserts and removes in
    /// whatever mix, from any hosts, with **one** [`SkipWeb::apply`] (one
    /// copy-on-write into a recycled web, one structural repair) and
    /// **one** new topology snapshot — then replies per op, outside the
    /// lock, through the replier of the host that handed the op off.
    /// In-flight operations keep their old snapshots, so none of them ever
    /// observes an update half-applied. Returns `false` once a stop marker
    /// was drained.
    ///
    /// Exactly-once: each op claims its `(client, op_id)` slot in the
    /// idempotence ledger, in arrival order. A timeout-resubmit whose first
    /// attempt already landed — in an earlier turn, or earlier in this one,
    /// when a delayed original shares a turn with its resubmit — finds the
    /// slot taken and is *echoed* the recorded outcome instead of applied
    /// again; without this, a resubmitted insert could double-apply (e.g.
    /// re-insert an item a concurrent remove had since deleted). Admission
    /// ([`Routable::admissible`]) is judged against the web as the turn
    /// found it. Locus-side echoes read the ledger after the turn's claims.
    fn apply_turn(
        &self,
        turn: &mut Vec<Handoff<D>>,
        inbox: &channel::Receiver<StageMsg<D>>,
    ) -> bool {
        let mut st = self.state.lock();
        let mut running = true;
        while let Ok(next) = inbox.try_recv() {
            match next {
                Some(handoff) => turn.push(handoff),
                None => running = false,
            }
        }
        // Per op, in arrival order: the hand-off that replies for it, its
        // client, correlation id and hops — the applies, then the echoes.
        let mut replies: Vec<(usize, ClientId, u64, u32)> = Vec::new();
        let mut keys: Vec<(ClientId, u64)> = Vec::new();
        let mut updates: Vec<Update<D::Item>> = Vec::new();
        for echoes in [false, true] {
            for (h, handoff) in turn.iter_mut().enumerate() {
                let msgs = if echoes {
                    &mut handoff.echoes
                } else {
                    &mut handoff.applies
                };
                for msg in msgs.drain(..) {
                    let EngineMsg {
                        op: EngineOp::Update(u),
                        client,
                        corr,
                        hops,
                        ..
                    } = msg
                    else {
                        unreachable!("hand-offs are updates");
                    };
                    replies.push((h, client, corr, hops));
                    keys.push((client, u.op_id));
                    if !echoes {
                        updates.push(u.update);
                    }
                }
            }
        }
        let n = updates.len();
        // Ops that reach the apply step this turn (ledger replays are
        // excluded) — what a durability sink gets to log — and, of those,
        // the admissible ones `apply` gets to see.
        let mut fresh: Vec<usize> = Vec::with_capacity(n);
        let mut staged: Vec<usize> = Vec::with_capacity(n);
        for (i, update) in updates.iter().enumerate() {
            if !st.record_outcome(keys[i], false) {
                continue; // a replay: echoed below
            }
            fresh.push(i);
            if !update.is_insert() || st.web.base().admissible(update.item()) {
                staged.push(i);
            }
        }
        let mut evicted = None;
        if !staged.is_empty() {
            evicted = st.recycle();
            let batch = staged.iter().map(|&i| updates[i].clone()).collect();
            let applied = Arc::make_mut(&mut st.web).apply(batch);
            for (&i, a) in staged.iter().zip(applied) {
                st.applied_ops.insert(keys[i], a);
            }
        }
        // Every claim is resolved: fresh ops read their own outcome,
        // replays the one their first attempt recorded, echoes whatever the
        // ledger holds.
        let outcomes: Vec<bool> = keys
            .iter()
            .map(|key| st.applied_ops.get(key).copied().unwrap_or(false))
            .collect();
        st.trim_ledger();
        if let (Some(durability), false) = (&self.durability, fresh.is_empty()) {
            // Write-ahead append under the same state lock as the
            // structural change, before the snapshot publishes: log order
            // equals apply order, and nothing is observable by queries
            // before it is durable.
            let records: Vec<DurableOp<'_, D>> = fresh
                .iter()
                .map(|&i| DurableOp {
                    client: keys[i].0,
                    op_id: keys[i].1,
                    update: &updates[i],
                    applied: outcomes[i],
                })
                .collect();
            durability.append(&records);
        }
        if n > 0 {
            self.updates_applied.fetch_add(n as u64, Ordering::Release);
            self.apply_turns.fetch_add(1, Ordering::Release);
        }
        // Publish while still holding the state lock so snapshot order
        // equals apply order, under the freshest membership view the turn
        // was handed; the topo lock itself is only held for the swap.
        let retired = match turn.last() {
            Some(latest) if fresh.iter().any(|&i| outcomes[i]) => {
                Some(self.republish(&st, &latest.membership))
            }
            _ => None,
        };
        drop(st);
        for ((h, client, corr, hops), applied) in replies.into_iter().zip(outcomes) {
            turn[h].replier.reply(
                client,
                EngineReply {
                    corr,
                    hops,
                    body: ReplyBody::Updated { applied },
                },
            );
        }
        turn.clear();
        // Freed with neither lock held, and after the replies, so no writer
        // waits it out: the previous snapshot (its web stays a spare) and a
        // spare that fell off the end.
        drop((retired, evicted));
        running
    }
}

/// Per-host actor executing the generic forwarding loop of §2.5 and the
/// update repair walks of §4.
pub struct EngineActor<D: Routable + Send + Sync + 'static> {
    shared: Arc<Shared<D>>,
}

/// One handler turn: the host running it, the membership view it routes
/// under, and what it accumulates before anything leaves the host — ops to
/// forward, bucketed per `(class, destination)` so every destination gets
/// exactly one envelope (the batching layer's coalescing), and the updates
/// that end here, handed to the apply stage together.
struct Turn<D: Routable> {
    me: HostId,
    /// One membership snapshot per hop: each forward re-checks liveness,
    /// which is what lets routing steer around hosts that die mid-query.
    membership: Arc<Membership>,
    forwards: BTreeMap<(TrafficClass, HostId), Vec<EngineMsg<D>>>,
    /// Updates whose repair trail ended here.
    applies: Vec<EngineMsg<D>>,
    /// Updates that stopped at their locus as no-ops (see [`Handoff`]).
    echoes: Vec<EngineMsg<D>>,
}

impl<D: Routable> Turn<D> {
    fn forward(&mut self, host: HostId, msg: EngineMsg<D>, class: TrafficClass) {
        self.forwards.entry((class, host)).or_default().push(msg);
    }
}

impl<D: Routable + Send + Sync + 'static> EngineActor<D> {
    /// Advances one op "as far as it can internally" (§2.5) on this host.
    fn drive(
        &self,
        msg: EngineMsg<D>,
        ctx: &mut Context<'_, FabricMsg<D>, EngineReply<D>>,
        turn: &mut Turn<D>,
    ) {
        match &msg.op {
            EngineOp::Query { .. } => self.drive_query(msg, ctx, turn),
            EngineOp::Update(_) => self.drive_update(msg, ctx, turn),
            // One scattered sub-scan: the partial answer supported by this
            // host's share of the report's ranges, streamed straight back
            // to the client.
            EngineOp::Scatter { req, ranges, of } => {
                let answer = msg.topo.structure(msg.at).partial_answer(ranges, req);
                msg.reply(ctx, ReplyBody::Partial { answer, of: *of });
            }
        }
    }

    fn drive_query(
        &self,
        mut msg: EngineMsg<D>,
        ctx: &mut Context<'_, FabricMsg<D>, EngineReply<D>>,
        turn: &mut Turn<D>,
    ) {
        let EngineOp::Query { ref req, gather } = msg.op else {
            unreachable!("drive_query only sees queries");
        };
        let q = D::target(req);
        match route_step(&msg.topo, turn.me, msg.at, &q, &turn.membership) {
            RouteOutcome::AtLocus(locus) => {
                if gather && self.try_scatter(locus, &msg, ctx, turn) {
                    return;
                }
                let structure = msg.topo.structure(locus);
                let answer = structure.answer(RangeId(locus.range), req, |_| {});
                msg.reply(ctx, ReplyBody::Answer(answer));
            }
            RouteOutcome::Forward { next, host } => {
                msg.at = next;
                msg.hops += 1;
                turn.forward(host, msg, TrafficClass::Query);
            }
            RouteOutcome::Unavailable => msg.reply(ctx, ReplyBody::Unavailable),
        }
    }

    /// Splits a range report at its locus: the supporting level-0 ranges
    /// ([`Routable::report_ranges`]) are grouped by owning host; the local
    /// group's partial is answered immediately, each remote group gets one
    /// sub-scan message (one crossing per output host instead of a serial
    /// walk), and the client gathers the partials. Returns `false` — leaving
    /// the serial answer path to run — when the request is not a
    /// scatterable report or the whole output is already local.
    fn try_scatter(
        &self,
        locus: GlobalRef,
        msg: &EngineMsg<D>,
        ctx: &mut Context<'_, FabricMsg<D>, EngineReply<D>>,
        turn: &mut Turn<D>,
    ) -> bool {
        let me = turn.me;
        let EngineOp::Query { ref req, .. } = msg.op else {
            return false;
        };
        let structure = msg.topo.structure(locus);
        let Some(ranges) = structure.report_ranges(RangeId(locus.range), req) else {
            return false;
        };
        if ranges.is_empty() {
            return false;
        }
        let mut local: Vec<RangeId> = Vec::new();
        let mut remote: BTreeMap<HostId, Vec<RangeId>> = BTreeMap::new();
        for r in ranges {
            let copies = msg.topo.copies(GlobalRef {
                range: r.0,
                ..locus
            });
            match pick_alive(copies, &msg.topo.ctl, me, |h| {
                turn.membership.is_routable(h)
            }) {
                Some(h) if h == me => local.push(r),
                Some(h) => remote.entry(h).or_default().push(r),
                None => {
                    // Part of the output lost every replica: fail the whole
                    // report fast instead of returning a silently truncated
                    // answer.
                    msg.reply(ctx, ReplyBody::Unavailable);
                    return true;
                }
            }
        }
        if remote.is_empty() {
            return false;
        }
        let of = remote.len() as u32 + u32::from(!local.is_empty());
        for (host, ranges) in remote {
            turn.forward(
                host,
                EngineMsg {
                    op: EngineOp::Scatter {
                        req: req.clone(),
                        ranges,
                        of,
                    },
                    at: locus,
                    client: msg.client,
                    corr: msg.corr,
                    hops: msg.hops + 1,
                    topo: Arc::clone(&msg.topo),
                },
                TrafficClass::Query,
            );
        }
        if !local.is_empty() {
            let answer = structure.partial_answer(&local, req);
            msg.reply(ctx, ReplyBody::Partial { answer, of });
        }
        true
    }

    fn drive_update(
        &self,
        mut msg: EngineMsg<D>,
        ctx: &mut Context<'_, FabricMsg<D>, EngineReply<D>>,
        turn: &mut Turn<D>,
    ) {
        let EngineOp::Update(ref u) = msg.op else {
            unreachable!("drive_update only sees updates");
        };
        match u.phase {
            UpdatePhase::Route => {
                let q = D::item_query(u.update.item());
                match route_step(&msg.topo, turn.me, msg.at, &q, &turn.membership) {
                    RouteOutcome::Forward { next, host } => {
                        msg.at = next;
                        msg.hops += 1;
                        turn.forward(host, msg, TrafficClass::Update);
                    }
                    RouteOutcome::AtLocus(_) => {
                        // A duplicate insert (or a remove that lost its
                        // target to a concurrent update) stops at the locus,
                        // paying only the lookup — as in the simulator.
                        let present = msg.topo.web.bits_of(u.update.item()).is_some();
                        if u.update.is_insert() == present {
                            // The locus's current view can be the *result*
                            // of this very op's first attempt (applied, but
                            // its reply was lost in transit): the apply
                            // stage echoes it the idempotence ledger's
                            // outcome, so a timeout-resubmit is not
                            // misreported as a no-op.
                            turn.echoes.push(msg);
                        } else {
                            // The repair trail is computed exactly once,
                            // here at repair start, and rides in the
                            // message from now on.
                            match repair_trail(&msg.topo, &u.update, &turn.membership) {
                                Some(trail) => self.continue_repair(0, trail, msg, turn),
                                None => msg.reply(ctx, ReplyBody::Unavailable),
                            }
                        }
                    }
                    RouteOutcome::Unavailable => msg.reply(ctx, ReplyBody::Unavailable),
                }
            }
            UpdatePhase::Repair { cursor, ref trail } => {
                let trail = trail.clone();
                self.continue_repair(cursor, trail, msg, turn);
            }
        }
    }

    /// Advances the repair walk: acts for free on every consecutive trail
    /// entry in `me`'s shard — skipping entries whose host crashed after
    /// the trail was computed (their copy is stale until the snapshot swap
    /// heals it; forwarding there would black-hole the update) — then
    /// either forwards to the next alive host (one message — exactly a
    /// meter host transition, coalesced with other ops bound there) or,
    /// with the trail exhausted, queues the structural change for this
    /// turn's hand-off to the apply stage.
    fn continue_repair(
        &self,
        start: usize,
        trail: Vec<HostId>,
        mut msg: EngineMsg<D>,
        turn: &mut Turn<D>,
    ) {
        let stays = |h: HostId| h == turn.me || !turn.membership.is_routable(h);
        let cursor = (start..trail.len())
            .find(|&i| !stays(trail[i]))
            .unwrap_or(trail.len());
        if cursor < trail.len() {
            let host = trail[cursor];
            let EngineOp::Update(ref mut u) = msg.op else {
                unreachable!("repairs are updates");
            };
            u.phase = UpdatePhase::Repair { cursor, trail };
            msg.hops += 1;
            turn.forward(host, msg, TrafficClass::Update);
        } else {
            turn.applies.push(msg);
        }
    }
}

impl<D: Routable + Send + Sync + 'static> Actor for EngineActor<D> {
    type Msg = FabricMsg<D>;
    type Reply = EngineReply<D>;

    fn on_message(
        &mut self,
        _from: Sender,
        msg: FabricMsg<D>,
        ctx: &mut Context<'_, FabricMsg<D>, EngineReply<D>>,
    ) {
        let mut turn = Turn {
            me: ctx.host(),
            membership: ctx.membership(),
            forwards: BTreeMap::new(),
            applies: Vec::new(),
            echoes: Vec::new(),
        };
        match msg {
            FabricMsg::One(m) => self.drive(m, ctx, &mut turn),
            FabricMsg::Batch(batch) => {
                // Every op advances "as far as it can internally" here, then
                // re-coalesces with the others by next destination below.
                for m in batch.ops {
                    self.drive(m, ctx, &mut turn);
                }
            }
        }
        for ((class, host), msgs) in turn.forwards {
            let ops = msgs.len() as u32;
            match envelope(msgs) {
                one @ FabricMsg::One(_) => ctx.send_class(host, one, class),
                batch => ctx.send_multi(host, batch, class, ops),
            }
        }
        if turn.applies.is_empty() && turn.echoes.is_empty() {
            return;
        }
        // The updates that end here go to the apply stage, and this host
        // back to its mailbox: nothing it serves waits out their apply.
        let handoff = Handoff {
            applies: turn.applies,
            echoes: turn.echoes,
            membership: turn.membership,
            replier: ctx.replier(),
        };
        if let Err(channel::SendError(Some(handoff))) = self.shared.stage.send(Some(handoff)) {
            // The stage has stopped: nothing will apply these, so fail them
            // fast instead of leaving their clients to time out.
            for msg in handoff.applies.iter().chain(&handoff.echoes) {
                msg.reply(ctx, ReplyBody::Unavailable);
            }
        }
    }
}

/// A client handle supporting many concurrent in-flight operations, matched
/// to replies by correlation id. Shareable across threads (`Sync`); replies
/// pulled by one thread for another's correlation id are parked in a shared
/// buffer.
///
/// The blocking entry points ([`DistributedSkipWeb::query`],
/// [`DistributedSkipWeb::insert`], …) wait and retry per this client's
/// [`Timeouts`] policy (defaults: 10 s queries / 30 s updates),
/// configurable per client with [`set_timeouts`](Self::set_timeouts) or
/// for a whole deployment with [`FabricBuilder::timeouts`] — stress and
/// fault-injection suites shorten the waits so a lost operation surfaces
/// quickly.
pub struct EngineClient<D: Routable + Send + Sync + 'static> {
    inner: Client<FabricMsg<D>, EngineReply<D>>,
    next_corr: AtomicU64,
    pending: Mutex<Vec<EngineReply<D>>>,
    /// Correlation ids abandoned by a timeout-resubmit. Their late replies
    /// — already-parked ones *and* every later arrival, of which a
    /// scatter-gather op can produce several — are dropped and counted in
    /// [`HostTraffic::stale_replies`], so `recv_any` can never hand a stale
    /// reply to a later operation and nothing accumulates in the mailbox
    /// forever. Bounded: the oldest markers are pruned past
    /// [`STALE_MARKER_CAP`] (correlation ids are monotone, so the smallest
    /// entries are the oldest).
    stale: Mutex<std::collections::BTreeSet<u64>>,
    /// This client's wait-and-retry policy. Operations already blocking
    /// keep the policy they started with.
    timeouts: Mutex<Timeouts>,
}

/// Most abandoned correlation ids remembered per client (see
/// [`EngineClient`]'s stale tracking).
const STALE_MARKER_CAP: usize = 1024;

/// Default blocking-query timeout (10 s).
pub const DEFAULT_QUERY_TIMEOUT: Duration = Duration::from_secs(10);
/// Default blocking-update timeout (30 s).
pub const DEFAULT_UPDATE_TIMEOUT: Duration = Duration::from_secs(30);

/// The complete wait-and-retry policy of a blocking client call, settable
/// per client ([`EngineClient::set_timeouts`]) or for every client of a
/// deployment ([`FabricBuilder::timeouts`]). Consolidates what used to be
/// two setter methods plus a hardcoded lossy-transport resubmit constant:
/// the resubmit widening is now configuration, not a branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timeouts {
    /// Blocking-query wait per attempt (default 10 s).
    pub query: Duration,
    /// Blocking-update wait per attempt (default 30 s).
    pub update: Duration,
    /// Timeout-resubmit budget on a lossless transport, where a timeout
    /// signals an operation lost in a crashed host's mailbox — one retry
    /// after the crash suffices (default 1). Resubmits only fire while a
    /// host is dead.
    pub resubmits: usize,
    /// Timeout-resubmit budget on a lossy transport, where *any* hop can
    /// silently drop the operation even with every host alive, so the gate
    /// widens: retry on every timeout. An operation survives a crossing
    /// with probability `(1 - loss)^2` (message plus its share of the
    /// reply), so at 5% loss an attempt over ~7 crossings fails with
    /// probability ≈ 0.26 — the default twelve attempts push the residual
    /// failure rate below `10^-6`, far under what any test run can observe.
    pub lossy_resubmits: usize,
}

impl Timeouts {
    /// The defaults: 10 s queries, 30 s updates, 1 lossless / 12 lossy
    /// resubmits.
    pub const DEFAULT: Timeouts = Timeouts {
        query: DEFAULT_QUERY_TIMEOUT,
        update: DEFAULT_UPDATE_TIMEOUT,
        resubmits: 1,
        lossy_resubmits: 12,
    };

    /// Default resubmit budgets with explicit query and update waits.
    pub fn new(query: Duration, update: Duration) -> Self {
        Timeouts {
            query,
            update,
            ..Self::DEFAULT
        }
    }

    /// One wait for both queries and updates — the stress-suite shape,
    /// where short timeouts surface lost operations quickly.
    pub fn uniform(timeout: Duration) -> Self {
        Self::new(timeout, timeout)
    }
}

impl Default for Timeouts {
    fn default() -> Self {
        Self::DEFAULT
    }
}

impl<D: Routable + Send + Sync + 'static> EngineClient<D> {
    /// This client's runtime identifier.
    pub fn id(&self) -> ClientId {
        self.inner.id()
    }

    /// Raises this client's next operation id to at least `floor`.
    ///
    /// A freshly spawned runtime hands out the same client ids as the one
    /// before it, so a deployment cold-started from a durability log
    /// ([`DistributedSkipWeb::restore`]) would mint `(client, op id)`
    /// pairs already present in the recovered idempotence ledger — and the
    /// ledger would echo the old outcome instead of applying the new
    /// operation. Recovery layers call this with one past the highest
    /// logged op id to keep the two incarnations' identities disjoint.
    pub fn advance_corr(&self, floor: u64) {
        self.next_corr.fetch_max(floor, Ordering::Relaxed);
    }

    /// The next unused correlation id: uniqueness only, nothing
    /// synchronizes on the value.
    fn alloc_corr(&self) -> u64 {
        self.next_corr.fetch_add(1, Ordering::Relaxed)
    }

    /// Replaces this client's wait-and-retry policy. Operations already
    /// blocking keep the policy they started with.
    pub fn set_timeouts(&self, timeouts: Timeouts) {
        *self.timeouts.lock() = timeouts;
    }

    /// The current wait-and-retry policy.
    pub fn timeouts(&self) -> Timeouts {
        *self.timeouts.lock()
    }

    /// Abandons `corr`: already-parked replies are dropped now, and every
    /// late reply is discarded on arrival instead of accumulating in the
    /// pending buffer — each drop counted in
    /// [`HostTraffic::stale_replies`]. Used when an operation is
    /// resubmitted after a timeout. The marker persists (a scattered report
    /// can produce several late partials), bounded by
    /// [`STALE_MARKER_CAP`].
    fn mark_stale(&self, corr: u64) {
        {
            let mut pending = self.pending.lock();
            let before = pending.len();
            pending.retain(|r| r.corr != corr);
            for _ in pending.len()..before {
                self.inner.note_stale_reply();
            }
        }
        let mut stale = self.stale.lock();
        stale.insert(corr);
        while stale.len() > STALE_MARKER_CAP {
            stale.pop_first();
        }
    }

    /// Whether `corr` was abandoned by a timeout-resubmit.
    fn is_stale(&self, corr: u64) -> bool {
        self.stale.lock().contains(&corr)
    }

    /// Receives the next reply for *any* of this client's in-flight
    /// operations (buffered ones first), waiting up to `timeout`.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors ([`RuntimeError::Timeout`], host down or
    /// panicked, disconnect).
    pub fn recv_any(&self, timeout: Duration) -> Result<EngineReply<D>, RuntimeError> {
        self.recv_where(|_| true, timeout)
    }

    /// Receives the reply for the operation submitted with correlation id
    /// `corr`, waiting up to `timeout` and parking replies to other
    /// correlation ids for later [`recv_any`](Self::recv_any) /
    /// `recv_corr` calls.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors ([`RuntimeError::Timeout`], host down or
    /// panicked, disconnect).
    pub fn recv_corr(&self, corr: u64, timeout: Duration) -> Result<EngineReply<D>, RuntimeError> {
        self.recv_where(|id| id == corr, timeout)
    }

    /// The first reply whose correlation id `wanted` accepts: a parked one,
    /// else the next to arrive within `timeout` — parking the others, and
    /// dropping (and counting) late replies to abandoned ids.
    fn recv_where(
        &self,
        wanted: impl Fn(u64) -> bool,
        timeout: Duration,
    ) -> Result<EngineReply<D>, RuntimeError> {
        let deadline = Instant::now() + timeout;
        loop {
            {
                let mut pending = self.pending.lock();
                if let Some(i) = pending.iter().position(|r| wanted(r.corr)) {
                    return Ok(pending.remove(i));
                }
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RuntimeError::Timeout);
            }
            // Short slices so concurrent users of a shared client notice
            // replies another thread drained from the channel and parked
            // for them.
            let slice = (deadline - now).min(Duration::from_millis(25));
            match self.inner.recv_timeout(slice) {
                Ok(reply) if self.is_stale(reply.corr) => self.inner.note_stale_reply(),
                Ok(reply) if wanted(reply.corr) => return Ok(reply),
                Ok(reply) => self.pending.lock().push(reply),
                Err(RuntimeError::Timeout) => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// A client-side operation between admission and its final reply: what was
/// asked, where it enters the web, and the correlation id of its current
/// attempt.
struct InFlight<D: Routable> {
    origin: usize,
    op: EngineOp<D>,
    corr: u64,
}

impl<D: Routable + Send + Sync + 'static> InFlight<D> {
    /// A new logical operation of `client`. An update is tagged with its
    /// first correlation id as its op id, which every resubmit keeps.
    fn new(client: &EngineClient<D>, origin: usize, mut op: EngineOp<D>) -> Self {
        let corr = client.alloc_corr();
        if let EngineOp::Update(u) = &mut op {
            u.op_id = corr;
        }
        InFlight { origin, op, corr }
    }
}

/// A query as a client admits it.
fn query_op<D: Routable>(req: D::Request, gather: bool) -> EngineOp<D> {
    EngineOp::Query { req, gather }
}

/// An update as a client admits it; planning sets the phase it enters in
/// and [`InFlight::new`] its op id.
fn update_op<D: Routable>(update: Update<D::Item>) -> EngineOp<D> {
    EngineOp::Update(UpdateOp {
        update,
        phase: UpdatePhase::Route,
        op_id: 0,
    })
}

/// A running distributed skip-web over structure `D`: one actor thread per
/// (physical) host, executing the forwarding protocol of §2.5 — and the
/// update repairs of §4 — under real concurrent message passing.
pub struct DistributedSkipWeb<D: Routable + Send + Sync + 'static> {
    runtime: Runtime<EngineActor<D>>,
    shared: Arc<Shared<D>>,
    /// The apply stage's thread: started before the actors, stopped and
    /// joined after them.
    stage: JoinHandle<()>,
    /// Present on TCP deployments: the socket transport, kept for the
    /// driver's shutdown broadcast and the workers' teardown wait.
    tcp: Option<Arc<TcpTransport<FabricMsg<D>, EngineReply<D>>>>,
}

/// The one way to stand up a fabric: four deployment-time choices — thread
/// count ([`consolidated`](Self::consolidated)), transport
/// ([`wan`](Self::wan), or [`spawn_tcp`](Self::spawn_tcp) instead of
/// [`spawn`](Self::spawn)), client timeout policy
/// ([`timeouts`](Self::timeouts)) and a write-ahead sink
/// ([`durability`](Self::durability)) — then [`spawn`](Self::spawn)s the
/// actor threads. Placement, replication included, is a property of the
/// web ([`SkipWebBuilder::replicate`](crate::skipweb::SkipWebBuilder::replicate));
/// state recovered from a log is installed into a running fabric with
/// [`DistributedSkipWeb::restore`].
///
/// ```
/// use skipweb_core::engine::DistributedSkipWeb;
/// use skipweb_core::onedim::OneDimSkipWeb;
///
/// let web = OneDimSkipWeb::builder((0..64).map(|i| i * 10).collect()).build();
/// let dist = DistributedSkipWeb::builder(web.inner())
///     .consolidated(8)
///     .spawn();
/// let client = dist.client();
/// assert_eq!(dist.query(&client, 0, 137).unwrap().answer, Some(140));
/// dist.shutdown();
/// ```
pub struct FabricBuilder<'w, D: Routable + Send + Sync + 'static> {
    web: &'w SkipWeb<D>,
    /// Actor thread count; `None` is one thread per host of the web.
    threads: Option<usize>,
    /// `None` is the in-process channel transport.
    transport: Option<Arc<dyn Transport<FabricMsg<D>, EngineReply<D>>>>,
    timeouts: Timeouts,
    durability: Option<Arc<dyn Durability<D>>>,
}

impl<'w, D: Routable + Send + Sync + 'static> FabricBuilder<'w, D> {
    /// Starts a deployment of `web` with the defaults: one actor thread
    /// per host, the in-process channel transport, default [`Timeouts`],
    /// no durability.
    pub fn new(web: &'w SkipWeb<D>) -> Self {
        FabricBuilder {
            web,
            threads: None,
            transport: None,
            timeouts: Timeouts::DEFAULT,
            durability: None,
        }
    }

    /// Spawns exactly `hosts` physical actor threads and folds the web's
    /// logical hosts onto them (`logical % hosts`), so the same structure
    /// can be served — and its throughput measured — at any deployment
    /// size. Operations between ranges folded onto the same physical host
    /// become free, exactly like any other co-location. `hosts` may exceed
    /// the web's host count, leaving headroom for live inserts: while the
    /// logical hosts fit, the fold is the identity, so owner-hosted hop
    /// counts keep matching the cost-model simulator as the web grows. The
    /// apply stage's thread comes on top: it is not a host.
    ///
    /// # Panics
    ///
    /// Panics if `hosts` is zero.
    pub fn consolidated(mut self, hosts: usize) -> Self {
        assert!(hosts > 0, "a network needs at least one host");
        self.threads = Some(hosts);
        self
    }

    /// Serves over a [`SimWanTransport`] with fault model `cfg`. Under
    /// loss, the blocking entry points leak no failures: timeouts trigger
    /// exactly-once resubmits until the operation lands (see the module
    /// docs on the idempotence ledger).
    ///
    /// # Panics
    ///
    /// Panics if the loss probability is outside `[0, 1]`.
    pub fn wan(mut self, cfg: SimWanConfig) -> Self {
        self.transport = Some(Arc::new(SimWanTransport::new(cfg)));
        self
    }

    /// The wait-and-retry policy every client of this deployment starts
    /// with (individually overridable via
    /// [`EngineClient::set_timeouts`]).
    pub fn timeouts(mut self, timeouts: Timeouts) -> Self {
        self.timeouts = timeouts;
        self
    }

    /// Installs a write-ahead sink on the apply path: the apply stage hands
    /// `durability` every update that reaches the apply step, under the
    /// same state lock as the structural change (see [`Durability`]).
    pub fn durability(mut self, durability: Arc<dyn Durability<D>>) -> Self {
        self.durability = Some(durability);
        self
    }

    /// Engine state and first snapshot start as the same `Arc`: one clone
    /// of the caller's web, sharing its level sets' structures. Returns the
    /// apply stage's inbox too, for [`start_stage`].
    fn build_shared(&self, threads: usize) -> (Arc<Shared<D>>, channel::Receiver<StageMsg<D>>) {
        let placement = PlacementCtl::new(threads);
        let web = Arc::new(self.web.clone());
        let topo = Arc::new(Topology {
            web: Arc::clone(&web),
            ctl: placement.clone(),
            version: 0,
        });
        let (stage, inbox) = channel::unbounded();
        let shared = Arc::new(Shared {
            state: Mutex::new(EngineState {
                web,
                spares: VecDeque::with_capacity(SPARE_WEBS + 1),
                rng: StdRng::seed_from_u64(0x736b_6970_7765_6221),
                placement,
                applied_ops: HashMap::new(),
                applied_order: VecDeque::new(),
            }),
            topo: Mutex::new(topo),
            stage,
            apply_turns: AtomicU64::new(0),
            updates_applied: AtomicU64::new(0),
            durability: self.durability.clone(),
            default_timeouts: self.timeouts,
        });
        (shared, inbox)
    }

    /// Starts the apply stage, spawns the actor threads, and starts
    /// serving.
    pub fn spawn(self) -> DistributedSkipWeb<D> {
        let threads = self.threads.unwrap_or(self.web.hosts().max(1));
        let (shared, inbox) = self.build_shared(threads);
        let stage = start_stage(&shared, inbox);
        let runtime = match self.transport {
            Some(transport) => {
                Runtime::spawn_with_transport(threads, transport, |_h| EngineActor {
                    shared: Arc::clone(&shared),
                })
            }
            None => Runtime::spawn(threads, |_h| EngineActor {
                shared: Arc::clone(&shared),
            }),
        };
        DistributedSkipWeb {
            runtime,
            shared,
            stage,
            tcp: None,
        }
    }
}

/// Starts the apply stage, and returns once it has made its first
/// allocation — which must come before any actor thread exists. glibc's
/// allocator hands each thread an arena at its first allocation, reusing
/// the arenas of exited threads from a LIFO free list, so the order of
/// first allocations decides who gets which arena. A stage started after
/// the actors swapped arenas with one of them on every fabric a process
/// stood up in turn; the allocation-heavy stage and a busy actor then
/// shared one, and a second ≈ 10 MiB arena appeared (`perf`'s
/// `onedim_churn` peak RSS read 26–45 MiB instead of ≈ 20 MiB).
fn start_stage<D: Routable + Send + Sync + 'static>(
    shared: &Arc<Shared<D>>,
    inbox: channel::Receiver<StageMsg<D>>,
) -> JoinHandle<()> {
    let (started, first_allocation) = channel::unbounded();
    let stage = Arc::clone(shared);
    let handle = std::thread::spawn(move || stage.run_stage(&inbox, started));
    let _ = first_allocation.recv();
    handle
}

impl<'w, D: crate::wire::WireCodec + Send + Sync + 'static> FabricBuilder<'w, D> {
    /// Serves this process's share of the web over loopback (or any) TCP:
    /// one OS process per endpoint of `cfg`, each running actor threads
    /// only for the hosts `cfg.owners` assigns it, with every cross-process
    /// message serialized through [`WireCodec`](crate::wire::WireCodec)
    /// and framed by [`skipweb_net::wire`].
    ///
    /// Every process must be started from the **same** ground set and build
    /// seed: skip-webs are range-determined (§2.1), so each process
    /// rebuilds an identical topology locally and the wire carries only
    /// operation envelopes, never structure. Because each process also
    /// holds its own engine state, TCP deployments serve **query**
    /// workloads; updates require a single-process transport (channel or
    /// WAN), where state is shared.
    ///
    /// The process owning `cfg.reply_endpoint` is the *driver*: it creates
    /// the clients and eventually calls
    /// [`shutdown`](DistributedSkipWeb::shutdown) (which broadcasts the
    /// teardown). Every other process is a *worker* and parks in
    /// [`DistributedSkipWeb::serve_until_peer_shutdown`].
    ///
    /// The thread count comes from `cfg.owners` (one actor thread per
    /// locally-owned host), so [`consolidated`](Self::consolidated) does
    /// not apply, and a [`wan`](Self::wan) choice is replaced by the TCP
    /// transport. Timeouts and durability are honored.
    ///
    /// # Errors
    ///
    /// Fails if this process's endpoint cannot be bound.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.owners` does not assign this process a contiguous
    /// (possibly empty) host range, or the config indexes are out of range.
    pub fn spawn_tcp(self, cfg: TcpConfig) -> std::io::Result<DistributedSkipWeb<D>> {
        let threads = cfg.owners.len().max(1);
        let (shared, inbox) = self.build_shared(threads);
        let codec = {
            let enc_shared = Arc::clone(&shared);
            TcpCodec {
                encode_msg: Box::new(|m: &FabricMsg<D>| crate::wire::encode_fabric_msg(m)),
                decode_msg: Box::new(move |b: &[u8]| {
                    crate::wire::decode_fabric_msg(b, &enc_shared.current_topo())
                }),
                encode_reply: Box::new(|r: &EngineReply<D>| crate::wire::encode_reply(r)),
                decode_reply: Box::new(|b: &[u8]| crate::wire::decode_reply(b)),
            }
        };
        let tcp = Arc::new(TcpTransport::new(cfg.clone(), codec)?);
        let local = cfg.local_hosts();
        let range = match (local.first(), local.last()) {
            (Some(&first), Some(&last)) => {
                assert!(
                    local == (first..=last).collect::<Vec<_>>(),
                    "each endpoint must own a contiguous host range"
                );
                first..last + 1
            }
            _ => 0..0,
        };
        let transport: Arc<dyn Transport<FabricMsg<D>, EngineReply<D>>> = tcp.clone();
        let stage = start_stage(&shared, inbox);
        let runtime = Runtime::spawn_partitioned(threads, range, transport, |_h| EngineActor {
            shared: Arc::clone(&shared),
        });
        Ok(DistributedSkipWeb {
            runtime,
            shared,
            stage,
            tcp: Some(tcp),
        })
    }
}

impl<D: Routable + Send + Sync + 'static> DistributedSkipWeb<D> {
    /// Starts configuring a deployment of `web` — the one entry point for
    /// standing up a fabric (see [`FabricBuilder`]).
    pub fn builder(web: &SkipWeb<D>) -> FabricBuilder<'_, D> {
        FabricBuilder::new(web)
    }

    /// Registers a client, starting from the deployment's default
    /// [`Timeouts`] policy.
    pub fn client(&self) -> EngineClient<D> {
        EngineClient {
            inner: self.runtime.client(),
            next_corr: AtomicU64::new(0),
            pending: Mutex::new(Vec::new()),
            stale: Mutex::new(std::collections::BTreeSet::new()),
            timeouts: Mutex::new(self.shared.default_timeouts),
        }
    }

    /// Injects `req` at `origin_item`'s root host without waiting, returning
    /// the correlation id to pass to [`EngineClient::recv_corr`]. Any number
    /// of operations may be in flight per client. When the origin's home
    /// host is dead, the request enters at the nearest alive replica of the
    /// origin range instead.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors (host down or panicked), and
    /// [`RuntimeError::Unavailable`] when every replica of the origin range
    /// has crashed.
    ///
    /// # Panics
    ///
    /// Panics if `origin_item` is out of bounds (e.g. on an empty web).
    pub fn submit(
        &self,
        client: &EngineClient<D>,
        origin_item: usize,
        req: D::Request,
    ) -> Result<u64, RuntimeError> {
        self.submit_op(client, origin_item, query_op(req, false))
    }

    /// Submits an insert with an explicit level bit string without waiting,
    /// returning its correlation id. Driving the simulator's
    /// [`SkipWeb::insert_with`] with the same `(origin, bits)` yields the
    /// same structure and — for owner-hosted placement within capacity —
    /// the same message count.
    ///
    /// `origin` names the ground item whose root the lookup phase starts
    /// from; it is ignored when the web is empty (there is nothing to look
    /// up, matching the simulator).
    ///
    /// # Errors
    ///
    /// Propagates runtime errors (host down or panicked).
    ///
    /// # Panics
    ///
    /// Panics if `origin` is out of bounds on a non-empty web.
    pub fn submit_insert(
        &self,
        client: &EngineClient<D>,
        origin: usize,
        item: D::Item,
        bits: u64,
    ) -> Result<u64, RuntimeError> {
        self.submit_op(client, origin, update_op(Update::Insert { item, bits }))
    }

    /// Submits a remove without waiting, returning its correlation id. The
    /// counterpart of [`SkipWeb::remove_with`]: `origin` is ignored when
    /// the simulator would skip the lookup (item absent from the snapshot,
    /// or a single-item web).
    ///
    /// # Errors
    ///
    /// Propagates runtime errors (host down or panicked).
    ///
    /// # Panics
    ///
    /// Panics if `origin` is out of bounds when the lookup phase runs.
    pub fn submit_remove(
        &self,
        client: &EngineClient<D>,
        origin: usize,
        item: D::Item,
    ) -> Result<u64, RuntimeError> {
        self.submit_op(client, origin, update_op(Update::Remove { item }))
    }

    /// Admits one new operation under the current snapshot without waiting.
    fn submit_op(
        &self,
        client: &EngineClient<D>,
        origin: usize,
        op: EngineOp<D>,
    ) -> Result<u64, RuntimeError> {
        let topo = self.shared.current_topo();
        let flight = InFlight::new(client, origin, op);
        self.admit(client, &topo, std::slice::from_ref(&flight))?;
        Ok(flight.corr)
    }

    /// Resolves `origin_item`'s entry host under `topo`, failing over to an
    /// alive replica of the origin range when the home host is dead.
    fn entry_point(
        &self,
        topo: &Topology<D>,
        origin_item: usize,
    ) -> Result<(HostId, GlobalRef), RuntimeError> {
        assert!(origin_item < topo.web.len(), "origin item out of bounds");
        let (at, copies) = topo.origin(origin_item);
        let membership = self.runtime.membership();
        copies
            .map(|h| topo.ctl.fold(h))
            .find(|&h| membership.is_routable(h))
            .map(|h| (h, at))
            .ok_or(RuntimeError::Unavailable)
    }

    /// Resolves where an update enters the fabric under `topo`: the origin's
    /// root for the lookup phase, or the head of the repair trail when the
    /// simulator's lookup rule skips the lookup (empty web, absent remove,
    /// single-item web).
    fn plan_update(
        &self,
        topo: &Topology<D>,
        origin: usize,
        update: &Update<D::Item>,
    ) -> Result<(HostId, GlobalRef, UpdatePhase), RuntimeError> {
        // Mirror the simulator's lookup rule: inserts route on a non-empty
        // web; removes route when the item is present and not the last one.
        let routes = match update {
            Update::Insert { .. } => !topo.web.is_empty(),
            Update::Remove { item } => topo.web.len() > 1 && topo.web.bits_of(item).is_some(),
        };
        if routes {
            let (host, at) = self.entry_point(topo, origin)?;
            Ok((host, at, UpdatePhase::Route))
        } else {
            // No lookup phase: enter the repair trail directly. The client
            // injection is free (as is the meter's first visit), so hops
            // still equal the simulator's messages.
            let membership = self.runtime.membership();
            let trail = repair_trail(topo, update, &membership).ok_or(RuntimeError::Unavailable)?;
            let host = match trail.first().copied() {
                Some(h) => h,
                // Empty trail (e.g. an absent remove): any alive host can
                // complete the no-op.
                None => membership
                    .alive_hosts()
                    .into_iter()
                    .next()
                    .ok_or(RuntimeError::Unavailable)?,
            };
            let at = GlobalRef {
                level: 0,
                set: 0,
                range: 0,
            };
            Ok((host, at, UpdatePhase::Repair { cursor: 0, trail }))
        }
    }

    /// Plans one attempt of `flight` under `topo`: the host it enters at —
    /// failing over around dead hosts — and the message to hand that host.
    fn plan(
        &self,
        client: &EngineClient<D>,
        topo: &Arc<Topology<D>>,
        flight: &InFlight<D>,
    ) -> Result<(HostId, EngineMsg<D>), RuntimeError> {
        let mut op = flight.op.clone();
        let (host, at) = match &mut op {
            EngineOp::Update(u) => {
                let (host, at, phase) = self.plan_update(topo, flight.origin, &u.update)?;
                u.phase = phase;
                (host, at)
            }
            _ => self.entry_point(topo, flight.origin)?,
        };
        let msg = EngineMsg {
            op,
            at,
            client: client.id(),
            corr: flight.corr,
            hops: 0,
            topo: Arc::clone(topo),
        };
        Ok((host, msg))
    }

    /// Delivers one operation on its own. A host can die between the
    /// membership check and the send (which consumes the message); the
    /// failed send proves the fresh membership now reports it dead, so
    /// re-planning converges on a replica (or on `Unavailable`).
    fn send_one(
        &self,
        client: &EngineClient<D>,
        topo: &Arc<Topology<D>>,
        flight: &InFlight<D>,
    ) -> Result<(), RuntimeError> {
        for _ in 0..4 {
            let (host, msg) = self.plan(client, topo, flight)?;
            match client.inner.send(host, FabricMsg::One(msg)) {
                Ok(()) => return Ok(()),
                Err(RuntimeError::HostPanicked(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Err(RuntimeError::Unavailable)
    }

    /// The one admission path, for queries and updates, one op or many:
    /// plans every op under the shared snapshot and buckets them by entry
    /// host so each host receives **one** envelope — the fabric keeps
    /// coalescing them per destination at every later hop. When an
    /// envelope's host died between planning and send, taking the envelope
    /// with it, each of its ops is re-planned against the fresh membership
    /// and delivered on its own, instead of leaving the whole group to
    /// crawl through per-op timeout resubmits.
    ///
    /// On failure some ops may already be in flight: every correlation id
    /// of the failed call is abandoned, so their replies are dropped on
    /// arrival instead of parked.
    fn admit(
        &self,
        client: &EngineClient<D>,
        topo: &Arc<Topology<D>>,
        flights: &[InFlight<D>],
    ) -> Result<(), RuntimeError> {
        let sent = (|| {
            if let [only] = flights {
                return self.send_one(client, topo, only);
            }
            let mut groups = BTreeMap::new();
            for flight in flights {
                let (host, msg) = self.plan(client, topo, flight)?;
                let (group, msgs): &mut (Vec<_>, Vec<_>) = groups.entry(host).or_default();
                group.push(flight);
                msgs.push(msg);
            }
            for (host, (group, msgs)) in groups {
                match client.inner.send(host, envelope(msgs)) {
                    Ok(()) => {}
                    Err(RuntimeError::HostPanicked(_)) => {
                        for flight in group {
                            self.send_one(client, topo, flight)?;
                        }
                    }
                    Err(e) => return Err(e),
                }
            }
            Ok(())
        })();
        if sent.is_err() {
            for flight in flights {
                client.mark_stale(flight.corr);
            }
        }
        sent
    }

    /// Waits for one operation's outcome — the one wait loop, for queries
    /// and updates: gathers scatter partials when the locus split a report,
    /// and resubmits on a timeout per the client's [`Timeouts`] policy.
    /// Returns the final reply: an [`Answer`](ReplyBody::Answer) (merged,
    /// for a scattered report) or an [`Updated`](ReplyBody::Updated), under
    /// the correlation id of the attempt that produced it.
    ///
    /// A timeout normally signals an operation lost in a crashed host's
    /// mailbox, so the small lossless budget (default 1, spent only while a
    /// host is dead) suffices. On a lossy transport *any* hop can silently
    /// drop the operation even with every host alive, so the wider lossy
    /// budget applies: retry on every timeout (see
    /// [`Timeouts::lossy_resubmits`] for the residual-failure math).
    ///
    /// Retries are always safe. Queries are idempotent. A resubmitted
    /// update keeps its op id, and the apply path's idempotence ledger,
    /// keyed on `(client, op_id)`, makes it exactly-once: if the first
    /// attempt actually landed, the resubmit is echoed its recorded outcome
    /// instead of applying again. The abandoned correlation id's late
    /// replies are dropped and counted.
    fn collect(
        &self,
        client: &EngineClient<D>,
        flight: &InFlight<D>,
    ) -> Result<EngineReply<D>, RuntimeError> {
        let policy = client.timeouts();
        let timeout = match flight.op {
            EngineOp::Update(_) => policy.update,
            _ => policy.query,
        };
        let lossy = self.runtime.transport_lossy();
        let max_resubmits = if lossy {
            policy.lossy_resubmits
        } else {
            policy.resubmits
        };
        let mut corr = flight.corr;
        let mut resubmits = 0usize;
        let mut parts: Vec<D::Answer> = Vec::new();
        let mut hops_max = 0u32;
        loop {
            match client.recv_corr(corr, timeout) {
                Ok(reply) => match reply.body {
                    ReplyBody::Answer(_) | ReplyBody::Updated { .. } => return Ok(reply),
                    ReplyBody::Partial { answer, of } => {
                        hops_max = hops_max.max(reply.hops);
                        parts.push(answer);
                        if parts.len() as u32 >= of {
                            return Ok(EngineReply {
                                corr,
                                hops: hops_max,
                                body: ReplyBody::Answer(D::merge_answers(parts)),
                            });
                        }
                    }
                    ReplyBody::Unavailable => {
                        // Stragglers of a partially-delivered report are
                        // dropped on arrival, not parked.
                        client.mark_stale(corr);
                        return Err(RuntimeError::Unavailable);
                    }
                },
                Err(RuntimeError::Timeout)
                    if resubmits < max_resubmits
                        && (lossy || self.runtime.membership().first_dead().is_some()) =>
                {
                    resubmits += 1;
                    // The attempt is abandoned: if it was merely slow (not
                    // lost), its late replies are discarded rather than
                    // parked in the pending buffer forever.
                    client.mark_stale(corr);
                    parts.clear();
                    hops_max = 0;
                    let topo = self.shared.current_topo();
                    let retry = InFlight {
                        // The snapshot may have shrunk since the origin was
                        // chosen; clamp it — the origin only seeds the
                        // descent, any valid item works.
                        origin: flight.origin.min(topo.web.len().saturating_sub(1)),
                        op: flight.op.clone(),
                        corr: client.alloc_corr(),
                    };
                    self.admit(client, &topo, std::slice::from_ref(&retry))?;
                    corr = retry.corr;
                }
                Err(e) => {
                    client.mark_stale(corr);
                    return Err(e);
                }
            }
        }
    }

    /// Runs one new operation end to end under `topo`: admits it, then
    /// waits for its outcome.
    fn run(
        &self,
        client: &EngineClient<D>,
        topo: &Arc<Topology<D>>,
        origin: usize,
        op: EngineOp<D>,
    ) -> Result<EngineReply<D>, RuntimeError> {
        let flight = InFlight::new(client, origin, op);
        self.admit(client, topo, std::slice::from_ref(&flight))?;
        self.collect(client, &flight)
    }

    /// Runs a batch of new operations end to end under one snapshot,
    /// returning the final replies in submission order. The first failing
    /// op aborts the collection, abandoning the remaining in-flight ops:
    /// their replies must not sit in the pending buffer where a later recv
    /// would misread them.
    fn run_batch(
        &self,
        client: &EngineClient<D>,
        ops: impl Iterator<Item = (usize, EngineOp<D>)>,
    ) -> Result<Vec<EngineReply<D>>, RuntimeError> {
        let flights: Vec<InFlight<D>> = ops
            .map(|(origin, op)| InFlight::new(client, origin, op))
            .collect();
        self.admit(client, &self.shared.current_topo(), &flights)?;
        let mut replies = Vec::with_capacity(flights.len());
        for (i, flight) in flights.iter().enumerate() {
            match self.collect(client, flight) {
                Ok(reply) => replies.push(reply),
                Err(e) => {
                    for stale in &flights[i + 1..] {
                        client.mark_stale(stale.corr);
                    }
                    return Err(e);
                }
            }
        }
        Ok(replies)
    }

    /// Runs one query end to end, blocking up to the client's query timeout
    /// (default 10 s, see [`EngineClient::set_timeouts`]) for the reply.
    ///
    /// If the wait times out while some host is dead — the signature of a
    /// request lost in a crashed host's mailbox — the query is resubmitted
    /// once against the current membership before giving up: queries are
    /// idempotent, so the retry is always safe.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors (host down or panicked, timeout,
    /// disconnect), and [`RuntimeError::Unavailable`] when more hosts have
    /// crashed than the replication factor tolerates.
    ///
    /// # Panics
    ///
    /// Panics if `origin_item` is out of bounds.
    pub fn query(
        &self,
        client: &EngineClient<D>,
        origin_item: usize,
        req: D::Request,
    ) -> Result<QueryReply<D>, RuntimeError> {
        let topo = self.shared.current_topo();
        self.run(client, &topo, origin_item, query_op(req, false))
            .map(QueryReply::of)
    }

    /// Runs one scatter-gather range report end to end: the descent routes
    /// to the locus as usual, the locus splits the report across the hosts
    /// owning the output (one sub-scan message per host instead of a serial
    /// walk), the partial answers stream back in parallel, and this call
    /// merges them with [`Routable::merge_answers`] — byte-identical to
    /// [`query`](Self::query) for the same request. Requests that are not
    /// range reports ([`Routable::report_ranges`] returns `None`), and
    /// reports whose whole output is local to the locus host, fall back to
    /// the serial answer transparently.
    ///
    /// The reply's `hops` count the longest descent+fan-out chain (the
    /// latency the client observed), not the total crossings the fan-out
    /// paid — those are metered per host in [`traffic`](Self::traffic).
    ///
    /// # Errors
    ///
    /// As [`query`](Self::query); additionally
    /// [`RuntimeError::Unavailable`] when part of the report's output lost
    /// every replica (never a silently truncated answer).
    ///
    /// # Panics
    ///
    /// Panics if `origin_item` is out of bounds.
    pub fn query_scatter(
        &self,
        client: &EngineClient<D>,
        origin_item: usize,
        req: D::Request,
    ) -> Result<QueryReply<D>, RuntimeError> {
        let topo = self.shared.current_topo();
        self.run(client, &topo, origin_item, query_op(req, true))
            .map(QueryReply::of)
    }

    /// Runs a whole batch of queries end to end under one snapshot,
    /// returning the replies in submission order. All ops enter at
    /// `origin_item`'s root in **one** envelope, and at every later hop the
    /// ops that agree on their next host keep sharing an envelope
    /// ([`FabricMsg::Batch`], metered as a single crossing) — so the answers
    /// are byte-identical to running each request through
    /// [`query`](Self::query) serially, while crossing strictly fewer host
    /// boundaries. Each op that times out while a host is dead is
    /// resubmitted once individually, like `query`.
    ///
    /// # Errors
    ///
    /// As [`query`](Self::query), per op — the first failing op aborts the
    /// collection, abandoning the remaining in-flight ops (their late
    /// replies are dropped on arrival and counted, never parked).
    ///
    /// # Panics
    ///
    /// Panics if `origin_item` is out of bounds.
    pub fn query_batch(
        &self,
        client: &EngineClient<D>,
        origin_item: usize,
        reqs: Vec<D::Request>,
    ) -> Result<Vec<QueryReply<D>>, RuntimeError> {
        let ops = reqs
            .into_iter()
            .map(|req| (origin_item, query_op(req, false)));
        let replies = self.run_batch(client, ops)?;
        Ok(replies.into_iter().map(QueryReply::of).collect())
    }

    /// Runs one insert end to end with an explicit origin and bit string
    /// (see [`submit_insert`](Self::submit_insert)), blocking up to the
    /// client's update timeout (default 30 s).
    ///
    /// # Errors
    ///
    /// Propagates runtime errors (host down or panicked, timeout,
    /// disconnect).
    ///
    /// # Panics
    ///
    /// Panics if `origin` is out of bounds on a non-empty web.
    pub fn insert_with(
        &self,
        client: &EngineClient<D>,
        origin: usize,
        item: D::Item,
        bits: u64,
    ) -> Result<UpdateReply, RuntimeError> {
        let topo = self.shared.current_topo();
        self.run(
            client,
            &topo,
            origin,
            update_op(Update::Insert { item, bits }),
        )
        .map(UpdateReply::of)
    }

    /// Runs one remove end to end with an explicit origin (see
    /// [`submit_remove`](Self::submit_remove)), blocking up to the
    /// client's update timeout (default 30 s).
    ///
    /// # Errors
    ///
    /// Propagates runtime errors (host down or panicked, timeout,
    /// disconnect).
    ///
    /// # Panics
    ///
    /// Panics if `origin` is out of bounds when the lookup phase runs.
    pub fn remove_with(
        &self,
        client: &EngineClient<D>,
        origin: usize,
        item: D::Item,
    ) -> Result<UpdateReply, RuntimeError> {
        let topo = self.shared.current_topo();
        self.run(client, &topo, origin, update_op(Update::Remove { item }))
            .map(UpdateReply::of)
    }

    /// Draws a lookup origin valid under `topo` (0 on an empty web, where
    /// it is ignored) and a level bit string from the engine's seeded
    /// generator.
    fn draw(&self, topo: &Topology<D>) -> (usize, u64) {
        let len = topo.web.len();
        let mut st = self.shared.state.lock();
        let origin = if len > 0 { st.rng.gen_range(0..len) } else { 0 };
        (origin, st.rng.gen())
    }

    /// A lookup origin valid under the current snapshot and a level bit
    /// string, drawn from the engine's seeded generator — what
    /// [`insert`](Self::insert) and [`remove`](Self::remove) draw, for
    /// callers assembling an [`update_batch`](Self::update_batch).
    pub fn draw_entry(&self) -> (usize, u64) {
        self.draw(&self.shared.current_topo())
    }

    /// Runs one insert end to end, drawing the lookup origin and the
    /// item's level bits from the engine's seeded generator — the live
    /// counterpart of [`SkipWeb::insert`].
    ///
    /// # Errors
    ///
    /// Propagates runtime errors (host down or panicked, timeout,
    /// disconnect).
    pub fn insert(
        &self,
        client: &EngineClient<D>,
        item: D::Item,
    ) -> Result<UpdateReply, RuntimeError> {
        // Draw the origin against the same snapshot the update is admitted
        // under, so a concurrent apply can never shrink it out of bounds.
        let topo = self.shared.current_topo();
        let (origin, bits) = self.draw(&topo);
        self.run(
            client,
            &topo,
            origin,
            update_op(Update::Insert { item, bits }),
        )
        .map(UpdateReply::of)
    }

    /// Runs one remove end to end, drawing the lookup origin from the
    /// engine's seeded generator — the live counterpart of
    /// [`SkipWeb::remove`].
    ///
    /// # Errors
    ///
    /// Propagates runtime errors (host down or panicked, timeout,
    /// disconnect).
    pub fn remove(
        &self,
        client: &EngineClient<D>,
        item: D::Item,
    ) -> Result<UpdateReply, RuntimeError> {
        // Same snapshot for origin draw and admission (see `insert`).
        let topo = self.shared.current_topo();
        let (origin, _) = self.draw(&topo);
        self.run(client, &topo, origin, update_op(Update::Remove { item }))
            .map(UpdateReply::of)
    }

    /// Runs a batch of updates — `(origin, update)` pairs, inserts and
    /// removes in any mix — end to end, returning per-op outcomes in
    /// submission order: the batched counterpart of
    /// [`insert_with`](Self::insert_with) / [`remove_with`](Self::remove_with).
    /// All ops are admitted under one snapshot, coalesce per destination
    /// host at every hop ([`FabricMsg::Batch`]), and the ones whose repairs
    /// end on one host together install with a single structural repair
    /// and a single snapshot publish ([`SkipWeb::apply`]) — so a batch of N
    /// updates crosses fewer host boundaries than N serial calls while
    /// leaving byte-identical state and applied flags.
    ///
    /// Ops on *distinct* items commute, so the outcome equals the serial
    /// one whatever route each op takes. Ops on the *same* item behave like
    /// concurrent serial clients: each is planned under the batch's one
    /// snapshot — an insert of an item stored under it stops at the locus
    /// as a duplicate even when the batch removes the item first — and the
    /// ones that reach the apply step resolve in arrival order, which is
    /// submission order when they travel together (one envelope all the
    /// way, as on a single host). Lost ops resubmit exactly-once like the
    /// single-op calls.
    ///
    /// # Errors
    ///
    /// As [`insert_with`](Self::insert_with), per op — the first failing op
    /// aborts the collection.
    ///
    /// # Panics
    ///
    /// Panics if an origin is out of bounds when its lookup phase runs.
    pub fn update_batch(
        &self,
        client: &EngineClient<D>,
        ops: Vec<(usize, Update<D::Item>)>,
    ) -> Result<Vec<UpdateReply>, RuntimeError> {
        let ops = ops
            .into_iter()
            .map(|(origin, update)| (origin, update_op(update)));
        let replies = self.run_batch(client, ops)?;
        Ok(replies.into_iter().map(UpdateReply::of).collect())
    }

    /// A snapshot of the current ground set, in canonical order — read,
    /// like [`len`](Self::len) and [`health`](Self::health), off the
    /// published topology snapshot, never waiting on an apply in progress.
    /// An update publishes before it replies, so a client reads its own
    /// writes.
    pub fn ground(&self) -> Vec<D::Item> {
        self.shared.current_topo().web.ground().to_vec()
    }

    /// Number of items currently stored.
    pub fn len(&self) -> usize {
        self.shared.topo.lock().web.len()
    }

    /// Whether the web currently stores no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total host-to-host messages since spawn.
    pub fn message_count(&self) -> u64 {
        self.runtime.message_count()
    }

    /// Per-host sent/received message counters since spawn, with the
    /// update-tagged share broken out (routing + repair messages of §4).
    pub fn traffic(&self) -> HostTraffic {
        self.runtime.host_traffic()
    }

    /// Number of (physical) hosts ever spawned, including dead and
    /// decommissioned ones.
    pub fn hosts(&self) -> usize {
        self.runtime.hosts()
    }

    /// A point-in-time membership snapshot of the fabric (alive / dead /
    /// decommissioned per host) — an `Arc` clone of the runtime's cached
    /// view.
    pub fn membership(&self) -> Arc<Membership> {
        self.runtime.membership()
    }

    /// A health report for the fabric: host liveness, the replication
    /// factor in effect, and the current topology-snapshot version.
    pub fn health(&self) -> EngineHealth {
        let membership = self.runtime.membership();
        let topo = self.shared.current_topo();
        // Turns before updates: see `Shared::apply_turns`.
        let apply_turns = self.shared.apply_turns.load(Ordering::Acquire);
        let updates_applied = self.shared.updates_applied.load(Ordering::Acquire);
        EngineHealth {
            alive: membership.alive_hosts(),
            dead: membership.dead_hosts(),
            decommissioned: membership.decommissioned_hosts(),
            replication: topo.web.replication().k,
            topology_version: topo.version,
            apply_turns,
            updates_applied,
        }
    }

    /// Crashes `host` for fault injection: its mailbox is discarded and
    /// every later message to it is dropped, exactly like an actor panic.
    /// With replication `k ≥ 2` the fabric keeps answering from replicas;
    /// run [`heal`](Self::heal) (or any update) to re-home the dead host's
    /// blocks permanently.
    pub fn kill_host(&self, host: HostId) {
        self.runtime.kill(host);
    }

    /// Gracefully removes `host` from the fabric: a new topology snapshot
    /// re-homes every block it held (so no new operation routes to it),
    /// and only then is the host marked as draining — operations already
    /// in flight under older snapshots still complete on it. Safe to call
    /// concurrently with queries and updates.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::HostDown`] if the host is not currently alive, and
    /// [`RuntimeError::Unavailable`] if it is the last alive host.
    pub fn decommission(&self, host: HostId) -> Result<(), RuntimeError> {
        // The whole operation — guard included — runs under the state lock,
        // so concurrent decommissions serialize and the second caller sees
        // the first one's drained host when it re-reads the membership.
        let retired = {
            let st = &mut *self.shared.state.lock();
            let membership = self.runtime.membership();
            if !membership.is_alive(host) {
                return Err(RuntimeError::HostDown(host));
            }
            if membership.alive_count() <= 1 {
                return Err(RuntimeError::Unavailable);
            }
            st.placement.excluded.insert(host.0);
            let retired = self.shared.republish(st, &membership);
            // Only after the re-homed snapshot is published does the host
            // stop being a routing target; everything already addressed to
            // it under old snapshots is still delivered and processed.
            self.runtime.decommission(host);
            retired
        };
        drop(retired); // outside the state lock
        Ok(())
    }

    /// Adds one host to the running fabric and rebalances the placement
    /// onto it (the fold modulus grows to cover the new host). Returns the
    /// new host's id. Safe to call concurrently with queries and updates.
    pub fn spawn_host(&self) -> HostId {
        let (host, retired) = {
            let st = &mut *self.shared.state.lock();
            let host = self.runtime.add_host(EngineActor {
                shared: Arc::clone(&self.shared),
            });
            st.placement.phys = host.index() + 1;
            (host, self.shared.republish(st, &self.runtime.membership()))
        };
        drop(retired); // outside the state lock
        host
    }

    /// Re-homes blocks away from hosts that have crashed since the last
    /// snapshot: publishes a new topology whose placement excludes every
    /// dead host, so even a `k = 1` web regains availability (any update
    /// apply does the same implicitly).
    pub fn heal(&self) {
        let retired = {
            let st = &*self.shared.state.lock();
            self.shared.republish(st, &self.runtime.membership())
        };
        drop(retired); // outside the state lock
    }

    /// The current ground set zipped with each item's level bit string, in
    /// canonical order — exactly what a durability layer checkpoints so
    /// recovery can rebuild the identical web, tower for tower
    /// ([`SkipWebBuilder::bits`](crate::skipweb::SkipWebBuilder::bits)).
    /// Slots are not part of it: a recovered web has canonical slots.
    pub fn ground_with_bits(&self) -> Vec<(D::Item, u64)> {
        let st = self.shared.state.lock();
        let pairs = st.web.ground_with_bits();
        pairs.map(|(item, bits)| (item.clone(), bits)).collect()
    }

    /// The idempotence ledger in eviction (FIFO) order: identity and
    /// recorded outcome of every remembered update that reached the apply
    /// step. Durability layers checkpoint this alongside the ground set and
    /// seed it back via [`restore`](Self::restore) — on a freshly spawned
    /// fabric or in place — so resubmits stay exactly-once across a crash.
    pub fn applied_ledger(&self) -> Vec<((ClientId, u64), bool)> {
        let st = self.shared.state.lock();
        st.applied_order
            .iter()
            .map(|key| (*key, st.applied_ops[key]))
            .collect()
    }

    /// Replaces the authoritative web and idempotence ledger with state
    /// recovered from a log, publishing a fresh topology snapshot — the
    /// state half of crash recovery, and the one way a log's state enters a
    /// fabric, whether it was just spawned (over an empty web) or is
    /// recovering in place. Pair with [`rejoin_host`](Self::rejoin_host) to
    /// bring crashed hosts themselves back. The apply stage's spare webs go
    /// with the replaced one.
    pub fn restore(&self, web: SkipWeb<D>, ledger: Vec<((ClientId, u64), bool)>) {
        let retired = {
            let st = &mut *self.shared.state.lock();
            let replaced = std::mem::replace(&mut st.web, Arc::new(web));
            // Webs of the replaced history are no copy-on-write target for
            // the restored one.
            let spares = std::mem::take(&mut st.spares);
            st.applied_ops.clear();
            st.applied_order.clear();
            for (key, applied) in ledger {
                st.record_outcome(key, applied);
            }
            st.trim_ledger();
            (
                replaced,
                spares,
                self.shared.republish(st, &self.runtime.membership()),
            )
        };
        drop(retired); // the old webs and snapshot, outside the state lock
    }

    /// Revives a crashed host in place (fresh mailbox and actor thread,
    /// same id — see [`Runtime::revive`]) and publishes a topology
    /// snapshot that routes to it again: the rejoin-with-state path, so a
    /// recovered host returns to live membership instead of staying
    /// tombstoned forever. Returns `false` unless the host is currently
    /// dead.
    pub fn rejoin_host(&self, host: HostId) -> bool {
        let retired = {
            let st = &*self.shared.state.lock();
            self.runtime
                .revive(
                    host,
                    EngineActor {
                        shared: Arc::clone(&self.shared),
                    },
                )
                .then(|| self.shared.republish(st, &self.runtime.membership()))
        };
        retired.is_some() // and dropped here, outside the state lock
    }

    /// Cumulative transport-level counters (messages carried, losses,
    /// reorders, bytes on the wire). All zeros for the default in-process
    /// channel transport, which has nothing to count.
    pub fn transport_stats(&self) -> TransportStats {
        self.runtime.transport_stats()
    }

    /// Stops all host threads. On a TCP deployment this first broadcasts
    /// the teardown to every peer process, so their
    /// [`serve_until_peer_shutdown`](Self::serve_until_peer_shutdown)
    /// calls return instead of reporting a severed transport.
    pub fn shutdown(self) {
        if let Some(tcp) = &self.tcp {
            tcp.broadcast_shutdown();
        }
        self.runtime.shutdown();
        self.shared.stop_stage(self.stage);
    }
}

impl<D: crate::wire::WireCodec + Send + Sync + 'static> DistributedSkipWeb<D> {
    /// Worker-side teardown: blocks until the driver broadcasts shutdown
    /// (or `timeout` elapses), then stops the local host threads. Returns
    /// `true` when the deployment was torn down on purpose, `false` on
    /// timeout.
    pub fn serve_until_peer_shutdown(self, timeout: Duration) -> bool {
        let closed = match &self.tcp {
            Some(tcp) => tcp.wait_closed(timeout),
            None => false,
        };
        self.runtime.shutdown();
        self.shared.stop_stage(self.stage);
        closed
    }
}

/// The fabric-health report returned by [`DistributedSkipWeb::health`]: the
/// failover-relevant state in one read — which hosts can serve, which are
/// gone, how many crashes the placement tolerates (`replication - 1`), and
/// how many topology snapshots have been published — plus how many updates
/// each apply-stage turn combined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineHealth {
    /// Hosts currently accepting new work.
    pub alive: Vec<HostId>,
    /// Hosts that crashed (panic or injected kill).
    pub dead: Vec<HostId>,
    /// Hosts gracefully drained via [`DistributedSkipWeb::decommission`].
    pub decommissioned: Vec<HostId>,
    /// The replication factor `k` of the served web: any `k - 1` hosts may
    /// crash without losing availability.
    pub replication: usize,
    /// Version of the currently published topology snapshot (bumped by
    /// every update apply, decommission, spawn-host, and heal).
    pub topology_version: u64,
    /// Turns the apply stage has run that applied at least one update.
    pub apply_turns: u64,
    /// Updates those turns took through the apply step, timeout-resubmits
    /// the ledger echoed included.
    pub updates_applied: u64,
}

impl EngineHealth {
    /// Updates per apply turn: how much one copy-on-write, one durability
    /// append and one publish were shared (0 before the first turn).
    pub fn ops_per_apply_turn(&self) -> f64 {
        if self.apply_turns == 0 {
            return 0.0;
        }
        self.updates_applied as f64 / self.apply_turns as f64
    }
}

impl fmt::Display for EngineHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "alive={} dead={:?} decommissioned={:?} k={} topo=v{} ops/turn={:.2}",
            self.alive.len(),
            self.dead,
            self.decommissioned,
            self.replication,
            self.topology_version,
            self.ops_per_apply_turn()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multidim::{
        QuadtreeAnswer, QuadtreeRequest, QuadtreeSkipWeb, TrapezoidSkipWeb, TrieSkipWeb,
    };
    use proptest::collection;
    use proptest::prelude::*;
    use skipweb_net::sim::MessageMeter;
    use skipweb_structures::quadtree::PointKey;
    use skipweb_structures::trapezoid::Segment;

    fn grid_points(n: u32) -> Vec<PointKey<2>> {
        (0..n)
            .map(|i| PointKey::new([i * 104_729 + 13, i * 49_979 + 7]))
            .collect()
    }

    #[test]
    fn quadtree_point_location_matches_simulator_with_hop_parity() {
        let web = QuadtreeSkipWeb::builder(grid_points(96)).seed(21).build();
        let dist = web.serve();
        let client = dist.client();
        for s in 0..30u64 {
            let q = PointKey::new([(s * 77_777_777) as u32, (s * 33_333_331) as u32]);
            let origin = web.random_origin(s);
            let sim = web.locate_point(origin, q);
            let reply = dist
                .query(&client, origin, QuadtreeRequest::Locate(q))
                .expect("runtime alive");
            assert_eq!(
                reply.answer,
                QuadtreeAnswer::Located {
                    cell: sim.cell,
                    approx_nearest: sim.approx_nearest,
                },
                "cell parity for {q:?}"
            );
            assert_eq!(u64::from(reply.hops), sim.messages, "hop parity for {q:?}");
        }
        dist.shutdown();
    }

    #[test]
    fn quadtree_box_reporting_over_the_runtime_matches_the_simulator() {
        let web = QuadtreeSkipWeb::builder(grid_points(200)).seed(22).build();
        let dist = web.serve();
        let client = dist.client();
        let boxes: [([u32; 2], [u32; 2]); 3] = [
            ([0, 0], [u32::MAX / 2, u32::MAX / 2]),
            ([1 << 20, 1 << 20], [1 << 24, 1 << 24]),
            ([0, 0], [u32::MAX, u32::MAX]),
        ];
        for (lo, hi) in boxes {
            let sim = web.points_in_box(web.random_origin(3), lo, hi);
            let reply = dist
                .query(
                    &client,
                    web.random_origin(3),
                    QuadtreeRequest::InBox { lo, hi },
                )
                .expect("runtime alive");
            assert_eq!(
                reply.answer,
                QuadtreeAnswer::Points(sim.points),
                "box {lo:?}..{hi:?}"
            );
        }
        dist.shutdown();
    }

    #[test]
    fn trie_prefix_search_matches_simulator_with_hop_parity() {
        let mut strings: Vec<String> = (0..80).map(|i| format!("isbn-97802{i:03}x")).collect();
        strings.push("zzz".into());
        let web = TrieSkipWeb::builder(strings).seed(23).build();
        let dist = web.serve();
        let client = dist.client();
        for prefix in ["isbn-97802", "isbn-978020", "isbn", "zzz", "nope", ""] {
            let origin = web.random_origin(prefix.len() as u64);
            let sim = web.prefix_search(origin, prefix);
            let reply = dist
                .query(&client, origin, prefix.to_string())
                .expect("runtime alive");
            assert_eq!(reply.answer.matched_len, sim.matched_len, "len {prefix:?}");
            assert_eq!(reply.answer.matches, sim.matches, "matches {prefix:?}");
            assert_eq!(
                u64::from(reply.hops),
                sim.messages,
                "hop parity for {prefix:?}"
            );
        }
        dist.shutdown();
    }

    #[test]
    fn trapezoid_point_location_answers_match_the_simulator() {
        let segments: Vec<Segment> = (0..24)
            .map(|i| {
                let x = i * 100;
                Segment::new((x, i * 5), (x + 60, i * 5 + 3))
            })
            .collect();
        let web = TrapezoidSkipWeb::builder(segments).seed(24).build();
        let dist = web.serve();
        let client = dist.client();
        for s in 0..20i64 {
            let q = (s * 137 - 150, s * 11 - 40);
            let origin = web.random_origin(s as u64);
            let sim = web.locate_point(origin, q);
            let reply = dist.query(&client, origin, q).expect("runtime alive");
            assert_eq!(reply.answer, sim.trapezoid, "trapezoid for {q:?}");
            assert_eq!(u64::from(reply.hops), sim.messages, "hop parity for {q:?}");
        }
        dist.shutdown();
    }

    #[test]
    fn consolidation_caps_hosts_and_keeps_answers() {
        let keys: Vec<u64> = (0..300).map(|i| i * 3 + 1).collect();
        let web = crate::onedim::OneDimSkipWeb::builder(keys).seed(25).build();
        let full = DistributedSkipWeb::builder(web.inner()).spawn();
        let four = DistributedSkipWeb::builder(web.inner())
            .consolidated(4)
            .spawn();
        let one = DistributedSkipWeb::builder(web.inner())
            .consolidated(1)
            .spawn();
        assert_eq!(full.hosts(), 300);
        assert_eq!(four.hosts(), 4);
        assert_eq!(one.hosts(), 1);
        let (cf, c4, c1) = (full.client(), four.client(), one.client());
        for s in 0..25u64 {
            let q = (s * 211) % 1000;
            let origin = web.random_origin(s);
            let want = web.nearest(origin, q).answer.nearest;
            assert_eq!(full.query(&cf, origin, q).unwrap().answer, Some(want));
            assert_eq!(four.query(&c4, origin, q).unwrap().answer, Some(want));
            assert_eq!(one.query(&c1, origin, q).unwrap().answer, Some(want));
        }
        // Folding hosts can only remove crossings, never add them — and a
        // single host never pays a message at all.
        assert!(four.message_count() <= full.message_count());
        assert_eq!(one.message_count(), 0);
        // Per-host counters sum to the global counter; no updates ran.
        let traffic = four.traffic();
        assert_eq!(traffic.hosts(), 4);
        assert_eq!(traffic.total_sent(), four.message_count());
        assert_eq!(traffic.total_update_sent(), 0);
        full.shutdown();
        four.shutdown();
        one.shutdown();
    }

    #[test]
    fn live_onedim_updates_match_the_simulator_hop_for_hop() {
        let keys: Vec<u64> = (0..80).map(|i| i * 10).collect();
        let web = crate::onedim::OneDimSkipWeb::builder(keys).seed(26).build();
        let mut sim = web.inner().clone();
        // Headroom so inserted items get their own hosts, as in the sim.
        let dist = DistributedSkipWeb::builder(web.inner())
            .consolidated(80 + 16)
            .spawn();
        let client = dist.client();
        for i in 0..16u64 {
            let key = 5 + i * 37;
            let bits = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xABCD;
            let origin = (i as usize * 7) % sim.len();
            let mut meter = MessageMeter::new();
            let sim_applied = sim.insert_with(Some(origin), key, bits, &mut meter);
            let reply = dist.insert_with(&client, origin, key, bits).unwrap();
            assert_eq!(reply.applied, sim_applied, "insert {key}");
            assert_eq!(u64::from(reply.hops), meter.messages(), "hops insert {key}");
        }
        for i in 0..8u64 {
            let key = i * 30; // some present, some already gone
            let origin = (i as usize * 11) % sim.len();
            let sim_origin = (sim.len() > 1).then_some(origin);
            let mut meter = MessageMeter::new();
            let sim_applied = sim.remove_with(sim_origin, &key, &mut meter);
            let reply = dist.remove_with(&client, origin, key).unwrap();
            assert_eq!(reply.applied, sim_applied, "remove {key}");
            assert_eq!(u64::from(reply.hops), meter.messages(), "hops remove {key}");
        }
        // Post-churn state and query parity.
        assert_eq!(dist.ground(), sim.ground());
        for s in 0..20u64 {
            let q = (s * 131) % 1000;
            let origin = s as usize % sim.len();
            let mut meter = MessageMeter::new();
            let out = sim.query(origin, &q, &mut meter);
            let locus = sim.base().range(out.locus);
            let want = crate::onedim::nearest_from_locus(&locus, q);
            let reply = dist.query(&client, origin, q).unwrap();
            assert_eq!(reply.answer, want.or(sim.base().nearest_key(q)), "q={q}");
            assert_eq!(u64::from(reply.hops), out.messages, "query hops q={q}");
        }
        // Update traffic is metered separately from query traffic.
        let traffic = dist.traffic();
        assert!(traffic.total_update_sent() > 0);
        assert!(traffic.total_query_sent() > 0);
        assert_eq!(traffic.total_sent(), dist.message_count());
        dist.shutdown();
    }

    #[test]
    fn duplicate_inserts_and_absent_removes_are_noops() {
        let keys: Vec<u64> = (0..32).map(|i| i * 4).collect();
        let web = crate::onedim::OneDimSkipWeb::builder(keys).seed(27).build();
        let dist = DistributedSkipWeb::builder(web.inner()).spawn();
        let client = dist.client();
        // Duplicate insert: pays the lookup, applies nothing.
        let dup = dist.insert_with(&client, 3, 16, 0xBEEF).unwrap();
        assert!(!dup.applied);
        assert_eq!(dist.len(), 32);
        // Absent remove: free no-op, like the simulator.
        let gone = dist.remove_with(&client, 0, 999).unwrap();
        assert!(!gone.applied);
        assert_eq!(gone.hops, 0);
        assert_eq!(dist.len(), 32);
        dist.shutdown();
    }

    #[test]
    fn updates_grow_and_shrink_through_the_empty_web() {
        let web = crate::onedim::OneDimSkipWeb::builder(vec![7])
            .seed(28)
            .build();
        let dist = DistributedSkipWeb::builder(web.inner())
            .consolidated(8)
            .spawn();
        let client = dist.client();
        // Remove the last item (no lookup phase, like the simulator).
        assert!(dist.remove(&client, 7).unwrap().applied);
        assert!(dist.is_empty());
        // Insert into the empty web, then query it.
        assert!(dist.insert(&client, 42).unwrap().applied);
        assert!(dist.insert(&client, 50).unwrap().applied);
        assert_eq!(dist.ground(), vec![42, 50]);
        let reply = dist.query(&client, 0, 45).unwrap();
        assert_eq!(reply.answer, Some(42));
        dist.shutdown();
    }

    #[test]
    fn inadmissible_trapezoid_insert_is_rejected_not_fatal() {
        let segments: Vec<Segment> = (0..12)
            .map(|i| Segment::new((i * 100, i * 10), (i * 100 + 60, i * 10 + 3)))
            .collect();
        let web = TrapezoidSkipWeb::builder(segments).seed(29).build();
        let dist = DistributedSkipWeb::builder(web.inner())
            .consolidated(16)
            .spawn();
        let client = dist.client();
        // Shares an endpoint x-coordinate with a stored segment: violates
        // general position. The actor must reject it, not panic.
        let bad = Segment::new((0, 500), (77, 501));
        let reply = dist.insert(&client, bad).unwrap();
        assert!(!reply.applied);
        assert!(dist.health().dead.is_empty(), "fabric must stay healthy");
        // A good segment above all bands still applies.
        let good = Segment::new((41, 2_000), (83, 2_001));
        assert!(dist.insert(&client, good).unwrap().applied);
        let reply = dist.query(&client, 0, (60i64, 2_005i64)).unwrap();
        assert_eq!(reply.answer.bottom, Some(good));
        assert!(dist.remove(&client, good).unwrap().applied);
        dist.shutdown();
    }

    #[test]
    fn in_flight_queries_never_observe_a_half_applied_update() {
        // Readers hammer the web while a writer churns; every answer must
        // be a key that was a member of some pre- or post-update snapshot,
        // and nothing may hang or panic.
        let keys: Vec<u64> = (0..100).map(|i| i * 100).collect();
        let web = crate::onedim::OneDimSkipWeb::builder(keys).seed(30).build();
        let dist = DistributedSkipWeb::builder(web.inner())
            .consolidated(100 + 32)
            .spawn();
        std::thread::scope(|scope| {
            let writer = {
                let dist = &dist;
                scope.spawn(move || {
                    let client = dist.client();
                    for i in 0..24u64 {
                        let key = 50 + i * 200;
                        assert!(dist.insert(&client, key).unwrap().applied);
                        if i % 3 == 0 {
                            assert!(dist.remove(&client, key).unwrap().applied);
                        }
                    }
                })
            };
            for r in 0..3u64 {
                let dist = &dist;
                scope.spawn(move || {
                    let client = dist.client();
                    for i in 0..60u64 {
                        let q = (r * 97 + i * 131) % 11_000;
                        let reply = dist.query(&client, (i as usize) % 100, q).unwrap();
                        let a = reply.answer.expect("web never empties");
                        assert!(
                            a.is_multiple_of(100) || (a >= 50 && (a - 50).is_multiple_of(200)),
                            "answer {a} was never a member"
                        );
                    }
                });
            }
            writer.join().unwrap();
        });
        // An operation routed under snapshot `v` answers from `v` even
        // after `v + 1` publishes: the message carries its snapshot, and
        // the apply's clone-on-write leaves that web untouched.
        let client = dist.client();
        let v = dist.shared.current_topo();
        let before = dist.query(&client, 0, 5_031).unwrap().answer;
        assert!(dist.insert(&client, 5_031).unwrap().applied);
        assert_eq!(dist.shared.current_topo().version, v.version + 1);
        let (at, mut copies) = v.origin(0);
        client
            .inner
            .send(
                copies.next().unwrap(),
                FabricMsg::One(EngineMsg {
                    op: EngineOp::Query {
                        req: 5_031u64,
                        gather: false,
                    },
                    at,
                    client: client.id(),
                    corr: u64::MAX,
                    hops: 0,
                    topo: Arc::clone(&v),
                }),
            )
            .unwrap();
        let stale = client.recv_corr(u64::MAX, Duration::from_secs(10)).unwrap();
        assert_eq!(stale.try_into_answer().unwrap(), before);
        assert_eq!(dist.query(&client, 0, 5_031).unwrap().answer, Some(5_031));
        dist.shutdown();
    }

    /// The sharing contract of one publish: the structure of every set of
    /// `new` that the repair for an update with tower `bits` (`None`: no
    /// update) did not rebuild is the very allocation `old` holds — the
    /// structure tables share it through their pages, whichever ids the two
    /// webs file it under. A bucketed web's host tables are shared across a
    /// copy that repairs nothing; a repair renumbers the blocks of the whole
    /// web, so it replaces them all. Returns how many structures were
    /// shared and how many rebuilt.
    fn assert_untouched_sets_are_shared<D: Routable>(
        old: &SkipWeb<D>,
        new: &SkipWeb<D>,
        bits: Option<u64>,
    ) -> (usize, usize) {
        use crate::levels::set_key;
        let (mut shared, mut rebuilt) = (0, 0);
        for (level, tables) in (0u32..).zip(new.level_structs()) {
            let Some(old_tables) = old.level_structs().get(level as usize) else {
                continue; // a freshly grown top level has no predecessor
            };
            let dirty = bits.map(|b| set_key(b, level));
            for set in &tables.sets {
                let Some(i) = old_tables.set_index(set.key) else {
                    continue;
                };
                let was = &old_tables.sets[i];
                let (now, then) = (tables.structure(set), old_tables.structure(was));
                if Some(set.key) == dirty {
                    assert!(!Arc::ptr_eq(now, then));
                    rebuilt += 1;
                    continue;
                }
                assert!(
                    Arc::ptr_eq(now, then),
                    "L{level} set {:#x}: structure copied",
                    set.key
                );
                shared += 1;
                match (&set.hosted, &was.hosted) {
                    (None, None) => {}
                    (Some(now), Some(then)) => assert_eq!(
                        Arc::ptr_eq(now, then),
                        bits.is_none(),
                        "L{level} set {:#x}: host table",
                        set.key
                    ),
                    _ => panic!("L{level} set {:#x}: placement changed kind", set.key),
                }
            }
        }
        (shared, rebuilt)
    }

    #[test]
    fn a_publish_shares_every_set_the_repair_left_alone() {
        let keys: Vec<u64> = (0..1024).map(|i| i * 10).collect();
        let web = crate::onedim::OneDimSkipWeb::builder(keys).seed(48).build();
        let dist = DistributedSkipWeb::builder(web.inner())
            .consolidated(4)
            .spawn();
        let client = dist.client();
        // Caller, engine state and snapshot start out sharing every set.
        let v0 = dist.shared.current_topo();
        assert!(Arc::ptr_eq(&v0.web, &dist.shared.state.lock().web));
        let (shared, rebuilt) = assert_untouched_sets_are_shared(web.inner(), &v0.web, None);
        assert_eq!(rebuilt, 0, "nothing was repaired yet");
        assert_eq!(
            shared,
            v0.web.level_structs().iter().map(|l| l.sets.len()).sum()
        );

        let bits = 0x5EED_B175;
        assert!(dist.insert_with(&client, 3, 5_555, bits).unwrap().applied);
        let v1 = dist.shared.current_topo();
        assert!(Arc::ptr_eq(&v1.web, &dist.shared.state.lock().web));
        let (shared, rebuilt) = assert_untouched_sets_are_shared(&v0.web, &v1.web, Some(bits));
        assert!(
            rebuilt >= 2 && shared > 8 * rebuilt,
            "{shared} vs {rebuilt}"
        );
        // The caller's web still shares them too; `v0` itself is untouched.
        assert_untouched_sets_are_shared(web.inner(), &v1.web, Some(bits));
        assert_eq!(v0.web.len(), 1024);

        let bits = v1.web.bits_of(&4_440).expect("an original key");
        assert!(dist.remove_with(&client, 7, 4_440).unwrap().applied);
        let v2 = dist.shared.current_topo();
        let (shared, rebuilt) = assert_untouched_sets_are_shared(&v1.web, &v2.web, Some(bits));
        assert!(
            rebuilt >= 2 && shared > 8 * rebuilt,
            "{shared} vs {rebuilt}"
        );
        assert_eq!((v1.web.len(), v2.web.len()), (1025, 1024));
        dist.shutdown();

        // Bucketed placement stores a host table per set: shared like the
        // rest until a repair re-blocks the web.
        let keys: Vec<u64> = (0..512).map(|i| i * 10).collect();
        let web = crate::onedim::OneDimSkipWeb::builder(keys)
            .seed(48)
            .bucketed(32)
            .build();
        let dist = DistributedSkipWeb::builder(web.inner())
            .consolidated(4)
            .spawn();
        let client = dist.client();
        let v0 = dist.shared.current_topo();
        let (shared, _) = assert_untouched_sets_are_shared(web.inner(), &v0.web, None);
        assert_eq!(
            shared,
            v0.web.level_structs().iter().map(|l| l.sets.len()).sum()
        );
        assert!(dist.insert_with(&client, 3, 2_555, bits).unwrap().applied);
        let v1 = dist.shared.current_topo();
        let (shared, rebuilt) = assert_untouched_sets_are_shared(&v0.web, &v1.web, Some(bits));
        assert!(
            rebuilt >= 2 && shared > 8 * rebuilt,
            "{shared} vs {rebuilt}"
        );
        dist.shutdown();
    }

    /// Every stored item keeps its slot through updates to other items, so
    /// nothing an update does re-homes them: inserts in front of every key
    /// shift all canonical positions, and removes free slots that later
    /// inserts reuse, yet each surviving key — looked up by key, not by
    /// position — keeps its owner host in the simulator and the physical
    /// host its level-0 node range folds onto in a consolidated fabric.
    /// This is what hosts owning their own state will rely on.
    #[test]
    fn an_update_moves_no_other_items_ranges() {
        use skipweb_structures::linked_list::SortedLinkedList;
        let keys: Vec<u64> = (0..300).map(|i| 1_000 + i * 10).collect();
        let tower = |key: u64| key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED;
        let front: Vec<u64> = (0..40).map(|i| i * 7).collect();
        let gone: Vec<u64> = keys.iter().copied().step_by(9).collect();
        let survivors = || keys.iter().copied().filter(|k| !gone.contains(k));
        let web = crate::onedim::OneDimSkipWeb::builder(keys.clone())
            .seed(33)
            .build();

        // The simulator: a mixed batch, then one op at a time.
        let mut sim = web.inner().clone();
        let home = |web: &SkipWeb<SortedLinkedList>, key: u64| {
            web.host_of_item(web.ground().binary_search(&key).expect("stored"))
        };
        let before: Vec<HostId> = survivors().map(|k| home(&sim, k)).collect();
        let mut batch: Vec<Update<u64>> = front[..20]
            .iter()
            .map(|&item| Update::Insert {
                item,
                bits: tower(item),
            })
            .collect();
        batch.extend(gone[..20].iter().map(|&item| Update::Remove { item }));
        assert!(sim.apply(batch).iter().all(|&applied| applied));
        for &item in &gone[20..] {
            assert_eq!(sim.apply(vec![Update::Remove { item }]), [true]);
        }
        for &item in &front[20..] {
            assert_eq!(sim.apply_insert_batch(vec![(item, tower(item))]), [true]);
        }
        let after: Vec<HostId> = survivors().map(|k| home(&sim, k)).collect();
        assert_eq!(after, before, "simulator: surviving items re-homed");

        // The engine: where each key's level-0 node range lives physically.
        let dist = DistributedSkipWeb::builder(web.inner())
            .consolidated(4)
            .spawn();
        let client = dist.client();
        let node_host = |key: u64| {
            let topo = dist.shared.current_topo();
            let pos = topo.web.ground().binary_search(&key).expect("stored");
            let at = GlobalRef {
                level: 0,
                set: 0,
                range: topo.web.base().entry_of_item(pos).0,
            };
            topo.ctl.fold(topo.copies(at).next().expect("a copy"))
        };
        let before: Vec<HostId> = survivors().map(node_host).collect();
        for (i, (&insert, &remove)) in front.iter().zip(&gone).enumerate() {
            let origin = i * 13 % dist.len();
            assert!(
                dist.insert_with(&client, origin, insert, tower(insert))
                    .unwrap()
                    .applied
            );
            assert!(dist.remove_with(&client, origin, remove).unwrap().applied);
        }
        let after: Vec<HostId> = survivors().map(node_host).collect();
        assert_eq!(after, before, "engine: surviving ranges re-homed");
        dist.shutdown();
    }

    #[test]
    fn membership_publishes_swap_the_placement_over_the_same_web() {
        let keys: Vec<u64> = (0..256).map(|i| i * 3).collect();
        let web = crate::onedim::OneDimSkipWeb::builder(keys).seed(49).build();
        let dist = DistributedSkipWeb::builder(web.inner())
            .consolidated(6)
            .spawn();
        let v0 = dist.shared.current_topo();
        dist.heal();
        let v1 = dist.shared.current_topo();
        dist.decommission(HostId(2)).unwrap();
        let v2 = dist.shared.current_topo();
        let host = dist.spawn_host();
        let v3 = dist.shared.current_topo();
        for (before, after) in [(&v0, &v1), (&v1, &v2), (&v2, &v3)] {
            assert!(
                Arc::ptr_eq(&before.web, &after.web),
                "the web is not copied"
            );
            assert_eq!(after.version, before.version + 1);
        }
        assert!(Arc::ptr_eq(&v3.web, &dist.shared.state.lock().web));
        // Only the fold changed: host 2's share moved, host 6 joined.
        assert_eq!(v2.ctl.fold(HostId(2)), HostId(3));
        assert_eq!(v3.ctl.fold(host), host);
        dist.shutdown();
    }

    proptest! {
        /// Why the route-time fold needs no de-duplication: over the folded
        /// copies, `contains` and first-match pick exactly the host they
        /// picked from the first-occurrence-de-duplicated host table the
        /// snapshot used to bake.
        #[test]
        fn route_time_fold_picks_what_the_deduplicated_table_did(
            phys in 1usize..10,
            excluded in collection::vec(0u32..10, 0..6),
            copies in collection::vec(0u32..64, 1..6),
            me in 0u32..10,
            dead in collection::vec(0u32..10, 0..8),
        ) {
            let ctl = PlacementCtl {
                phys,
                excluded: excluded.into_iter().filter(|&h| (h as usize) < phys).collect(),
            };
            let copies: Vec<HostId> = copies.into_iter().map(HostId).collect();
            let me = HostId(me % phys as u32);
            let routable = |h: HostId| !dead.contains(&h.0);
            let mut baked: Vec<HostId> = Vec::new();
            for h in copies.iter().map(|&h| ctl.fold(h)) {
                if !baked.contains(&h) {
                    baked.push(h);
                }
            }
            let want = if baked.contains(&me) {
                Some(me)
            } else {
                baked.iter().copied().find(|&h| routable(h))
            };
            prop_assert_eq!(pick_alive(copies.iter().copied(), &ctl, me, routable), want);
        }
    }

    /// Blocks until `host` shows up dead in the engine's membership view
    /// (a panicking thread publishes its tombstone as it unwinds).
    fn await_dead<D: Routable + Send + Sync + 'static>(dist: &DistributedSkipWeb<D>, host: HostId) {
        for _ in 0..2000 {
            if dist.membership().dead_hosts().contains(&host) {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("{host} never tombstoned");
    }

    #[test]
    fn host_panic_mid_update_is_contained_and_reported_by_health() {
        let keys: Vec<u64> = (0..64).map(|i| i * 3).collect();
        let web = crate::onedim::OneDimSkipWeb::builder(keys)
            .seed(31)
            .replicate(2)
            .build();
        let dist = DistributedSkipWeb::builder(web.inner()).spawn();
        let client = dist.client();
        client.set_timeouts(Timeouts::uniform(Duration::from_millis(300)));
        // A corrupt address makes host 5 die mid-update processing.
        let topo = dist.shared.current_topo();
        client
            .inner
            .send(
                HostId(5),
                FabricMsg::One(EngineMsg {
                    op: EngineOp::Update(UpdateOp {
                        update: Update::Insert { item: 7, bits: 1 },
                        phase: UpdatePhase::Route,
                        op_id: 777,
                    }),
                    at: GlobalRef {
                        level: 0,
                        set: 0,
                        range: u32::MAX,
                    },
                    client: client.id(),
                    corr: 777,
                    hops: 0,
                    topo,
                }),
            )
            .unwrap();
        // The blocked client surfaces the lost op as a timeout, not a hang.
        let err = client.recv_corr(777, Duration::from_secs(2)).unwrap_err();
        assert_eq!(err, RuntimeError::Timeout);
        await_dead(&dist, HostId(5));
        let health = dist.health();
        assert_eq!(health.dead, vec![HostId(5)]);
        assert_eq!(health.replication, 2);
        assert_eq!(health.alive.len(), 63);
        // The membership view exposes the same first-crash signal the old
        // `poisoned_by` shim used to.
        assert_eq!(dist.membership().first_dead(), Some(HostId(5)));
        // The crash is contained: with k = 2 the fabric keeps serving
        // queries and updates from replicas instead of failing fast.
        client.set_timeouts(Timeouts::new(
            Duration::from_secs(10),
            Duration::from_secs(30),
        ));
        assert!(dist.insert(&client, 999).unwrap().applied);
        let reply = dist.query(&client, 0, 998).unwrap();
        assert_eq!(reply.answer, Some(999));
        dist.shutdown();
    }

    #[test]
    fn killing_a_host_with_replication_keeps_every_query_answerable() {
        let keys: Vec<u64> = (0..120).map(|i| i * 10).collect();
        let web = crate::onedim::OneDimSkipWeb::builder(keys)
            .seed(32)
            .replicate(2)
            .build();
        let dist = DistributedSkipWeb::builder(web.inner()).spawn();
        let client = dist.client();
        dist.kill_host(HostId(7));
        for s in 0..40u64 {
            let q = (s * 211) % 1300;
            let origin = web.random_origin(s);
            let want = web.nearest(origin, q).answer.nearest;
            let reply = dist.query(&client, origin, q).unwrap();
            assert_eq!(reply.answer, Some(want), "q={q} after crash");
        }
        // Origins homed on the dead host enter at a replica.
        let dead_origin = 7usize;
        assert!(dist
            .query(&client, dead_origin, 75)
            .unwrap()
            .answer
            .is_some());
        dist.shutdown();
    }

    #[test]
    fn unreplicated_crash_fails_fast_and_heal_restores_availability() {
        let keys: Vec<u64> = (0..64).map(|i| i * 10).collect();
        let web = crate::onedim::OneDimSkipWeb::builder(keys).seed(33).build();
        let dist = DistributedSkipWeb::builder(web.inner()).spawn();
        let client = dist.client();
        client.set_timeouts(Timeouts::uniform(Duration::from_secs(2)));
        dist.kill_host(HostId(9));
        // Some query must need host 9's tower with k = 1: it reports
        // Unavailable (fail fast) rather than timing out.
        let mut saw_unavailable = false;
        for s in 0..64u64 {
            match dist.query(&client, web.random_origin(s), s * 10 + 5) {
                Ok(_) => {}
                Err(RuntimeError::Unavailable) => saw_unavailable = true,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(saw_unavailable, "k = 1 cannot survive a crash everywhere");
        // Healing re-homes the dead host's blocks; the web then answers
        // every query again (from the rebuilt placement).
        let v_before = dist.health().topology_version;
        dist.heal();
        assert!(dist.health().topology_version > v_before);
        for s in 0..64u64 {
            assert!(
                dist.query(&client, web.random_origin(s), s * 10 + 5)
                    .unwrap()
                    .answer
                    .is_some(),
                "healed web must answer"
            );
        }
        dist.shutdown();
    }

    #[test]
    fn decommission_rehomes_blocks_and_keeps_answers() {
        let keys: Vec<u64> = (0..80).map(|i| i * 5).collect();
        let web = crate::onedim::OneDimSkipWeb::builder(keys).seed(34).build();
        let dist = DistributedSkipWeb::builder(web.inner())
            .consolidated(8)
            .spawn();
        let client = dist.client();
        dist.decommission(HostId(3)).unwrap();
        let health = dist.health();
        assert_eq!(health.decommissioned, vec![HostId(3)]);
        assert_eq!(health.alive.len(), 7);
        // Double decommission and last-host decommission are rejected.
        assert_eq!(
            dist.decommission(HostId(3)).unwrap_err(),
            RuntimeError::HostDown(HostId(3))
        );
        for s in 0..30u64 {
            let q = (s * 97) % 450;
            let origin = web.random_origin(s);
            let want = web.nearest(origin, q).answer.nearest;
            assert_eq!(dist.query(&client, origin, q).unwrap().answer, Some(want));
        }
        // After the drain, no new query traffic lands on host 3 (the old
        // snapshot's in-flight ops are long gone).
        let before = dist.traffic().received[3];
        for s in 0..30u64 {
            let _ = dist.query(&client, web.random_origin(s), s * 13).unwrap();
        }
        assert_eq!(dist.traffic().received[3], before);
        dist.shutdown();
    }

    #[test]
    fn spawn_host_grows_the_fabric_and_rebalances() {
        let keys: Vec<u64> = (0..60).map(|i| i * 4).collect();
        let web = crate::onedim::OneDimSkipWeb::builder(keys).seed(35).build();
        let dist = DistributedSkipWeb::builder(web.inner())
            .consolidated(4)
            .spawn();
        let client = dist.client();
        let new = dist.spawn_host();
        assert_eq!(new, HostId(4));
        assert_eq!(dist.hosts(), 5);
        for s in 0..30u64 {
            let q = (s * 101) % 250;
            let origin = web.random_origin(s);
            let want = web.nearest(origin, q).answer.nearest;
            assert_eq!(dist.query(&client, origin, q).unwrap().answer, Some(want));
        }
        // The new host actually participates in the rebalanced placement.
        assert!(
            dist.traffic().received[4] > 0,
            "spawned host must receive traffic"
        );
        assert!(dist.insert(&client, 999).unwrap().applied);
        dist.shutdown();
    }

    #[test]
    fn batched_queries_and_updates_match_serial_with_fewer_crossings() {
        let keys: Vec<u64> = (0..200).map(|i| i * 10).collect();
        let web = crate::onedim::OneDimSkipWeb::builder(keys).seed(41).build();
        let serial = DistributedSkipWeb::builder(web.inner())
            .consolidated(200 + 16)
            .spawn();
        let batched = DistributedSkipWeb::builder(web.inner())
            .consolidated(200 + 16)
            .spawn();
        let (cs, cb) = (serial.client(), batched.client());
        // Queries: byte-identical answers, strictly fewer crossings.
        let qs: Vec<u64> = (0..64u64).map(|s| (s * 157) % 2100).collect();
        let want: Vec<Option<u64>> = qs
            .iter()
            .map(|&q| serial.query(&cs, 3, q).unwrap().answer)
            .collect();
        let got: Vec<Option<u64>> = batched
            .query_batch(&cb, 3, qs.clone())
            .unwrap()
            .into_iter()
            .map(|r| r.answer)
            .collect();
        assert_eq!(got, want);
        let (q_serial, q_batched) = (serial.message_count(), batched.message_count());
        assert!(
            q_batched < q_serial,
            "batch crossings {q_batched} must undercut serial {q_serial}"
        );
        // Per-op hops still equal the serial route length: the envelope is
        // what got cheaper, not the route.
        for (reply, &q) in batched
            .query_batch(&cb, 5, qs.clone())
            .unwrap()
            .iter()
            .zip(&qs)
        {
            let serial_reply = serial.query(&cs, 5, q).unwrap();
            assert_eq!(reply.hops, serial_reply.hops, "route length for q={q}");
        }
        // Updates: the same `(origin, update)` pairs through both paths
        // leave identical flags and ground sets, with coalesced envelopes
        // metered on the batch side. One shared origin and clustered keys
        // keep the routes overlapping, so the batch demonstrably coalesces.
        let ins = (0..12u64).map(|i| Update::Insert {
            item: 901 + i * 2,
            bits: i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        });
        let rem = (0..12u64).map(|i| Update::Remove { item: 901 + i * 2 });
        for round in [ins.collect::<Vec<_>>(), rem.collect()] {
            // A batch of one is the serial path.
            let one = |update: &Update<u64>| serial.update_batch(&cs, vec![(3, update.clone())]);
            let serial_flags: Vec<bool> =
                round.iter().map(|u| one(u).unwrap()[0].applied).collect();
            let batch = round.into_iter().map(|update| (3, update)).collect();
            let replies = batched.update_batch(&cb, batch).unwrap();
            let batch_flags: Vec<bool> = replies.iter().map(|r| r.applied).collect();
            assert_eq!(batch_flags, serial_flags);
            assert_eq!(batched.ground(), serial.ground());
        }
        assert!(
            batched.traffic().total_update_batch_ops() > 0,
            "update coalescing must be metered"
        );
        serial.shutdown();
        batched.shutdown();
    }

    #[test]
    fn scattered_box_and_prefix_reports_match_the_serial_answers() {
        // Quadtree: scatter-gathered box reports are byte-identical to the
        // locus-computed ones, while the fan-out pays real crossings.
        let web = QuadtreeSkipWeb::builder(grid_points(180)).seed(42).build();
        let dist = web.serve();
        let client = dist.client();
        let boxes: [([u32; 2], [u32; 2]); 3] = [
            ([0, 0], [u32::MAX / 2, u32::MAX / 2]),
            ([1 << 20, 1 << 20], [1 << 26, 1 << 26]),
            ([0, 0], [u32::MAX, u32::MAX]),
        ];
        for (lo, hi) in boxes {
            let origin = web.random_origin(5);
            let serial = dist
                .query(&client, origin, QuadtreeRequest::InBox { lo, hi })
                .unwrap();
            let scattered = dist
                .query_scatter(&client, origin, QuadtreeRequest::InBox { lo, hi })
                .unwrap();
            assert_eq!(scattered.answer, serial.answer, "box {lo:?}..{hi:?}");
        }
        // A locate request has nothing to scatter and falls back serially.
        let q = PointKey::new([7, 9]);
        let serial = dist.query(&client, 0, QuadtreeRequest::Locate(q)).unwrap();
        let scattered = dist
            .query_scatter(&client, 0, QuadtreeRequest::Locate(q))
            .unwrap();
        assert_eq!(scattered.answer, serial.answer);
        assert_eq!(scattered.hops, serial.hops);
        dist.shutdown();

        // Trie: prefix enumeration scatter-gathers across the hosts owning
        // the matches.
        let strings: Vec<String> = (0..90).map(|i| format!("isbn-97802{i:03}x")).collect();
        let web = TrieSkipWeb::builder(strings).seed(43).build();
        let dist = web.serve();
        let client = dist.client();
        for prefix in ["isbn-97802", "isbn-978020", "isbn", "nope", ""] {
            let origin = web.random_origin(prefix.len() as u64);
            let serial = dist.query(&client, origin, prefix.to_string()).unwrap();
            let scattered = dist
                .query_scatter(&client, origin, prefix.to_string())
                .unwrap();
            assert_eq!(
                scattered.answer.matched_len, serial.answer.matched_len,
                "len {prefix:?}"
            );
            assert_eq!(
                scattered.answer.matches, serial.answer.matches,
                "matches {prefix:?}"
            );
        }
        dist.shutdown();
    }

    #[test]
    fn scattered_reports_survive_a_crash_with_replicas() {
        let web = QuadtreeSkipWeb::builder(grid_points(120))
            .seed(44)
            .replicate(2)
            .build();
        let dist = web.serve();
        let client = dist.client();
        let (lo, hi) = ([0u32, 0u32], [u32::MAX, u32::MAX]);
        let want = dist
            .query(
                &client,
                web.random_origin(1),
                QuadtreeRequest::InBox { lo, hi },
            )
            .unwrap();
        dist.kill_host(HostId(9));
        let got = dist
            .query_scatter(
                &client,
                web.random_origin(1),
                QuadtreeRequest::InBox { lo, hi },
            )
            .unwrap();
        assert_eq!(got.answer, want.answer, "scatter steers around the crash");
        dist.shutdown();
    }

    #[test]
    fn resubmitted_update_with_same_op_id_never_double_applies() {
        let keys: Vec<u64> = (0..32).map(|i| i * 4).collect();
        let web = crate::onedim::OneDimSkipWeb::builder(keys).seed(45).build();
        let dist = DistributedSkipWeb::builder(web.inner())
            .consolidated(40)
            .spawn();
        let client = dist.client();
        // First attempt of the logical insert lands normally.
        let topo = dist.shared.current_topo();
        let insert = update_op(Update::Insert {
            item: 333,
            bits: 0xBEEF,
        });
        let first = InFlight::new(&client, 3, insert);
        dist.admit(&client, &topo, std::slice::from_ref(&first))
            .unwrap();
        assert!(UpdateReply::of(dist.collect(&client, &first).unwrap()).applied);
        assert!(dist.ground().contains(&333));
        // A concurrent client removes the key before the (simulated)
        // timeout-resubmit of the original attempt arrives.
        let other = dist.client();
        assert!(dist.remove(&other, 333).unwrap().applied);
        let version = dist.health().topology_version;
        // The resubmit carries the original op id: the apply path finds the
        // recorded outcome and echoes it instead of re-inserting — without
        // the ledger this second attempt would double-apply and resurrect
        // the removed key.
        let topo = dist.shared.current_topo();
        let again = InFlight {
            origin: 3,
            op: first.op.clone(),
            corr: client.alloc_corr(),
        };
        dist.admit(&client, &topo, std::slice::from_ref(&again))
            .unwrap();
        let replay = UpdateReply::of(dist.collect(&client, &again).unwrap());
        assert!(replay.applied, "echoed outcome reports the first landing");
        assert!(
            !dist.ground().contains(&333),
            "the resubmit must not re-apply the insert"
        );
        assert_eq!(
            dist.health().topology_version,
            version,
            "an echoed replay publishes no new snapshot"
        );
        dist.shutdown();
    }

    #[test]
    fn a_resubmit_sharing_a_turn_with_its_original_is_echoed_not_reapplied() {
        let keys: Vec<u64> = (0..32).map(|i| i * 4).collect();
        let web = crate::onedim::OneDimSkipWeb::builder(keys).seed(50).build();
        let dist = DistributedSkipWeb::builder(web.inner())
            .consolidated(1)
            .spawn();
        let client = dist.client();
        // A delayed original and its timeout-resubmit — same op id, two
        // correlation ids — coalesced into one envelope: on a single host
        // both finish their repair in the same handler turn.
        let topo = dist.shared.current_topo();
        let (at, _) = topo.origin(3);
        let attempt = |corr| EngineMsg {
            op: EngineOp::Update(UpdateOp {
                update: Update::Insert {
                    item: 333,
                    bits: 0xBEEF,
                },
                phase: UpdatePhase::Route,
                op_id: 900,
            }),
            at,
            client: client.id(),
            corr,
            hops: 0,
            topo: Arc::clone(&topo),
        };
        let ops = vec![attempt(900), attempt(901)];
        client
            .inner
            .send(HostId(0), FabricMsg::Batch(BatchMsg { ops }))
            .unwrap();
        // The client only listens to the resubmit's correlation id; it must
        // hear that the insert landed, as the original does.
        for corr in [901, 900] {
            let reply = client.recv_corr(corr, Duration::from_secs(10)).unwrap();
            assert_eq!(reply.try_applied(), Ok(true), "attempt {corr}");
        }
        assert_eq!(dist.ground().iter().filter(|&&k| k == 333).count(), 1);
        assert_eq!(dist.len(), 33);
        assert_eq!(dist.health().topology_version, topo.version + 1);
        assert_eq!(dist.applied_ledger(), [((client.id(), 900), true)]);
        dist.shutdown();
    }

    #[test]
    fn a_turns_forwards_leave_before_its_apply_takes_the_state_lock() {
        let keys: Vec<u64> = (0..64).map(|i| i * 4).collect();
        let web = crate::onedim::OneDimSkipWeb::builder(keys).seed(52).build();
        let dist = DistributedSkipWeb::builder(web.inner())
            .consolidated(2)
            .spawn();
        let client = dist.client();
        let topo = dist.shared.current_topo();
        let membership = dist.membership();
        let (me, other) = (HostId(0), HostId(1));
        // A query that enters at `me`, must forward, and is answered by the
        // other host without coming back.
        let leaves_for_good = |&(origin, q): &(usize, u64)| {
            let (at, copies) = topo.origin(origin);
            let enters_here = pick_alive(copies, &topo.ctl, me, |_| true) == Some(me);
            let RouteOutcome::Forward { next, host } = route_step(&topo, me, at, &q, &membership)
            else {
                return false;
            };
            let ends_there = matches!(
                route_step(&topo, host, next, &q, &membership),
                RouteOutcome::AtLocus(_)
            );
            enters_here && host == other && ends_there
        };
        let (origin, q) = (0..64usize)
            .flat_map(|origin| (0..64u64).map(move |i| (origin, i * 4 + 1)))
            .find(leaves_for_good)
            .expect("some query crosses from host 0 to host 1 once");
        let want = dist.query(&client, origin, q).unwrap().answer;
        let msg = |op, corr| EngineMsg {
            op,
            at: topo.origin(origin).0,
            client: client.id(),
            corr,
            hops: 0,
            topo: Arc::clone(&topo),
        };
        // One envelope: that query, and an update whose repair trail ends on
        // `me`, so this turn applies it.
        let (read, write) = (client.alloc_corr(), client.alloc_corr());
        let ops = vec![
            msg(
                EngineOp::Query {
                    req: q,
                    gather: false,
                },
                read,
            ),
            msg(
                EngineOp::Update(UpdateOp {
                    update: Update::Insert {
                        item: 333,
                        bits: 0xBEEF,
                    },
                    phase: UpdatePhase::Repair {
                        cursor: 0,
                        trail: vec![me],
                    },
                    op_id: write,
                }),
                write,
            ),
        ];
        // The apply blocks on the state lock for as long as this thread
        // holds it; the query's answer must arrive meanwhile.
        let st = dist.shared.state.lock();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let client = &client;
            scope.spawn(move || {
                client
                    .inner
                    .send(me, FabricMsg::Batch(BatchMsg { ops }))
                    .unwrap();
                tx.send(client.recv_corr(read, Duration::from_secs(5)))
                    .unwrap();
            });
            // Release the lock before judging, so a failure cannot hang.
            let answered = rx.recv_timeout(Duration::from_secs(10));
            drop(st);
            let reply = answered
                .expect("the helper reports")
                .expect("the query waited out the apply");
            assert_eq!(reply.try_into_answer().unwrap(), want);
        });
        let applied = client.recv_corr(write, Duration::from_secs(10)).unwrap();
        assert_eq!(applied.try_applied(), Ok(true));
        assert!(dist.ground().contains(&333));
        dist.shutdown();
    }

    #[test]
    fn a_read_through_the_host_that_ended_a_repair_does_not_wait_for_the_apply() {
        let keys: Vec<u64> = (0..64).map(|i| i * 4).collect();
        let web = crate::onedim::OneDimSkipWeb::builder(keys).seed(54).build();
        let dist = DistributedSkipWeb::builder(web.inner())
            .consolidated(4)
            .spawn();
        let client = dist.client();
        let topo = dist.shared.current_topo();
        let me = HostId(0);
        let origin = (0..64usize)
            .find(|&o| topo.origin(o).1.next().map(|h| topo.ctl.fold(h)) == Some(me))
            .expect("some origin enters at host 0");
        let q = 101u64;
        let want = dist.query(&client, origin, q).unwrap().answer;
        let (read, write) = (client.alloc_corr(), client.alloc_corr());
        let msg = |op, corr| EngineMsg {
            op,
            at: topo.origin(origin).0,
            client: client.id(),
            corr,
            hops: 0,
            topo: Arc::clone(&topo),
        };
        // An update whose repair trail ends on host 0, then a read that
        // enters there, each in its own envelope.
        let update = msg(
            EngineOp::Update(UpdateOp {
                update: Update::Insert {
                    item: 333,
                    bits: 0xBEEF,
                },
                phase: UpdatePhase::Repair {
                    cursor: 0,
                    trail: vec![me],
                },
                op_id: write,
            }),
            write,
        );
        let query = msg(
            EngineOp::Query {
                req: q,
                gather: false,
            },
            read,
        );
        // The update's apply waits for the lock this thread holds; host 0
        // must answer the read meanwhile.
        let st = dist.shared.state.lock();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let client = &client;
            scope.spawn(move || {
                client.inner.send(me, FabricMsg::One(update)).unwrap();
                client.inner.send(me, FabricMsg::One(query)).unwrap();
                tx.send(client.recv_corr(read, Duration::from_secs(5)))
                    .unwrap();
            });
            // Release the lock before judging, so a failure cannot hang.
            let answered = rx.recv_timeout(Duration::from_secs(10));
            drop(st);
            let reply = answered
                .expect("the helper reports")
                .expect("the read waited out the apply");
            assert_eq!(reply.try_into_answer().unwrap(), want);
        });
        let applied = client.recv_corr(write, Duration::from_secs(10)).unwrap();
        assert_eq!(applied.try_applied(), Ok(true));
        assert!(dist.ground().contains(&333));
        dist.shutdown();
    }

    #[test]
    fn updates_handed_off_while_the_state_lock_is_held_apply_in_one_turn() {
        let keys: Vec<u64> = (0..64).map(|i| i * 4).collect();
        let web = crate::onedim::OneDimSkipWeb::builder(keys).seed(55).build();
        let dist = DistributedSkipWeb::builder(web.inner())
            .consolidated(1)
            .spawn();
        let client = dist.client();
        let topo = dist.shared.current_topo();
        let before = dist.health();
        let me = HostId(0);
        let msg = |op, corr| EngineMsg {
            op,
            at: topo.origin(0).0,
            client: client.id(),
            corr,
            hops: 0,
            topo: Arc::clone(&topo),
        };
        let writes: Vec<u64> = (0..3).map(|_| client.alloc_corr()).collect();
        let read = client.alloc_corr();
        let mut envelopes: Vec<_> = writes
            .iter()
            .zip([1u64, 5, 9])
            .map(|(&corr, item)| {
                let update = Update::Insert {
                    item,
                    bits: item.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                };
                let phase = UpdatePhase::Repair {
                    cursor: 0,
                    trail: vec![me],
                };
                let op = EngineOp::Update(UpdateOp {
                    update,
                    phase,
                    op_id: corr,
                });
                FabricMsg::One(msg(op, corr))
            })
            .collect();
        let query = EngineOp::Query {
            req: 0u64,
            gather: false,
        };
        envelopes.push(FabricMsg::One(msg(query, read)));
        let st = dist.shared.state.lock();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let client = &client;
            scope.spawn(move || {
                // One handler turn per envelope: three hand-offs, then a
                // read whose answer shows the host has made all three.
                for envelope in envelopes {
                    client.inner.send(me, envelope).unwrap();
                }
                tx.send(client.recv_corr(read, Duration::from_secs(5)))
                    .unwrap();
            });
            let answered = rx.recv_timeout(Duration::from_secs(10));
            drop(st);
            answered
                .expect("the helper reports")
                .expect("the host answered the read");
        });
        for corr in writes {
            let reply = client.recv_corr(corr, Duration::from_secs(10)).unwrap();
            assert_eq!(reply.try_applied(), Ok(true), "write {corr}");
        }
        let after = dist.health();
        assert_eq!(after.apply_turns, before.apply_turns + 1);
        assert_eq!(after.updates_applied, before.updates_applied + 3);
        assert_eq!(after.topology_version, before.topology_version + 1);
        assert!(after.to_string().ends_with("ops/turn=3.00"), "{after}");
        assert_eq!(dist.len(), 67);
        dist.shutdown();
    }

    #[test]
    fn a_hand_off_to_a_stopped_stage_is_answered_unavailable() {
        let keys: Vec<u64> = (0..32).map(|i| i * 4).collect();
        let web = crate::onedim::OneDimSkipWeb::builder(keys).seed(56).build();
        let dist = DistributedSkipWeb::builder(web.inner())
            .consolidated(2)
            .spawn();
        let client = dist.client();
        assert!(dist.shared.stage.send(None).is_ok(), "the stage runs");
        while !dist.stage.is_finished() {
            std::thread::yield_now();
        }
        // An update fails fast instead of waiting out its timeout; reads,
        // which never reach the stage, still answer.
        assert_eq!(
            dist.insert_with(&client, 0, 333, 0xBEEF).unwrap_err(),
            RuntimeError::Unavailable
        );
        assert_eq!(dist.query(&client, 0, 101).unwrap().answer, Some(100));
        dist.shutdown();
    }

    #[test]
    fn reads_answer_from_the_published_snapshot_while_an_apply_holds_the_state_lock() {
        let keys: Vec<u64> = (0..48).map(|i| i * 5).collect();
        let web = crate::onedim::OneDimSkipWeb::builder(keys.clone())
            .seed(51)
            .replicate(2)
            .build();
        let dist = DistributedSkipWeb::builder(web.inner())
            .consolidated(4)
            .spawn();
        let client = dist.client();
        assert!(dist.insert_with(&client, 0, 7, 0xF00D).unwrap().applied);
        // An apply in progress: the state lock is held and the web under it
        // is already ahead of the published snapshot.
        let mut st = dist.shared.state.lock();
        let ahead = vec![Update::Remove { item: 7 }, Update::Remove { item: 10 }];
        assert_eq!(Arc::make_mut(&mut st.web).apply(ahead), [true, true]);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let dist = &dist;
            scope.spawn(move || {
                let reads = (dist.len(), dist.is_empty(), dist.ground(), dist.health());
                tx.send(reads).unwrap();
            });
            // A reader that queues behind the lock fails here instead of
            // hanging the suite: release the lock before judging.
            let reads = rx.recv_timeout(Duration::from_secs(10));
            drop(st);
            let (len, empty, ground, health) = reads.expect("reads waited for the state lock");
            let mut published = keys.clone();
            published.insert(2, 7);
            assert_eq!((len, empty, ground), (49, false, published));
            assert_eq!((health.replication, health.topology_version), (2, 1));
        });
        dist.shutdown();
    }

    #[test]
    fn lost_update_is_resubmitted_and_applies_exactly_once() {
        let keys: Vec<u64> = (0..48).map(|i| i * 10).collect();
        let web = crate::onedim::OneDimSkipWeb::builder(keys)
            .seed(46)
            .replicate(2)
            .build();
        let dist = DistributedSkipWeb::builder(web.inner()).spawn();
        let client = dist.client();
        client.set_timeouts(Timeouts::new(
            Duration::from_millis(400),
            Duration::from_millis(400),
        ));
        // Poison the origin's entry host with a corrupt address, then race
        // the real insert into its mailbox: whether the insert queues
        // behind the poison (lost with the crash → timeout → resubmit) or
        // the tombstone beats the send (failover at submit), the blocking
        // call must land the insert exactly once.
        let topo = dist.shared.current_topo();
        // One thread per logical host: the fold is the identity.
        let entry_host = topo.origin(0).1.next().unwrap();
        client
            .inner
            .send(
                entry_host,
                FabricMsg::One(EngineMsg {
                    op: EngineOp::Query {
                        req: 0u64,
                        gather: false,
                    },
                    at: GlobalRef {
                        level: 0,
                        set: 0,
                        range: u32::MAX,
                    },
                    client: client.id(),
                    corr: u64::MAX,
                    hops: 0,
                    topo: Arc::clone(&topo),
                }),
            )
            .unwrap();
        let before = dist.health().topology_version;
        let reply = dist.insert_with(&client, 0, 7, 0xF00D).unwrap();
        assert!(reply.applied);
        assert!(dist.ground().contains(&7));
        assert_eq!(
            dist.health().topology_version,
            before + 1,
            "exactly one apply published exactly one snapshot"
        );
        await_dead(&dist, entry_host);
        dist.shutdown();
    }

    #[test]
    fn late_replies_for_abandoned_correlations_are_dropped_and_counted() {
        let keys: Vec<u64> = (0..64).map(|i| i * 3).collect();
        let web = crate::onedim::OneDimSkipWeb::builder(keys).seed(47).build();
        let dist = DistributedSkipWeb::builder(web.inner()).spawn();
        let client = dist.client();
        let corr = dist.submit(&client, 0, 55u64).unwrap();
        // Abandon the operation before draining its reply: the late answer
        // must be dropped on arrival — and counted — instead of sitting in
        // the pending buffer where a later recv_any would misread it.
        client.mark_stale(corr);
        let err = client.recv_any(Duration::from_millis(600)).unwrap_err();
        assert_eq!(err, RuntimeError::Timeout);
        assert_eq!(dist.traffic().stale_replies, 1, "drop is observable");
        assert!(client.pending.lock().is_empty(), "nothing parked");
        // A fresh operation on the same client is unaffected.
        let reply = dist.query(&client, 0, 55).unwrap();
        assert_eq!(reply.corr, corr + 1);
        assert!(reply.answer.is_some());
        dist.shutdown();
    }

    #[test]
    fn client_timeouts_are_configurable_per_client() {
        let web = crate::onedim::OneDimSkipWeb::builder(vec![1, 2, 3])
            .seed(36)
            .build();
        let dist = DistributedSkipWeb::builder(web.inner()).spawn();
        let client = dist.client();
        assert_eq!(client.timeouts().query, DEFAULT_QUERY_TIMEOUT);
        assert_eq!(client.timeouts().update, DEFAULT_UPDATE_TIMEOUT);
        client.set_timeouts(Timeouts::uniform(Duration::from_millis(250)));
        assert_eq!(client.timeouts().query, Duration::from_millis(250));
        assert_eq!(client.timeouts().update, Duration::from_millis(250));
        client.set_timeouts(Timeouts::new(
            Duration::from_secs(1),
            Duration::from_secs(2),
        ));
        assert_eq!(client.timeouts().query, Duration::from_secs(1));
        assert_eq!(client.timeouts().update, Duration::from_secs(2));
        // A second client keeps the defaults: the setting is per client.
        let other = dist.client();
        assert_eq!(other.timeouts().query, DEFAULT_QUERY_TIMEOUT);
        dist.shutdown();
    }

    #[test]
    fn consolidated_spawns_exactly_the_threads_asked_for() {
        let web = crate::onedim::OneDimSkipWeb::builder((0..5).map(|i| i * 10).collect())
            .seed(53)
            .build();
        assert_eq!(web.hosts(), 5);
        let per_host = web.serve();
        let eight = DistributedSkipWeb::builder(web.inner())
            .consolidated(8)
            .spawn();
        // More threads than the web has hosts: the fold is the identity, so
        // every answer and every hop count is the per-host fabric's.
        assert_eq!(eight.hosts(), 8);
        let (cp, c8) = (per_host.client(), eight.client());
        for s in 0..20u64 {
            let (origin, q) = (web.random_origin(s), (s * 7) % 50);
            let want = per_host.query(&cp, origin, q).unwrap();
            let got = eight.query(&c8, origin, q).unwrap();
            assert_eq!((got.answer, got.hops), (want.answer, want.hops), "q = {q}");
        }
        per_host.shutdown();
        eight.shutdown();
    }
}
