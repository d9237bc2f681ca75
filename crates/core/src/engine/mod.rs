//! The generic distributed skip-web engine: any range-determined structure
//! served by the actor runtime — queries *and* dynamic updates.
//!
//! [`DistributedSkipWeb`] turns a built [`SkipWeb`](crate::skipweb::SkipWeb)
//! into actors, one per host, executing the paper's protocol on the
//! runtime's worker pool. Where ranges live is the web's own choice
//! (blocking and replication are set when it is built); [`FabricBuilder`]
//! only picks the host count, transport, client timeouts and write-ahead
//! sink.
//!
//! * **Addressing (§2.3).** Every range of every level set gets a
//!   [`GlobalRef`] — `(level, set, range)` — and `(host, GlobalRef)` is the
//!   paper's *(host, address)* pointer. Neighbours, origins and hyperlinks
//!   are derived, never stored: range-determinism (§2.1) makes them the
//!   same on every host.
//! * **Sharding (§2.4).** A host may only *act* on the ranges placed on it;
//!   touching any other range costs one message forwarding the operation
//!   to a host that stores it. The structure itself is shared read-only:
//!   what is distributed and metered is the *authority to act* on a range.
//! * **Forwarding (§2.5).** A host advances an op through
//!   `SkipWeb::walk_step` — the stepper the simulator's
//!   [`query`](crate::skipweb::SkipWeb::query) meters — for free while the
//!   next range is its own (*"processes the query as far as it can
//!   internally"*), else sends one message to a host storing it,
//!   preferring a co-located or alive replica.
//! * **Updates (§4).** An [`Update`](crate::skipweb::Update) routes to its
//!   item's level-0 locus like a query, then walks the conflict
//!   neighbourhoods its change rewires, bottom-up, one message per host
//!   crossing, as [`update_with`](crate::skipweb::SkipWeb::update_with)
//!   meters. Whether it routes and which tower its repair walks is its
//!   plan (`SkipWeb::plan`), the one §4 rule the simulator applies too.
//!   The host that completes the repair hands it to the apply stage.
//!
//! Replies report the remote hops an op paid, which for owner-hosted
//! placement equals the simulator's metered host crossings. The README's
//! *Fault tolerance*, *Batched operations* and *Snapshots* sections
//! describe failover and membership changes, batching and exactly-once
//! resubmits, and how the apply stage publishes snapshots.
//!
//! # Seams
//!
//! Each file owns one decision:
//!
//! | file | decides |
//! |---|---|
//! | `mod.rs` | what an address is ([`GlobalRef`]) and what a structure offers to be served ([`Routable`]) |
//! | `msg.rs` | what crosses the fabric: ops, envelopes ([`FabricMsg`]) and replies ([`EngineReply`]) |
//! | `route.rs` | where an op goes next: the snapshot and placement fold it routes under, the replica it picks, the forwarding loop and the repair trail, run by the per-host [`EngineActor`] one turn per envelope |
//! | `stage.rs` | how an update lands: the apply stage's turn of ledger claims, one [`SkipWeb::apply`](crate::skipweb::SkipWeb::apply), one [`Durability`] append, one publish and the replies |
//! | `client.rs` | how a caller gets an outcome: [`EngineClient`], [`Timeouts`], admission, and the wait loop that settles each reply against its op and resubmits lost ones |
//! | `fabric.rs` | how a fabric stands up, changes and stops: [`FabricBuilder`], membership changes, [`EngineHealth`], shutdown |
//!
//! # Example
//!
//! ```
//! use skipweb_core::engine::DistributedSkipWeb;
//! use skipweb_core::onedim::OneDimSkipWeb;
//!
//! let web = OneDimSkipWeb::builder((0..64).map(|i| i * 10).collect()).build();
//! let dist = DistributedSkipWeb::builder(web.inner()).consolidated(8).spawn();
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

use std::fmt;
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;
use rand::rngs::StdRng;

use skipweb_net::runtime::Runtime;
use skipweb_net::tcp::TcpTransport;
use skipweb_structures::traits::{RangeDetermined, RangeId};

mod client;
mod fabric;
mod msg;
mod route;
mod stage;
mod tests;

pub use client::{EngineClient, Timeouts};
pub use fabric::{EngineHealth, FabricBuilder};
pub use msg::{
    BatchMsg, EngineMsg, EngineReply, FabricMsg, QueryReply, ReplyBody, ReplyKind, ReplyMismatch,
    UpdateReply,
};
pub(crate) use msg::{EngineOp, UpdateOp, UpdatePhase};
pub use route::EngineActor;
pub(crate) use route::{PlacementCtl, Topology};
pub use stage::{Durability, DurableOp};

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
/// The simulator answers through the same hook
/// ([`SkipWeb::ask`](crate::skipweb::SkipWeb::ask)).
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
    /// When `Some`, [`DistributedSkipWeb::query_scatter`] sends each host
    /// owning some of the ranges one sub-scan. Implementors override
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

/// A running distributed skip-web over structure `D`: one actor per
/// (physical) host, executing the forwarding protocol of §2.5 — and the
/// update repairs of §4 — under real concurrent message passing. Its client
/// calls live in `client.rs`, its lifecycle and membership calls in
/// `fabric.rs`.
pub struct DistributedSkipWeb<D: Routable + Send + Sync + 'static> {
    runtime: Runtime<EngineActor<D>>,
    shared: Arc<stage::Shared<D>>,
    /// The apply stage's thread: started before the actors, stopped and
    /// joined after them.
    stage: JoinHandle<()>,
    /// Present on TCP deployments: the socket transport, kept for the
    /// driver's shutdown broadcast and the workers' teardown wait.
    tcp: Option<Arc<TcpTransport<FabricMsg<D>, EngineReply<D>>>>,
    /// Draws origins and level bits for [`insert`](Self::insert) and
    /// [`remove`](Self::remove) (explicit-bits calls bypass it), under a
    /// lock of its own: a draw never waits out an apply. It starts as a
    /// copy of the served web's own generator, so the fabric draws what
    /// [`SkipWeb::insert`](crate::skipweb::SkipWeb::insert) on a clone of
    /// the web would.
    rng: Mutex<StdRng>,
    /// The wait-and-retry policy newly registered clients start with.
    default_timeouts: Timeouts,
}
