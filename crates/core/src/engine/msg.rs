//! What crosses the fabric: the ops an envelope carries between hosts, the
//! envelopes themselves, and the replies a client receives.

use std::fmt;
use std::sync::Arc;

use skipweb_net::runtime::{ClientId, Context};
use skipweb_net::HostId;
use skipweb_structures::traits::RangeId;

use super::{GlobalRef, Routable, Topology};
use crate::skipweb::Update;

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
    pub(super) fn reply(
        &self,
        ctx: &mut Context<'_, FabricMsg<D>, EngineReply<D>>,
        body: ReplyBody<D>,
    ) {
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
/// batch of operations that were all bound for the same next host, metered
/// as **one** host crossing however many ops it carries (§2.5).
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
pub(super) fn envelope<D: Routable>(ops: Vec<EngineMsg<D>>) -> FabricMsg<D> {
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
    /// [`RuntimeError::Unavailable`](skipweb_net::runtime::RuntimeError::Unavailable).
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
    /// Correlation id of the originating
    /// [`DistributedSkipWeb::submit`](super::DistributedSkipWeb::submit).
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
    /// return it. The wait loop settles a query only on an answer.
    pub(super) fn of(reply: EngineReply<D>) -> Self {
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
    /// points return it. The wait loop settles an update only on an
    /// outcome.
    pub(super) fn of<D: Routable>(reply: EngineReply<D>) -> Self {
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
