//! How a caller gets an op in and its outcome back: the client handle and
//! its timeouts, admission under one snapshot, and the one wait loop that
//! settles each reply against its op and resubmits lost ones.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rand::Rng;

use skipweb_net::runtime::{Client, ClientId, RuntimeError};
use skipweb_net::HostId;

use super::msg::envelope;
use super::route::repair_trail;
use super::{
    DistributedSkipWeb, EngineMsg, EngineOp, EngineReply, FabricMsg, GlobalRef, QueryReply,
    ReplyBody, Routable, Topology, UpdateOp, UpdatePhase, UpdateReply,
};
use crate::skipweb::Update;

/// A client handle supporting many concurrent in-flight operations, matched
/// to replies by correlation id. Shareable across threads (`Sync`); replies
/// pulled by one thread for another's correlation id are parked in a shared
/// buffer. Its blocking calls wait per its [`Timeouts`].
pub struct EngineClient<D: Routable + Send + Sync + 'static> {
    pub(super) inner: Client<FabricMsg<D>, EngineReply<D>>,
    next_corr: AtomicU64,
    pub(super) pending: Mutex<Vec<EngineReply<D>>>,
    /// Correlation ids abandoned by a timeout-resubmit, whose late replies
    /// are dropped (see [`mark_stale`](Self::mark_stale)). The oldest are
    /// pruned past [`STALE_MARKER_CAP`]: ids are monotone.
    stale: Mutex<BTreeSet<u64>>,
    /// This client's wait-and-retry policy. Operations already blocking
    /// keep the policy they started with.
    timeouts: Mutex<Timeouts>,
}

/// Most abandoned correlation ids remembered per client (see
/// [`EngineClient`]'s stale tracking).
const STALE_MARKER_CAP: usize = 1024;

/// How long a blocking client call waits for each attempt, settable per
/// client ([`EngineClient::set_timeouts`]) or for every client of a
/// deployment ([`FabricBuilder::timeouts`](super::FabricBuilder::timeouts)).
/// How many attempts it makes is the wait loop's own rule (see
/// [`DistributedSkipWeb::query`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timeouts {
    /// Blocking-query wait per attempt (default 10 s).
    pub query: Duration,
    /// Blocking-update wait per attempt (default 30 s).
    pub update: Duration,
}

impl Timeouts {
    /// The defaults: 10 s queries, 30 s updates.
    pub const DEFAULT: Timeouts = Timeouts {
        query: Duration::from_secs(10),
        update: Duration::from_secs(30),
    };

    /// Explicit query and update waits.
    pub fn new(query: Duration, update: Duration) -> Self {
        Timeouts { query, update }
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
    pub(super) fn alloc_corr(&self) -> u64 {
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
    /// late reply — a scattered report can produce several — on arrival,
    /// each drop counted in
    /// [`HostTraffic::stale_replies`](skipweb_net::HostTraffic::stale_replies).
    pub(super) fn mark_stale(&self, corr: u64) {
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
        // No deadline when it is past what an `Instant` can hold (say,
        // `Duration::MAX`): the wait goes on until the reply comes.
        let deadline = Instant::now().checked_add(timeout);
        loop {
            {
                let mut pending = self.pending.lock();
                if let Some(i) = pending.iter().position(|r| wanted(r.corr)) {
                    return Ok(pending.remove(i));
                }
            }
            let left = match deadline {
                Some(d) => d.saturating_duration_since(Instant::now()),
                None => Duration::MAX,
            };
            if left.is_zero() {
                return Err(RuntimeError::Timeout);
            }
            // Short slices so concurrent users of a shared client notice
            // replies another thread drained from the channel and parked
            // for them.
            let slice = left.min(Duration::from_millis(25));
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
pub(super) struct InFlight<D: Routable> {
    pub(super) origin: usize,
    pub(super) op: EngineOp<D>,
    pub(super) corr: u64,
}

impl<D: Routable + Send + Sync + 'static> InFlight<D> {
    /// A new logical operation of `client`. An update is tagged with its
    /// first correlation id as its op id, which every resubmit keeps.
    pub(super) fn new(client: &EngineClient<D>, origin: usize, mut op: EngineOp<D>) -> Self {
        let corr = client.alloc_corr();
        if let EngineOp::Update(u) = &mut op {
            u.op_id = corr;
        }
        InFlight { origin, op, corr }
    }
}

/// A query as a client admits it.
pub(super) fn query_op<D: Routable>(req: D::Request, gather: bool) -> EngineOp<D> {
    EngineOp::Query { req, gather }
}

/// An update as a client admits it; planning sets the phase it enters in
/// and [`InFlight::new`] its op id.
pub(super) fn update_op<D: Routable>(update: Update<D::Item>) -> EngineOp<D> {
    EngineOp::Update(UpdateOp {
        update,
        phase: UpdatePhase::Route,
        op_id: 0,
    })
}

/// Timeout-resubmits of one blocking call on a lossless transport, where a
/// timeout signals an operation lost in a crashed host's mailbox: one retry
/// after the crash suffices, and it fires only while a host is dead.
const RESUBMITS: usize = 1;

/// Timeout-resubmits on a lossy transport, where *any* hop can silently
/// drop the operation even with every host alive, so every timeout retries.
/// An operation survives a crossing with probability `(1 - loss)^2`
/// (message plus its share of the reply), so at 5% loss an attempt over ~7
/// crossings fails with probability ≈ 0.26 — twelve resubmits push the
/// residual failure rate below `10^-6`, far under what any test run can
/// observe.
const LOSSY_RESUBMITS: usize = 12;

impl<D: Routable + Send + Sync + 'static> DistributedSkipWeb<D> {
    /// Registers a client, starting from the deployment's default
    /// [`Timeouts`] policy.
    pub fn client(&self) -> EngineClient<D> {
        EngineClient {
            inner: self.runtime.client(),
            next_corr: AtomicU64::new(0),
            pending: Mutex::new(Vec::new()),
            stale: Mutex::new(BTreeSet::new()),
            timeouts: Mutex::new(self.default_timeouts),
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
    /// [`SkipWeb::insert_with`](crate::skipweb::SkipWeb::insert_with) with
    /// the same `(origin, bits)` yields the same structure and — for
    /// owner-hosted placement within capacity — the same message count.
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
    /// counterpart of
    /// [`SkipWeb::remove_with`](crate::skipweb::SkipWeb::remove_with):
    /// `origin` is ignored when the update's plan skips the lookup (item
    /// absent from the snapshot, or a single-item web).
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

    /// Resolves where an update enters the fabric under `topo`, by its
    /// plan ([`SkipWeb::plan`](crate::skipweb::SkipWeb::plan)): the
    /// origin's root when it routes, else the head of the repair trail of
    /// the tower it plans — none for a no-op.
    fn plan_update(
        &self,
        topo: &Topology<D>,
        origin: usize,
        update: &Update<D::Item>,
    ) -> Result<(HostId, GlobalRef, UpdatePhase), RuntimeError> {
        let (routes, tower) = topo.web.plan(update);
        if routes {
            let (host, at) = self.entry_point(topo, origin)?;
            return Ok((host, at, UpdatePhase::Route));
        }
        // No lookup phase: enter the repair trail directly. The client
        // injection is free (as is the meter's first visit), so hops still
        // equal the simulator's messages.
        let membership = self.runtime.membership();
        let trail = match tower {
            Some(bits) => repair_trail(topo, update.item(), bits, &membership)
                .ok_or(RuntimeError::Unavailable)?,
            None => Vec::new(),
        };
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
    /// plans every op under the shared snapshot and sends each entry host
    /// **one** envelope. When an envelope's host died between planning and
    /// send, taking the envelope with it, each of its ops is re-planned and
    /// delivered on its own. On failure every correlation id of the call is
    /// abandoned, since some ops may already be in flight.
    pub(super) fn admit(
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
    /// and updates. Each reply under the op's correlation id is settled
    /// against the op: a query settles on an [`Answer`](ReplyBody::Answer)
    /// (or on its scatter partials, merged), an update on an
    /// [`Updated`](ReplyBody::Updated), either fails on
    /// [`Unavailable`](ReplyBody::Unavailable), and a body of the other
    /// kind — only a confused or hostile peer sends one — is dropped and
    /// counted like a late reply. Returns the settled reply under the
    /// correlation id of the attempt that produced it.
    ///
    /// A timeout resubmits the op: [`RESUBMITS`] times while a host is
    /// dead, or [`LOSSY_RESUBMITS`] times on a lossy transport, whatever
    /// the membership says. A resubmitted update keeps its op id, which the
    /// apply stage's idempotence ledger makes exactly-once; the abandoned
    /// correlation id's late replies are dropped and counted.
    pub(super) fn collect(
        &self,
        client: &EngineClient<D>,
        flight: &InFlight<D>,
    ) -> Result<EngineReply<D>, RuntimeError> {
        let policy = client.timeouts();
        let update = matches!(flight.op, EngineOp::Update(_));
        let timeout = if update { policy.update } else { policy.query };
        let lossy = self.runtime.transport_lossy();
        let max_resubmits = if lossy { LOSSY_RESUBMITS } else { RESUBMITS };
        let mut corr = flight.corr;
        let mut resubmits = 0usize;
        let mut parts: Vec<D::Answer> = Vec::new();
        let mut hops_max = 0u32;
        loop {
            match client.recv_corr(corr, timeout) {
                Ok(reply) => match reply.body {
                    ReplyBody::Answer(_) if !update => return Ok(reply),
                    ReplyBody::Updated { .. } if update => return Ok(reply),
                    ReplyBody::Partial { answer, of } if !update => {
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
                    _ => client.inner.note_stale_reply(),
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
    /// (default 10 s, see [`EngineClient::set_timeouts`]) per attempt. A
    /// wait that times out while some host is dead — the signature of a
    /// request lost in a crashed host's mailbox — resubmits once; on a
    /// lossy transport every timeout resubmits, up to twelve times.
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

    /// Runs one range report end to end, scatter-gathered at its locus
    /// across the hosts owning the output ([`Routable::report_ranges`]) and
    /// merged here ([`Routable::merge_answers`]) — byte-identical to
    /// [`query`](Self::query), which it falls back to for requests that are
    /// not reports or whose output is all local. The reply's `hops` count
    /// the longest descent + fan-out chain, not the fan-out's crossings.
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
    /// returning the replies in submission order: the answers of
    /// [`query`](Self::query), in shared envelopes ([`FabricMsg::Batch`])
    /// from `origin_item`'s root on.
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
    /// it is ignored) and a level bit string from the fabric's generator —
    /// started as a copy of the served web's, so seeded by the web's build
    /// seed — under its own lock: a draw never waits out an apply.
    fn draw(&self, topo: &Topology<D>) -> (usize, u64) {
        let len = topo.web.len();
        let mut rng = self.rng.lock();
        let origin = if len > 0 { rng.gen_range(0..len) } else { 0 };
        (origin, rng.gen())
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
    /// counterpart of [`SkipWeb::insert`](crate::skipweb::SkipWeb::insert).
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
    /// [`SkipWeb::remove`](crate::skipweb::SkipWeb::remove).
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
    /// removes in any mix — end to end under one snapshot, in shared
    /// envelopes ([`FabricMsg::Batch`]), returning per-op outcomes in
    /// submission order: the batched counterpart of
    /// [`insert_with`](Self::insert_with) / [`remove_with`](Self::remove_with).
    /// Ops on the *same* item behave like concurrent serial clients, each
    /// planned under the batch's snapshot.
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
}
