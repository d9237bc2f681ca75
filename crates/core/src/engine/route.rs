//! Where an op goes next: the topology snapshot it routes under, the
//! placement fold and replica choice, the §2.5 forwarding loop and the §4
//! repair trail — run by the per-host actor, one turn per envelope.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crossbeam_channel as channel;

use skipweb_net::runtime::{Actor, Context, Membership, Sender, TrafficClass};
use skipweb_net::HostId;
use skipweb_structures::traits::{RangeDetermined, RangeId};

use super::msg::envelope;
use super::stage::{Handoff, Shared};
use super::{
    EngineMsg, EngineOp, EngineReply, FabricMsg, GlobalRef, ReplyBody, Routable, UpdatePhase,
};
use crate::placement::Copies;
use crate::skipweb::{LevelSet, SkipWeb};

/// One immutable snapshot of the routing topology: the web's own level
/// sets — a [`GlobalRef`] indexes straight into them — plus the placement
/// fold in effect and a version. Every in-flight message holds the
/// snapshot it was admitted under.
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
    pub(super) fn copies(&self, at: GlobalRef) -> Copies<'_> {
        self.web
            .copies(at.level as usize, at.set as usize, RangeId(at.range))
    }

    /// The address where `origin_item`'s operations start (the "root node
    /// for that host" of §1.1) and the logical hosts storing it.
    pub(super) fn origin(&self, origin_item: usize) -> (GlobalRef, Copies<'_>) {
        let (set, entry) = self.web.origin_entry(origin_item);
        let at = GlobalRef {
            level: self.web.top_level() as u16,
            set: set as u32,
            range: entry.0,
        };
        (at, self.copies(at))
    }
}

/// How the web's logical hosts map onto physical hosts: the fold
/// modulus plus the hosts excluded from placement (decommissioned, or dead
/// hosts healed around). Part of the engine's evolving state, serialized by
/// the state lock.
#[derive(Debug, Clone)]
pub(crate) struct PlacementCtl {
    /// Number of physical hosts; logical hosts fold onto them
    /// (`logical % phys`), so the web may grow past the host count.
    pub(super) phys: usize,
    /// Physical hosts no new placement may target. Ranges that would fold
    /// onto one are re-homed to the next non-excluded host on the ring.
    pub(super) excluded: BTreeSet<u32>,
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
    pub(super) fn fold(&self, h: HostId) -> HostId {
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
pub(super) fn pick_alive(
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
pub(super) enum RouteOutcome {
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
pub(super) fn route_step<D: Routable + Send + Sync + 'static>(
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

/// The ordered hosts the bottom-up repair of `item` with tower `bits` must
/// act on (§4): the web's own [`SkipWeb::walk_update_neighbourhood`] — the
/// walk the simulator meters — under this snapshot's placement fold, so the
/// walk's host transitions equal the metered messages when every host is
/// alive. Dead hosts are steered around via their alive replicas; `None`
/// when some range has no alive replica left (the update is unavailable
/// under this snapshot). The tower comes from the update's plan
/// ([`SkipWeb::plan`]).
pub(super) fn repair_trail<D: Routable + Send + Sync + 'static>(
    topo: &Topology<D>,
    item: &D::Item,
    bits: u64,
    membership: &Membership,
) -> Option<Vec<HostId>> {
    let mut trail = Vec::new();
    topo.web
        .walk_update_neighbourhood(
            item,
            bits,
            |host| topo.ctl.fold(host),
            |host| membership.is_routable(host),
            |host| trail.push(host),
        )
        .then_some(trail)
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
    /// An actor of the fabric `shared` describes.
    pub(super) fn new(shared: &Arc<Shared<D>>) -> Self {
        EngineActor {
            shared: Arc::clone(shared),
        }
    }

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
    /// group's partial is answered here, each remote group gets one sub-scan
    /// message. Returns `false` — leaving the serial answer to run — when
    /// the request is not a report or its whole output is local.
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
                    RouteOutcome::AtLocus(_) => match msg.topo.web.plan(&u.update) {
                        // A no-op stops at the locus, paying only the
                        // lookup. The locus's view may be the result of this
                        // op's own first attempt, whose reply was lost: the
                        // apply stage echoes it the ledger's outcome.
                        (_, None) => turn.echoes.push(msg),
                        // The repair trail is computed exactly once, here at
                        // repair start, and rides in the message from now on.
                        (_, Some(bits)) => {
                            match repair_trail(&msg.topo, u.update.item(), bits, &turn.membership) {
                                Some(trail) => self.continue_repair(0, trail, msg, turn),
                                None => msg.reply(ctx, ReplyBody::Unavailable),
                            }
                        }
                    },
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
    /// entry in `me`'s shard — skipping entries whose host crashed since
    /// the trail was computed, where the update would black-hole — then
    /// forwards to the next host (one message: one meter host transition)
    /// or, with the trail exhausted, queues the update for this turn's
    /// hand-off to the apply stage.
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
