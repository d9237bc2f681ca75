//! How updates land: the authoritative web behind the state lock, the
//! idempotence ledger, the recycled copy-on-write targets — whose own stale
//! copies of the sets a turn rebuilds donate their items to the rebuilds —
//! the write-ahead sink, and the apply stage's turn that applies, logs,
//! publishes and replies.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam_channel as channel;
use parking_lot::Mutex;

use skipweb_net::runtime::{ClientId, Membership, Replier};

use super::{
    EngineMsg, EngineOp, EngineReply, FabricMsg, PlacementCtl, ReplyBody, Routable, Topology,
};
use crate::skipweb::{Donors, SkipWeb, Update};

/// Most recent update outcomes remembered for exactly-once resubmits; old
/// entries are evicted FIFO once the ledger exceeds this.
const APPLIED_OPS_CAP: usize = 1 << 16;

/// The authoritative evolving web every host shares, with the idempotence
/// ledger and the apply stage's spare webs. Taken by the apply stage for a
/// turn (which includes the structural rebuild) and by the client-side
/// membership calls — never by an actor — so its lock is off the read path.
pub(super) struct EngineState<D: Routable + Send + Sync + 'static> {
    /// The same `Arc` the current snapshot holds. An apply mutates it
    /// copy-on-write under the state lock ([`recycle`](Self::recycle)):
    /// in-flight operations keep the previous web, and the copy shares
    /// every level set's structure the repair does not replace.
    pub(super) web: Arc<SkipWeb<D>>,
    /// Webs that earlier applies replaced, oldest first, at most
    /// [`SPARE_WEBS`]: the copy-on-write targets the apply stage refills
    /// once no snapshot holds them any more, and the donors of the sets a
    /// refill's apply rebuilds.
    spares: VecDeque<Arc<SkipWeb<D>>>,
    /// The logical→physical host fold plus the excluded (decommissioned /
    /// healed-around) hosts.
    pub(super) placement: PlacementCtl,
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

    /// The idempotence ledger in eviction (FIFO) order.
    pub(super) fn ledger(&self) -> Vec<((ClientId, u64), bool)> {
        self.applied_order
            .iter()
            .map(|key| (*key, self.applied_ops[key]))
            .collect()
    }

    /// Replaces the web and the ledger with recovered ones. Returns the
    /// replaced web and the spares — webs of the replaced history, no
    /// copy-on-write target for the restored one — for the caller to drop
    /// after releasing the state lock.
    pub(super) fn restore(
        &mut self,
        web: SkipWeb<D>,
        ledger: Vec<((ClientId, u64), bool)>,
    ) -> (Arc<SkipWeb<D>>, VecDeque<Arc<SkipWeb<D>>>) {
        let replaced = std::mem::replace(&mut self.web, Arc::new(web));
        let spares = std::mem::take(&mut self.spares);
        self.applied_ops.clear();
        self.applied_order.clear();
        for (key, applied) in ledger {
            self.record_outcome(key, applied);
        }
        self.trim_ledger();
        (replaced, spares)
    }

    /// Makes `web` the only reference to its web, so the apply of `ops`
    /// that follows mutates it in place. The published snapshot holds the
    /// current web, so this swaps in a copy: a spare no snapshot holds any
    /// more, refilled in its own buffers, else a fresh clone. Either copies
    /// the slot table's bit strings, each level's sets (16 bytes each) and
    /// page list, and bumps one count per structure page — no slot list and
    /// no structure: 123 KB for a 3072-key 1-D web, where each level's two
    /// arrays of one entry per item once made it 540 KB.
    ///
    /// The refill ([`SkipWeb::refill_from`]) first takes the spare's own,
    /// one or more turns stale, structures of the sets the ops' towers name,
    /// where no other web holds them: those are returned as the apply's
    /// donors, which its rebuilds move their items out of instead of
    /// cloning them. The replaced web joins the spares. A spare that falls
    /// off the end and the donors the apply leaves are the caller's to drop
    /// after releasing the state lock.
    fn recycle(&mut self, ops: &[Update<D::Item>]) -> (Option<Arc<SkipWeb<D>>>, Donors<D>) {
        if Arc::get_mut(&mut self.web).is_some() {
            return (None, Donors::default());
        }
        let drained = self
            .spares
            .iter_mut()
            .position(|spare| Arc::get_mut(spare).is_some());
        let (copy, donors) = match drained.and_then(|i| self.spares.remove(i)) {
            Some(mut spare) => {
                // The only reference, so `make_mut` copies nothing.
                let donors = Arc::make_mut(&mut spare).refill_from(&self.web, ops);
                (spare, donors)
            }
            None => (Arc::new(SkipWeb::clone(&self.web)), Donors::default()),
        };
        let replaced = std::mem::replace(&mut self.web, copy);
        self.spares.push_back(replaced);
        let evicted = if self.spares.len() > SPARE_WEBS {
            self.spares.pop_front()
        } else {
            None
        };
        (evicted, donors)
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

/// A write-ahead sink for the engine's apply path, installed by
/// [`FabricBuilder::durability`](super::FabricBuilder::durability). The
/// apply stage calls [`append`](Self::append) once per turn **under the
/// same state lock as the structural change** ([`SkipWeb::apply`]), before
/// the new snapshot publishes: log order equals apply order, the log has
/// one writer, and no query observes an operation before it is logged.
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
pub(super) struct Handoff<D: Routable> {
    pub(super) applies: Vec<EngineMsg<D>>,
    /// Updates that stopped at their locus as no-ops — a duplicate insert
    /// or an absent remove. Each is echoed the outcome the ledger holds for
    /// it (a resubmit whose first attempt landed), or `false`; an echo
    /// claims no ledger slot and is not logged.
    pub(super) echoes: Vec<EngineMsg<D>>,
    pub(super) membership: Arc<Membership>,
    pub(super) replier: Replier<FabricMsg<D>, EngineReply<D>>,
}

/// What the apply stage's channel carries: a hand-off, or `None` to stop.
pub(super) type StageMsg<D> = Option<Handoff<D>>;

/// What the actors, the apply stage and the fabric handle share.
pub(super) struct Shared<D: Routable + Send + Sync + 'static> {
    pub(super) state: Mutex<EngineState<D>>,
    /// The current topology snapshot, in its own cell so submits only pay
    /// an `Arc` clone — never a wait on an in-progress rebuild. Swapped by
    /// the apply stage *while still holding the state lock* (lock order is
    /// always `state` then `topo`), so publish order equals apply order.
    topo: Mutex<Arc<Topology<D>>>,
    /// The apply stage's inbox.
    pub(super) stage: channel::Sender<StageMsg<D>>,
    /// Apply-stage turns that applied at least one update, and the updates
    /// they applied (ledger replays included, locus-side echoes not). The
    /// stage bumps `updates_applied` first and `apply_turns` second, with
    /// release ordering, and [`applied_counts`](Self::applied_counts) loads
    /// them in the other order, so a reading never counts a turn without
    /// its ops.
    apply_turns: AtomicU64,
    updates_applied: AtomicU64,
    /// Write-ahead sink fed by the apply path, when the deployment was
    /// built with one.
    durability: Option<Arc<dyn Durability<D>>>,
}

impl<D: Routable + Send + Sync + 'static> Shared<D> {
    /// The state of a fabric over `web` folded onto `hosts` physical
    /// hosts, and the apply stage's inbox, for [`start_stage`]. Engine
    /// state and first snapshot start as the same `Arc`: one clone of the
    /// caller's web, sharing its level sets' structures.
    pub(super) fn new(
        web: &SkipWeb<D>,
        hosts: usize,
        durability: Option<Arc<dyn Durability<D>>>,
    ) -> (Arc<Self>, channel::Receiver<StageMsg<D>>) {
        let placement = PlacementCtl::new(hosts);
        let web = Arc::new(web.clone());
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
                placement,
                applied_ops: HashMap::new(),
                applied_order: VecDeque::new(),
            }),
            topo: Mutex::new(topo),
            stage,
            apply_turns: AtomicU64::new(0),
            updates_applied: AtomicU64::new(0),
            durability,
        });
        (shared, inbox)
    }

    /// The current topology snapshot (cheap: one lock + `Arc` clone).
    pub(super) fn current_topo(&self) -> Arc<Topology<D>> {
        self.topo.lock().clone()
    }

    /// Apply-stage turns that applied at least one update, and the updates
    /// they took through the apply step.
    pub(super) fn applied_counts(&self) -> (u64, u64) {
        // Turns before updates: see `apply_turns`.
        let turns = self.apply_turns.load(Ordering::Acquire);
        (turns, self.updates_applied.load(Ordering::Acquire))
    }

    /// Publishes the current web under the current placement, additionally
    /// excluding every host the membership reports as dead or
    /// decommissioned, with a bumped version — `O(1)` in the web. The
    /// caller holds the state lock, so publish order equals apply order.
    /// Returns the replaced snapshot, for the caller to drop after
    /// releasing the lock: dropping the last holder of a web frees it.
    #[must_use = "drop the retired snapshot after releasing the state lock"]
    pub(super) fn republish(
        &self,
        st: &EngineState<D>,
        membership: &Membership,
    ) -> Arc<Topology<D>> {
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
    pub(super) fn stop_stage(&self, stage: JoinHandle<()>) {
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
    /// queued behind it by the time the state lock is taken: ledger claims
    /// in arrival order, **one** [`SkipWeb::apply`] into a recycled web,
    /// one [`Durability`] append and one publish under the lock, then one
    /// reply per op outside it, through the replier of the host that handed
    /// the op off. An op whose `(client, op_id)` slot is taken — a resubmit
    /// whose first attempt landed, even earlier in this turn — is echoed
    /// the recorded outcome instead of applied again, as are locus-side
    /// echoes after the turn's claims. Admission ([`Routable::admissible`])
    /// is judged against the web as the turn found it. Returns `false` once
    /// a stop marker was drained.
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
        let (mut evicted, mut donors) = (None, Donors::default());
        if !staged.is_empty() {
            let batch: Vec<_> = staged.iter().map(|&i| updates[i].clone()).collect();
            (evicted, donors) = st.recycle(&batch);
            let applied = Arc::make_mut(&mut st.web).apply_with(batch, &mut donors);
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
        // waits it out: the previous snapshot (its web stays a spare), a
        // spare that fell off the end and the donors no rebuild took.
        drop((retired, evicted, donors));
        running
    }
}

/// Starts the apply stage, and returns once it has made its first
/// allocation — which must come before any worker thread exists. glibc's
/// allocator hands each thread an arena at its first allocation, reusing
/// the arenas of exited threads from a LIFO free list, so the order of
/// first allocations decides who gets which arena. A stage started after
/// the actors' threads swapped arenas with one of them on every fabric a
/// process stood up in turn; the allocation-heavy stage and a busy actor
/// thread then shared one, and a second ≈ 10 MiB arena appeared (`perf`'s
/// `onedim_churn` peak RSS read 26–45 MiB instead of ≈ 20 MiB).
pub(super) fn start_stage<D: Routable + Send + Sync + 'static>(
    shared: &Arc<Shared<D>>,
    inbox: channel::Receiver<StageMsg<D>>,
) -> JoinHandle<()> {
    let (started, first_allocation) = channel::unbounded();
    let stage = Arc::clone(shared);
    let handle = std::thread::spawn(move || stage.run_stage(&inbox, started));
    let _ = first_allocation.recv();
    handle
}
