//! Actor runtime: every host is an actor with a mailbox, and a small pool of
//! worker threads runs them — with a crash-tolerant failure model.
//!
//! The deterministic [`sim`](crate::sim) substrate measures costs; this
//! runtime demonstrates that the same routing steps execute correctly under
//! real concurrent message passing. Each host runs an [`Actor`]; external
//! [`Client`]s inject requests at any host and receive replies on their own
//! channel, mirroring the paper's "root node for that host" query entry
//! points.
//!
//! # Execution
//!
//! A host is not a thread. `min(local hosts, available_parallelism)` worker
//! threads run the hosts of a runtime, one *turn* at a time: up to a fixed
//! budget of envelopes from one host's mailbox, in FIFO order. A delivery
//! into an idle mailbox puts the host on the runtime's run queue; a host
//! whose mailbox still holds work after its turn goes to the back of it.
//! A host that a worker's own turn schedules runs next on that worker, for
//! a few turns in a row at most, so a message hop between hosts is an
//! enqueue, not a thread wake-up. The paper charges an operation its
//! messages and treats work inside a host as free; this keeps the runtime's
//! own cost per message close to that. A parked worker is woken only when
//! the shared run queue gains work, and no worker spins. Each host's turns
//! run one at a time, so an actor is never re-entered and the messages
//! between two hosts keep their order.
//!
//! # Failure model
//!
//! The paper assumes hosts never fail; this runtime does not. Every host is
//! in one of three [`HostState`]s, published to actors and clients as a
//! [`Membership`] snapshot:
//!
//! * **Alive** — processing messages normally.
//! * **Dead** — the actor panicked (or was [`Runtime::kill`]ed for fault
//!   injection). The tombstone is contained to that host: its mailbox is
//!   drained and discarded, messages sent to it afterwards are dropped (and
//!   counted per host in [`crate::HostTraffic::dropped`]), and every other
//!   host keeps serving. Clients sending directly to a dead host get
//!   [`RuntimeError::HostPanicked`] instead of a black hole.
//! * **Decommissioned** — gracefully leaving via [`Runtime::decommission`].
//!   The host still delivers and processes messages (so operations in
//!   flight under old placements complete), but routing layers should stop
//!   targeting it for new work — [`Membership::is_alive`] is `false`.
//!
//! Hosts can also be added live with [`Runtime::add_host`], so a fabric can
//! grow while it serves traffic.
//!
//! # Example
//!
//! ```
//! use skipweb_net::runtime::{Actor, Context, Runtime, Sender};
//! use skipweb_net::HostId;
//!
//! // A ring: each host forwards a counter to the next, replying when done.
//! struct Ring { hosts: usize }
//! #[derive(Debug)]
//! enum Msg { Hop { left: u32, client: skipweb_net::runtime::ClientId } }
//!
//! impl Actor for Ring {
//!     type Msg = Msg;
//!     type Reply = HostId;
//!     fn on_message(&mut self, _from: Sender, msg: Msg, ctx: &mut Context<'_, Msg, HostId>) {
//!         let Msg::Hop { left, client } = msg;
//!         if left == 0 {
//!             ctx.reply(client, ctx.host());
//!         } else {
//!             let next = HostId((ctx.host().0 + 1) % self.hosts as u32);
//!             ctx.send(next, Msg::Hop { left: left - 1, client });
//!         }
//!     }
//! }
//!
//! let rt = Runtime::spawn(4, |_h| Ring { hosts: 4 });
//! let client = rt.client();
//! client.send(HostId(0), Msg::Hop { left: 6, client: client.id() });
//! let landed = client.recv().unwrap();
//! assert_eq!(landed, HostId(2));
//! assert_eq!(rt.membership().alive_count(), 4);
//! rt.shutdown();
//! ```

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam_channel as channel;
use parking_lot::{Mutex, RwLock};

use crate::host::HostId;
use crate::metrics::{Counter, HostTraffic};
use crate::transport::{CarryStatus, ChannelTransport, Transport};

/// Identifier for an external client attached to the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClientId(pub u64);

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "client#{}", self.0)
    }
}

/// Who sent an incoming message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sender {
    /// Another host in the network.
    Host(HostId),
    /// An external client.
    Client(ClientId),
}

enum Envelope<M> {
    User {
        from: Sender,
        msg: M,
    },
    /// Stops the host once everything queued ahead of it is handled.
    /// `_done` goes with the envelope — when the host stops, or when its
    /// queue is discarded — and [`Runtime::shutdown`] waits for the last
    /// one to go.
    Stop {
        _done: channel::Sender<()>,
    },
}

/// Envelopes one turn takes from a host's mailbox before its worker moves
/// on; a host with more queued goes to the back of the run queue, so a
/// flooded host cannot starve the others.
const TURN_BUDGET: usize = 64;

/// Turns a worker takes in a row from its next-slot before it serves the
/// shared run queue (Tokio caps its LIFO slot the same way), so hosts
/// handing one another work cannot keep the rest of the queue waiting.
const NEXT_SLOT_RUN: usize = 3;

/// What a host-to-host message carries, for the per-host traffic split the
/// paper's `Q(n)` / `U(n)` columns keep apart: query routing versus update
/// routing and repair. Purely an accounting tag — delivery is identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum TrafficClass {
    /// Query descent traffic (the default for [`Context::send`]).
    #[default]
    Query,
    /// Update traffic: routing an insert/remove and its repair walk.
    Update,
}

/// Errors surfaced by the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeError {
    /// The destination host's mailbox is closed (runtime shut down) or the
    /// host id is unknown.
    HostDown(HostId),
    /// No reply arrived within the requested timeout.
    Timeout,
    /// The reply channel was disconnected.
    Disconnected,
    /// The transport lost its link to a peer that had not announced
    /// shutdown (e.g. a TCP connection closed mid-reply). Distinct from
    /// [`Timeout`](Self::Timeout) — the wait did not merely expire, the
    /// wire is gone — and from [`Disconnected`](Self::Disconnected), which
    /// is about this client's local reply channel.
    TransportClosed,
    /// The destination host's actor crashed (panic or injected kill); the
    /// tombstone is contained to that host — the rest of the fabric keeps
    /// serving.
    HostPanicked(HostId),
    /// No alive host stores a copy of the data the operation needs (more
    /// crashes than the replication factor tolerates).
    Unavailable,
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::HostDown(h) => write!(f, "mailbox of {h} is closed"),
            RuntimeError::Timeout => write!(f, "timed out waiting for a reply"),
            RuntimeError::Disconnected => write!(f, "reply channel disconnected"),
            RuntimeError::TransportClosed => {
                write!(f, "transport lost its link to a peer")
            }
            RuntimeError::HostPanicked(h) => write!(f, "actor on {h} crashed"),
            RuntimeError::Unavailable => {
                write!(f, "no alive replica can serve the operation")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Lifecycle state of one host, as published in a [`Membership`] snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostState {
    /// Processing messages normally.
    Alive,
    /// Crashed (actor panic or injected [`Runtime::kill`]): mailbox drained,
    /// later messages dropped.
    Dead,
    /// Gracefully leaving: still processes in-flight messages, but new work
    /// should not be routed to it.
    Decommissioned,
}

const STATE_ALIVE: u8 = 0;
const STATE_DEAD: u8 = 1;
const STATE_DECOMMISSIONED: u8 = 2;

fn decode_state(v: u8) -> HostState {
    match v {
        STATE_DEAD => HostState::Dead,
        STATE_DECOMMISSIONED => HostState::Decommissioned,
        _ => HostState::Alive,
    }
}

/// A point-in-time view of every host's [`HostState`], published to actors
/// (via [`Context::membership`]) and clients (via [`Runtime::membership`]).
/// Routing layers use it to pick alive replicas and to steer around dead
/// hosts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Membership {
    states: Vec<HostState>,
}

impl Membership {
    /// Number of hosts ever spawned (alive, dead, and decommissioned).
    pub fn hosts(&self) -> usize {
        self.states.len()
    }

    /// The state of `host`.
    ///
    /// Hosts beyond this snapshot (added after it was taken) are reported
    /// alive: a host is only ever added in the alive state.
    pub fn state(&self, host: HostId) -> HostState {
        self.states
            .get(host.index())
            .copied()
            .unwrap_or(HostState::Alive)
    }

    /// Whether `host` should be routed new work (state == Alive).
    pub fn is_alive(&self, host: HostId) -> bool {
        self.state(host) == HostState::Alive
    }

    /// Whether `host` can still process messages: alive, or decommissioned
    /// and draining (graceful leavers keep serving operations admitted
    /// under older placements). Only dead hosts are unroutable.
    pub fn is_routable(&self, host: HostId) -> bool {
        self.state(host) != HostState::Dead
    }

    /// Number of alive hosts.
    pub fn alive_count(&self) -> usize {
        self.states
            .iter()
            .filter(|s| **s == HostState::Alive)
            .count()
    }

    fn hosts_in(&self, want: HostState) -> Vec<HostId> {
        self.states
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == want)
            .map(|(i, _)| HostId(i as u32))
            .collect()
    }

    /// All alive hosts, in id order.
    pub fn alive_hosts(&self) -> Vec<HostId> {
        self.hosts_in(HostState::Alive)
    }

    /// All crashed hosts, in id order.
    pub fn dead_hosts(&self) -> Vec<HostId> {
        self.hosts_in(HostState::Dead)
    }

    /// All decommissioned hosts, in id order.
    pub fn decommissioned_hosts(&self) -> Vec<HostId> {
        self.hosts_in(HostState::Decommissioned)
    }

    /// The lowest-id dead host, if any — the compatibility view the old
    /// fabric-poisoning API exposed.
    pub fn first_dead(&self) -> Option<HostId> {
        self.dead_hosts().into_iter().next()
    }
}

impl fmt::Display for Membership {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hosts={} alive={} dead={:?} decommissioned={:?}",
            self.hosts(),
            self.alive_count(),
            self.dead_hosts(),
            self.decommissioned_hosts()
        )
    }
}

/// An actor, erased to its handler so that one worker pool, and the
/// transports' delivery handles, serve hosts of any actor type.
type Handler<M, R> = Box<dyn FnMut(Sender, M, &mut Context<'_, M, R>) + Send>;

/// One incarnation of a host: its mailbox, its lifecycle state, and the
/// actor the worker pool runs. [`Runtime::revive`] gives the slot a fresh
/// incarnation, so a turn still running for the old one can never touch the
/// new mailbox.
struct Host<M, R> {
    id: HostId,
    /// `STATE_*` constant, read before every envelope so a tombstone takes
    /// effect at once.
    state: AtomicU8,
    tx: channel::Sender<Envelope<M>>,
    /// Set while the host is on the run queue, in a next-slot or in a turn.
    /// A delivery that finds it clear schedules the host.
    scheduled: AtomicBool,
    /// The mailbox's receiving end and the actor; `None` once the host has
    /// stopped or crashed (dropping the receiver closes the mailbox and
    /// discards its queue) and for a host in another process. Only the
    /// worker running this host's turn locks it, and `scheduled` admits one
    /// turn at a time, so the lock never waits. It is a `std` lock on
    /// purpose: lockdep reports channel sends under `parking_lot` locks,
    /// and this one is held across `on_message`, which sends.
    live: std::sync::Mutex<Option<Live<M, R>>>,
}

struct Live<M, R> {
    rx: channel::Receiver<Envelope<M>>,
    actor: Handler<M, R>,
}

impl<M, R> Host<M, R> {
    /// A host running `actor` here, or — with `None` — one that executes in
    /// another process: an address and a state, but a closed mailbox, so
    /// nothing can queue behind it.
    fn new(id: HostId, actor: Option<Handler<M, R>>) -> Self {
        let (tx, rx) = channel::unbounded();
        Host {
            id,
            state: AtomicU8::new(STATE_ALIVE),
            tx,
            scheduled: AtomicBool::new(false),
            live: std::sync::Mutex::new(actor.map(|actor| Live { rx, actor })),
        }
    }

    fn is_dead(&self) -> bool {
        self.state.load(Ordering::Acquire) == STATE_DEAD
    }

    /// Runs one turn: up to [`TURN_BUDGET`] envelopes, in FIFO order. A
    /// stop marker, a tombstone or a panicking handler closes the host: its
    /// actor is dropped and its queue discarded. Returns whether the actor
    /// panicked.
    fn turn(&self, net: &Arc<Fabric<M, R>>) -> bool {
        let mut live = self.live.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(Live { rx, actor }) = live.as_mut() else {
            return false;
        };
        let mut panicked = false;
        let mut stopped = false;
        for _ in 0..TURN_BUDGET {
            if self.is_dead() {
                break;
            }
            match rx.try_recv() {
                Ok(Envelope::User { from, msg }) => {
                    let mut ctx = Context { host: self.id, net };
                    panicked =
                        catch_unwind(AssertUnwindSafe(|| actor(from, msg, &mut ctx))).is_err();
                    if panicked {
                        break;
                    }
                }
                Ok(Envelope::Stop { .. }) => {
                    stopped = true;
                    break;
                }
                Err(_) => break,
            }
        }
        if panicked || stopped || self.is_dead() {
            *live = None;
        }
        panicked
    }
}

thread_local! {
    /// The pool (by address) and next-slot index of the worker running on
    /// this thread; `(0, 0)` on any other thread.
    static WORKER: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

/// A worker's next-slot: the host its own turn scheduled last.
type NextSlot<M, R> = std::sync::Mutex<Option<Arc<Host<M, R>>>>;

/// A runtime's worker pool: the shared run queue and one next-slot per
/// worker.
struct Pool<M, R> {
    /// Hosts with work, in the order they became ready; `None` tells one
    /// worker to exit.
    queue: channel::Sender<Option<Arc<Host<M, R>>>>,
    ready: channel::Receiver<Option<Arc<Host<M, R>>>>,
    /// One per possible worker (`available_parallelism` of them), each only
    /// ever locked by its own worker's thread.
    next: Box<[NextSlot<M, R>]>,
}

impl<M, R> Pool<M, R> {
    fn new() -> Self {
        let (queue, ready) = channel::unbounded();
        let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Pool {
            queue,
            ready,
            next: (0..workers).map(|_| std::sync::Mutex::new(None)).collect(),
        }
    }

    fn key(&self) -> usize {
        self as *const Self as usize
    }

    fn next_slot(&self, index: usize) -> std::sync::MutexGuard<'_, Option<Arc<Host<M, R>>>> {
        self.next[index]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Puts a host that has just become ready where a worker will run it:
    /// into the next-slot when one of this pool's workers scheduled it from
    /// its own turn (the slot's previous occupant goes to the run queue),
    /// else onto the run queue, which wakes a parked worker if there is one.
    fn schedule(&self, host: Arc<Host<M, R>>) {
        let (pool, index) = WORKER.with(Cell::get);
        let host = if pool == self.key() {
            let displaced = self.next_slot(index).replace(host);
            match displaced {
                Some(displaced) => displaced,
                None => return,
            }
        } else {
            host
        };
        let _ = self.queue.send(Some(host));
    }
}

/// One host's slot in the fabric: its current incarnation and its per-host
/// counters, which span incarnations (traffic accounting outlives a crash,
/// like a persistent host name). Slots are only ever appended, never
/// removed, so host ids stay dense and stable.
struct HostSlot<M, R> {
    host: Arc<Host<M, R>>,
    /// Whether the host executes in this process.
    local: bool,
    sent: Counter,
    received: Counter,
    update_sent: Counter,
    /// Messages addressed to this host after it died — lost, like packets
    /// to a crashed machine.
    dropped: Counter,
    /// Coalesced multi-op envelopes this host sent (each also counted once
    /// in `sent`: one envelope is one host crossing).
    batch_sent: Counter,
    /// Operations that rode inside this host's multi-op envelopes.
    batch_ops: Counter,
}

impl<M, R> HostSlot<M, R> {
    fn new(host: Host<M, R>, local: bool) -> Self {
        HostSlot {
            host: Arc::new(host),
            local,
            sent: Counter::default(),
            received: Counter::default(),
            update_sent: Counter::default(),
            dropped: Counter::default(),
            batch_sent: Counter::default(),
            batch_ops: Counter::default(),
        }
    }
}

struct Fabric<M, R> {
    slots: RwLock<Vec<HostSlot<M, R>>>,
    pool: Pool<M, R>,
    clients: RwLock<HashMap<ClientId, channel::Sender<R>>>,
    /// Late replies clients discarded on arrival because the correlation id
    /// they answered was abandoned by a timeout-resubmit.
    stale_replies: Counter,
    /// Cached membership snapshot, rebuilt only when a host's state changes
    /// (crash, decommission, join) — so per-message membership reads are an
    /// `Arc` clone, not an O(hosts) allocation.
    membership_cache: RwLock<Arc<Membership>>,
    /// How user messages and replies travel (see [`Transport`]). Lifecycle
    /// traffic — stop markers, tombstones — bypasses it by design, so a
    /// lossy transport can never wedge shutdown.
    transport: Arc<dyn Transport<M, R>>,
    /// Raised by a transport that lost a peer link without a shutdown
    /// announcement; surfaces as [`RuntimeError::TransportClosed`] on
    /// client waits instead of an indistinguishable timeout.
    transport_closed: std::sync::atomic::AtomicBool,
}

impl<M, R> Fabric<M, R> {
    fn membership(&self) -> Arc<Membership> {
        self.membership_cache.read().clone()
    }

    /// Recomputes the cached membership snapshot from the slots. Called on
    /// every host-state transition; readers keep whatever `Arc` they hold.
    fn rebuild_membership(&self) {
        let states = self
            .slots
            .read()
            .iter()
            .map(|s| decode_state(s.host.state.load(Ordering::Acquire)))
            .collect();
        *self.membership_cache.write() = Arc::new(Membership { states });
    }

    /// Tombstones `host` (crash semantics) and schedules a turn that
    /// closes it: its queue is discarded and its actor dropped. Idempotent.
    fn mark_dead(&self, host: HostId) {
        let dead = {
            let slots = self.slots.read();
            let Some(slot) = slots.get(host.index()) else {
                return;
            };
            slot.host.state.store(STATE_DEAD, Ordering::Release);
            Arc::clone(&slot.host)
        };
        // Scheduled after the slots guard is released: never send on a
        // channel under a lock.
        self.wake(&dead);
        self.rebuild_membership();
    }

    /// Queues `envelope` in `host`'s mailbox and schedules the host if it
    /// was idle. Returns `false` if the mailbox is closed.
    fn post(&self, host: &Arc<Host<M, R>>, envelope: Envelope<M>) -> bool {
        if host.tx.send(envelope).is_err() {
            return false;
        }
        self.wake(host);
        true
    }

    /// Schedules `host` unless it already is: on the run queue, in a
    /// next-slot, or in a turn that will look at its mailbox again.
    fn wake(&self, host: &Arc<Host<M, R>>) {
        if !host.scheduled.swap(true, Ordering::AcqRel) {
            self.pool.schedule(Arc::clone(host));
        }
    }

    /// One worker: runs turns from its next-slot, [`NEXT_SLOT_RUN`] in a
    /// row at most, and otherwise from the shared run queue, parking while
    /// that is empty, until it is told to exit.
    fn work(self: &Arc<Self>, index: usize) {
        WORKER.with(|w| w.set((self.pool.key(), index)));
        let mut in_a_row = 0;
        loop {
            let next = self.pool.next_slot(index).take();
            let host = match next {
                Some(host) if in_a_row < NEXT_SLOT_RUN => {
                    in_a_row += 1;
                    host
                }
                displaced => {
                    in_a_row = 0;
                    if let Some(host) = displaced {
                        let _ = self.pool.queue.send(Some(host));
                    }
                    match self.pool.ready.recv() {
                        Ok(Some(host)) => host,
                        Ok(None) | Err(_) => return,
                    }
                }
            };
            self.run_turn(&host);
        }
    }

    /// Runs one turn of `host`, tombstones it if its actor panicked — this
    /// incarnation only, the worker lives on — and releases it.
    fn run_turn(self: &Arc<Self>, host: &Arc<Host<M, R>>) {
        if host.turn(self) {
            host.state.store(STATE_DEAD, Ordering::Release);
            self.rebuild_membership();
        }
        // A swap, not a store: reading the flag synchronizes with the
        // delivery that last set it, so the emptiness check below sees that
        // delivery's envelope. Work that arrived during the turn and has
        // not re-scheduled the host sends it to the back of the run queue.
        host.scheduled.swap(false, Ordering::AcqRel);
        if !host.tx.is_empty() && !host.scheduled.swap(true, Ordering::AcqRel) {
            let _ = self.pool.queue.send(Some(Arc::clone(host)));
        }
    }
}

/// A one-shot handle a [`Transport`] uses to inject one host-bound message
/// into its destination mailbox. Carries the link metadata (sender,
/// destination, traffic class) so byte-moving transports can address their
/// frames; [`deliver`](Self::deliver) does the failure-model and metering
/// bookkeeping (received counters, drops at dead hosts) at the moment the
/// message actually arrives — so a message a transport loses is charged as
/// sent but never as received.
pub struct Delivery<M, R> {
    net: Arc<Fabric<M, R>>,
    from: Sender,
    to: HostId,
    class: TrafficClass,
}

impl<M, R> Delivery<M, R> {
    /// Who sent the message.
    pub fn from(&self) -> Sender {
        self.from
    }

    /// The destination host.
    pub fn to(&self) -> HostId {
        self.to
    }

    /// The accounting class the sender tagged the message with.
    pub fn class(&self) -> TrafficClass {
        self.class
    }

    /// Injects the message into the destination mailbox. Messages arriving
    /// at a dead host are dropped (and counted in
    /// [`crate::HostTraffic::dropped`]), like packets to a crashed machine.
    /// A host-to-host message is counted as received once its mailbox has
    /// taken it; one a closed mailbox refuses is not.
    pub fn deliver(self, msg: M) -> CarryStatus {
        // Bookkeeping under the slots lock, the mailbox send after it is
        // released: never block a channel under a lock.
        let host = {
            let slots = self.net.slots.read();
            let Some(dest) = slots.get(self.to.index()) else {
                return CarryStatus::Closed;
            };
            if dest.host.is_dead() {
                dest.dropped.add(1);
                return CarryStatus::InFlight;
            }
            Arc::clone(&dest.host)
        };
        let envelope = Envelope::User {
            from: self.from,
            msg,
        };
        if host.tx.send(envelope).is_err() {
            return CarryStatus::Closed;
        }
        if matches!(self.from, Sender::Host(_)) {
            // Counted before the host is woken: an idle host cannot take
            // the message, let alone reply to it, before it is counted.
            if let Some(dest) = self.net.slots.read().get(self.to.index()) {
                dest.received.add(1);
            }
        }
        self.net.wake(&host);
        CarryStatus::Delivered
    }
}

/// A one-shot handle a [`Transport`] uses to deliver one reply to the
/// external client that is waiting for it.
pub struct ReplyDelivery<M, R> {
    net: Arc<Fabric<M, R>>,
    from: HostId,
    client: ClientId,
}

impl<M, R> ReplyDelivery<M, R> {
    /// The host that produced the reply.
    pub fn from(&self) -> HostId {
        self.from
    }

    /// The client the reply is addressed to.
    pub fn client(&self) -> ClientId {
        self.client
    }

    /// Hands the reply to the client's channel. Replies to unknown clients
    /// (e.g. one that lives in another process) are dropped silently.
    pub fn deliver(self, reply: R) {
        // Clone the sender out of the map so the clients lock is released
        // before the send: never block a channel under a lock.
        let tx = self.net.clients.read().get(&self.client).cloned();
        if let Some(tx) = tx {
            let _ = tx.send(reply);
        }
    }
}

/// The injection handle a multi-process [`Transport`] receives from
/// [`Transport::attach`]: how frames arriving from remote peers re-enter
/// this process's fabric.
pub struct Inbound<M, R> {
    net: Arc<Fabric<M, R>>,
}

impl<M, R> Clone for Inbound<M, R> {
    fn clone(&self) -> Self {
        Inbound {
            net: Arc::clone(&self.net),
        }
    }
}

impl<M, R> Inbound<M, R> {
    /// Delivers a message that arrived from a remote peer into the local
    /// destination mailbox, with the same bookkeeping as an in-process
    /// delivery.
    pub fn deliver_msg(
        &self,
        from: Sender,
        to: HostId,
        class: TrafficClass,
        msg: M,
    ) -> CarryStatus {
        Delivery {
            net: Arc::clone(&self.net),
            from,
            to,
            class,
        }
        .deliver(msg)
    }

    /// Delivers a reply that arrived from a remote peer to a local client.
    pub fn deliver_reply(&self, client: ClientId, reply: R) {
        // As in `ReplyDelivery::deliver`: release the clients lock first.
        let tx = self.net.clients.read().get(&client).cloned();
        if let Some(tx) = tx {
            let _ = tx.send(reply);
        }
    }

    /// Records that the transport lost a peer link it did not expect to
    /// lose: local client waits surface [`RuntimeError::TransportClosed`]
    /// instead of an indistinguishable timeout.
    pub fn note_transport_closed(&self) {
        self.net
            .transport_closed
            .store(true, std::sync::atomic::Ordering::Release);
    }
}

/// Handler context: lets an actor forward messages, reply to clients, and
/// observe the membership view.
pub struct Context<'a, M, R> {
    host: HostId,
    net: &'a Arc<Fabric<M, R>>,
}

impl<M: Send + 'static, R: Send + 'static> Context<'_, M, R> {
    /// The host this actor runs on.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// A point-in-time membership snapshot (see [`Runtime::membership`]) —
    /// an `Arc` clone of the cached view, cheap enough to take per message.
    pub fn membership(&self) -> Arc<Membership> {
        self.net.membership()
    }

    /// Whether `host` is alive and should be routed new work.
    pub fn is_alive(&self, host: HostId) -> bool {
        let slots = self.net.slots.read();
        slots
            .get(host.index())
            .is_some_and(|s| s.host.state.load(Ordering::Acquire) == STATE_ALIVE)
    }

    /// Sends `msg` to another host; counts one network message (both in the
    /// runtime total and in the per-host sent/received counters surfaced by
    /// [`Runtime::host_traffic`]). Counted as [`TrafficClass::Query`]; use
    /// [`send_class`](Self::send_class) to tag update traffic.
    ///
    /// Sends to self are delivered through the mailbox too but are *not*
    /// counted, matching the simulated cost model where intra-host work is
    /// free. Sends to a dead host are dropped (and counted in that host's
    /// [`crate::HostTraffic::dropped`] slot) — exactly a packet to a
    /// crashed machine.
    pub fn send(&mut self, to: HostId, msg: M) {
        self.send_class(to, msg, TrafficClass::Query);
    }

    /// Like [`send`](Self::send), but tags the message with a
    /// [`TrafficClass`] so [`Runtime::host_traffic`] can split query from
    /// update traffic per host.
    pub fn send_class(&mut self, to: HostId, msg: M, class: TrafficClass) {
        self.transmit(to, msg, class, None);
    }

    /// Sends a coalesced multi-op envelope: one message carrying `ops`
    /// operations bound for the same destination host. Metered as a
    /// *single* host crossing (that is the point of batching), and
    /// additionally recorded in the per-class batch counters of
    /// [`crate::HostTraffic`] (`batch_sent` / `batch_ops`, with the update
    /// share broken out) so experiments can observe how much coalescing the
    /// batching layer achieved.
    pub fn send_multi(&mut self, to: HostId, msg: M, class: TrafficClass, ops: u32) {
        self.transmit(to, msg, class, Some(ops));
    }

    fn transmit(&mut self, to: HostId, msg: M, class: TrafficClass, batch: Option<u32>) {
        if to == self.host {
            // Intra-host work is free and never exposed to the transport's
            // fault model: deliver straight to our own mailbox (unbounded,
            // so this cannot block inside a handler). The send happens after
            // the slots guard drops: never block a channel under a lock.
            let host = {
                let slots = self.net.slots.read();
                slots.get(to.index()).map(|dest| Arc::clone(&dest.host))
            };
            if let Some(host) = host {
                let envelope = Envelope::User {
                    from: Sender::Host(self.host),
                    msg,
                };
                let _ = self.net.post(&host, envelope);
            }
            return;
        }
        {
            let slots = self.net.slots.read();
            let Some(dest) = slots.get(to.index()) else {
                return;
            };
            if dest.host.is_dead() {
                // Lost on the wire: the destination crashed. One envelope,
                // one loss — however many ops rode inside it.
                dest.dropped.add(1);
                return;
            }
            // Sends are charged here; the receive side is charged by
            // `Delivery::deliver` when the message actually arrives, so a
            // message the transport loses is never counted as received.
            let me = &slots[self.host.index()];
            me.sent.add(1);
            if class == TrafficClass::Update {
                me.update_sent.add(1);
            }
            if let Some(ops) = batch {
                me.batch_sent.add(1);
                me.batch_ops.add(u64::from(ops));
            }
        }
        let delivery = Delivery {
            net: Arc::clone(self.net),
            from: Sender::Host(self.host),
            to,
            class,
        };
        let _ = self.net.transport.carry(msg, delivery);
    }

    /// Delivers a reply to an external client through the transport.
    /// Replies are not counted as network messages (the paper's `Q(n)`
    /// counts routing messages only; experiments that want to charge for
    /// the final answer hop do so explicitly).
    pub fn reply(&mut self, client: ClientId, reply: R) {
        carry_reply(self.net, self.host, client, reply);
    }

    /// A handle that replies on this host's behalf after the handler has
    /// returned, for work the handler passes to another thread.
    pub fn replier(&self) -> Replier<M, R> {
        Replier {
            net: Arc::clone(self.net),
            host: self.host,
        }
    }
}

/// Hands `reply` from `host` to the transport, bound for `client`.
fn carry_reply<M, R>(net: &Arc<Fabric<M, R>>, host: HostId, client: ClientId, reply: R) {
    let delivery = ReplyDelivery {
        net: Arc::clone(net),
        from: host,
        client,
    };
    net.transport.carry_reply(reply, delivery);
}

/// Replies to clients on behalf of the host whose handler took it
/// ([`Context::replier`]), from outside that handler: each reply travels
/// through [`Transport::carry_reply`] exactly as [`Context::reply`]'s does.
pub struct Replier<M, R> {
    net: Arc<Fabric<M, R>>,
    host: HostId,
}

impl<M, R> Replier<M, R> {
    /// Delivers `reply` to `client`, as [`Context::reply`] does.
    pub fn reply(&self, client: ClientId, reply: R) {
        carry_reply(&self.net, self.host, client, reply);
    }
}

/// Per-host behaviour plugged into the runtime.
pub trait Actor: Send + 'static {
    /// Host-to-host message type.
    type Msg: Send + 'static;
    /// Reply type delivered to external clients.
    type Reply: Send + 'static;

    /// Handles one incoming message. Forward or reply through `ctx`.
    ///
    /// Hosts share a worker pool of at most one thread per core, so a
    /// handler should not block waiting on another host: it would hold a
    /// worker that host may need.
    fn on_message(
        &mut self,
        from: Sender,
        msg: Self::Msg,
        ctx: &mut Context<'_, Self::Msg, Self::Reply>,
    );
}

/// A handle external code uses to inject requests and await replies.
pub struct Client<M, R> {
    id: ClientId,
    rx: channel::Receiver<R>,
    net: Arc<Fabric<M, R>>,
}

impl<M: Send + 'static, R: Send + 'static> Client<M, R> {
    /// This client's identifier; embed it in request messages so some host
    /// can eventually [`Context::reply`] to it.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// A point-in-time membership snapshot (see [`Runtime::membership`]).
    pub fn membership(&self) -> Arc<Membership> {
        self.net.membership()
    }

    /// Injects `msg` at `host`.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::HostPanicked`] if *that host* crashed (the
    /// rest of the fabric keeps serving — pick another host) and
    /// [`RuntimeError::HostDown`] if the host id is unknown or its mailbox
    /// closed (runtime shut down).
    pub fn send(&self, host: HostId, msg: M) -> Result<(), RuntimeError> {
        {
            let slots = self.net.slots.read();
            let Some(dest) = slots.get(host.index()) else {
                return Err(RuntimeError::HostDown(host));
            };
            if dest.host.is_dead() {
                dest.dropped.add(1);
                return Err(RuntimeError::HostPanicked(host));
            }
        }
        // Client injections ride the transport like any other message (they
        // are not metered: the paper's entry at "the root node for that
        // host" is free), so a lossy transport can lose them and a TCP
        // transport can inject at a remote process.
        let delivery = Delivery {
            net: Arc::clone(&self.net),
            from: Sender::Client(self.id),
            to: host,
            class: TrafficClass::Query,
        };
        match self.net.transport.carry(msg, delivery) {
            CarryStatus::Closed => Err(RuntimeError::HostDown(host)),
            CarryStatus::Delivered | CarryStatus::InFlight => Ok(()),
        }
    }

    /// Blocks until a reply arrives.
    ///
    /// A crash no longer poisons the whole fabric, so an operation lost in
    /// a dead host's mailbox does *not* wake this call — use
    /// [`recv_timeout`](Self::recv_timeout) when the fabric may see
    /// failures.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Disconnected`] if the runtime dropped the
    /// reply channel.
    pub fn recv(&self) -> Result<R, RuntimeError> {
        self.rx.recv().map_err(|_| RuntimeError::Disconnected)
    }

    /// Records that this client discarded a late reply on arrival because
    /// its correlation id had been abandoned by a timeout-resubmit. The
    /// count is surfaced fabric-wide as
    /// [`crate::HostTraffic::stale_replies`], so lost-and-retried
    /// operations leave an observable trace instead of silently vanishing.
    pub fn note_stale_reply(&self) {
        self.net.stale_replies.add(1);
    }

    /// Waits up to `timeout` for a reply.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Timeout`] on timeout (which is how a request
    /// lost in a crashed host's mailbox surfaces),
    /// [`RuntimeError::TransportClosed`] when the wait expired *after* the
    /// transport lost a peer link it did not expect to lose (a reply will
    /// never come — resubmitting is pointless), and
    /// [`RuntimeError::Disconnected`] if the channel closed.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<R, RuntimeError> {
        self.rx.recv_timeout(timeout).map_err(|e| match e {
            channel::RecvTimeoutError::Timeout => {
                if self
                    .net
                    .transport_closed
                    .load(std::sync::atomic::Ordering::Acquire)
                {
                    RuntimeError::TransportClosed
                } else {
                    RuntimeError::Timeout
                }
            }
            channel::RecvTimeoutError::Disconnected => RuntimeError::Disconnected,
        })
    }
}

/// The running network: hosts, the worker pool that runs them, and client
/// plumbing. Hosts can crash ([`kill`](Self::kill) or an actor panic),
/// leave gracefully ([`decommission`](Self::decommission)), and join live
/// ([`add_host`](Self::add_host)); the rest of the fabric keeps serving
/// throughout.
pub struct Runtime<A: Actor> {
    net: Arc<Fabric<A::Msg, A::Reply>>,
    /// The worker threads: `min(local hosts, available_parallelism)`.
    workers: Mutex<Vec<JoinHandle<()>>>,
    next_client: Counter,
}

fn handler<A: Actor>(mut actor: A) -> Handler<A::Msg, A::Reply> {
    Box::new(move |from, msg, ctx| actor.on_message(from, msg, ctx))
}

impl<A: Actor> Runtime<A> {
    /// Spawns a fabric of `hosts` actors over the default
    /// [`ChannelTransport`]; `make_actor` builds the per-host state.
    ///
    /// # Panics
    ///
    /// Panics if `hosts` is zero.
    pub fn spawn(hosts: usize, make_actor: impl FnMut(HostId) -> A) -> Self {
        Self::spawn_with_transport(hosts, Arc::new(ChannelTransport), make_actor)
    }

    /// Like [`spawn`](Self::spawn), but message delivery goes through
    /// `transport` — the in-process default, a simulated WAN with a fault
    /// model ([`crate::SimWanTransport`]), loopback TCP
    /// ([`crate::TcpTransport`]), or any custom [`Transport`] impl.
    ///
    /// # Panics
    ///
    /// Panics if `hosts` is zero.
    pub fn spawn_with_transport(
        hosts: usize,
        transport: Arc<dyn Transport<A::Msg, A::Reply>>,
        make_actor: impl FnMut(HostId) -> A,
    ) -> Self {
        Self::spawn_partitioned(hosts, 0..hosts, transport, make_actor)
    }

    /// Spawns a fabric of `hosts` slots but runs actors only for the
    /// `local` id range — the multi-process deployment shape: every process
    /// holds the full (dense, stable) slot table so addressing and
    /// membership work globally, while only its own partition executes.
    /// Messages to non-local hosts are the transport's problem (a byte-
    /// moving transport like [`crate::TcpTransport`] ships them to the
    /// owning process; remote mailboxes in this process are closed).
    ///
    /// # Panics
    ///
    /// Panics if `hosts` is zero or `local` reaches past `hosts`. An empty
    /// `local` range is allowed: a pure client/driver process.
    pub fn spawn_partitioned(
        hosts: usize,
        local: std::ops::Range<usize>,
        transport: Arc<dyn Transport<A::Msg, A::Reply>>,
        mut make_actor: impl FnMut(HostId) -> A,
    ) -> Self {
        assert!(hosts > 0, "a peer-to-peer network needs at least one host");
        assert!(
            local.end <= hosts,
            "local partition reaches past the fabric"
        );
        let slots = (0..hosts)
            .map(|i| {
                let id = HostId(i as u32);
                let here = local.contains(&i);
                HostSlot::new(Host::new(id, here.then(|| handler(make_actor(id)))), here)
            })
            .collect();
        let net = Arc::new(Fabric {
            slots: RwLock::new(slots),
            pool: Pool::new(),
            clients: RwLock::new(HashMap::new()),
            stale_replies: Counter::default(),
            membership_cache: RwLock::new(Arc::new(Membership { states: Vec::new() })),
            transport,
            transport_closed: std::sync::atomic::AtomicBool::new(false),
        });
        net.transport.attach(Inbound {
            net: Arc::clone(&net),
        });
        let runtime = Runtime {
            net,
            workers: Mutex::new(Vec::new()),
            next_client: Counter::default(),
        };
        runtime.staff();
        runtime.net.rebuild_membership();
        runtime
    }

    /// Spawns workers until there are `min(local hosts, available_parallelism)`
    /// of them.
    fn staff(&self) {
        let local = self.net.slots.read().iter().filter(|s| s.local).count();
        let want = local.min(self.net.pool.next.len());
        let mut workers = self.workers.lock();
        while workers.len() < want {
            let net = Arc::clone(&self.net);
            let index = workers.len();
            workers.push(std::thread::spawn(move || net.work(index)));
        }
    }

    /// Adds one host to the running fabric, returning its (dense, stable)
    /// id. The host starts alive and immediately receives traffic.
    pub fn add_host(&self, actor: A) -> HostId {
        let host = {
            let mut slots = self.net.slots.write();
            let host = HostId(slots.len() as u32);
            slots.push(HostSlot::new(Host::new(host, Some(handler(actor))), true));
            host
        };
        self.staff();
        self.net.rebuild_membership();
        host
    }

    /// Crashes `host` for fault injection: tombstones it, discards its
    /// queued mailbox, and drops every later message addressed to it —
    /// indistinguishable from an actor panic to the rest of the fabric.
    /// Idempotent; unknown hosts are ignored.
    pub fn kill(&self, host: HostId) {
        self.net.mark_dead(host);
    }

    /// Restarts a crashed host in place: the tombstoned slot gets a fresh
    /// incarnation — mailbox and actor — and the host rejoins the live
    /// membership under its original id — the rejoin-with-state path a
    /// durability layer uses after replaying the host's write-ahead log.
    /// Returns `false` (without spawning anything) unless the host is
    /// currently [`Dead`](HostState::Dead): alive and decommissioned hosts
    /// cannot be revived, and unknown ids are ignored.
    ///
    /// The slot keeps its lifetime counters across the revival (traffic
    /// accounting spans crashes, like a persistent host name). The old
    /// incarnation — whose pre-crash mailbox a turn may still be
    /// discarding — keeps its own tombstone, mailbox and actor; the revived
    /// one starts from a fresh mailbox, so a slow drain can never resurrect
    /// pre-crash messages into the recovered host.
    pub fn revive(&self, host: HostId, actor: A) -> bool {
        {
            let mut slots = self.net.slots.write();
            let Some(slot) = slots.get_mut(host.index()) else {
                return false;
            };
            if !slot.host.is_dead() {
                return false;
            }
            slot.host = Arc::new(Host::new(host, Some(handler(actor))));
            slot.local = true;
        }
        self.staff();
        self.net.rebuild_membership();
        true
    }

    /// Marks `host` as gracefully leaving: it still processes everything
    /// already routed to it, but [`Membership::is_alive`] turns false so
    /// routing layers stop targeting it for new work. No-op unless the host
    /// is currently alive.
    pub fn decommission(&self, host: HostId) {
        {
            let slots = self.net.slots.read();
            if let Some(slot) = slots.get(host.index()) {
                let _ = slot.host.state.compare_exchange(
                    STATE_ALIVE,
                    STATE_DECOMMISSIONED,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                );
            }
        }
        self.net.rebuild_membership();
    }

    /// Number of hosts ever spawned (alive, dead, and decommissioned).
    pub fn hosts(&self) -> usize {
        self.net.slots.read().len()
    }

    /// A point-in-time snapshot of every host's lifecycle state — an `Arc`
    /// clone of a cached view that is rebuilt only on state transitions.
    pub fn membership(&self) -> Arc<Membership> {
        self.net.membership()
    }

    /// Registers a new external client.
    pub fn client(&self) -> Client<A::Msg, A::Reply> {
        let id = ClientId(self.next_client.add(1));
        let (tx, rx) = channel::unbounded();
        self.net.clients.write().insert(id, tx);
        Client {
            id,
            rx,
            net: Arc::clone(&self.net),
        }
    }

    /// Per-host message counters accumulated since spawn: how many network
    /// messages each host sent and received, with the update-tagged share
    /// and the messages dropped at dead hosts broken out per host, and the
    /// transport's own counters alongside. Self-sends, client traffic and
    /// drops are never counted as sent, so `total_sent()` compares with the
    /// simulated meter counts.
    pub fn host_traffic(&self) -> HostTraffic {
        let slots = self.net.slots.read();
        let load = |f: fn(&HostSlot<A::Msg, A::Reply>) -> &Counter| -> Vec<u64> {
            slots.iter().map(|s| f(s).get()).collect()
        };
        // Load the update share before the totals: `send_class` increments
        // the total first, so this order keeps a concurrent snapshot from
        // ever observing more update-tagged sends than sends.
        let update_sent = load(|s| &s.update_sent);
        HostTraffic {
            sent: load(|s| &s.sent),
            received: load(|s| &s.received),
            update_sent,
            dropped: load(|s| &s.dropped),
            batch_sent: load(|s| &s.batch_sent),
            batch_ops: load(|s| &s.batch_ops),
            stale_replies: self.net.stale_replies.get(),
            transport: self.net.transport.stats(),
        }
    }

    /// Whether this fabric's transport can lose messages (see
    /// [`Transport::is_lossy`]). Retry layers widen their timeout-resubmit
    /// gates when this is `true`.
    pub fn transport_lossy(&self) -> bool {
        self.net.transport.is_lossy()
    }

    /// Stops all hosts, then the workers, then shuts the transport down.
    /// Queued messages ahead of the stop marker are still processed (except
    /// on dead hosts, which discard theirs). Stop markers go straight to the
    /// mailboxes — a lossy or wedged transport cannot block shutdown.
    pub fn shutdown(self) {
        // Snapshot the hosts, then send with the slots lock released: never
        // block a channel under a lock.
        let hosts: Vec<_> = self
            .net
            .slots
            .read()
            .iter()
            .map(|s| Arc::clone(&s.host))
            .collect();
        let (done, stopped) = channel::unbounded::<()>();
        for host in &hosts {
            let _ = self.net.post(
                host,
                Envelope::Stop {
                    _done: done.clone(),
                },
            );
        }
        drop(done);
        // Nothing is sent on `done`: this returns once every stop marker is
        // gone, each with its host stopped or its queue discarded.
        let _ = stopped.recv();
        let workers = self.workers.into_inner();
        for _ in &workers {
            let _ = self.net.pool.queue.send(None);
        }
        for worker in workers {
            let _ = worker.join();
        }
        self.net.transport.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;
    #[derive(Debug)]
    struct Ask(ClientId, u64);

    impl Actor for Echo {
        type Msg = Ask;
        type Reply = (HostId, u64);
        fn on_message(
            &mut self,
            _from: Sender,
            Ask(c, v): Ask,
            ctx: &mut Context<'_, Ask, (HostId, u64)>,
        ) {
            ctx.reply(c, (ctx.host(), v));
        }
    }

    #[test]
    fn echo_replies_to_the_right_client() {
        let rt = Runtime::spawn(3, |_| Echo);
        let a = rt.client();
        let b = rt.client();
        a.send(HostId(1), Ask(a.id(), 10)).unwrap();
        b.send(HostId(2), Ask(b.id(), 20)).unwrap();
        assert_eq!(
            a.recv_timeout(Duration::from_secs(5)).unwrap(),
            (HostId(1), 10)
        );
        assert_eq!(
            b.recv_timeout(Duration::from_secs(5)).unwrap(),
            (HostId(2), 20)
        );
        rt.shutdown();
    }

    struct Forwarder {
        hops: u32,
    }
    #[derive(Debug)]
    struct Fwd {
        left: u32,
        client: ClientId,
    }

    impl Actor for Forwarder {
        type Msg = Fwd;
        type Reply = u32;
        fn on_message(&mut self, _from: Sender, msg: Fwd, ctx: &mut Context<'_, Fwd, u32>) {
            if msg.left == 0 {
                ctx.reply(msg.client, self.hops);
            } else {
                self.hops += 1;
                let next = HostId((ctx.host().0 + 1) % 4);
                ctx.send(
                    next,
                    Fwd {
                        left: msg.left - 1,
                        client: msg.client,
                    },
                );
            }
        }
    }

    struct SelfSender;
    #[derive(Debug)]
    enum Loop {
        Start(ClientId),
        Again(ClientId),
    }

    impl Actor for SelfSender {
        type Msg = Loop;
        type Reply = ();
        fn on_message(&mut self, _from: Sender, msg: Loop, ctx: &mut Context<'_, Loop, ()>) {
            match msg {
                Loop::Start(c) => ctx.send(ctx.host(), Loop::Again(c)),
                Loop::Again(c) => ctx.reply(c, ()),
            }
        }
    }

    #[test]
    fn self_sends_are_free() {
        let rt = Runtime::spawn(1, |_| SelfSender);
        let c = rt.client();
        c.send(HostId(0), Loop::Start(c.id())).unwrap();
        c.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(rt.host_traffic().total_sent(), 0);
        rt.shutdown();
    }

    #[test]
    fn send_after_shutdown_reports_host_down() {
        let rt = Runtime::spawn(1, |_| Echo);
        let c = rt.client();
        rt.shutdown();
        let err = c.send(HostId(0), Ask(c.id(), 1)).unwrap_err();
        assert_eq!(err, RuntimeError::HostDown(HostId(0)));
    }

    #[test]
    fn recv_timeout_expires_without_traffic() {
        let rt = Runtime::spawn(1, |_| Echo);
        let c = rt.client();
        let err = c.recv_timeout(Duration::from_millis(10)).unwrap_err();
        assert_eq!(err, RuntimeError::Timeout);
        rt.shutdown();
    }

    /// A transport that swallows every message and marks the wire dead,
    /// like a TCP peer vanishing mid-conversation.
    struct SeveredWire;
    impl<M, R> crate::transport::Transport<M, R> for SeveredWire {
        fn carry(&self, _msg: M, delivery: Delivery<M, R>) -> crate::transport::CarryStatus {
            delivery.net.transport_closed.store(true, Ordering::Release);
            crate::transport::CarryStatus::InFlight
        }
        fn carry_reply(&self, _reply: R, _delivery: ReplyDelivery<M, R>) {}
    }

    #[test]
    fn severed_transport_surfaces_transport_closed_not_timeout() {
        let rt = Runtime::spawn_with_transport(1, Arc::new(SeveredWire), |_| Echo);
        let c = rt.client();
        c.send(HostId(0), Ask(c.id(), 1)).unwrap();
        let err = c.recv_timeout(Duration::from_millis(20)).unwrap_err();
        assert_eq!(err, RuntimeError::TransportClosed);
        rt.shutdown();
    }

    #[test]
    fn host_traffic_splits_message_count_per_host() {
        let rt = Runtime::spawn(4, |_| Forwarder { hops: 0 });
        let c = rt.client();
        c.send(
            HostId(0),
            Fwd {
                left: 8,
                client: c.id(),
            },
        )
        .unwrap();
        let _ = c.recv_timeout(Duration::from_secs(5)).unwrap();
        let traffic = rt.host_traffic();
        assert_eq!(traffic.received.iter().sum::<u64>(), 8);
        // The ring visits each of the 4 hosts twice.
        assert_eq!(traffic.sent, vec![2, 2, 2, 2]);
        assert_eq!(traffic.total_dropped(), 0);
        // The in-process channel has no wire of its own to count.
        assert_eq!(traffic.transport, crate::TransportStats::default());
        rt.shutdown();
    }

    /// Fans a packed envelope out to host 1, which unpacks and replies once
    /// per carried op.
    struct Fan;
    #[derive(Debug)]
    enum FanMsg {
        Go { client: ClientId, ops: u32 },
        Packed { client: ClientId, ops: u32 },
    }

    impl Actor for Fan {
        type Msg = FanMsg;
        type Reply = u32;
        fn on_message(&mut self, _from: Sender, msg: FanMsg, ctx: &mut Context<'_, FanMsg, u32>) {
            match msg {
                FanMsg::Go { client, ops } => {
                    ctx.send_multi(
                        HostId(1),
                        FanMsg::Packed { client, ops },
                        TrafficClass::Update,
                        ops,
                    );
                }
                FanMsg::Packed { client, ops } => {
                    for i in 0..ops {
                        ctx.reply(client, i);
                    }
                }
            }
        }
    }

    #[test]
    fn a_multi_op_envelope_is_one_crossing_with_batch_counters() {
        let rt = Runtime::spawn(2, |_| Fan);
        let c = rt.client();
        c.send(
            HostId(0),
            FanMsg::Go {
                client: c.id(),
                ops: 3,
            },
        )
        .unwrap();
        for _ in 0..3 {
            c.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        // One envelope carried three ops: one metered, update-class
        // crossing, and three in the batch-op counter.
        let traffic = rt.host_traffic();
        assert_eq!(traffic.sent, vec![1, 0]);
        assert_eq!(traffic.batch_sent, vec![1, 0]);
        assert_eq!(traffic.batch_ops, vec![3, 0]);
        assert_eq!(traffic.update_sent, vec![1, 0]);
        assert!((traffic.mean_batch_size() - 3.0).abs() < 1e-12);
        rt.shutdown();
    }

    #[test]
    fn stale_reply_drops_are_counted_fabric_wide() {
        let rt = Runtime::spawn(1, |_| Echo);
        let c = rt.client();
        assert_eq!(rt.host_traffic().stale_replies, 0);
        c.note_stale_reply();
        c.note_stale_reply();
        assert_eq!(rt.host_traffic().stale_replies, 2);
        rt.shutdown();
    }

    /// Panics whenever it hears anything.
    struct Grenade;

    impl Actor for Grenade {
        type Msg = Ask;
        type Reply = u64;
        fn on_message(&mut self, _from: Sender, _msg: Ask, _ctx: &mut Context<'_, Ask, u64>) {
            panic!("boom");
        }
    }

    impl Actor for Result<Echo, Grenade> {
        type Msg = Ask;
        type Reply = (HostId, u64);
        fn on_message(
            &mut self,
            from: Sender,
            msg: Ask,
            ctx: &mut Context<'_, Ask, (HostId, u64)>,
        ) {
            match self {
                Ok(echo) => echo.on_message(from, msg, ctx),
                Err(_) => panic!("boom"),
            }
        }
    }

    /// Waits until `host` is reported dead (the tombstone is raised by the
    /// unwinding thread, so there is a tiny publication window).
    fn await_dead<A: Actor>(rt: &Runtime<A>, host: HostId) {
        for _ in 0..2000 {
            if rt.membership().state(host) == HostState::Dead {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("{host} never tombstoned");
    }

    #[test]
    fn a_panic_is_contained_to_its_host() {
        // Host 0 echoes, host 1 panics: after the crash, host 0 (and the
        // client) must keep working — the tombstone is per host.
        let rt = Runtime::spawn(2, |h| {
            if h == HostId(0) {
                Ok(Echo)
            } else {
                Err(Grenade)
            }
        });
        let c = rt.client();
        c.send(HostId(1), Ask(c.id(), 6)).unwrap();
        await_dead(&rt, HostId(1));
        // The lost request surfaces as a timeout, not a hang or a poison.
        assert_eq!(
            c.recv_timeout(Duration::from_millis(50)).unwrap_err(),
            RuntimeError::Timeout
        );
        // Sends to the dead host fail fast; the rest of the fabric serves.
        assert_eq!(
            c.send(HostId(1), Ask(c.id(), 7)).unwrap_err(),
            RuntimeError::HostPanicked(HostId(1))
        );
        c.send(HostId(0), Ask(c.id(), 8)).unwrap();
        assert_eq!(
            c.recv_timeout(Duration::from_secs(5)).unwrap(),
            (HostId(0), 8)
        );
        let m = rt.membership();
        assert_eq!(m.dead_hosts(), vec![HostId(1)]);
        assert_eq!(m.alive_hosts(), vec![HostId(0)]);
        assert_eq!(m.first_dead(), Some(HostId(1)));
        rt.shutdown();
    }

    #[test]
    fn kill_discards_the_mailbox_and_drops_later_sends() {
        let rt = Runtime::spawn(2, |_| Echo);
        let c = rt.client();
        rt.kill(HostId(1));
        assert_eq!(rt.membership().state(HostId(1)), HostState::Dead);
        assert_eq!(
            c.send(HostId(1), Ask(c.id(), 1)).unwrap_err(),
            RuntimeError::HostPanicked(HostId(1))
        );
        // The drop was counted against the dead host.
        assert_eq!(rt.host_traffic().dropped, vec![0, 1]);
        // The alive host still answers.
        c.send(HostId(0), Ask(c.id(), 2)).unwrap();
        assert_eq!(
            c.recv_timeout(Duration::from_secs(5)).unwrap(),
            (HostId(0), 2)
        );
        rt.shutdown();
    }

    #[test]
    fn actor_sends_to_a_dead_host_are_dropped_not_counted() {
        // A 4-host forwarding ring with host 2 killed: the token vanishes at
        // the crash boundary instead of wedging the fabric.
        let rt = Runtime::spawn(4, |_| Forwarder { hops: 0 });
        rt.kill(HostId(2));
        let c = rt.client();
        c.send(
            HostId(0),
            Fwd {
                left: 8,
                client: c.id(),
            },
        )
        .unwrap();
        assert_eq!(
            c.recv_timeout(Duration::from_millis(100)).unwrap_err(),
            RuntimeError::Timeout
        );
        let traffic = rt.host_traffic();
        // 0 -> 1 and 1 -> 2 were attempted; only 0 -> 1 was delivered.
        assert_eq!(traffic.total_sent(), 1);
        assert_eq!(traffic.dropped[2], 1);
        rt.shutdown();
    }

    #[test]
    fn decommissioned_hosts_still_deliver_in_flight_work() {
        let rt = Runtime::spawn(2, |_| Echo);
        let c = rt.client();
        rt.decommission(HostId(1));
        let m = rt.membership();
        assert!(!m.is_alive(HostId(1)));
        assert_eq!(m.decommissioned_hosts(), vec![HostId(1)]);
        assert_eq!(m.first_dead(), None);
        // Graceful leave: messages already routed to it still complete.
        c.send(HostId(1), Ask(c.id(), 9)).unwrap();
        assert_eq!(
            c.recv_timeout(Duration::from_secs(5)).unwrap(),
            (HostId(1), 9)
        );
        rt.shutdown();
    }

    #[test]
    fn revive_restarts_a_killed_host_under_its_original_id() {
        let rt = Runtime::spawn(2, |_| Echo);
        let c = rt.client();
        rt.kill(HostId(1));
        assert_eq!(rt.membership().state(HostId(1)), HostState::Dead);
        assert!(rt.revive(HostId(1), Echo));
        let m = rt.membership();
        assert!(m.is_alive(HostId(1)));
        assert_eq!(m.dead_hosts(), Vec::<HostId>::new());
        // The revived host serves again under the same id.
        c.send(HostId(1), Ask(c.id(), 4)).unwrap();
        assert_eq!(
            c.recv_timeout(Duration::from_secs(5)).unwrap(),
            (HostId(1), 4)
        );
        // Only dead hosts can be revived.
        assert!(!rt.revive(HostId(1), Echo));
        rt.decommission(HostId(1));
        assert!(!rt.revive(HostId(1), Echo));
        assert!(!rt.revive(HostId(9), Echo));
        rt.shutdown();
    }

    #[test]
    fn revive_does_not_resurrect_pre_crash_mailbox_messages() {
        // Kill a host with work queued behind a slow first message: the old
        // thread must drain-and-discard under its tombstone while the revived
        // thread starts from an empty mailbox.
        let rt = Runtime::spawn(1, |_| Echo);
        let c = rt.client();
        rt.kill(HostId(0));
        // Queued while dead: dropped at delivery, never seen by the revival.
        assert_eq!(
            c.send(HostId(0), Ask(c.id(), 1)).unwrap_err(),
            RuntimeError::HostPanicked(HostId(0))
        );
        assert!(rt.revive(HostId(0), Echo));
        c.send(HostId(0), Ask(c.id(), 2)).unwrap();
        assert_eq!(
            c.recv_timeout(Duration::from_secs(5)).unwrap(),
            (HostId(0), 2)
        );
        // Nothing else arrives: the pre-revival message stayed dead.
        assert_eq!(
            c.recv_timeout(Duration::from_millis(50)).unwrap_err(),
            RuntimeError::Timeout
        );
        rt.shutdown();
    }

    #[test]
    fn hosts_can_join_the_running_fabric() {
        let rt = Runtime::spawn(1, |_| Echo);
        let c = rt.client();
        let new = rt.add_host(Echo);
        assert_eq!(new, HostId(1));
        assert_eq!(rt.hosts(), 2);
        assert!(rt.membership().is_alive(new));
        c.send(new, Ask(c.id(), 3)).unwrap();
        assert_eq!(c.recv_timeout(Duration::from_secs(5)).unwrap(), (new, 3));
        rt.shutdown();
    }

    /// Host 0 hands every request on to host 1, then answers it itself.
    struct Handoff;

    impl Actor for Handoff {
        type Msg = Ask;
        type Reply = (HostId, u64);
        fn on_message(
            &mut self,
            _from: Sender,
            Ask(c, v): Ask,
            ctx: &mut Context<'_, Ask, (HostId, u64)>,
        ) {
            if ctx.host() == HostId(0) {
                ctx.send(HostId(1), Ask(c, v));
            }
            ctx.reply(c, (ctx.host(), v));
        }
    }

    #[test]
    fn a_closed_mailbox_refuses_a_message_without_counting_it_received() {
        // Host 1 runs in another process: its mailbox here is closed.
        let rt = Runtime::spawn_partitioned(2, 0..1, Arc::new(ChannelTransport), |_| Handoff);
        let c = rt.client();
        c.send(HostId(0), Ask(c.id(), 5)).unwrap();
        assert_eq!(
            c.recv_timeout(Duration::from_secs(5)).unwrap(),
            (HostId(0), 5)
        );
        let traffic = rt.host_traffic();
        assert_eq!(traffic.sent[0], 1);
        assert_eq!(traffic.received[1], 0);
        rt.shutdown();
    }

    fn workers_cap() -> usize {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }

    /// Relays a token around a ring, noting the thread each hop ran on.
    struct Relay {
        hosts: u32,
        threads: Arc<Mutex<std::collections::HashSet<std::thread::ThreadId>>>,
    }

    impl Actor for Relay {
        type Msg = Fwd;
        type Reply = ();
        fn on_message(&mut self, _from: Sender, msg: Fwd, ctx: &mut Context<'_, Fwd, ()>) {
            self.threads.lock().insert(std::thread::current().id());
            if msg.left == 0 {
                ctx.reply(msg.client, ());
            } else {
                let next = HostId((ctx.host().0 + 1) % self.hosts);
                ctx.send(
                    next,
                    Fwd {
                        left: msg.left - 1,
                        client: msg.client,
                    },
                );
            }
        }
    }

    #[test]
    fn the_pool_runs_many_hosts_on_at_most_available_parallelism_threads() {
        let hosts = 64u32;
        let threads = Arc::new(Mutex::new(std::collections::HashSet::new()));
        let rt = Runtime::spawn(hosts as usize, |_| Relay {
            hosts,
            threads: Arc::clone(&threads),
        });
        let clients: Vec<_> = (0..4).map(|_| rt.client()).collect();
        for (i, c) in clients.iter().enumerate() {
            let start = HostId(i as u32 * 16);
            c.send(
                start,
                Fwd {
                    left: hosts * 3,
                    client: c.id(),
                },
            )
            .unwrap();
        }
        for c in &clients {
            c.recv_timeout(Duration::from_secs(10)).unwrap();
        }
        assert_eq!(rt.host_traffic().total_sent(), 4 * u64::from(hosts) * 3);
        let used = threads.lock().len();
        assert!(
            (1..=workers_cap()).contains(&used),
            "{hosts} hosts ran on {used} threads, cap {}",
            workers_cap()
        );
        rt.shutdown();
    }

    /// Either floods itself forever once started, or echoes.
    enum Flood {
        Flooder,
        Quiet,
    }
    #[derive(Debug)]
    enum FloodMsg {
        Again,
        Ask(ClientId),
    }

    impl Actor for Flood {
        type Msg = FloodMsg;
        type Reply = HostId;
        fn on_message(
            &mut self,
            _from: Sender,
            msg: FloodMsg,
            ctx: &mut Context<'_, FloodMsg, HostId>,
        ) {
            match (self, msg) {
                (Flood::Flooder, _) => ctx.send(ctx.host(), FloodMsg::Again),
                (Flood::Quiet, FloodMsg::Ask(c)) => ctx.reply(c, ctx.host()),
                (Flood::Quiet, FloodMsg::Again) => {}
            }
        }
    }

    #[test]
    fn a_quiet_host_answers_while_more_hosts_than_workers_flood_themselves() {
        let flooders = workers_cap() + 2;
        let rt = Runtime::spawn(flooders + 1, |h| {
            if h.index() < flooders {
                Flood::Flooder
            } else {
                Flood::Quiet
            }
        });
        let c = rt.client();
        for h in 0..flooders {
            c.send(HostId(h as u32), FloodMsg::Again).unwrap();
        }
        let quiet = HostId(flooders as u32);
        for _ in 0..3 {
            c.send(quiet, FloodMsg::Ask(c.id())).unwrap();
            assert_eq!(c.recv_timeout(Duration::from_secs(1)), Ok(quiet));
        }
        rt.shutdown();
    }

    #[test]
    fn more_panics_than_workers_leave_every_other_host_answering() {
        let grenades = workers_cap() + 1;
        let hosts = 2 * grenades + 2;
        let is_grenade = |h: HostId| h.index() % 2 == 1 && h.index() < 2 * grenades;
        let rt = Runtime::spawn(hosts, |h| {
            if is_grenade(h) {
                Err(Grenade)
            } else {
                Ok(Echo)
            }
        });
        let c = rt.client();
        for h in (0..hosts as u32).map(HostId).filter(|&h| is_grenade(h)) {
            c.send(h, Ask(c.id(), 0)).unwrap();
            await_dead(&rt, h);
        }
        // Every panic tombstoned its own host only; the workers that ran
        // them live on and serve everyone else.
        for h in (0..hosts as u32).map(HostId).filter(|&h| !is_grenade(h)) {
            c.send(h, Ask(c.id(), u64::from(h.0))).unwrap();
            assert_eq!(
                c.recv_timeout(Duration::from_secs(5)).unwrap(),
                (h, u64::from(h.0))
            );
        }
        assert_eq!(rt.membership().dead_hosts().len(), grenades);
        rt.shutdown();
    }

    /// Host 0 sends a numbered burst to host 1, which reports each number.
    struct Burst;
    #[derive(Debug)]
    enum BurstMsg {
        Go { client: ClientId, n: u64 },
        Seq { client: ClientId, i: u64 },
    }

    impl Actor for Burst {
        type Msg = BurstMsg;
        type Reply = u64;
        fn on_message(
            &mut self,
            _from: Sender,
            msg: BurstMsg,
            ctx: &mut Context<'_, BurstMsg, u64>,
        ) {
            match msg {
                BurstMsg::Go { client, n } => {
                    for i in 0..n {
                        ctx.send(HostId(1), BurstMsg::Seq { client, i });
                    }
                }
                BurstMsg::Seq { client, i } => ctx.reply(client, i),
            }
        }
    }

    #[test]
    fn one_senders_messages_arrive_in_order_across_turn_budgets() {
        let n = 20 * TURN_BUDGET as u64 + 7;
        let rt = Runtime::spawn(2, |_| Burst);
        let c = rt.client();
        c.send(HostId(0), BurstMsg::Go { client: c.id(), n })
            .unwrap();
        for want in 0..n {
            assert_eq!(c.recv_timeout(Duration::from_secs(5)), Ok(want));
        }
        assert_eq!(rt.host_traffic().received, vec![0, n]);
        rt.shutdown();
    }
}
