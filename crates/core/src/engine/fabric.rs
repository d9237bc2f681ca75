//! How a fabric stands up, changes and stops: the builder, membership
//! changes, state recovered from a log, the health report and shutdown.

use std::fmt;
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

use crossbeam_channel as channel;
use parking_lot::Mutex;

use skipweb_net::runtime::{ClientId, Membership, Runtime, RuntimeError};
use skipweb_net::tcp::{TcpCodec, TcpConfig, TcpTransport};
use skipweb_net::transport::{ChannelTransport, Transport};
use skipweb_net::wan::{SimWanConfig, SimWanTransport};
use skipweb_net::{HostId, HostTraffic};

use super::stage::{start_stage, Shared, StageMsg};
use super::{
    DistributedSkipWeb, Durability, EngineActor, EngineReply, FabricMsg, Routable, Timeouts,
};
use crate::skipweb::SkipWeb;

/// The one way to stand up a fabric: four deployment-time choices — host
/// count ([`consolidated`](Self::consolidated)), transport
/// ([`wan`](Self::wan), or [`spawn_tcp`](Self::spawn_tcp) instead of
/// [`spawn`](Self::spawn)), client timeout policy
/// ([`timeouts`](Self::timeouts)) and a write-ahead sink
/// ([`durability`](Self::durability)) — then [`spawn`](Self::spawn)s the
/// actors. However many hosts a fabric has, they run on the runtime's
/// worker pool: `min(hosts, available_parallelism)` threads, each running
/// one host's turn at a time (see [`skipweb_net::runtime`]). Placement,
/// replication included, is a property of the web
/// ([`SkipWebBuilder::replicate`](crate::skipweb::SkipWebBuilder::replicate));
/// state recovered from a log is installed into a running fabric with
/// [`DistributedSkipWeb::restore`]. The [module docs](super) show one in
/// use.
pub struct FabricBuilder<'w, D: Routable + Send + Sync + 'static> {
    web: &'w SkipWeb<D>,
    /// Physical host count; `None` is one per host of the web.
    hosts: Option<usize>,
    transport: Arc<dyn Transport<FabricMsg<D>, EngineReply<D>>>,
    timeouts: Timeouts,
    durability: Option<Arc<dyn Durability<D>>>,
}

impl<'w, D: Routable + Send + Sync + 'static> FabricBuilder<'w, D> {
    /// Starts a deployment of `web` with the defaults: one actor per host
    /// of the web, the in-process channel transport, default [`Timeouts`],
    /// no durability.
    pub fn new(web: &'w SkipWeb<D>) -> Self {
        FabricBuilder {
            web,
            hosts: None,
            transport: Arc::new(ChannelTransport),
            timeouts: Timeouts::DEFAULT,
            durability: None,
        }
    }

    /// Spawns exactly `hosts` physical hosts — actors, for placement and
    /// metering — and folds the web's logical hosts onto them
    /// (`logical % hosts`); ranges folded onto one host are co-located, so
    /// operations between them are free. While the logical hosts fit, the
    /// fold is the identity, so owner-hosted hop counts keep matching the
    /// simulator as live inserts grow the web. The hosts share the
    /// runtime's worker pool; the apply stage's thread comes on top: it is
    /// not a host.
    ///
    /// # Panics
    ///
    /// Panics if `hosts` is zero.
    pub fn consolidated(mut self, hosts: usize) -> Self {
        assert!(hosts > 0, "a network needs at least one host");
        self.hosts = Some(hosts);
        self
    }

    /// Serves over a [`SimWanTransport`] with fault model `cfg`. Under
    /// loss, the blocking entry points leak no failures: timeouts trigger
    /// exactly-once resubmits until the operation lands.
    ///
    /// # Panics
    ///
    /// Panics if the loss probability is outside `[0, 1]`.
    pub fn wan(mut self, cfg: SimWanConfig) -> Self {
        self.transport = Arc::new(SimWanTransport::new(cfg));
        self
    }

    /// The wait-and-retry policy every client of this deployment starts
    /// with (individually overridable via
    /// [`EngineClient::set_timeouts`](super::EngineClient::set_timeouts)).
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

    /// Starts the apply stage, spawns the actors, and starts serving.
    pub fn spawn(self) -> DistributedSkipWeb<D> {
        let hosts = self.hosts.unwrap_or(self.web.hosts().max(1));
        let shared = Shared::new(self.web, hosts, self.durability.clone());
        self.launch(shared, hosts, 0..hosts, Arc::clone(&self.transport), None)
    }

    /// Starts the apply stage of `shared`, then the actors of the `local`
    /// hosts of `hosts`, over `transport`.
    fn launch(
        &self,
        (shared, inbox): (Arc<Shared<D>>, channel::Receiver<StageMsg<D>>),
        hosts: usize,
        local: Range<usize>,
        transport: Arc<dyn Transport<FabricMsg<D>, EngineReply<D>>>,
        tcp: Option<Arc<TcpTransport<FabricMsg<D>, EngineReply<D>>>>,
    ) -> DistributedSkipWeb<D> {
        let stage = start_stage(&shared, inbox);
        let runtime =
            Runtime::spawn_partitioned(hosts, local, transport, |_h| EngineActor::new(&shared));
        DistributedSkipWeb {
            runtime,
            shared,
            stage,
            tcp,
            rng: Mutex::new(self.web.rng.clone()),
            default_timeouts: self.timeouts,
        }
    }
}

impl<'w, D: crate::wire::WireCodec + Send + Sync + 'static> FabricBuilder<'w, D> {
    /// Serves this process's share of the web over TCP: one OS process per
    /// endpoint of `cfg`, each running actors only for the hosts
    /// `cfg.owners` assigns it (so [`consolidated`](Self::consolidated) and
    /// [`wan`](Self::wan) do not apply), every cross-process message
    /// serialized through [`WireCodec`](crate::wire::WireCodec).
    ///
    /// Every process must be started from the **same** ground set and build
    /// seed: each rebuilds the identical topology (§2.1), and the wire
    /// carries only operation envelopes. Each process also holds its own
    /// engine state, so TCP deployments serve **query** workloads. The
    /// process owning `cfg.reply_endpoint` is the *driver*: it creates the
    /// clients and calls [`shutdown`](DistributedSkipWeb::shutdown); every
    /// other process parks in
    /// [`DistributedSkipWeb::serve_until_peer_shutdown`].
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
        let hosts = cfg.owners.len().max(1);
        let (shared, inbox) = Shared::new(self.web, hosts, self.durability.clone());
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
        Ok(self.launch((shared, inbox), hosts, range, transport, Some(tcp)))
    }
}

impl<D: Routable + Send + Sync + 'static> DistributedSkipWeb<D> {
    /// Starts configuring a deployment of `web` — the one entry point for
    /// standing up a fabric (see [`FabricBuilder`]).
    pub fn builder(web: &SkipWeb<D>) -> FabricBuilder<'_, D> {
        FabricBuilder::new(web)
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
        self.shared.current_topo().web.len()
    }

    /// Whether the web currently stores no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-host sent/received message counters since spawn, with the
    /// update-tagged share broken out (routing + repair messages of §4) and
    /// the transport's own counters alongside.
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
        let (apply_turns, updates_applied) = self.shared.applied_counts();
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
            let host = self.runtime.add_host(EngineActor::new(&self.shared));
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
        self.shared.state.lock().ledger()
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
            let replaced = st.restore(web, ledger);
            (
                replaced,
                self.shared.republish(st, &self.runtime.membership()),
            )
        };
        drop(retired); // the old webs and snapshot, outside the state lock
    }

    /// Revives a crashed host in place (fresh mailbox and actor,
    /// same id — see [`Runtime::revive`]) and publishes a topology
    /// snapshot that routes to it again: the rejoin-with-state path, so a
    /// recovered host returns to live membership instead of staying
    /// tombstoned forever. Returns `false` unless the host is currently
    /// dead.
    pub fn rejoin_host(&self, host: HostId) -> bool {
        let retired = {
            let st = &*self.shared.state.lock();
            self.runtime
                .revive(host, EngineActor::new(&self.shared))
                .then(|| self.shared.republish(st, &self.runtime.membership()))
        };
        retired.is_some() // and dropped here, outside the state lock
    }

    /// Stops all hosts and the worker pool. On a TCP deployment this first
    /// broadcasts the teardown to every peer process, so their
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
    /// (or `timeout` elapses), then stops the local hosts. Returns
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
