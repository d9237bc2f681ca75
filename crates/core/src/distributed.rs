//! The 1-D skip-web on the threaded actor runtime — a thin wrapper over
//! the generic engine.
//!
//! Historically this module held a bespoke actor/message pair that executed
//! the §2.5 forwarding protocol for sorted keys only. That logic now lives
//! in [`crate::engine`], generic over every range-determined structure;
//! [`DistributedOneDim`] remains as the stable 1-D entry point (spawn,
//! per-client nearest-neighbour queries, live inserts/removes, message
//! counting) so existing integration tests and examples keep working
//! unchanged.

use skipweb_net::runtime::RuntimeError;
use skipweb_net::HostTraffic;
use skipweb_structures::linked_list::SortedLinkedList;

use crate::engine::{DistributedSkipWeb, EngineClient, EngineHealth, UpdateReply};
use crate::onedim::OneDimSkipWeb;
use crate::skipweb::Update;

pub use crate::engine::GlobalRef;

/// Client handle for a [`DistributedOneDim`]; supports many concurrent
/// in-flight operations via correlation ids (see [`crate::engine`]).
pub type OneDimClient = EngineClient<SortedLinkedList>;

/// A running distributed 1-D skip-web: one actor thread per host, answering
/// nearest-neighbour queries — and applying live key inserts/removes (§4) —
/// with real concurrent message passing.
pub struct DistributedOneDim {
    inner: DistributedSkipWeb<SortedLinkedList>,
}

impl DistributedOneDim {
    /// Shards a built skip-web across actor threads and starts them
    /// (routes through [`FabricBuilder`](crate::engine::FabricBuilder)).
    pub fn spawn(web: &OneDimSkipWeb) -> Self {
        DistributedOneDim {
            inner: DistributedSkipWeb::builder(web.inner()).spawn(),
        }
    }

    /// Like [`spawn`](Self::spawn) but folding the web's logical hosts onto
    /// at most `hosts` actor threads (see
    /// [`FabricBuilder::consolidated`](crate::engine::FabricBuilder::consolidated)).
    ///
    /// # Panics
    ///
    /// Panics if `hosts` is zero.
    pub fn spawn_consolidated(web: &OneDimSkipWeb, hosts: usize) -> Self {
        DistributedOneDim {
            inner: DistributedSkipWeb::builder(web.inner())
                .consolidated(hosts)
                .spawn(),
        }
    }

    /// Like [`spawn`](Self::spawn) but with `capacity` actor threads, which
    /// may exceed the web's host count to leave headroom for live inserts
    /// (see [`FabricBuilder::capacity`](crate::engine::FabricBuilder::capacity)).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn spawn_with_capacity(web: &OneDimSkipWeb, capacity: usize) -> Self {
        DistributedOneDim {
            inner: DistributedSkipWeb::builder(web.inner())
                .capacity(capacity)
                .spawn(),
        }
    }

    /// Registers a client.
    pub fn client(&self) -> OneDimClient {
        self.inner.client()
    }

    /// Runs one nearest-neighbour query end to end, blocking up to the
    /// client's query timeout (default 10 s, see
    /// [`EngineClient::set_timeouts`]).
    ///
    /// # Errors
    ///
    /// Propagates runtime errors (host down or panicked, timeout,
    /// disconnect).
    pub fn nearest(
        &self,
        client: &OneDimClient,
        origin_item: usize,
        q: u64,
    ) -> Result<Option<u64>, RuntimeError> {
        self.inner.query(client, origin_item, q).map(|r| r.answer)
    }

    /// Runs a whole batch of nearest-neighbour queries under one
    /// correlation group (see [`DistributedSkipWeb::query_batch`]): the
    /// keys enter at `origin_item`'s root in one envelope and keep sharing
    /// envelopes wherever they agree on the next host, so the batch crosses
    /// strictly fewer host boundaries than the same queries run serially —
    /// with byte-identical answers, returned in submission order.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors (host down or panicked, timeout,
    /// disconnect).
    pub fn nearest_batch(
        &self,
        client: &OneDimClient,
        origin_item: usize,
        qs: Vec<u64>,
    ) -> Result<Vec<Option<u64>>, RuntimeError> {
        Ok(self
            .inner
            .query_batch(client, origin_item, qs)?
            .into_iter()
            .map(|r| r.answer)
            .collect())
    }

    /// Inserts a batch of keys through the live network, coalescing routing
    /// and repair messages per destination host and applying the ones that
    /// land together under a single rebuild (see
    /// [`DistributedSkipWeb::update_batch`]); each key's lookup origin and
    /// level bits come from the engine's seeded generator, as for
    /// [`insert`](Self::insert).
    ///
    /// # Errors
    ///
    /// Propagates runtime errors (host down or panicked, timeout,
    /// disconnect).
    pub fn insert_batch(
        &self,
        client: &OneDimClient,
        keys: Vec<u64>,
    ) -> Result<Vec<UpdateReply>, RuntimeError> {
        let insert = |item| {
            let (origin, bits) = self.inner.draw_entry();
            (origin, Update::Insert { item, bits })
        };
        self.inner
            .update_batch(client, keys.into_iter().map(insert).collect())
    }

    /// Removes a batch of keys through the live network (see
    /// [`DistributedSkipWeb::update_batch`]). Absent keys complete as free
    /// no-ops, like the simulator.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors (host down or panicked, timeout,
    /// disconnect).
    pub fn remove_batch(
        &self,
        client: &OneDimClient,
        keys: Vec<u64>,
    ) -> Result<Vec<UpdateReply>, RuntimeError> {
        let remove = |item| (self.inner.draw_entry().0, Update::Remove { item });
        self.inner
            .update_batch(client, keys.into_iter().map(remove).collect())
    }

    /// Inserts `key` through the live network (§4): routes to the key's
    /// locus, walks the bottom-up repair, applies atomically. Returns the
    /// update outcome with its remote-hop cost.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors (host down or panicked, timeout,
    /// disconnect).
    pub fn insert(&self, client: &OneDimClient, key: u64) -> Result<UpdateReply, RuntimeError> {
        self.inner.insert(client, key)
    }

    /// Removes `key` through the live network (§4). Absent keys complete as
    /// free no-ops, like the simulator.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors (host down or panicked, timeout,
    /// disconnect).
    pub fn remove(&self, client: &OneDimClient, key: u64) -> Result<UpdateReply, RuntimeError> {
        self.inner.remove(client, key)
    }

    /// The generic engine underneath (for [`DistributedSkipWeb::submit`],
    /// correlation-id pipelining, and explicit-bits updates).
    pub fn engine(&self) -> &DistributedSkipWeb<SortedLinkedList> {
        &self.inner
    }

    /// A snapshot of the currently stored keys, sorted.
    pub fn keys(&self) -> Vec<u64> {
        self.inner.ground()
    }

    /// Total host-to-host messages since spawn.
    pub fn message_count(&self) -> u64 {
        self.inner.message_count()
    }

    /// Per-host sent/received message counters since spawn, with the
    /// update-tagged share broken out.
    pub fn traffic(&self) -> HostTraffic {
        self.inner.traffic()
    }

    /// Number of hosts.
    pub fn hosts(&self) -> usize {
        self.inner.hosts()
    }

    /// A fabric-health report: alive/dead/decommissioned hosts, the
    /// replication factor, and the topology-snapshot version (see
    /// [`DistributedSkipWeb::health`]).
    pub fn health(&self) -> EngineHealth {
        self.inner.health()
    }

    /// Stops all host threads.
    pub fn shutdown(self) {
        self.inner.shutdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn distributed_answers_match_the_simulator() {
        let keys: Vec<u64> = (0..256).map(|i| i * 9 + 1).collect();
        let web = OneDimSkipWeb::builder(keys).seed(13).build();
        let dist = DistributedOneDim::spawn(&web);
        let client = dist.client();
        for s in 0..60u64 {
            let q = (s * 131) % 2400;
            let sim = web.nearest(web.random_origin(s), q).answer.nearest;
            let got = dist
                .nearest(&client, web.random_origin(s), q)
                .expect("runtime alive")
                .expect("nonempty web");
            assert_eq!(got, sim, "query {q}");
        }
        dist.shutdown();
    }

    #[test]
    fn distributed_hops_equal_the_simulators_metered_crossings() {
        let keys: Vec<u64> = (0..512).map(|i| i * 5).collect();
        let web = OneDimSkipWeb::builder(keys).seed(14).build();
        let dist = DistributedOneDim::spawn(&web);
        let client = dist.client();
        let trials = 40u64;
        let mut sim_total = 0u64;
        for s in 0..trials {
            let q = (s * 401) % 2560;
            let origin = web.random_origin(s);
            let sim = web.nearest(origin, q);
            sim_total += sim.messages;
            let reply = dist.engine().query(&client, origin, q).unwrap();
            assert_eq!(
                u64::from(reply.hops),
                sim.messages,
                "hop parity for query {q}"
            );
        }
        // The runtime's global counter agrees with the per-query hops.
        assert_eq!(dist.message_count(), sim_total);
        let per_query = dist.message_count() as f64 / trials as f64;
        // k = 9 levels; expected O(1) messages per level.
        assert!(per_query < 40.0, "per-query messages {per_query}");
        dist.shutdown();
    }

    #[test]
    fn distributed_bucketed_web_also_routes_correctly() {
        let keys: Vec<u64> = (0..300).map(|i| i * 7 + 3).collect();
        let web = OneDimSkipWeb::builder(keys).seed(15).bucketed(32).build();
        let dist = DistributedOneDim::spawn(&web);
        let client = dist.client();
        for s in 0..30u64 {
            let q = (s * 211) % 2200;
            let sim = web.nearest(web.random_origin(s), q).answer.nearest;
            let got = dist
                .nearest(&client, web.random_origin(s), q)
                .unwrap()
                .unwrap();
            assert_eq!(got, sim, "query {q}");
        }
        dist.shutdown();
    }

    #[test]
    fn concurrent_clients_get_independent_answers() {
        let keys: Vec<u64> = (0..128).map(|i| i * 11).collect();
        let web = OneDimSkipWeb::builder(keys).seed(16).build();
        let dist = DistributedOneDim::spawn(&web);
        let a = dist.client();
        let b = dist.client();
        let origin_a = web.keys().iter().position(|&k| k == 55).unwrap_or(0);
        dist.engine().submit(&a, origin_a, 55).unwrap();
        dist.engine().submit(&b, 1, 1100).unwrap();
        let ans_a = a.recv_any(Duration::from_secs(10)).unwrap();
        let ans_b = b.recv_any(Duration::from_secs(10)).unwrap();
        assert_eq!(ans_a.try_into_answer().unwrap(), Some(55));
        assert_eq!(ans_b.try_into_answer().unwrap(), Some(1100));
        dist.shutdown();
    }

    #[test]
    fn one_client_pipelines_many_queries_by_correlation_id() {
        let keys: Vec<u64> = (0..200).map(|i| i * 10).collect();
        let web = OneDimSkipWeb::builder(keys).seed(17).build();
        let dist = DistributedOneDim::spawn(&web);
        let client = dist.client();
        // Fire 24 queries before reading a single reply …
        let corrs: Vec<(u64, u64)> = (0..24u64)
            .map(|s| {
                let q = (s * 83) % 2000;
                let corr = dist
                    .engine()
                    .submit(&client, web.random_origin(s), q)
                    .unwrap();
                (corr, q)
            })
            .collect();
        // … then collect them in reverse submission order.
        for &(corr, q) in corrs.iter().rev() {
            let reply = client.recv_corr(corr, Duration::from_secs(10)).unwrap();
            assert_eq!(reply.corr, corr);
            let want = web.nearest(0, q).answer.nearest;
            assert_eq!(reply.try_into_answer().unwrap(), Some(want), "query {q}");
        }
        dist.shutdown();
    }

    #[test]
    fn batched_nearest_matches_serial_with_fewer_crossings() {
        let keys: Vec<u64> = (0..256).map(|i| i * 9 + 1).collect();
        let web = OneDimSkipWeb::builder(keys).seed(19).build();
        let serial = DistributedOneDim::spawn(&web);
        let batched = DistributedOneDim::spawn(&web);
        let (cs, cb) = (serial.client(), batched.client());
        let qs: Vec<u64> = (0..48u64).map(|s| (s * 131) % 2400).collect();
        let origin = web.random_origin(7);
        let want: Vec<Option<u64>> = qs
            .iter()
            .map(|&q| serial.nearest(&cs, origin, q).expect("runtime alive"))
            .collect();
        let got = batched
            .nearest_batch(&cb, origin, qs)
            .expect("runtime alive");
        assert_eq!(got, want);
        assert!(
            batched.message_count() < serial.message_count(),
            "batch must cross fewer host boundaries: {} vs {}",
            batched.message_count(),
            serial.message_count()
        );
        assert!(
            batched.traffic().total_batch_ops() > 0,
            "coalescing metered"
        );
        // Batched updates round-trip through the same wrapper.
        let ins = batched.insert_batch(&cb, vec![5_000, 5_002]).unwrap();
        assert!(ins.iter().all(|r| r.applied));
        let rem = batched
            .remove_batch(&cb, vec![5_000, 5_002, 9_999])
            .unwrap();
        assert_eq!(
            rem.iter().map(|r| r.applied).collect::<Vec<_>>(),
            vec![true, true, false]
        );
        serial.shutdown();
        batched.shutdown();
    }

    #[test]
    fn live_updates_change_the_served_answers() {
        let keys: Vec<u64> = (0..64).map(|i| i * 100).collect();
        let web = OneDimSkipWeb::builder(keys).seed(18).build();
        let dist = DistributedOneDim::spawn_with_capacity(&web, 70);
        let client = dist.client();
        assert_eq!(dist.nearest(&client, 0, 5_550).unwrap(), Some(5_500));
        let ins = dist.insert(&client, 5_551).unwrap();
        assert!(ins.applied);
        assert!(ins.hops > 0, "updates on H=n webs pay messages");
        assert_eq!(dist.nearest(&client, 0, 5_550).unwrap(), Some(5_551));
        assert!(dist.remove(&client, 5_551).unwrap().applied);
        assert_eq!(dist.nearest(&client, 0, 5_550).unwrap(), Some(5_500));
        assert!(dist.keys().contains(&5_500));
        assert!(!dist.keys().contains(&5_551));
        assert!(dist.traffic().total_update_sent() > 0);
        dist.shutdown();
    }
}
