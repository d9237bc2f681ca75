//! One-dimensional skip-webs: nearest-neighbour search over sorted keys
//! (§2.4.1), including the bucketed variant from the last two rows of
//! Table 1.

use skipweb_net::runtime::RuntimeError;
use skipweb_net::sim::MessageMeter;
use skipweb_structures::interval::Endpoint;
use skipweb_structures::linked_list::SortedLinkedList;
use skipweb_structures::traits::{RangeDetermined, RangeId};
use skipweb_structures::KeyInterval;

use crate::engine::{DistributedSkipWeb, EngineClient, Routable, UpdateReply};
use crate::skipweb::Update;
use crate::web::Web;

/// The 1-D skip-web routes plain keys and answers with the nearest stored
/// key, extracted from the level-0 locus interval alone — exactly the local
/// information the answering host holds.
impl Routable for SortedLinkedList {
    type Request = u64;
    type Answer = Option<u64>;

    fn target(req: &u64) -> u64 {
        *req
    }

    fn answer(&self, locus: RangeId, req: &u64, _touch: impl FnMut(RangeId)) -> Option<u64> {
        nearest_from_locus(&RangeDetermined::range(self, locus), *req)
            .or_else(|| self.nearest_key(*req))
    }
}

/// Wire layout: requests and items are bare `u64` keys; the answer is an
/// option tag byte followed by the key when present.
impl crate::wire::WireCodec for SortedLinkedList {
    fn encode_request(req: &u64, buf: &mut Vec<u8>) {
        skipweb_net::wire::put_u64(buf, *req);
    }

    fn decode_request(r: &mut skipweb_net::wire::WireReader<'_>) -> Option<u64> {
        r.read_u64()
    }

    fn encode_answer(ans: &Option<u64>, buf: &mut Vec<u8>) {
        match ans {
            None => skipweb_net::wire::put_u8(buf, 0),
            Some(k) => {
                skipweb_net::wire::put_u8(buf, 1);
                skipweb_net::wire::put_u64(buf, *k);
            }
        }
    }

    fn decode_answer(r: &mut skipweb_net::wire::WireReader<'_>) -> Option<Option<u64>> {
        match r.read_u8()? {
            0 => Some(None),
            1 => Some(Some(r.read_u64()?)),
            _ => None,
        }
    }

    fn encode_item(item: &u64, buf: &mut Vec<u8>) {
        skipweb_net::wire::put_u64(buf, *item);
    }

    fn decode_item(r: &mut skipweb_net::wire::WireReader<'_>) -> Option<u64> {
        r.read_u64()
    }
}

/// The answer of a 1-D nearest-neighbour query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NearestAnswer {
    /// The stored key nearest to the query (ties to the smaller key).
    pub nearest: u64,
    /// The level-0 range the search terminated in — the point-location
    /// answer (a node for exact hits, a link interval otherwise).
    pub locus: KeyInterval,
}

/// A completed 1-D query with its cost accounting.
#[derive(Debug, Clone)]
pub struct NearestOutcome {
    /// The answer.
    pub answer: NearestAnswer,
    /// Messages spent routing the query.
    pub messages: u64,
    /// Ranges touched per level (top first) — expected `O(1)` each.
    pub per_level_touches: Vec<u32>,
    /// The full meter (hosts visited, for congestion studies).
    pub meter: MessageMeter,
}

/// A completed 1-D range query.
#[derive(Debug, Clone)]
pub struct RangeOutcome {
    /// Stored keys in `[lo, hi]`, ascending.
    pub keys: Vec<u64>,
    /// Messages spent: the `O(log n)` descent to `lo`'s locus plus the
    /// output-sensitive walk along the level-0 list.
    pub messages: u64,
}

/// A distributed one-dimensional skip-web over `u64` keys.
///
/// # Example
///
/// ```
/// use skipweb_core::onedim::OneDimSkipWeb;
///
/// let web = OneDimSkipWeb::builder((0..50).map(|i| i * 4).collect()).build();
/// let out = web.nearest(0, 41);
/// assert_eq!(out.answer.nearest, 40);
///
/// // Bucketed variant (§2.4.1): fewer hosts, fewer messages.
/// let bucket = OneDimSkipWeb::builder((0..200).map(|i| i * 4).collect())
///     .bucketed(64)
///     .build();
/// assert!(bucket.hosts() < 200);
/// ```
pub type OneDimSkipWeb = Web<SortedLinkedList>;

impl OneDimSkipWeb {
    /// The stored keys in sorted order.
    pub fn keys(&self) -> &[u64] {
        self.inner().ground()
    }

    /// Routes a nearest-neighbour query for `q` from `origin_item`'s host.
    ///
    /// # Panics
    ///
    /// Panics if the web is empty.
    pub fn nearest(&self, origin_item: usize, q: u64) -> NearestOutcome {
        let mut meter = MessageMeter::new();
        let (nearest, outcome) = self.inner().ask(origin_item, &q, &mut meter);
        NearestOutcome {
            answer: NearestAnswer {
                nearest: nearest.expect("nonempty web"),
                locus: self.inner().base().range(outcome.locus),
            },
            messages: outcome.messages,
            per_level_touches: outcome.per_level_touches,
            meter,
        }
    }

    /// Range query (§1's "range query over numerical attributes"): routes
    /// to `lo`'s locus, then walks the level-0 list rightward collecting
    /// keys through `hi` — `O(log n + k)` messages for `k` results.
    ///
    /// # Panics
    ///
    /// Panics if the web is empty or `lo > hi`.
    pub fn range(&self, origin_item: usize, lo: u64, hi: u64) -> RangeOutcome {
        assert!(lo <= hi, "range endpoints out of order");
        let web = self.inner();
        let mut meter = MessageMeter::new();
        let outcome = web.query(origin_item, &lo, &mut meter);
        let base = web.base();
        let mut keys = Vec::new();
        let mut cur = outcome.locus;
        loop {
            meter.visit(web.primary(0, 0, cur));
            let iv = base.range(cur);
            if iv.is_singleton() {
                if let Endpoint::Key(x) = iv.lo() {
                    if (lo..=hi).contains(&x) {
                        keys.push(x);
                    }
                }
            }
            let past_hi = match iv.hi() {
                Endpoint::Key(h) => h > hi,
                Endpoint::PosInf => true,
                Endpoint::NegInf => false,
            };
            if past_hi {
                break;
            }
            let (_, right) = base.adjacent(cur);
            match right {
                Some(r) => cur = r,
                None => break,
            }
        }
        RangeOutcome {
            keys,
            messages: meter.messages(),
        }
    }
}

/// A running distributed 1-D skip-web: one actor per host, answering
/// nearest-neighbour queries — and applying live key inserts/removes (§4) —
/// with real concurrent message passing.
pub type DistributedOneDim = DistributedSkipWeb<SortedLinkedList>;

impl DistributedOneDim {
    /// [`query`](Self::query), returning just the answer.
    ///
    /// # Errors
    ///
    /// As [`query`](Self::query).
    pub fn nearest(
        &self,
        client: &EngineClient<SortedLinkedList>,
        origin_item: usize,
        q: u64,
    ) -> Result<Option<u64>, RuntimeError> {
        self.query(client, origin_item, q).map(|r| r.answer)
    }

    /// Runs a whole batch of nearest-neighbour queries under one
    /// correlation group (see [`query_batch`](Self::query_batch)): fewer
    /// host crossings than the same queries run serially, byte-identical
    /// answers, returned in submission order.
    ///
    /// # Errors
    ///
    /// As [`query`](Self::query).
    pub fn nearest_batch(
        &self,
        client: &EngineClient<SortedLinkedList>,
        origin_item: usize,
        qs: Vec<u64>,
    ) -> Result<Vec<Option<u64>>, RuntimeError> {
        let replies = self.query_batch(client, origin_item, qs)?;
        Ok(replies.into_iter().map(|r| r.answer).collect())
    }

    /// Inserts a batch of keys through [`update_batch`](Self::update_batch),
    /// each with a lookup origin and level bits from
    /// [`draw_entry`](Self::draw_entry), as [`insert`](Self::insert) draws
    /// them.
    ///
    /// # Errors
    ///
    /// As [`query`](Self::query).
    pub fn insert_batch(
        &self,
        client: &EngineClient<SortedLinkedList>,
        keys: Vec<u64>,
    ) -> Result<Vec<UpdateReply>, RuntimeError> {
        let insert = |item| {
            let (origin, bits) = self.draw_entry();
            (origin, Update::Insert { item, bits })
        };
        self.update_batch(client, keys.into_iter().map(insert).collect())
    }

    /// Removes a batch of keys through [`update_batch`](Self::update_batch).
    /// Absent keys complete as free no-ops, like the simulator.
    ///
    /// # Errors
    ///
    /// As [`query`](Self::query).
    pub fn remove_batch(
        &self,
        client: &EngineClient<SortedLinkedList>,
        keys: Vec<u64>,
    ) -> Result<Vec<UpdateReply>, RuntimeError> {
        let remove = |item| (self.draw_entry().0, Update::Remove { item });
        self.update_batch(client, keys.into_iter().map(remove).collect())
    }

    /// A snapshot of the currently stored keys, sorted.
    pub fn keys(&self) -> Vec<u64> {
        self.ground()
    }
}

/// Extracts the nearest stored key to `q` from the level-0 locus interval,
/// which is exactly the local information the answering host holds.
pub(crate) fn nearest_from_locus(locus: &KeyInterval, q: u64) -> Option<u64> {
    match (locus.lo(), locus.hi()) {
        (Endpoint::Key(x), Endpoint::Key(y)) => {
            if q <= x {
                Some(x)
            } else if q >= y {
                Some(y)
            } else if q - x <= y - q {
                Some(x)
            } else {
                Some(y)
            }
        }
        (Endpoint::NegInf, Endpoint::Key(y)) => Some(y),
        (Endpoint::Key(x), Endpoint::PosInf) => Some(x),
        _ => None, // universe link of an empty list
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: u64) -> Vec<u64> {
        (0..n).map(|i| i * 10).collect()
    }

    #[test]
    fn nearest_matches_oracle_on_many_queries() {
        let web = OneDimSkipWeb::builder(keys(200)).seed(3).build();
        let oracle = |q: u64| -> u64 {
            *web.keys()
                .iter()
                .min_by_key(|&&k| (k.abs_diff(q), k))
                .unwrap()
        };
        for s in 0..300u64 {
            let q = (s * 37) % 2200;
            let out = web.nearest(web.random_origin(s), q);
            assert_eq!(out.answer.nearest, oracle(q), "query {q}");
        }
    }

    #[test]
    fn exact_hits_terminate_on_node_ranges() {
        let web = OneDimSkipWeb::builder(keys(64)).seed(4).build();
        let out = web.nearest(0, 130);
        assert!(out.answer.locus.is_singleton());
        assert_eq!(out.answer.nearest, 130);
    }

    #[test]
    fn messages_grow_logarithmically() {
        let mut means = Vec::new();
        for exp in [6u32, 8, 10] {
            let n = 1u64 << exp;
            let web = OneDimSkipWeb::builder(keys(n)).seed(5).build();
            let mut total = 0u64;
            let trials = 80u64;
            for s in 0..trials {
                let q = (s * 7919) % (n * 10);
                total += web.nearest(web.random_origin(s), q).messages;
            }
            means.push(total as f64 / trials as f64);
        }
        // Quadrupling n should grow messages roughly additively (log), far
        // slower than linearly.
        assert!(means[2] < means[0] * 4.0, "means {means:?} not log-like");
        assert!(means[2] > means[0], "deeper webs route further: {means:?}");
    }

    #[test]
    fn bucketed_reduces_messages_at_same_size() {
        let n = 4096u64;
        let owner = OneDimSkipWeb::builder(keys(n)).seed(6).build();
        let bucket = OneDimSkipWeb::builder(keys(n))
            .seed(6)
            .bucketed(144)
            .build();
        let (mut mo, mut mb) = (0u64, 0u64);
        for s in 0..50u64 {
            let q = (s * 997) % (n * 10);
            mo += owner.nearest(owner.random_origin(s), q).messages;
            mb += bucket.nearest(bucket.random_origin(s), q).messages;
        }
        assert!(mb < mo, "bucketed {mb} should not exceed owner-hosted {mo}");
    }

    #[test]
    fn insert_then_query_returns_new_key() {
        let mut web = OneDimSkipWeb::builder(keys(32)).seed(7).build();
        let cost = web.insert(155).expect("155 is new");
        let _ = cost;
        let out = web.nearest(0, 154);
        assert_eq!(out.answer.nearest, 155);
        assert!(web.insert(155).is_none(), "duplicate insert rejected");
    }

    #[test]
    fn remove_then_query_falls_back_to_neighbor() {
        let mut web = OneDimSkipWeb::builder(keys(32)).seed(8).build();
        web.remove(&100).expect("100 present");
        let out = web.nearest(0, 100);
        assert!(out.answer.nearest == 90 || out.answer.nearest == 110);
        assert!(web.remove(&100).is_none());
    }

    #[test]
    fn nearest_from_locus_handles_all_interval_shapes() {
        assert_eq!(
            nearest_from_locus(&KeyInterval::between(10, 20), 14),
            Some(10)
        );
        assert_eq!(
            nearest_from_locus(&KeyInterval::between(10, 20), 16),
            Some(20)
        );
        assert_eq!(
            nearest_from_locus(&KeyInterval::between(10, 20), 15),
            Some(10)
        );
        assert_eq!(nearest_from_locus(&KeyInterval::singleton(7), 7), Some(7));
        assert_eq!(nearest_from_locus(&KeyInterval::below(5), 1), Some(5));
        assert_eq!(nearest_from_locus(&KeyInterval::above(5), 99), Some(5));
        assert_eq!(nearest_from_locus(&KeyInterval::everything(), 3), None);
    }

    #[test]
    fn range_query_matches_filter_oracle() {
        let web = OneDimSkipWeb::builder(keys(200)).seed(21).build();
        for (lo, hi) in [
            (0u64, 500u64),
            (995, 1205),
            (1990, 1990),
            (2500, 9000),
            (0, 0),
        ] {
            let out = web.range(web.random_origin(lo + hi), lo, hi);
            let want: Vec<u64> = web
                .keys()
                .iter()
                .copied()
                .filter(|k| (lo..=hi).contains(k))
                .collect();
            assert_eq!(out.keys, want, "range [{lo}, {hi}]");
        }
    }

    #[test]
    fn range_query_cost_is_log_plus_output() {
        let web = OneDimSkipWeb::builder(keys(1024)).seed(22).build();
        // Narrow range: cost ~ a point query.
        let narrow = web.range(0, 5000, 5050);
        // Wide range: cost grows with the k results, not with n.
        let wide = web.range(0, 0, 3000);
        assert!(narrow.messages < 60);
        assert!(wide.keys.len() > 250);
        assert!(
            wide.messages as usize <= 60 + 2 * wide.keys.len(),
            "wide range cost {} not output-sensitive",
            wide.messages
        );
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn reversed_range_is_rejected() {
        let web = OneDimSkipWeb::builder(keys(8)).build();
        let _ = web.range(0, 10, 5);
    }

    #[test]
    fn distributed_sugar_batches_and_applies_like_the_fabric() {
        let keys: Vec<u64> = (0..256).map(|i| i * 9 + 1).collect();
        let web = OneDimSkipWeb::builder(keys).seed(19).build();
        let (serial, batched) = (web.serve(), web.serve());
        let (cs, cb) = (serial.client(), batched.client());
        let qs: Vec<u64> = (0..48u64).map(|s| (s * 131) % 2400).collect();
        let origin = web.random_origin(7);
        let want: Vec<Option<u64>> = qs
            .iter()
            .map(|&q| serial.nearest(&cs, origin, q).expect("runtime alive"))
            .collect();
        assert_eq!(batched.nearest_batch(&cb, origin, qs).unwrap(), want);
        assert!(batched.traffic().total_sent() < serial.traffic().total_sent());
        let ins = batched.insert_batch(&cb, vec![5_000, 5_002]).unwrap();
        assert!(ins.iter().all(|r| r.applied));
        assert!(batched.keys().contains(&5_002));
        let rem = batched
            .remove_batch(&cb, vec![5_000, 5_002, 9_999])
            .unwrap();
        let applied: Vec<bool> = rem.iter().map(|r| r.applied).collect();
        assert_eq!(applied, vec![true, true, false]);
        assert!(!batched.keys().contains(&5_002));
        serial.shutdown();
        batched.shutdown();
    }

    #[test]
    fn update_costs_stay_logarithmic() {
        let mut web = OneDimSkipWeb::builder(keys(1024)).seed(9).build();
        let mut worst = 0u64;
        for i in 0..20u64 {
            let cost = web.insert(5 + i * 32).expect("new key");
            worst = worst.max(cost);
        }
        assert!(worst < 120, "update cost {worst} not O(log n)-like");
    }
}
