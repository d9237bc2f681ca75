//! Simulator/runtime parity, property-tested: for random ground sets and
//! operation batches, the threaded actor runtime must return exactly the
//! deterministic simulator's answers, and the remote hops each operation
//! pays must equal the simulator's metered host crossings (owner-hosted
//! placement, where the cost models coincide range for range).
//!
//! Queries are checked per batch; dynamic updates are checked under
//! randomized interleavings of inserts, removes, and queries: driving
//! `SkipWeb::update_with` and the engine with the same `(origin, update)`
//! must keep answers *and* per-operation hop counts identical throughout
//! the churn.

use proptest::collection;
use proptest::prelude::*;

use skipwebs::core::engine::{DistributedSkipWeb, EngineClient, Routable};
use skipwebs::core::multidim::{QuadtreeRequest, QuadtreeSkipWeb, TrapezoidSkipWeb, TrieSkipWeb};
use skipwebs::core::onedim::OneDimSkipWeb;
use skipwebs::core::{SkipWeb, Update};
use skipwebs::net::MessageMeter;
use skipwebs::structures::{PointKey, Segment};

/// A deterministic general-position segment per slot: disjoint x-ranges,
/// so any two distinct slots are always mutually admissible and the same
/// slot is always an exact duplicate.
fn slot_segment(slot: u32) -> Segment {
    let x = i64::from(slot) * 1_000;
    let y = i64::from(slot % 13) * 40;
    Segment::new((x, y), (x + 600, y + 3))
}

/// The simulator's whole answer to `req` from `origin` — the same
/// `Routable::answer` the engine replies with — and its metered messages.
fn ask<D: Routable>(web: &SkipWeb<D>, origin: usize, req: &D::Request) -> (D::Answer, u64) {
    let (answer, outcome) = web.ask(origin, req, &mut MessageMeter::new());
    (answer, outcome.messages)
}

/// Drives one update from the same origin through the simulator and the
/// live engine, asserts they agree on whether it applied, and returns what
/// each paid: the engine's remote hops and the simulator's metered
/// messages.
fn update_both<D: Routable + Send + Sync + 'static>(
    sim: &mut SkipWeb<D>,
    dist: &DistributedSkipWeb<D>,
    client: &EngineClient<D>,
    origin: usize,
    update: &Update<D::Item>,
) -> (u64, u64) {
    // The simulator only routes a remove's lookup for >1 stored items.
    let sim_origin = (update.is_insert() || sim.len() > 1).then_some(origin);
    let mut meter = MessageMeter::new();
    let sim_applied = sim.update_with(sim_origin, update.clone(), &mut meter);
    let reply = dist
        .update_batch(client, vec![(origin, update.clone())])
        .expect("runtime alive")[0];
    assert_eq!(reply.applied, sim_applied, "{update:?}");
    (u64::from(reply.hops), meter.messages())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn onedim_nearest_and_hops_match_the_simulator(
        keys in collection::vec(0u64..50_000, 24..120),
        seed in 0u64..1000,
    ) {
        let web = OneDimSkipWeb::builder(keys).seed(seed).build();
        let dist = web.serve();
        let client = dist.client();
        let mut sim_total = 0u64;
        for s in 0..12u64 {
            let q = (s * 4001 + seed * 13) % 55_000;
            let origin = web.random_origin(s + seed);
            let (want, messages) = ask(web.inner(), origin, &q);
            sim_total += messages;
            let reply = dist.query(&client, origin, q).expect("runtime alive");
            prop_assert_eq!(reply.answer, want, "answer for q={}", q);
            prop_assert_eq!(u64::from(reply.hops), messages, "hops for q={}", q);
        }
        // Total remote hops equal the total metered host crossings.
        prop_assert_eq!(dist.traffic().total_sent(), sim_total);
        dist.shutdown();
    }

    #[test]
    fn quadtree_point_location_and_hops_match_the_simulator(
        coords in collection::vec((0u32..u32::MAX, 0u32..u32::MAX), 16..80),
        seed in 0u64..1000,
    ) {
        let points: Vec<PointKey<2>> =
            coords.iter().map(|&(x, y)| PointKey::new([x, y])).collect();
        let web = QuadtreeSkipWeb::builder(points).seed(seed).build();
        let dist = web.serve();
        let client = dist.client();
        let mut sim_total = 0u64;
        for s in 0..10u64 {
            let q = PointKey::new([
                (s.wrapping_mul(0x9E37_79B9).wrapping_add(seed * 101)) as u32,
                (s.wrapping_mul(0x85EB_CA6B).wrapping_add(seed * 59)) as u32,
            ]);
            let origin = web.random_origin(s + seed);
            let req = QuadtreeRequest::Locate(q);
            let (want, messages) = ask(web.inner(), origin, &req);
            sim_total += messages;
            let reply = dist.query(&client, origin, req).expect("runtime alive");
            prop_assert_eq!(reply.answer, want, "cell for {:?}", q);
            prop_assert_eq!(u64::from(reply.hops), messages, "hops for {:?}", q);
        }
        prop_assert_eq!(dist.traffic().total_sent(), sim_total);
        // Box reports, serial and scattered, with corners in any order: the
        // engine normalizes them exactly as the simulator's answer does.
        for s in 0..4u32 {
            let (a, b) = (coords[s as usize], coords[coords.len() - 1 - s as usize]);
            let req = QuadtreeRequest::InBox { lo: [a.0, b.1], hi: [b.0, a.1] };
            let (want, _) = ask(web.inner(), s as usize, &req);
            let serial = dist.query(&client, s as usize, req).expect("runtime alive");
            prop_assert_eq!(&serial.answer, &want, "box {:?}", req);
            let scattered = dist.query_scatter(&client, s as usize, req).expect("runtime alive");
            prop_assert_eq!(scattered.answer, want, "scattered box {:?}", req);
        }
        dist.shutdown();
    }

    #[test]
    fn onedim_churn_interleaving_matches_the_simulator(
        keys in collection::vec(0u64..50_000, 16..48),
        ops in collection::vec((0u64..50_000, any::<u64>(), 0u8..6), 8..20),
        seed in 0u64..500,
    ) {
        let mut web = OneDimSkipWeb::builder(keys).seed(seed).build();
        let capacity = web.len() + ops.len();
        let dist = DistributedSkipWeb::builder(web.inner()).consolidated(capacity).spawn();
        let client = dist.client();
        for (i, &(value, bits, action)) in ops.iter().enumerate() {
            let origin = (i * 13 + 7) % web.len();
            // Keep at least two keys so removals never empty the web.
            let kind = if web.len() <= 2 { 0 } else { action % 3 };
            match kind {
                0 => {
                    // Query: answer and hop parity mid-churn.
                    let (want, messages) = ask(web.inner(), origin, &value);
                    let reply = dist.query(&client, origin, value).expect("runtime alive");
                    prop_assert_eq!(reply.answer, want, "q={}", value);
                    prop_assert_eq!(u64::from(reply.hops), messages, "query hops q={}", value);
                }
                _ => {
                    // Insert with a shared (origin, bits) pair, or remove —
                    // a present key half the time, else (likely) an absent one.
                    let update = match (kind, action % 2) {
                        (1, _) => Update::Insert { item: value, bits },
                        (_, 0) => Update::Remove {
                            item: web.keys()[value as usize % web.len()],
                        },
                        _ => Update::Remove { item: value },
                    };
                    let (hops, sim) = update_both(web.inner_mut(), &dist, &client, origin, &update);
                    prop_assert_eq!(hops, sim, "hops of {:?}", update);
                }
            }
            prop_assert!(!web.is_empty(), "churn never empties the web here");
        }
        // Post-churn: identical ground sets and full query parity.
        prop_assert_eq!(dist.ground(), web.keys().to_vec());
        for s in 0..8u64 {
            let q = (s * 4099 + seed) % 55_000;
            let origin = s as usize % web.len();
            let (want, messages) = ask(web.inner(), origin, &q);
            let reply = dist.query(&client, origin, q).expect("runtime alive");
            prop_assert_eq!(reply.answer, want, "post-churn q={}", q);
            prop_assert_eq!(u64::from(reply.hops), messages, "post-churn hops q={}", q);
        }
        dist.shutdown();
    }

    #[test]
    fn quadtree_churn_interleaving_matches_the_simulator(
        coords in collection::vec((0u32..u32::MAX, 0u32..u32::MAX), 16..40),
        ops in collection::vec((0u64..u64::MAX, any::<u64>(), 0u8..6), 6..14),
        seed in 0u64..500,
    ) {
        let points: Vec<PointKey<2>> =
            coords.iter().map(|&(x, y)| PointKey::new([x, y])).collect();
        let mut web = QuadtreeSkipWeb::builder(points).seed(seed).build();
        let capacity = web.len() + ops.len();
        let dist = DistributedSkipWeb::builder(web.inner()).consolidated(capacity).spawn();
        let client = dist.client();
        for (i, &(value, bits, action)) in ops.iter().enumerate() {
            let origin = (i * 11 + 3) % web.len();
            let p = PointKey::new([value as u32, (value >> 32) as u32]);
            // Keep at least two points so removals never empty the web.
            let kind = if web.len() <= 2 { 0 } else { action % 3 };
            match kind {
                0 => {
                    let req = QuadtreeRequest::Locate(p);
                    let (want, messages) = ask(web.inner(), origin, &req);
                    let reply = dist.query(&client, origin, req).expect("runtime alive");
                    prop_assert_eq!(reply.answer, want, "locate {:?}", p);
                    prop_assert_eq!(u64::from(reply.hops), messages, "hops {:?}", p);
                }
                _ => {
                    let update = match (kind, action % 2) {
                        (1, _) => Update::Insert { item: p, bits },
                        (_, 0) => Update::Remove {
                            item: web.points()[value as usize % web.len()],
                        },
                        _ => Update::Remove { item: p },
                    };
                    let (hops, sim) = update_both(web.inner_mut(), &dist, &client, origin, &update);
                    prop_assert_eq!(hops, sim, "hops of {:?}", update);
                }
            }
            prop_assert!(!web.is_empty(), "churn never empties the web here");
        }
        prop_assert_eq!(dist.ground(), web.points().to_vec());
        dist.shutdown();
    }

    #[test]
    fn trie_churn_interleaving_matches_the_simulator(
        stems in collection::vec(0u32..9000, 16..40),
        ops in collection::vec((0u32..9000, any::<u64>(), 0u8..6), 6..14),
        seed in 0u64..500,
    ) {
        let strings: Vec<String> = stems
            .iter()
            .map(|v| format!("{:04}-suffix", v % 10_000))
            .collect();
        let mut web = TrieSkipWeb::builder(strings).seed(seed).build();
        let capacity = web.len() + ops.len();
        let dist = DistributedSkipWeb::builder(web.inner()).consolidated(capacity).spawn();
        let client = dist.client();
        for (i, &(value, bits, action)) in ops.iter().enumerate() {
            let origin = (i * 17 + 5) % web.len();
            let s = format!("{:04}-suffix", value % 10_000);
            // Keep at least two strings so removals never empty the web.
            let kind = if web.len() <= 2 { 0 } else { action % 3 };
            match kind {
                0 => {
                    let prefix = format!("{:04}", value % 10_000);
                    let (want, messages) = ask(web.inner(), origin, &prefix);
                    let reply = dist
                        .query(&client, origin, prefix.clone())
                        .expect("runtime alive");
                    prop_assert_eq!(reply.answer, want, "{:?}", &prefix);
                    prop_assert_eq!(u64::from(reply.hops), messages, "query hops {:?}", &prefix);
                }
                _ => {
                    let update = match (kind, action % 2) {
                        (1, _) => Update::Insert { item: s, bits },
                        (_, 0) => Update::Remove {
                            item: web.strings()[value as usize % web.len()].clone(),
                        },
                        _ => Update::Remove { item: s },
                    };
                    let (hops, sim) = update_both(web.inner_mut(), &dist, &client, origin, &update);
                    prop_assert_eq!(hops, sim, "hops of {:?}", update);
                }
            }
            prop_assert!(!web.is_empty(), "churn never empties the web here");
        }
        prop_assert_eq!(dist.ground(), web.strings().to_vec());
        dist.shutdown();
    }

    #[test]
    fn trapezoid_churn_interleaving_matches_the_simulator(
        slots in collection::vec(0u32..60, 12..28),
        ops in collection::vec((0u32..60, any::<u64>(), 0u8..6), 6..14),
        seed in 0u64..500,
    ) {
        let segments: Vec<Segment> = slots.iter().map(|&s| slot_segment(s)).collect();
        let mut web = TrapezoidSkipWeb::builder(segments).seed(seed).build();
        let capacity = web.len() + ops.len();
        let dist = DistributedSkipWeb::builder(web.inner()).consolidated(capacity).spawn();
        let client = dist.client();
        for (i, &(slot, bits, action)) in ops.iter().enumerate() {
            let origin = (i * 7 + 3) % web.len();
            let seg = slot_segment(slot);
            // Keep at least two segments so removals never empty the web.
            let kind = if web.len() <= 2 { 0 } else { action % 3 };
            match kind {
                0 => {
                    // Query: exact answer and hop parity.
                    let q = (
                        i64::from(slot) * 997 % 61_000 - 200,
                        i64::from(slot % 17) * 31 - 60,
                    );
                    let (want, messages) = ask(web.inner(), origin, &q);
                    let reply = dist.query(&client, origin, q).expect("runtime alive");
                    prop_assert_eq!(reply.answer, want, "locate {:?}", q);
                    prop_assert_eq!(u64::from(reply.hops), messages, "hops for {:?}", q);
                }
                _ => {
                    // Slots are in general position by construction, so the
                    // simulator (which has no admission gate) never panics.
                    let update = match (kind, action % 2) {
                        (1, _) => Update::Insert { item: seg, bits },
                        (_, 0) => Update::Remove {
                            item: web.segments()[slot as usize % web.len()],
                        },
                        _ => Update::Remove { item: seg },
                    };
                    let (hops, sim) = update_both(web.inner_mut(), &dist, &client, origin, &update);
                    prop_assert_eq!(hops, sim, "hops of {:?}", update);
                }
            }
            prop_assert!(!web.is_empty(), "churn never empties the web here");
        }
        prop_assert_eq!(dist.ground(), web.segments().to_vec());
        // Engine-only admission gate: a segment sharing an endpoint
        // x-coordinate with a stored one violates general position; the
        // live insert must reject it as a no-op, never poison the fabric.
        let (x, _) = web.segments()[0].left();
        let bad = Segment::new((x, 999_983), (x + 77, 999_984));
        let reply = dist.insert(&client, bad).expect("runtime alive");
        prop_assert!(!reply.applied, "inadmissible insert must be rejected");
        prop_assert_eq!(dist.ground(), web.segments().to_vec());
        dist.shutdown();
    }

    #[test]
    fn trie_longest_prefix_and_hops_match_the_simulator(
        stems in collection::vec(0u32..9000, 16..64),
        seed in 0u64..1000,
    ) {
        let strings: Vec<String> = stems
            .iter()
            .map(|v| format!("{:04}-suffix", v % 10_000))
            .collect();
        let web = TrieSkipWeb::builder(strings).seed(seed).build();
        let dist = web.serve();
        let client = dist.client();
        let mut sim_total = 0u64;
        for s in 0..10usize {
            // Mix of on-trie prefixes and off-trie probes.
            let prefix = match s % 3 {
                0 => web.strings()[s % web.len()].chars().take(2 + s % 6).collect::<String>(),
                1 => format!("{:04}", (s as u32 * 977 + seed as u32) % 10_000),
                _ => "zzz-none".to_string(),
            };
            let origin = web.random_origin(s as u64 + seed);
            let (want, messages) = ask(web.inner(), origin, &prefix);
            sim_total += messages;
            let reply = dist
                .query(&client, origin, prefix.clone())
                .expect("runtime alive");
            prop_assert_eq!(reply.answer, want, "answer for {:?}", &prefix);
            prop_assert_eq!(u64::from(reply.hops), messages, "hops for {:?}", &prefix);
        }
        prop_assert_eq!(dist.traffic().total_sent(), sim_total);
        dist.shutdown();
    }
}
