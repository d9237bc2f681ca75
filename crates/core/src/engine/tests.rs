#![cfg(test)]

use std::sync::Arc;
use std::time::Duration;

use super::client::{query_op, update_op, InFlight};
use super::route::{pick_alive, route_step, RouteOutcome};
use super::*;
use crate::multidim::{
    QuadtreeAnswer, QuadtreeRequest, QuadtreeSkipWeb, TrapezoidSkipWeb, TrieSkipWeb,
};
use crate::skipweb::{SkipWeb, Update};
use proptest::collection;
use proptest::prelude::*;
use skipweb_net::runtime::RuntimeError;
use skipweb_net::sim::MessageMeter;
use skipweb_net::HostId;
use skipweb_structures::quadtree::PointKey;
use skipweb_structures::trapezoid::Segment;

fn grid_points(n: u32) -> Vec<PointKey<2>> {
    (0..n)
        .map(|i| PointKey::new([i * 104_729 + 13, i * 49_979 + 7]))
        .collect()
}

#[test]
fn quadtree_point_location_matches_simulator_with_hop_parity() {
    let web = QuadtreeSkipWeb::builder(grid_points(96)).seed(21).build();
    let dist = web.serve();
    let client = dist.client();
    for s in 0..30u64 {
        let q = PointKey::new([(s * 77_777_777) as u32, (s * 33_333_331) as u32]);
        let origin = web.random_origin(s);
        let sim = web.locate_point(origin, q);
        let reply = dist
            .query(&client, origin, QuadtreeRequest::Locate(q))
            .expect("runtime alive");
        assert_eq!(
            reply.answer,
            QuadtreeAnswer::Located {
                cell: sim.cell,
                approx_nearest: sim.approx_nearest,
            },
            "cell parity for {q:?}"
        );
        assert_eq!(u64::from(reply.hops), sim.messages, "hop parity for {q:?}");
    }
    dist.shutdown();
}

#[test]
fn quadtree_box_reporting_over_the_runtime_matches_the_simulator() {
    let web = QuadtreeSkipWeb::builder(grid_points(200)).seed(22).build();
    let dist = web.serve();
    let client = dist.client();
    let boxes: [([u32; 2], [u32; 2]); 3] = [
        ([0, 0], [u32::MAX / 2, u32::MAX / 2]),
        ([1 << 20, 1 << 20], [1 << 24, 1 << 24]),
        ([0, 0], [u32::MAX, u32::MAX]),
    ];
    for (lo, hi) in boxes {
        let sim = web.points_in_box(web.random_origin(3), lo, hi);
        let reply = dist
            .query(
                &client,
                web.random_origin(3),
                QuadtreeRequest::InBox { lo, hi },
            )
            .expect("runtime alive");
        assert_eq!(
            reply.answer,
            QuadtreeAnswer::Points(sim.points),
            "box {lo:?}..{hi:?}"
        );
    }
    dist.shutdown();
}

#[test]
fn trie_prefix_search_matches_simulator_with_hop_parity() {
    let mut strings: Vec<String> = (0..80).map(|i| format!("isbn-97802{i:03}x")).collect();
    strings.push("zzz".into());
    let web = TrieSkipWeb::builder(strings).seed(23).build();
    let dist = web.serve();
    let client = dist.client();
    for prefix in ["isbn-97802", "isbn-978020", "isbn", "zzz", "nope", ""] {
        let origin = web.random_origin(prefix.len() as u64);
        let sim = web.prefix_search(origin, prefix);
        let reply = dist
            .query(&client, origin, prefix.to_string())
            .expect("runtime alive");
        assert_eq!(reply.answer.matched_len, sim.matched_len, "len {prefix:?}");
        assert_eq!(reply.answer.matches, sim.matches, "matches {prefix:?}");
        assert_eq!(
            u64::from(reply.hops),
            sim.messages,
            "hop parity for {prefix:?}"
        );
    }
    dist.shutdown();
}

#[test]
fn trapezoid_point_location_answers_match_the_simulator() {
    let segments: Vec<Segment> = (0..24)
        .map(|i| {
            let x = i * 100;
            Segment::new((x, i * 5), (x + 60, i * 5 + 3))
        })
        .collect();
    let web = TrapezoidSkipWeb::builder(segments).seed(24).build();
    let dist = web.serve();
    let client = dist.client();
    for s in 0..20i64 {
        let q = (s * 137 - 150, s * 11 - 40);
        let origin = web.random_origin(s as u64);
        let sim = web.locate_point(origin, q);
        let reply = dist.query(&client, origin, q).expect("runtime alive");
        assert_eq!(reply.answer, sim.trapezoid, "trapezoid for {q:?}");
        assert_eq!(u64::from(reply.hops), sim.messages, "hop parity for {q:?}");
    }
    dist.shutdown();
}

#[test]
fn consolidation_caps_hosts_and_keeps_answers() {
    let keys: Vec<u64> = (0..300).map(|i| i * 3 + 1).collect();
    let web = crate::onedim::OneDimSkipWeb::builder(keys).seed(25).build();
    let full = DistributedSkipWeb::builder(web.inner()).spawn();
    let four = DistributedSkipWeb::builder(web.inner())
        .consolidated(4)
        .spawn();
    let one = DistributedSkipWeb::builder(web.inner())
        .consolidated(1)
        .spawn();
    assert_eq!(full.hosts(), 300);
    assert_eq!(four.hosts(), 4);
    assert_eq!(one.hosts(), 1);
    let (cf, c4, c1) = (full.client(), four.client(), one.client());
    for s in 0..25u64 {
        let q = (s * 211) % 1000;
        let origin = web.random_origin(s);
        let want = web.nearest(origin, q).answer.nearest;
        assert_eq!(full.query(&cf, origin, q).unwrap().answer, Some(want));
        assert_eq!(four.query(&c4, origin, q).unwrap().answer, Some(want));
        assert_eq!(one.query(&c1, origin, q).unwrap().answer, Some(want));
    }
    // Folding hosts can only remove crossings, never add them — and a
    // single host never pays a message at all.
    assert!(four.traffic().total_sent() <= full.traffic().total_sent());
    assert_eq!(one.traffic().total_sent(), 0);
    let traffic = four.traffic();
    assert_eq!(traffic.hosts(), 4);
    assert_eq!(traffic.total_update_sent(), 0);
    full.shutdown();
    four.shutdown();
    one.shutdown();
}

#[test]
fn live_onedim_updates_match_the_simulator_hop_for_hop() {
    let keys: Vec<u64> = (0..80).map(|i| i * 10).collect();
    let web = crate::onedim::OneDimSkipWeb::builder(keys).seed(26).build();
    let mut sim = web.inner().clone();
    // Headroom so inserted items get their own hosts, as in the sim.
    let dist = DistributedSkipWeb::builder(web.inner())
        .consolidated(80 + 16)
        .spawn();
    let client = dist.client();
    for i in 0..16u64 {
        let key = 5 + i * 37;
        let bits = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xABCD;
        let origin = (i as usize * 7) % sim.len();
        let mut meter = MessageMeter::new();
        let sim_applied = sim.insert_with(Some(origin), key, bits, &mut meter);
        let reply = dist.insert_with(&client, origin, key, bits).unwrap();
        assert_eq!(reply.applied, sim_applied, "insert {key}");
        assert_eq!(u64::from(reply.hops), meter.messages(), "hops insert {key}");
    }
    for i in 0..8u64 {
        let key = i * 30; // some present, some already gone
        let origin = (i as usize * 11) % sim.len();
        let sim_origin = (sim.len() > 1).then_some(origin);
        let mut meter = MessageMeter::new();
        let sim_applied = sim.remove_with(sim_origin, &key, &mut meter);
        let reply = dist.remove_with(&client, origin, key).unwrap();
        assert_eq!(reply.applied, sim_applied, "remove {key}");
        assert_eq!(u64::from(reply.hops), meter.messages(), "hops remove {key}");
    }
    // Post-churn state and query parity.
    assert_eq!(dist.ground(), sim.ground());
    for s in 0..20u64 {
        let q = (s * 131) % 1000;
        let origin = s as usize % sim.len();
        let mut meter = MessageMeter::new();
        let out = sim.query(origin, &q, &mut meter);
        let locus = sim.base().range(out.locus);
        let want = crate::onedim::nearest_from_locus(&locus, q);
        let reply = dist.query(&client, origin, q).unwrap();
        assert_eq!(reply.answer, want.or(sim.base().nearest_key(q)), "q={q}");
        assert_eq!(u64::from(reply.hops), out.messages, "query hops q={q}");
    }
    // Update traffic is metered separately from query traffic.
    let traffic = dist.traffic();
    assert!(traffic.total_update_sent() > 0);
    assert!(traffic.total_query_sent() > 0);
    dist.shutdown();
}

#[test]
fn duplicate_inserts_and_absent_removes_are_noops() {
    let keys: Vec<u64> = (0..32).map(|i| i * 4).collect();
    let web = crate::onedim::OneDimSkipWeb::builder(keys).seed(27).build();
    let dist = DistributedSkipWeb::builder(web.inner()).spawn();
    let client = dist.client();
    // Duplicate insert: pays the lookup, applies nothing.
    let dup = dist.insert_with(&client, 3, 16, 0xBEEF).unwrap();
    assert!(!dup.applied);
    assert_eq!(dist.len(), 32);
    // Absent remove: free no-op, like the simulator.
    let gone = dist.remove_with(&client, 0, 999).unwrap();
    assert!(!gone.applied);
    assert_eq!(gone.hops, 0);
    assert_eq!(dist.len(), 32);
    dist.shutdown();
}

/// Updates whose plan skips the lookup or the repair — a duplicate
/// insert, an absent remove, the remove of the only item and an insert
/// into the emptied web — cost the engine exactly the simulator's messages.
#[test]
fn the_update_plans_edge_cases_cost_the_engine_what_they_cost_the_simulator() {
    let insert = |item: u64| Update::Insert {
        item,
        bits: item ^ 0xBEEF,
    };
    let remove = |item| Update::Remove { item };
    let cases = [
        (
            (0..48).map(|i| i * 4).collect(),
            vec![insert(96), remove(999)],
        ),
        (vec![7], vec![insert(7), remove(999), remove(7), insert(42)]),
    ];
    for (keys, updates) in cases {
        let web = crate::onedim::OneDimSkipWeb::builder(keys).seed(58).build();
        let mut sim = web.inner().clone();
        let dist = DistributedSkipWeb::builder(web.inner())
            .consolidated(sim.len() + 8)
            .spawn();
        let client = dist.client();
        let origin = sim.len() / 2;
        for update in updates {
            let mut meter = MessageMeter::new();
            let applied = sim.update_with(Some(origin), update.clone(), &mut meter);
            let batch = vec![(origin, update.clone())];
            let reply = dist.update_batch(&client, batch).unwrap()[0];
            let hops = u64::from(reply.hops);
            assert_eq!(
                (reply.applied, hops),
                (applied, meter.messages()),
                "{update:?}"
            );
        }
        assert_eq!(dist.ground(), sim.ground());
        dist.shutdown();
    }
}

#[test]
fn updates_grow_and_shrink_through_the_empty_web() {
    let web = crate::onedim::OneDimSkipWeb::builder(vec![7])
        .seed(28)
        .build();
    let dist = DistributedSkipWeb::builder(web.inner())
        .consolidated(8)
        .spawn();
    let client = dist.client();
    // Remove the last item (no lookup phase, like the simulator).
    assert!(dist.remove(&client, 7).unwrap().applied);
    assert!(dist.is_empty());
    // Insert into the empty web, then query it.
    assert!(dist.insert(&client, 42).unwrap().applied);
    assert!(dist.insert(&client, 50).unwrap().applied);
    assert_eq!(dist.ground(), vec![42, 50]);
    let reply = dist.query(&client, 0, 45).unwrap();
    assert_eq!(reply.answer, Some(42));
    dist.shutdown();
}

#[test]
fn inadmissible_trapezoid_insert_is_rejected_not_fatal() {
    let segments: Vec<Segment> = (0..12)
        .map(|i| Segment::new((i * 100, i * 10), (i * 100 + 60, i * 10 + 3)))
        .collect();
    let web = TrapezoidSkipWeb::builder(segments).seed(29).build();
    let dist = DistributedSkipWeb::builder(web.inner())
        .consolidated(16)
        .spawn();
    let client = dist.client();
    // Shares an endpoint x-coordinate with a stored segment: violates
    // general position. The actor must reject it, not panic.
    let bad = Segment::new((0, 500), (77, 501));
    let reply = dist.insert(&client, bad).unwrap();
    assert!(!reply.applied);
    assert!(dist.health().dead.is_empty(), "fabric must stay healthy");
    // A good segment above all bands still applies.
    let good = Segment::new((41, 2_000), (83, 2_001));
    assert!(dist.insert(&client, good).unwrap().applied);
    let reply = dist.query(&client, 0, (60i64, 2_005i64)).unwrap();
    assert_eq!(reply.answer.bottom, Some(good));
    assert!(dist.remove(&client, good).unwrap().applied);
    dist.shutdown();
}

#[test]
fn in_flight_queries_never_observe_a_half_applied_update() {
    // Readers hammer the web while a writer churns; every answer must
    // be a key that was a member of some pre- or post-update snapshot,
    // and nothing may hang or panic.
    let keys: Vec<u64> = (0..100).map(|i| i * 100).collect();
    let web = crate::onedim::OneDimSkipWeb::builder(keys).seed(30).build();
    let dist = DistributedSkipWeb::builder(web.inner())
        .consolidated(100 + 32)
        .spawn();
    std::thread::scope(|scope| {
        let writer = {
            let dist = &dist;
            scope.spawn(move || {
                let client = dist.client();
                for i in 0..24u64 {
                    let key = 50 + i * 200;
                    assert!(dist.insert(&client, key).unwrap().applied);
                    if i % 3 == 0 {
                        assert!(dist.remove(&client, key).unwrap().applied);
                    }
                }
            })
        };
        for r in 0..3u64 {
            let dist = &dist;
            scope.spawn(move || {
                let client = dist.client();
                for i in 0..60u64 {
                    let q = (r * 97 + i * 131) % 11_000;
                    let reply = dist.query(&client, (i as usize) % 100, q).unwrap();
                    let a = reply.answer.expect("web never empties");
                    assert!(
                        a.is_multiple_of(100) || (a >= 50 && (a - 50).is_multiple_of(200)),
                        "answer {a} was never a member"
                    );
                }
            });
        }
        writer.join().unwrap();
    });
    // An operation routed under snapshot `v` answers from `v` even
    // after `v + 1` publishes: the message carries its snapshot, and
    // the apply's clone-on-write leaves that web untouched.
    let client = dist.client();
    let v = dist.shared.current_topo();
    let before = dist.query(&client, 0, 5_031).unwrap().answer;
    assert!(dist.insert(&client, 5_031).unwrap().applied);
    assert_eq!(dist.shared.current_topo().version, v.version + 1);
    let (at, mut copies) = v.origin(0);
    client
        .inner
        .send(
            copies.next().unwrap(),
            FabricMsg::One(EngineMsg {
                op: EngineOp::Query {
                    req: 5_031u64,
                    gather: false,
                },
                at,
                client: client.id(),
                corr: u64::MAX,
                hops: 0,
                topo: Arc::clone(&v),
            }),
        )
        .unwrap();
    let stale = client.recv_corr(u64::MAX, Duration::from_secs(10)).unwrap();
    assert_eq!(stale.try_into_answer().unwrap(), before);
    assert_eq!(dist.query(&client, 0, 5_031).unwrap().answer, Some(5_031));
    dist.shutdown();
}

/// The sharing contract of one publish: the structure of every set of
/// `new` that the repair for an update with tower `bits` (`None`: no
/// update) did not rebuild is the very allocation `old` holds — the
/// structure tables share it through their pages, whichever ids the two
/// webs file it under. A bucketed web's one host table is shared across a
/// copy that repairs nothing; a repair renumbers the blocks of the whole
/// web, so it replaces the table. Returns how many structures were
/// shared and how many rebuilt.
fn assert_untouched_sets_are_shared<D: Routable>(
    old: &SkipWeb<D>,
    new: &SkipWeb<D>,
    bits: Option<u64>,
) -> (usize, usize) {
    use crate::levels::set_key;
    let (mut shared, mut rebuilt) = (0, 0);
    for (level, tables) in (0u32..).zip(new.level_structs()) {
        let Some(old_tables) = old.level_structs().get(level as usize) else {
            continue; // a freshly grown top level has no predecessor
        };
        let dirty = bits.map(|b| set_key(b, level));
        for set in &tables.sets {
            let Some(i) = old_tables.set_index(set.key) else {
                continue;
            };
            let was = &old_tables.sets[i];
            let (now, then) = (tables.structure(set), old_tables.structure(was));
            if Some(set.key) == dirty {
                assert!(!std::ptr::eq(now, then));
                rebuilt += 1;
                continue;
            }
            assert!(
                std::ptr::eq(now, then),
                "L{level} set {:#x}: structure copied",
                set.key
            );
            shared += 1;
        }
    }
    match (new.host_table(), old.host_table()) {
        (None, None) => {}
        (Some(now), Some(then)) => {
            assert_eq!(Arc::ptr_eq(now, then), bits.is_none(), "host table")
        }
        _ => panic!("placement changed kind"),
    }
    (shared, rebuilt)
}

#[test]
fn a_publish_shares_every_set_the_repair_left_alone() {
    let keys: Vec<u64> = (0..1024).map(|i| i * 10).collect();
    let web = crate::onedim::OneDimSkipWeb::builder(keys).seed(48).build();
    let dist = DistributedSkipWeb::builder(web.inner())
        .consolidated(4)
        .spawn();
    let client = dist.client();
    // Caller, engine state and snapshot start out sharing every set.
    let v0 = dist.shared.current_topo();
    assert!(Arc::ptr_eq(&v0.web, &dist.shared.state.lock().web));
    let (shared, rebuilt) = assert_untouched_sets_are_shared(web.inner(), &v0.web, None);
    assert_eq!(rebuilt, 0, "nothing was repaired yet");
    assert_eq!(
        shared,
        v0.web.level_structs().iter().map(|l| l.sets.len()).sum()
    );

    let bits = 0x5EED_B175;
    assert!(dist.insert_with(&client, 3, 5_555, bits).unwrap().applied);
    let v1 = dist.shared.current_topo();
    assert!(Arc::ptr_eq(&v1.web, &dist.shared.state.lock().web));
    let (shared, rebuilt) = assert_untouched_sets_are_shared(&v0.web, &v1.web, Some(bits));
    assert!(
        rebuilt >= 2 && shared > 8 * rebuilt,
        "{shared} vs {rebuilt}"
    );
    // The caller's web still shares them too; `v0` itself is untouched.
    assert_untouched_sets_are_shared(web.inner(), &v1.web, Some(bits));
    assert_eq!(v0.web.len(), 1024);

    let bits = v1.web.bits_of(&4_440).expect("an original key");
    assert!(dist.remove_with(&client, 7, 4_440).unwrap().applied);
    let v2 = dist.shared.current_topo();
    let (shared, rebuilt) = assert_untouched_sets_are_shared(&v1.web, &v2.web, Some(bits));
    assert!(
        rebuilt >= 2 && shared > 8 * rebuilt,
        "{shared} vs {rebuilt}"
    );
    assert_eq!((v1.web.len(), v2.web.len()), (1025, 1024));
    dist.shutdown();

    // Bucketed placement stores one host table for the web: shared like
    // the structures until a repair re-blocks the web.
    let keys: Vec<u64> = (0..512).map(|i| i * 10).collect();
    let web = crate::onedim::OneDimSkipWeb::builder(keys)
        .seed(48)
        .bucketed(32)
        .build();
    let dist = DistributedSkipWeb::builder(web.inner())
        .consolidated(4)
        .spawn();
    let client = dist.client();
    let v0 = dist.shared.current_topo();
    let (shared, _) = assert_untouched_sets_are_shared(web.inner(), &v0.web, None);
    assert_eq!(
        shared,
        v0.web.level_structs().iter().map(|l| l.sets.len()).sum()
    );
    assert!(dist.insert_with(&client, 3, 2_555, bits).unwrap().applied);
    let v1 = dist.shared.current_topo();
    let (shared, rebuilt) = assert_untouched_sets_are_shared(&v0.web, &v1.web, Some(bits));
    assert!(
        rebuilt >= 2 && shared > 8 * rebuilt,
        "{shared} vs {rebuilt}"
    );
    dist.shutdown();
}

/// Every stored item keeps its slot through updates to other items, so
/// nothing an update does re-homes them: inserts in front of every key
/// shift all canonical positions, and removes free slots that later
/// inserts reuse, yet each surviving key — looked up by key, not by
/// position — keeps its owner host in the simulator and the physical
/// host its level-0 node range folds onto in a consolidated fabric.
/// This is what hosts owning their own state will rely on.
#[test]
fn an_update_moves_no_other_items_ranges() {
    use skipweb_structures::linked_list::SortedLinkedList;
    let keys: Vec<u64> = (0..300).map(|i| 1_000 + i * 10).collect();
    let tower = |key: u64| key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED;
    let front: Vec<u64> = (0..40).map(|i| i * 7).collect();
    let gone: Vec<u64> = keys.iter().copied().step_by(9).collect();
    let survivors = || keys.iter().copied().filter(|k| !gone.contains(k));
    let web = crate::onedim::OneDimSkipWeb::builder(keys.clone())
        .seed(33)
        .build();

    // The simulator: a mixed batch, then one op at a time.
    let mut sim = web.inner().clone();
    let home = |web: &SkipWeb<SortedLinkedList>, key: u64| {
        web.host_of_item(web.ground().binary_search(&key).expect("stored"))
    };
    let before: Vec<HostId> = survivors().map(|k| home(&sim, k)).collect();
    let mut batch: Vec<Update<u64>> = front[..20]
        .iter()
        .map(|&item| Update::Insert {
            item,
            bits: tower(item),
        })
        .collect();
    batch.extend(gone[..20].iter().map(|&item| Update::Remove { item }));
    assert!(sim.apply(batch).iter().all(|&applied| applied));
    for &item in &gone[20..] {
        assert_eq!(sim.apply(vec![Update::Remove { item }]), [true]);
    }
    for &item in &front[20..] {
        assert_eq!(sim.apply_insert_batch(vec![(item, tower(item))]), [true]);
    }
    let after: Vec<HostId> = survivors().map(|k| home(&sim, k)).collect();
    assert_eq!(after, before, "simulator: surviving items re-homed");

    // The engine: where each key's level-0 node range lives physically.
    let dist = DistributedSkipWeb::builder(web.inner())
        .consolidated(4)
        .spawn();
    let client = dist.client();
    let node_host = |key: u64| {
        let topo = dist.shared.current_topo();
        let pos = topo.web.ground().binary_search(&key).expect("stored");
        let at = GlobalRef {
            level: 0,
            set: 0,
            range: topo.web.base().entry_of_item(pos).0,
        };
        topo.ctl.fold(topo.copies(at).next().expect("a copy"))
    };
    let before: Vec<HostId> = survivors().map(node_host).collect();
    for (i, (&insert, &remove)) in front.iter().zip(&gone).enumerate() {
        let origin = i * 13 % dist.len();
        assert!(
            dist.insert_with(&client, origin, insert, tower(insert))
                .unwrap()
                .applied
        );
        assert!(dist.remove_with(&client, origin, remove).unwrap().applied);
    }
    let after: Vec<HostId> = survivors().map(node_host).collect();
    assert_eq!(after, before, "engine: surviving ranges re-homed");
    dist.shutdown();
}

#[test]
fn membership_publishes_swap_the_placement_over_the_same_web() {
    let keys: Vec<u64> = (0..256).map(|i| i * 3).collect();
    let web = crate::onedim::OneDimSkipWeb::builder(keys).seed(49).build();
    let dist = DistributedSkipWeb::builder(web.inner())
        .consolidated(6)
        .spawn();
    let v0 = dist.shared.current_topo();
    dist.heal();
    let v1 = dist.shared.current_topo();
    dist.decommission(HostId(2)).unwrap();
    let v2 = dist.shared.current_topo();
    let host = dist.spawn_host();
    let v3 = dist.shared.current_topo();
    for (before, after) in [(&v0, &v1), (&v1, &v2), (&v2, &v3)] {
        assert!(
            Arc::ptr_eq(&before.web, &after.web),
            "the web is not copied"
        );
        assert_eq!(after.version, before.version + 1);
    }
    assert!(Arc::ptr_eq(&v3.web, &dist.shared.state.lock().web));
    // Only the fold changed: host 2's share moved, host 6 joined.
    assert_eq!(v2.ctl.fold(HostId(2)), HostId(3));
    assert_eq!(v3.ctl.fold(host), host);
    dist.shutdown();
}

proptest! {
    /// Why the route-time fold needs no de-duplication: over the folded
    /// copies, `contains` and first-match pick exactly the host they
    /// picked from the first-occurrence-de-duplicated host table the
    /// snapshot used to bake.
    #[test]
    fn route_time_fold_picks_what_the_deduplicated_table_did(
        phys in 1usize..10,
        excluded in collection::vec(0u32..10, 0..6),
        copies in collection::vec(0u32..64, 1..6),
        me in 0u32..10,
        dead in collection::vec(0u32..10, 0..8),
    ) {
        let ctl = PlacementCtl {
            phys,
            excluded: excluded.into_iter().filter(|&h| (h as usize) < phys).collect(),
        };
        let copies: Vec<HostId> = copies.into_iter().map(HostId).collect();
        let me = HostId(me % phys as u32);
        let routable = |h: HostId| !dead.contains(&h.0);
        let mut baked: Vec<HostId> = Vec::new();
        for h in copies.iter().map(|&h| ctl.fold(h)) {
            if !baked.contains(&h) {
                baked.push(h);
            }
        }
        let want = if baked.contains(&me) {
            Some(me)
        } else {
            baked.iter().copied().find(|&h| routable(h))
        };
        prop_assert_eq!(pick_alive(copies.iter().copied(), &ctl, me, routable), want);
    }
}

/// Blocks until `host` shows up dead in the engine's membership view
/// (a panicking thread publishes its tombstone as it unwinds).
fn await_dead<D: Routable + Send + Sync + 'static>(dist: &DistributedSkipWeb<D>, host: HostId) {
    for _ in 0..2000 {
        if dist.membership().dead_hosts().contains(&host) {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("{host} never tombstoned");
}

#[test]
fn host_panic_mid_update_is_contained_and_reported_by_health() {
    let keys: Vec<u64> = (0..64).map(|i| i * 3).collect();
    let web = crate::onedim::OneDimSkipWeb::builder(keys)
        .seed(31)
        .replicate(2)
        .build();
    let dist = DistributedSkipWeb::builder(web.inner()).spawn();
    let client = dist.client();
    client.set_timeouts(Timeouts::uniform(Duration::from_millis(300)));
    // A corrupt address makes host 5 die mid-update processing.
    let topo = dist.shared.current_topo();
    client
        .inner
        .send(
            HostId(5),
            FabricMsg::One(EngineMsg {
                op: EngineOp::Update(UpdateOp {
                    update: Update::Insert { item: 7, bits: 1 },
                    phase: UpdatePhase::Route,
                    op_id: 777,
                }),
                at: GlobalRef {
                    level: 0,
                    set: 0,
                    range: u32::MAX,
                },
                client: client.id(),
                corr: 777,
                hops: 0,
                topo,
            }),
        )
        .unwrap();
    // The blocked client surfaces the lost op as a timeout, not a hang.
    let err = client.recv_corr(777, Duration::from_secs(2)).unwrap_err();
    assert_eq!(err, RuntimeError::Timeout);
    await_dead(&dist, HostId(5));
    let health = dist.health();
    assert_eq!(health.dead, vec![HostId(5)]);
    assert_eq!(health.replication, 2);
    assert_eq!(health.alive.len(), 63);
    // The membership view exposes the same first-crash signal the old
    // `poisoned_by` shim used to.
    assert_eq!(dist.membership().first_dead(), Some(HostId(5)));
    // The crash is contained: with k = 2 the fabric keeps serving
    // queries and updates from replicas instead of failing fast.
    client.set_timeouts(Timeouts::new(
        Duration::from_secs(10),
        Duration::from_secs(30),
    ));
    assert!(dist.insert(&client, 999).unwrap().applied);
    let reply = dist.query(&client, 0, 998).unwrap();
    assert_eq!(reply.answer, Some(999));
    dist.shutdown();
}

#[test]
fn killing_a_host_with_replication_keeps_every_query_answerable() {
    let keys: Vec<u64> = (0..120).map(|i| i * 10).collect();
    let web = crate::onedim::OneDimSkipWeb::builder(keys)
        .seed(32)
        .replicate(2)
        .build();
    let dist = DistributedSkipWeb::builder(web.inner()).spawn();
    let client = dist.client();
    dist.kill_host(HostId(7));
    for s in 0..40u64 {
        let q = (s * 211) % 1300;
        let origin = web.random_origin(s);
        let want = web.nearest(origin, q).answer.nearest;
        let reply = dist.query(&client, origin, q).unwrap();
        assert_eq!(reply.answer, Some(want), "q={q} after crash");
    }
    // Origins homed on the dead host enter at a replica.
    let dead_origin = 7usize;
    assert!(dist
        .query(&client, dead_origin, 75)
        .unwrap()
        .answer
        .is_some());
    dist.shutdown();
}

#[test]
fn unreplicated_crash_fails_fast_and_heal_restores_availability() {
    let keys: Vec<u64> = (0..64).map(|i| i * 10).collect();
    let web = crate::onedim::OneDimSkipWeb::builder(keys).seed(33).build();
    let dist = DistributedSkipWeb::builder(web.inner()).spawn();
    let client = dist.client();
    client.set_timeouts(Timeouts::uniform(Duration::from_secs(2)));
    dist.kill_host(HostId(9));
    // Some query must need host 9's tower with k = 1: it reports
    // Unavailable (fail fast) rather than timing out.
    let mut saw_unavailable = false;
    for s in 0..64u64 {
        match dist.query(&client, web.random_origin(s), s * 10 + 5) {
            Ok(_) => {}
            Err(RuntimeError::Unavailable) => saw_unavailable = true,
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    assert!(saw_unavailable, "k = 1 cannot survive a crash everywhere");
    // Healing re-homes the dead host's blocks; the web then answers
    // every query again (from the rebuilt placement).
    let v_before = dist.health().topology_version;
    dist.heal();
    assert!(dist.health().topology_version > v_before);
    for s in 0..64u64 {
        assert!(
            dist.query(&client, web.random_origin(s), s * 10 + 5)
                .unwrap()
                .answer
                .is_some(),
            "healed web must answer"
        );
    }
    dist.shutdown();
}

#[test]
fn decommission_rehomes_blocks_and_keeps_answers() {
    let keys: Vec<u64> = (0..80).map(|i| i * 5).collect();
    let web = crate::onedim::OneDimSkipWeb::builder(keys).seed(34).build();
    let dist = DistributedSkipWeb::builder(web.inner())
        .consolidated(8)
        .spawn();
    let client = dist.client();
    dist.decommission(HostId(3)).unwrap();
    let health = dist.health();
    assert_eq!(health.decommissioned, vec![HostId(3)]);
    assert_eq!(health.alive.len(), 7);
    // Double decommission and last-host decommission are rejected.
    assert_eq!(
        dist.decommission(HostId(3)).unwrap_err(),
        RuntimeError::HostDown(HostId(3))
    );
    for s in 0..30u64 {
        let q = (s * 97) % 450;
        let origin = web.random_origin(s);
        let want = web.nearest(origin, q).answer.nearest;
        assert_eq!(dist.query(&client, origin, q).unwrap().answer, Some(want));
    }
    // After the drain, no new query traffic lands on host 3 (the old
    // snapshot's in-flight ops are long gone).
    let before = dist.traffic().received[3];
    for s in 0..30u64 {
        let _ = dist.query(&client, web.random_origin(s), s * 13).unwrap();
    }
    assert_eq!(dist.traffic().received[3], before);
    dist.shutdown();
}

#[test]
fn spawn_host_grows_the_fabric_and_rebalances() {
    let keys: Vec<u64> = (0..60).map(|i| i * 4).collect();
    let web = crate::onedim::OneDimSkipWeb::builder(keys).seed(35).build();
    let dist = DistributedSkipWeb::builder(web.inner())
        .consolidated(4)
        .spawn();
    let client = dist.client();
    let new = dist.spawn_host();
    assert_eq!(new, HostId(4));
    assert_eq!(dist.hosts(), 5);
    for s in 0..30u64 {
        let q = (s * 101) % 250;
        let origin = web.random_origin(s);
        let want = web.nearest(origin, q).answer.nearest;
        assert_eq!(dist.query(&client, origin, q).unwrap().answer, Some(want));
    }
    // The new host actually participates in the rebalanced placement.
    assert!(
        dist.traffic().received[4] > 0,
        "spawned host must receive traffic"
    );
    assert!(dist.insert(&client, 999).unwrap().applied);
    dist.shutdown();
}

#[test]
fn batched_queries_and_updates_match_serial_with_fewer_crossings() {
    let keys: Vec<u64> = (0..200).map(|i| i * 10).collect();
    let web = crate::onedim::OneDimSkipWeb::builder(keys).seed(41).build();
    let serial = DistributedSkipWeb::builder(web.inner())
        .consolidated(200 + 16)
        .spawn();
    let batched = DistributedSkipWeb::builder(web.inner())
        .consolidated(200 + 16)
        .spawn();
    let (cs, cb) = (serial.client(), batched.client());
    // Queries: byte-identical answers, strictly fewer crossings.
    let qs: Vec<u64> = (0..64u64).map(|s| (s * 157) % 2100).collect();
    let want: Vec<Option<u64>> = qs
        .iter()
        .map(|&q| serial.query(&cs, 3, q).unwrap().answer)
        .collect();
    let got: Vec<Option<u64>> = batched
        .query_batch(&cb, 3, qs.clone())
        .unwrap()
        .into_iter()
        .map(|r| r.answer)
        .collect();
    assert_eq!(got, want);
    let q_serial = serial.traffic().total_sent();
    let q_batched = batched.traffic().total_sent();
    assert!(
        q_batched < q_serial,
        "batch crossings {q_batched} must undercut serial {q_serial}"
    );
    // Per-op hops still equal the serial route length: the envelope is
    // what got cheaper, not the route.
    for (reply, &q) in batched
        .query_batch(&cb, 5, qs.clone())
        .unwrap()
        .iter()
        .zip(&qs)
    {
        let serial_reply = serial.query(&cs, 5, q).unwrap();
        assert_eq!(reply.hops, serial_reply.hops, "route length for q={q}");
    }
    // Updates: the same `(origin, update)` pairs through both paths
    // leave identical flags and ground sets, with coalesced envelopes
    // metered on the batch side. One shared origin and clustered keys
    // keep the routes overlapping, so the batch demonstrably coalesces.
    let ins = (0..12u64).map(|i| Update::Insert {
        item: 901 + i * 2,
        bits: i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    });
    let rem = (0..12u64).map(|i| Update::Remove { item: 901 + i * 2 });
    let batch_ops_before = batched.traffic().total_batch_ops();
    for round in [ins.collect::<Vec<_>>(), rem.collect()] {
        // A batch of one is the serial path.
        let one = |update: &Update<u64>| serial.update_batch(&cs, vec![(3, update.clone())]);
        let serial_flags: Vec<bool> = round.iter().map(|u| one(u).unwrap()[0].applied).collect();
        let batch = round.into_iter().map(|update| (3, update)).collect();
        let replies = batched.update_batch(&cb, batch).unwrap();
        let batch_flags: Vec<bool> = replies.iter().map(|r| r.applied).collect();
        assert_eq!(batch_flags, serial_flags);
        assert_eq!(batched.ground(), serial.ground());
    }
    assert!(
        batched.traffic().total_batch_ops() > batch_ops_before,
        "update coalescing must be metered"
    );
    serial.shutdown();
    batched.shutdown();
}

#[test]
fn scattered_box_and_prefix_reports_match_the_serial_answers() {
    // Quadtree: scatter-gathered box reports are byte-identical to the
    // locus-computed ones, while the fan-out pays real crossings.
    let web = QuadtreeSkipWeb::builder(grid_points(180)).seed(42).build();
    let dist = web.serve();
    let client = dist.client();
    let boxes: [([u32; 2], [u32; 2]); 3] = [
        ([0, 0], [u32::MAX / 2, u32::MAX / 2]),
        ([1 << 20, 1 << 20], [1 << 26, 1 << 26]),
        ([0, 0], [u32::MAX, u32::MAX]),
    ];
    for (lo, hi) in boxes {
        let origin = web.random_origin(5);
        let serial = dist
            .query(&client, origin, QuadtreeRequest::InBox { lo, hi })
            .unwrap();
        let scattered = dist
            .query_scatter(&client, origin, QuadtreeRequest::InBox { lo, hi })
            .unwrap();
        assert_eq!(scattered.answer, serial.answer, "box {lo:?}..{hi:?}");
    }
    // A locate request has nothing to scatter and falls back serially.
    let q = PointKey::new([7, 9]);
    let serial = dist.query(&client, 0, QuadtreeRequest::Locate(q)).unwrap();
    let scattered = dist
        .query_scatter(&client, 0, QuadtreeRequest::Locate(q))
        .unwrap();
    assert_eq!(scattered.answer, serial.answer);
    assert_eq!(scattered.hops, serial.hops);
    dist.shutdown();

    // Trie: prefix enumeration scatter-gathers across the hosts owning
    // the matches.
    let strings: Vec<String> = (0..90).map(|i| format!("isbn-97802{i:03}x")).collect();
    let web = TrieSkipWeb::builder(strings).seed(43).build();
    let dist = web.serve();
    let client = dist.client();
    for prefix in ["isbn-97802", "isbn-978020", "isbn", "nope", ""] {
        let origin = web.random_origin(prefix.len() as u64);
        let serial = dist.query(&client, origin, prefix.to_string()).unwrap();
        let scattered = dist
            .query_scatter(&client, origin, prefix.to_string())
            .unwrap();
        assert_eq!(
            scattered.answer.matched_len, serial.answer.matched_len,
            "len {prefix:?}"
        );
        assert_eq!(
            scattered.answer.matches, serial.answer.matches,
            "matches {prefix:?}"
        );
    }
    dist.shutdown();
}

#[test]
fn scattered_reports_survive_a_crash_with_replicas() {
    let web = QuadtreeSkipWeb::builder(grid_points(120))
        .seed(44)
        .replicate(2)
        .build();
    let dist = web.serve();
    let client = dist.client();
    let (lo, hi) = ([0u32, 0u32], [u32::MAX, u32::MAX]);
    let want = dist
        .query(
            &client,
            web.random_origin(1),
            QuadtreeRequest::InBox { lo, hi },
        )
        .unwrap();
    dist.kill_host(HostId(9));
    let got = dist
        .query_scatter(
            &client,
            web.random_origin(1),
            QuadtreeRequest::InBox { lo, hi },
        )
        .unwrap();
    assert_eq!(got.answer, want.answer, "scatter steers around the crash");
    dist.shutdown();
}

#[test]
fn resubmitted_update_with_same_op_id_never_double_applies() {
    let keys: Vec<u64> = (0..32).map(|i| i * 4).collect();
    let web = crate::onedim::OneDimSkipWeb::builder(keys).seed(45).build();
    let dist = DistributedSkipWeb::builder(web.inner())
        .consolidated(40)
        .spawn();
    let client = dist.client();
    // First attempt of the logical insert lands normally.
    let topo = dist.shared.current_topo();
    let insert = update_op(Update::Insert {
        item: 333,
        bits: 0xBEEF,
    });
    let first = InFlight::new(&client, 3, insert);
    dist.admit(&client, &topo, std::slice::from_ref(&first))
        .unwrap();
    assert!(UpdateReply::of(dist.collect(&client, &first).unwrap()).applied);
    assert!(dist.ground().contains(&333));
    // A concurrent client removes the key before the (simulated)
    // timeout-resubmit of the original attempt arrives.
    let other = dist.client();
    assert!(dist.remove(&other, 333).unwrap().applied);
    let version = dist.health().topology_version;
    // The resubmit carries the original op id: the apply path finds the
    // recorded outcome and echoes it instead of re-inserting — without
    // the ledger this second attempt would double-apply and resurrect
    // the removed key.
    let topo = dist.shared.current_topo();
    let again = InFlight {
        origin: 3,
        op: first.op.clone(),
        corr: client.alloc_corr(),
    };
    dist.admit(&client, &topo, std::slice::from_ref(&again))
        .unwrap();
    let replay = UpdateReply::of(dist.collect(&client, &again).unwrap());
    assert!(replay.applied, "echoed outcome reports the first landing");
    assert!(
        !dist.ground().contains(&333),
        "the resubmit must not re-apply the insert"
    );
    assert_eq!(
        dist.health().topology_version,
        version,
        "an echoed replay publishes no new snapshot"
    );
    dist.shutdown();
}

#[test]
fn a_resubmit_sharing_a_turn_with_its_original_is_echoed_not_reapplied() {
    let keys: Vec<u64> = (0..32).map(|i| i * 4).collect();
    let web = crate::onedim::OneDimSkipWeb::builder(keys).seed(50).build();
    let dist = DistributedSkipWeb::builder(web.inner())
        .consolidated(1)
        .spawn();
    let client = dist.client();
    // A delayed original and its timeout-resubmit — same op id, two
    // correlation ids — coalesced into one envelope: on a single host
    // both finish their repair in the same handler turn.
    let topo = dist.shared.current_topo();
    let (at, _) = topo.origin(3);
    let attempt = |corr| EngineMsg {
        op: EngineOp::Update(UpdateOp {
            update: Update::Insert {
                item: 333,
                bits: 0xBEEF,
            },
            phase: UpdatePhase::Route,
            op_id: 900,
        }),
        at,
        client: client.id(),
        corr,
        hops: 0,
        topo: Arc::clone(&topo),
    };
    let ops = vec![attempt(900), attempt(901)];
    client
        .inner
        .send(HostId(0), FabricMsg::Batch(BatchMsg { ops }))
        .unwrap();
    // The client only listens to the resubmit's correlation id; it must
    // hear that the insert landed, as the original does.
    for corr in [901, 900] {
        let reply = client.recv_corr(corr, Duration::from_secs(10)).unwrap();
        assert_eq!(reply.try_applied(), Ok(true), "attempt {corr}");
    }
    assert_eq!(dist.ground().iter().filter(|&&k| k == 333).count(), 1);
    assert_eq!(dist.len(), 33);
    assert_eq!(dist.health().topology_version, topo.version + 1);
    assert_eq!(dist.applied_ledger(), [((client.id(), 900), true)]);
    dist.shutdown();
}

#[test]
fn a_turns_forwards_leave_before_its_apply_takes_the_state_lock() {
    let keys: Vec<u64> = (0..64).map(|i| i * 4).collect();
    let web = crate::onedim::OneDimSkipWeb::builder(keys).seed(52).build();
    let dist = DistributedSkipWeb::builder(web.inner())
        .consolidated(2)
        .spawn();
    let client = dist.client();
    let topo = dist.shared.current_topo();
    let membership = dist.membership();
    let (me, other) = (HostId(0), HostId(1));
    // A query that enters at `me`, must forward, and is answered by the
    // other host without coming back.
    let leaves_for_good = |&(origin, q): &(usize, u64)| {
        let (at, copies) = topo.origin(origin);
        let enters_here = pick_alive(copies, &topo.ctl, me, |_| true) == Some(me);
        let RouteOutcome::Forward { next, host } = route_step(&topo, me, at, &q, &membership)
        else {
            return false;
        };
        let ends_there = matches!(
            route_step(&topo, host, next, &q, &membership),
            RouteOutcome::AtLocus(_)
        );
        enters_here && host == other && ends_there
    };
    let (origin, q) = (0..64usize)
        .flat_map(|origin| (0..64u64).map(move |i| (origin, i * 4 + 1)))
        .find(leaves_for_good)
        .expect("some query crosses from host 0 to host 1 once");
    let want = dist.query(&client, origin, q).unwrap().answer;
    let msg = |op, corr| EngineMsg {
        op,
        at: topo.origin(origin).0,
        client: client.id(),
        corr,
        hops: 0,
        topo: Arc::clone(&topo),
    };
    // One envelope: that query, and an update whose repair trail ends on
    // `me`, so this turn applies it.
    let (read, write) = (client.alloc_corr(), client.alloc_corr());
    let ops = vec![
        msg(
            EngineOp::Query {
                req: q,
                gather: false,
            },
            read,
        ),
        msg(
            EngineOp::Update(UpdateOp {
                update: Update::Insert {
                    item: 333,
                    bits: 0xBEEF,
                },
                phase: UpdatePhase::Repair {
                    cursor: 0,
                    trail: vec![me],
                },
                op_id: write,
            }),
            write,
        ),
    ];
    // The apply blocks on the state lock for as long as this thread
    // holds it; the query's answer must arrive meanwhile.
    let st = dist.shared.state.lock();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::scope(|scope| {
        let client = &client;
        scope.spawn(move || {
            client
                .inner
                .send(me, FabricMsg::Batch(BatchMsg { ops }))
                .unwrap();
            tx.send(client.recv_corr(read, Duration::from_secs(5)))
                .unwrap();
        });
        // Release the lock before judging, so a failure cannot hang.
        let answered = rx.recv_timeout(Duration::from_secs(10));
        drop(st);
        let reply = answered
            .expect("the helper reports")
            .expect("the query waited out the apply");
        assert_eq!(reply.try_into_answer().unwrap(), want);
    });
    let applied = client.recv_corr(write, Duration::from_secs(10)).unwrap();
    assert_eq!(applied.try_applied(), Ok(true));
    assert!(dist.ground().contains(&333));
    dist.shutdown();
}

#[test]
fn a_read_through_the_host_that_ended_a_repair_does_not_wait_for_the_apply() {
    let keys: Vec<u64> = (0..64).map(|i| i * 4).collect();
    let web = crate::onedim::OneDimSkipWeb::builder(keys).seed(54).build();
    let dist = DistributedSkipWeb::builder(web.inner())
        .consolidated(4)
        .spawn();
    let client = dist.client();
    let topo = dist.shared.current_topo();
    let me = HostId(0);
    let origin = (0..64usize)
        .find(|&o| topo.origin(o).1.next().map(|h| topo.ctl.fold(h)) == Some(me))
        .expect("some origin enters at host 0");
    let q = 101u64;
    let want = dist.query(&client, origin, q).unwrap().answer;
    let (read, write) = (client.alloc_corr(), client.alloc_corr());
    let msg = |op, corr| EngineMsg {
        op,
        at: topo.origin(origin).0,
        client: client.id(),
        corr,
        hops: 0,
        topo: Arc::clone(&topo),
    };
    // An update whose repair trail ends on host 0, then a read that
    // enters there, each in its own envelope.
    let update = msg(
        EngineOp::Update(UpdateOp {
            update: Update::Insert {
                item: 333,
                bits: 0xBEEF,
            },
            phase: UpdatePhase::Repair {
                cursor: 0,
                trail: vec![me],
            },
            op_id: write,
        }),
        write,
    );
    let query = msg(
        EngineOp::Query {
            req: q,
            gather: false,
        },
        read,
    );
    // The update's apply waits for the lock this thread holds; host 0
    // must answer the read meanwhile.
    let st = dist.shared.state.lock();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::scope(|scope| {
        let client = &client;
        scope.spawn(move || {
            client.inner.send(me, FabricMsg::One(update)).unwrap();
            client.inner.send(me, FabricMsg::One(query)).unwrap();
            tx.send(client.recv_corr(read, Duration::from_secs(5)))
                .unwrap();
        });
        // Release the lock before judging, so a failure cannot hang.
        let answered = rx.recv_timeout(Duration::from_secs(10));
        drop(st);
        let reply = answered
            .expect("the helper reports")
            .expect("the read waited out the apply");
        assert_eq!(reply.try_into_answer().unwrap(), want);
    });
    let applied = client.recv_corr(write, Duration::from_secs(10)).unwrap();
    assert_eq!(applied.try_applied(), Ok(true));
    assert!(dist.ground().contains(&333));
    dist.shutdown();
}

#[test]
fn updates_handed_off_while_the_state_lock_is_held_apply_in_one_turn() {
    let keys: Vec<u64> = (0..64).map(|i| i * 4).collect();
    let web = crate::onedim::OneDimSkipWeb::builder(keys).seed(55).build();
    let dist = DistributedSkipWeb::builder(web.inner())
        .consolidated(1)
        .spawn();
    let client = dist.client();
    let topo = dist.shared.current_topo();
    let before = dist.health();
    let me = HostId(0);
    let msg = |op, corr| EngineMsg {
        op,
        at: topo.origin(0).0,
        client: client.id(),
        corr,
        hops: 0,
        topo: Arc::clone(&topo),
    };
    let writes: Vec<u64> = (0..3).map(|_| client.alloc_corr()).collect();
    let read = client.alloc_corr();
    let mut envelopes: Vec<_> = writes
        .iter()
        .zip([1u64, 5, 9])
        .map(|(&corr, item)| {
            let update = Update::Insert {
                item,
                bits: item.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            };
            let phase = UpdatePhase::Repair {
                cursor: 0,
                trail: vec![me],
            };
            let op = EngineOp::Update(UpdateOp {
                update,
                phase,
                op_id: corr,
            });
            FabricMsg::One(msg(op, corr))
        })
        .collect();
    let query = EngineOp::Query {
        req: 0u64,
        gather: false,
    };
    envelopes.push(FabricMsg::One(msg(query, read)));
    let st = dist.shared.state.lock();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::scope(|scope| {
        let client = &client;
        scope.spawn(move || {
            // One handler turn per envelope: three hand-offs, then a
            // read whose answer shows the host has made all three.
            for envelope in envelopes {
                client.inner.send(me, envelope).unwrap();
            }
            tx.send(client.recv_corr(read, Duration::from_secs(5)))
                .unwrap();
        });
        let answered = rx.recv_timeout(Duration::from_secs(10));
        drop(st);
        answered
            .expect("the helper reports")
            .expect("the host answered the read");
    });
    for corr in writes {
        let reply = client.recv_corr(corr, Duration::from_secs(10)).unwrap();
        assert_eq!(reply.try_applied(), Ok(true), "write {corr}");
    }
    let after = dist.health();
    assert_eq!(after.apply_turns, before.apply_turns + 1);
    assert_eq!(after.updates_applied, before.updates_applied + 3);
    assert_eq!(after.topology_version, before.topology_version + 1);
    assert!(after.to_string().ends_with("ops/turn=3.00"), "{after}");
    assert_eq!(dist.len(), 67);
    dist.shutdown();
}

#[test]
fn a_hand_off_to_a_stopped_stage_is_answered_unavailable() {
    let keys: Vec<u64> = (0..32).map(|i| i * 4).collect();
    let web = crate::onedim::OneDimSkipWeb::builder(keys).seed(56).build();
    let dist = DistributedSkipWeb::builder(web.inner())
        .consolidated(2)
        .spawn();
    let client = dist.client();
    assert!(dist.shared.stage.send(None).is_ok(), "the stage runs");
    while !dist.stage.is_finished() {
        std::thread::yield_now();
    }
    // An update fails fast instead of waiting out its timeout; reads,
    // which never reach the stage, still answer.
    assert_eq!(
        dist.insert_with(&client, 0, 333, 0xBEEF).unwrap_err(),
        RuntimeError::Unavailable
    );
    assert_eq!(dist.query(&client, 0, 101).unwrap().answer, Some(100));
    dist.shutdown();
}

#[test]
fn reads_answer_from_the_published_snapshot_while_an_apply_holds_the_state_lock() {
    let keys: Vec<u64> = (0..48).map(|i| i * 5).collect();
    let web = crate::onedim::OneDimSkipWeb::builder(keys.clone())
        .seed(51)
        .replicate(2)
        .build();
    let dist = DistributedSkipWeb::builder(web.inner())
        .consolidated(4)
        .spawn();
    let client = dist.client();
    assert!(dist.insert_with(&client, 0, 7, 0xF00D).unwrap().applied);
    // An apply in progress: the state lock is held and the web under it
    // is already ahead of the published snapshot.
    let mut st = dist.shared.state.lock();
    let ahead = vec![Update::Remove { item: 7 }, Update::Remove { item: 10 }];
    assert_eq!(Arc::make_mut(&mut st.web).apply(ahead), [true, true]);
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::scope(|scope| {
        let dist = &dist;
        scope.spawn(move || {
            let reads = (dist.len(), dist.is_empty(), dist.ground(), dist.health());
            tx.send(reads).unwrap();
        });
        // A reader that queues behind the lock fails here instead of
        // hanging the suite: release the lock before judging.
        let reads = rx.recv_timeout(Duration::from_secs(10));
        drop(st);
        let (len, empty, ground, health) = reads.expect("reads waited for the state lock");
        let mut published = keys.clone();
        published.insert(2, 7);
        assert_eq!((len, empty, ground), (49, false, published));
        assert_eq!((health.replication, health.topology_version), (2, 1));
    });
    dist.shutdown();
}

/// A fabric's draws start from a copy of the served web's generator:
/// inserting fresh items draws the towers and lookup origins that
/// [`SkipWeb::insert`] draws on a clone of the web, so the two end in the
/// same web, having paid the same messages, with generators in step.
#[test]
fn a_fabric_draws_what_the_served_web_would() {
    use rand::Rng;
    let keys: Vec<u64> = (0..64).map(|i| i * 10).collect();
    let web = crate::onedim::OneDimSkipWeb::builder(keys).seed(61).build();
    let mut sim = web.inner().clone();
    let dist = DistributedSkipWeb::builder(web.inner()).spawn();
    let client = dist.client();
    for item in (0..12).map(|i| i * 50 + 5) {
        let mut meter = MessageMeter::new();
        assert!(sim.insert(item, &mut meter));
        let reply = dist.insert(&client, item).unwrap();
        assert!(reply.applied);
        let served = dist.shared.current_topo();
        assert_eq!(
            served.web.bits_of(&item),
            sim.bits_of(&item),
            "{item}'s tower"
        );
        assert_eq!(u64::from(reply.hops), meter.messages(), "{item}'s messages");
    }
    assert!(*dist.shared.current_topo().web == sim);
    let next = (sim.rng.gen_range(0..sim.len()), sim.rng.gen());
    assert_eq!(dist.draw_entry(), next);
    dist.shutdown();
}

#[test]
fn a_draw_does_not_wait_for_the_state_lock() {
    let keys: Vec<u64> = (0..48).map(|i| i * 5).collect();
    let web = crate::onedim::OneDimSkipWeb::builder(keys).seed(59).build();
    let dist = DistributedSkipWeb::builder(web.inner())
        .consolidated(4)
        .spawn();
    let st = dist.shared.state.lock();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::scope(|scope| {
        let dist = &dist;
        scope.spawn(move || tx.send(dist.draw_entry()).unwrap());
        // Release the lock before judging, so a failure cannot hang.
        let drawn = rx.recv_timeout(Duration::from_secs(10));
        drop(st);
        assert!(drawn.expect("the draw waited for the state lock").0 < 48);
    });
    dist.shutdown();
}

#[test]
fn lost_update_is_resubmitted_and_applies_exactly_once() {
    let keys: Vec<u64> = (0..48).map(|i| i * 10).collect();
    let web = crate::onedim::OneDimSkipWeb::builder(keys)
        .seed(46)
        .replicate(2)
        .build();
    let dist = DistributedSkipWeb::builder(web.inner()).spawn();
    let client = dist.client();
    client.set_timeouts(Timeouts::new(
        Duration::from_millis(400),
        Duration::from_millis(400),
    ));
    // Poison the origin's entry host with a corrupt address, then race
    // the real insert into its mailbox: whether the insert queues
    // behind the poison (lost with the crash → timeout → resubmit) or
    // the tombstone beats the send (failover at submit), the blocking
    // call must land the insert exactly once.
    let topo = dist.shared.current_topo();
    // One thread per logical host: the fold is the identity.
    let entry_host = topo.origin(0).1.next().unwrap();
    client
        .inner
        .send(
            entry_host,
            FabricMsg::One(EngineMsg {
                op: EngineOp::Query {
                    req: 0u64,
                    gather: false,
                },
                at: GlobalRef {
                    level: 0,
                    set: 0,
                    range: u32::MAX,
                },
                client: client.id(),
                corr: u64::MAX,
                hops: 0,
                topo: Arc::clone(&topo),
            }),
        )
        .unwrap();
    let before = dist.health().topology_version;
    let reply = dist.insert_with(&client, 0, 7, 0xF00D).unwrap();
    assert!(reply.applied);
    assert!(dist.ground().contains(&7));
    assert_eq!(
        dist.health().topology_version,
        before + 1,
        "exactly one apply published exactly one snapshot"
    );
    await_dead(&dist, entry_host);
    dist.shutdown();
}

#[test]
fn late_replies_for_abandoned_correlations_are_dropped_and_counted() {
    let keys: Vec<u64> = (0..64).map(|i| i * 3).collect();
    let web = crate::onedim::OneDimSkipWeb::builder(keys).seed(47).build();
    let dist = DistributedSkipWeb::builder(web.inner()).spawn();
    let client = dist.client();
    let corr = dist.submit(&client, 0, 55u64).unwrap();
    // Abandon the operation before draining its reply: the late answer
    // must be dropped on arrival — and counted — instead of sitting in
    // the pending buffer where a later recv_any would misread it.
    client.mark_stale(corr);
    let err = client.recv_any(Duration::from_millis(600)).unwrap_err();
    assert_eq!(err, RuntimeError::Timeout);
    assert_eq!(dist.traffic().stale_replies, 1, "drop is observable");
    assert!(client.pending.lock().is_empty(), "nothing parked");
    // A fresh operation on the same client is unaffected.
    let reply = dist.query(&client, 0, 55).unwrap();
    assert_eq!(reply.corr, corr + 1);
    assert!(reply.answer.is_some());
    dist.shutdown();
}

#[test]
fn a_reply_of_the_other_kind_is_dropped_and_counted_not_returned() {
    let web = crate::onedim::OneDimSkipWeb::builder((0..32).map(|i| i * 4).collect())
        .seed(60)
        .build();
    let dist = DistributedSkipWeb::builder(web.inner()).spawn();
    let client = dist.client();
    let insert = Update::Insert {
        item: 333,
        bits: 0xBEEF,
    };
    let query = InFlight::new(&client, 0, query_op(101, false));
    let update = InFlight::new(&client, 0, update_op(insert));
    // A hostile peer answers each op first, under its correlation id, with
    // the body of the other kind of op.
    let forged = [
        (&query, ReplyBody::Updated { applied: true }),
        (&update, ReplyBody::Answer(Some(7))),
    ];
    for (flight, body) in forged {
        let reply = EngineReply {
            corr: flight.corr,
            hops: 0,
            body,
        };
        client.pending.lock().push(reply);
        let topo = dist.shared.current_topo();
        dist.admit(&client, &topo, std::slice::from_ref(flight))
            .unwrap();
    }
    let answer = QueryReply::of(dist.collect(&client, &query).unwrap()).answer;
    assert_eq!(answer, Some(100));
    assert!(UpdateReply::of(dist.collect(&client, &update).unwrap()).applied);
    assert_eq!(dist.traffic().stale_replies, 2, "both forgeries counted");
    dist.shutdown();
}

#[test]
fn client_timeouts_are_configurable_per_client() {
    let web = crate::onedim::OneDimSkipWeb::builder(vec![1, 2, 3])
        .seed(36)
        .build();
    let dist = DistributedSkipWeb::builder(web.inner()).spawn();
    let client = dist.client();
    assert_eq!(client.timeouts().query, Timeouts::DEFAULT.query);
    assert_eq!(client.timeouts().update, Timeouts::DEFAULT.update);
    client.set_timeouts(Timeouts::uniform(Duration::from_millis(250)));
    assert_eq!(client.timeouts().query, Duration::from_millis(250));
    assert_eq!(client.timeouts().update, Duration::from_millis(250));
    client.set_timeouts(Timeouts::new(
        Duration::from_secs(1),
        Duration::from_secs(2),
    ));
    assert_eq!(client.timeouts().query, Duration::from_secs(1));
    assert_eq!(client.timeouts().update, Duration::from_secs(2));
    // A second client keeps the defaults: the setting is per client.
    let other = dist.client();
    assert_eq!(other.timeouts().query, Timeouts::DEFAULT.query);
    dist.shutdown();
}

#[test]
fn consolidated_spawns_exactly_the_threads_asked_for() {
    let web = crate::onedim::OneDimSkipWeb::builder((0..5).map(|i| i * 10).collect())
        .seed(53)
        .build();
    assert_eq!(web.hosts(), 5);
    let per_host = web.serve();
    let eight = DistributedSkipWeb::builder(web.inner())
        .consolidated(8)
        .spawn();
    // More threads than the web has hosts: the fold is the identity, so
    // every answer and every hop count is the per-host fabric's.
    assert_eq!(eight.hosts(), 8);
    let (cp, c8) = (per_host.client(), eight.client());
    for s in 0..20u64 {
        let (origin, q) = (web.random_origin(s), (s * 7) % 50);
        let want = per_host.query(&cp, origin, q).unwrap();
        let got = eight.query(&c8, origin, q).unwrap();
        assert_eq!((got.answer, got.hops), (want.answer, want.hops), "q = {q}");
    }
    per_host.shutdown();
    eight.shutdown();
}

/// `Duration::MAX` is the natural way to say "wait for ever": a client set
/// to it waits without a deadline, and answers as a client with the
/// default timeouts does.
#[test]
fn a_client_that_waits_for_ever_answers() {
    let web = crate::onedim::OneDimSkipWeb::builder((0..64).map(|i| i * 10).collect())
        .seed(54)
        .build();
    let dist = DistributedSkipWeb::builder(web.inner())
        .consolidated(4)
        .spawn();
    let (patient, plain) = (dist.client(), dist.client());
    patient.set_timeouts(Timeouts::uniform(Duration::MAX));
    for s in 0..8u64 {
        let (origin, q) = (web.random_origin(s), s * 73 % 640);
        let want = dist.query(&plain, origin, q).unwrap();
        let got = dist.query(&patient, origin, q).unwrap();
        assert_eq!((got.answer, got.hops), (want.answer, want.hops), "q = {q}");
    }
    assert!(dist.insert_with(&patient, 3, 5, 0x5EED).unwrap().applied);
    dist.shutdown();
}
