//! Integration: multi-dimensional skip-webs served by the threaded actor
//! runtime — quadtree point location and box reporting, trie prefix search,
//! and trapezoidal-map point location answer exactly like the simulator,
//! including under concurrent clients with interleaved in-flight queries.

use std::time::Duration;

use skipwebs::core::engine::Routable;
use skipwebs::core::multidim::{
    QuadtreeAnswer, QuadtreeRequest, QuadtreeSkipWeb, TrapezoidSkipWeb, TrieSkipWeb,
};
use skipwebs::core::web::Web;
use skipwebs::net::MessageMeter;
use skipwebs::structures::{PointKey, Segment};

/// The simulator's whole answer to `req` from `origin`: the same
/// `Routable::answer` the engine replies with.
fn ask<D: Routable + Send + Sync + 'static>(
    web: &Web<D>,
    origin: usize,
    req: &D::Request,
) -> D::Answer {
    web.inner().ask(origin, req, &mut MessageMeter::new()).0
}

fn spread_points(n: u32) -> Vec<PointKey<2>> {
    (0..n)
        .map(|i| PointKey::new([i.wrapping_mul(2_654_435_761), i.wrapping_mul(40_503) + 5]))
        .collect()
}

#[test]
fn quadtree_runtime_agrees_with_simulator_for_both_placements() {
    for (seed, memory) in [(41u64, None), (42, Some(48))] {
        let mut builder = QuadtreeSkipWeb::builder(spread_points(180)).seed(seed);
        if let Some(m) = memory {
            builder = builder.bucketed(m);
        }
        let web = builder.build();
        let dist = web.serve();
        let client = dist.client();
        for s in 0..25u64 {
            let q = PointKey::new([
                (s.wrapping_mul(0xDEAD_BEEF)) as u32,
                (s.wrapping_mul(0x1234_5677)) as u32,
            ]);
            let origin = web.random_origin(s);
            let req = QuadtreeRequest::Locate(q);
            let reply = dist.query(&client, origin, req).expect("runtime alive");
            assert_eq!(
                reply.answer,
                ask(&web, origin, &req),
                "placement {memory:?}, query {q:?}"
            );
        }
        dist.shutdown();
    }
}

#[test]
fn quadtree_box_reports_match_the_filter_oracle_over_the_runtime() {
    let web = QuadtreeSkipWeb::builder(spread_points(256))
        .seed(43)
        .build();
    let dist = web.serve();
    let client = dist.client();
    let boxes: [([u32; 2], [u32; 2]); 3] = [
        ([0, 0], [u32::MAX / 4, u32::MAX]),
        ([1 << 28, 1 << 20], [7 << 28, 3 << 28]),
        ([9, 9], [10, 10]),
    ];
    for (lo, hi) in boxes {
        let mut want: Vec<PointKey<2>> = web
            .points()
            .iter()
            .copied()
            .filter(|p| p.in_box(&lo, &hi))
            .collect();
        want.sort_by_key(PointKey::morton);
        let want = QuadtreeAnswer::Points(want);
        // Serial and scattered, with reversed corners normalized on the wire
        // instead of panicking an actor thread.
        let origin = web.random_origin(1);
        for req in [
            QuadtreeRequest::InBox { lo, hi },
            QuadtreeRequest::InBox { lo: hi, hi: lo },
        ] {
            assert_eq!(ask(&web, origin, &req), want, "box {lo:?}..{hi:?}");
            for reply in [
                dist.query(&client, origin, req),
                dist.query_scatter(&client, origin, req),
            ] {
                assert_eq!(reply.expect("runtime alive").answer, want, "box {req:?}");
            }
        }
    }
    dist.shutdown();
}

#[test]
fn trie_runtime_serves_concurrent_clients_from_scoped_threads() {
    let strings: Vec<String> = (0..120)
        .map(|i| format!("shelf-{:03}-{}", i % 40, i / 40))
        .collect();
    let web = TrieSkipWeb::builder(strings).seed(44).build();
    let dist = web.serve();
    let clients: Vec<_> = (0..6).map(|_| dist.client()).collect();
    std::thread::scope(|scope| {
        for (i, client) in clients.iter().enumerate() {
            let web = &web;
            let dist = &dist;
            scope.spawn(move || {
                for round in 0..8usize {
                    let prefix = format!("shelf-{:03}", (i * 8 + round) % 40);
                    let origin = web.random_origin((i + round) as u64);
                    let want = ask(web, origin, &prefix);
                    let reply = dist
                        .query(client, origin, prefix.clone())
                        .expect("runtime alive");
                    assert_eq!(reply.answer, want, "client {i} round {round}");
                }
            });
        }
    });
    assert!(dist.traffic().total_sent() > 0);
    dist.shutdown();
}

#[test]
fn trie_client_interleaves_in_flight_queries_by_correlation_id() {
    let strings: Vec<String> = (0..64).map(|i| format!("w{i:03}tail")).collect();
    let web = TrieSkipWeb::builder(strings).seed(45).build();
    let dist = web.serve();
    let client = dist.client();
    let submitted: Vec<(u64, String)> = (0..16usize)
        .map(|i| {
            let prefix = format!("w{:03}", (i * 5) % 64);
            let corr = dist
                .submit(&client, web.random_origin(i as u64), prefix.clone())
                .expect("submit");
            (corr, prefix)
        })
        .collect();
    // Collect evens first, then odds — out of submission order on purpose.
    let mut order: Vec<usize> = (0..submitted.len()).step_by(2).collect();
    order.extend((1..submitted.len()).step_by(2));
    for idx in order {
        let (corr, prefix) = &submitted[idx];
        let reply = client
            .recv_corr(*corr, Duration::from_secs(10))
            .expect("reply");
        assert_eq!(reply.corr, *corr);
        assert_eq!(
            reply.try_into_answer().unwrap().matches,
            vec![format!("{prefix}tail")]
        );
    }
    dist.shutdown();
}

#[test]
fn trapezoid_runtime_agrees_with_simulator() {
    let segments: Vec<Segment> = (0..28)
        .map(|i| Segment::new((i * 90, (i % 5) * 40), (i * 90 + 70, (i % 5) * 40 + 2)))
        .collect();
    let web = TrapezoidSkipWeb::builder(segments).seed(46).build();
    let dist = web.serve();
    let client = dist.client();
    for s in 0..25i64 {
        let q = (s * 113 - 100, s * 17 - 60);
        let origin = web.random_origin(s as u64);
        let reply = dist.query(&client, origin, q).expect("runtime alive");
        assert_eq!(reply.answer, ask(&web, origin, &q), "query {q:?}");
    }
    dist.shutdown();
}
