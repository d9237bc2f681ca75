//! Multi-dimensional skip-webs on the actor runtime: a quadtree (GIS point
//! location + box reporting) and a trie (ISBN prefix search) served by
//! real concurrent hosts, with many queries in flight per client,
//! matched to answers by correlation id.
//!
//! Run with: `cargo run --example distributed_multidim`

use std::time::Duration;

use skipwebs::core::multidim::{QuadtreeAnswer, QuadtreeRequest, QuadtreeSkipWeb, TrieSkipWeb};
use skipwebs::structures::PointKey;

fn main() {
    // --- Quadtree: 2-D point location over live actors -------------------
    let points: Vec<PointKey<2>> = (0..256u32)
        .map(|i| PointKey::new([i.wrapping_mul(2_654_435_761), i.wrapping_mul(40_503) + 11]))
        .collect();
    let quadtree = QuadtreeSkipWeb::builder(points).seed(5).build();
    let dist = quadtree.serve();
    println!(
        "quadtree: n = {}, spawned {} hosts",
        quadtree.len(),
        dist.hosts()
    );

    // Pipeline a burst of point-location queries on one client, then match
    // the out-of-order replies by correlation id.
    let client = dist.client();
    let submitted: Vec<(u64, PointKey<2>)> = (0..32u64)
        .map(|s| {
            let q = PointKey::new([
                (s.wrapping_mul(0x9E37_79B9)) as u32,
                (s.wrapping_mul(0x85EB_CA6B)) as u32,
            ]);
            let corr = dist
                .submit(
                    &client,
                    quadtree.random_origin(s),
                    QuadtreeRequest::Locate(q),
                )
                .expect("runtime alive");
            (corr, q)
        })
        .collect();
    let mut total_hops = 0u64;
    for &(corr, q) in submitted.iter().rev() {
        let reply = client
            .recv_corr(corr, Duration::from_secs(10))
            .expect("reply");
        let sim = quadtree.locate_point(0, q);
        total_hops += u64::from(reply.hops);
        match reply.try_into_answer().unwrap() {
            QuadtreeAnswer::Located { cell, .. } => assert_eq!(cell, sim.cell),
            QuadtreeAnswer::Points(_) => unreachable!("asked for point location"),
        }
    }
    println!(
        "  32 pipelined point locations: {:.1} remote hops/query (simulator-verified)",
        total_hops as f64 / submitted.len() as f64
    );

    // Orthogonal box reporting routes to the box centre, then scans.
    let reply = dist
        .query(
            &client,
            quadtree.random_origin(7),
            QuadtreeRequest::InBox {
                lo: [0, 0],
                hi: [u32::MAX / 2, u32::MAX / 2],
            },
        )
        .expect("runtime alive");
    if let QuadtreeAnswer::Points(pts) = reply.answer {
        println!(
            "  box query reported {} points in {} hops",
            pts.len(),
            reply.hops
        );
    }
    let traffic = dist.traffic();
    println!("  traffic: {traffic}");
    dist.shutdown();

    // --- Trie: prefix search over live actors -----------------------------
    let strings: Vec<String> = (0..200usize)
        .map(|i| format!("978-0-{:02}-{:05}", i % 20, i * 37))
        .collect();
    let trie = TrieSkipWeb::builder(strings).seed(6).build();
    let dist = trie.serve();
    println!("trie: n = {}, spawned {} hosts", trie.len(), dist.hosts());
    let client = dist.client();
    let mut answered = 0usize;
    for s in 0..20usize {
        let prefix = format!("978-0-{:02}", s % 20);
        let origin = trie.random_origin(s as u64);
        let reply = dist
            .query(&client, origin, prefix.clone())
            .expect("runtime alive");
        let sim = trie.prefix_search(origin, &prefix);
        assert_eq!(reply.answer.matches, sim.matches);
        assert_eq!(u64::from(reply.hops), sim.messages, "hop parity");
        answered += 1;
    }
    println!(
        "  {} prefix queries answered identically to the simulator; {} total messages",
        answered,
        dist.traffic().total_sent()
    );

    // Live updates on the multi-dimensional webs go through the same
    // engine: insert a new ISBN, query it, then retire it.
    let upd = dist
        .insert(&client, "978-0-99-00000".to_string())
        .expect("runtime alive");
    println!(
        "  live trie insert applied = {} in {} hops",
        upd.applied, upd.hops
    );
    let reply = dist
        .query(&client, 0, "978-0-99".to_string())
        .expect("runtime alive");
    assert_eq!(reply.answer.matches, vec!["978-0-99-00000".to_string()]);
    assert!(
        dist.remove(&client, "978-0-99-00000".to_string())
            .expect("runtime alive")
            .applied
    );
    dist.shutdown();
    println!("all hosts stopped and workers joined cleanly");
}
