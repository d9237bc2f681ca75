//! Quickstart: build a one-dimensional skip-web over a simulated
//! peer-to-peer network, run nearest-neighbour queries, apply updates —
//! first in the cost-model simulator, then live over actors — and
//! inspect the paper's cost measures (messages, per-host memory,
//! congestion).
//!
//! Run with: `cargo run --example quickstart`

use skipwebs::core::engine::DistributedSkipWeb;
use skipwebs::core::onedim::OneDimSkipWeb;

fn main() {
    // 1 000 keys, one host per key (the paper's H = n regime).
    let keys: Vec<u64> = (0..1000).map(|i| i * 97).collect();
    let mut web = OneDimSkipWeb::builder(keys).seed(2005).build();
    println!(
        "built a skip-web: n = {}, hosts = {}, levels = {}",
        web.len(),
        web.hosts(),
        web.inner().top_level() + 1
    );

    // Nearest-neighbour queries from random hosts.
    for q in [12_345u64, 0, 96_999, 777] {
        let out = web.nearest(web.random_origin(q), q);
        println!(
            "nearest({q:>6}) = {:>6}   [{} messages, locus {}]",
            out.answer.nearest, out.messages, out.answer.locus
        );
    }

    // Dynamic updates (§4): messages stay logarithmic.
    let ins = web.insert(50_000).expect("new key");
    let del = web.remove(&50_000).expect("present");
    println!("insert cost = {ins} messages, remove cost = {del} messages");

    // The same updates, live: serve the web with one actor per host and
    // route inserts/removes through real message passing. An update
    // descends to its key's locus like a query, then repairs the conflict
    // neighbourhoods bottom-up; concurrent queries never observe it
    // half-applied.
    let dist = DistributedSkipWeb::builder(web.inner())
        .consolidated(web.hosts() + 8)
        .spawn();
    let client = dist.client();
    let live = dist.insert(&client, 50_001).expect("runtime alive");
    println!(
        "live insert applied = {} in {} remote hops",
        live.applied, live.hops
    );
    let nearest = dist.nearest(&client, 0, 50_000).expect("runtime alive");
    assert_eq!(nearest, Some(50_001));
    assert!(dist.remove(&client, 50_001).expect("runtime alive").applied);
    println!(
        "live traffic: {} total messages, {} from updates",
        dist.traffic().total_sent(),
        dist.traffic().total_update_sent()
    );
    dist.shutdown();

    // The §1.1 cost measures for the built structure.
    let net = web.network();
    println!(
        "per-host memory: max = {}, mean = {:.1}; congestion C(n) = {:.1}",
        net.max_memory(),
        net.mean_memory(),
        net.max_congestion()
    );

    // The bucketed variant (§2.4.1): fewer hosts, fewer messages.
    let bucket = OneDimSkipWeb::builder((0..1000).map(|i| i * 97).collect())
        .seed(2005)
        .bucketed(64)
        .build();
    let out = bucket.nearest(bucket.random_origin(1), 12_345);
    println!(
        "bucketed (M = 64): hosts = {}, nearest(12345) = {} in {} messages",
        bucket.hosts(),
        out.answer.nearest,
        out.messages
    );
}
