//! Churn: keys join and leave a live 1-D skip-web (§4's updates). The same
//! burst is applied twice — once in the cost-model simulator, once routed
//! through real actors (one per host, run by a core-sized worker pool,
//! crossbeam channels as the network) — and the two must agree key for key, while concurrent queries
//! keep getting consistent answers throughout.
//!
//! Run with: `cargo run --example churn`

use skipwebs::core::engine::DistributedSkipWeb;
use skipwebs::core::onedim::OneDimSkipWeb;

fn main() {
    let mut web = OneDimSkipWeb::builder((0..300u64).map(|i| i * 20).collect())
        .seed(3)
        .build();
    println!("initial web: n = {}, hosts = {}", web.len(), web.hosts());

    // Serve the structure BEFORE the churn: the joins and departures below
    // are routed through the live network while it keeps answering queries.
    let dist = DistributedSkipWeb::builder(web.inner())
        .consolidated(web.hosts() + 60)
        .spawn();
    println!("spawned {} hosts", dist.hosts());
    let writer = dist.client();

    // A churn burst: 60 joins and 30 departures, applied to the simulator
    // and to the live network alike.
    let mut join_costs = Vec::new();
    let mut leave_costs = Vec::new();
    let mut live_join_hops = Vec::new();
    let mut live_leave_hops = Vec::new();
    for i in 0..60u64 {
        let key = i * 97 + 7;
        if let Some(c) = web.insert(key) {
            join_costs.push(c);
        }
        let live = dist.insert(&writer, key).expect("runtime alive");
        if live.applied {
            live_join_hops.push(u64::from(live.hops));
        }
    }
    for i in 0..30u64 {
        let key = i * 20;
        if let Some(c) = web.remove(&key) {
            leave_costs.push(c);
        }
        let live = dist.remove(&writer, key).expect("runtime alive");
        if live.applied {
            live_leave_hops.push(u64::from(live.hops));
        }
    }
    let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
    println!(
        "simulated churn: {} joins (mean {:.1} msgs), {} departures (mean {:.1} msgs), n = {}",
        join_costs.len(),
        mean(&join_costs),
        leave_costs.len(),
        mean(&leave_costs),
        web.len()
    );
    println!(
        "live churn:      {} joins (mean {:.1} hops), {} departures (mean {:.1} hops)",
        live_join_hops.len(),
        mean(&live_join_hops),
        live_leave_hops.len(),
        mean(&live_leave_hops),
    );

    // The live network converged to the simulator's ground set.
    assert_eq!(dist.keys(), web.keys().to_vec());

    // Post-churn queries answered by real message passing, verified against
    // the simulator.
    let clients: Vec<_> = (0..4).map(|_| dist.client()).collect();
    let queries: Vec<u64> = (0..40).map(|i| i * 157 + 3).collect();
    let mut answered = 0;
    for (i, &q) in queries.iter().enumerate() {
        let client = &clients[i % clients.len()];
        let origin = web.random_origin(i as u64);
        let got = dist
            .nearest(client, origin, q)
            .expect("runtime alive")
            .expect("nonempty web");
        let sim = web.nearest(origin, q).answer.nearest;
        assert_eq!(got, sim, "distributed answer must match the simulator");
        answered += 1;
    }
    let traffic = dist.traffic();
    println!(
        "{} concurrent queries answered identically to the simulator; \
         {} total messages ({} from updates)",
        answered,
        dist.traffic().total_sent(),
        traffic.total_update_sent()
    );
    dist.shutdown();
    println!("all hosts stopped and workers joined cleanly");
}
