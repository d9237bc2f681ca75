//! A skip-web fabric over a faulty wide-area network: every host-to-host
//! and host-to-client crossing pays simulated latency, rolls seeded
//! jitter that can reorder frames in flight, and is dropped outright 5%
//! of the time. Clients see none of it — lost operations time out and
//! resubmit, and the engine's idempotence ledger keeps resubmitted
//! updates exactly-once — but the transport's frame accounting shows the
//! weather the fabric sailed through.
//!
//! Run with: `cargo run --release --example wan_faults`

use std::time::{Duration, Instant};

use skipwebs::core::engine::{DistributedSkipWeb, Timeouts};
use skipwebs::core::onedim::OneDimSkipWeb;
use skipwebs::net::wan::SimWanConfig;

fn main() {
    let keys: Vec<u64> = (0..2048).map(|i| i * 13 + 5).collect();
    let web = OneDimSkipWeb::builder(keys).seed(11).build();
    let wan = SimWanConfig {
        seed: 7,
        latency: Duration::from_micros(500),
        jitter: Duration::from_micros(1500),
        loss: 0.05,
    };
    let dist = DistributedSkipWeb::builder(web.inner())
        .consolidated(8)
        .wan(wan)
        .spawn();
    println!("skip-web on 8 hosts behind a simulated WAN: 500µs links, ±1.5ms jitter, 5% loss");

    // Short timeouts keep each lost frame cheap: a drop costs one timeout
    // and a resubmit, not a stalled client.
    let client = dist.client();
    client.set_timeouts(Timeouts::new(
        Duration::from_millis(150),
        Duration::from_millis(300),
    ));

    let started = Instant::now();
    let mut hits = 0;
    for q in 0..200u64 {
        let key = (q * 4099) % 30_000;
        let reply = dist
            .query(&client, web.random_origin(q), key)
            .expect("resubmits mask every drop");
        hits += usize::from(reply.answer.is_some());
    }
    println!(
        "200 nearest-neighbour queries in {:?} ({hits} hit a key at or below the probe)",
        started.elapsed()
    );

    // Updates survive the same weather: a resubmitted insert whose first
    // attempt already landed is echoed its recorded outcome, never
    // double-applied.
    let mut applied = 0;
    for i in 0..100u64 {
        let key = 100_001 + i * 7;
        let reply = dist
            .insert_with(&client, web.random_origin(i), key, i.wrapping_mul(0x9e37))
            .expect("resubmits mask every drop");
        applied += usize::from(reply.applied);
    }
    println!("100 inserts, {applied} applied (duplicates and replays excluded)");

    let stats = dist.traffic().transport;
    println!("transport weather: {stats}");
    assert_eq!(applied, 100, "all inserts were fresh keys");
    dist.shutdown();
}
