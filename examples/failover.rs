//! Failover: a replicated skip-web survives a host crash without losing
//! availability, gracefully decommissions a host, grows onto a fresh one,
//! and heals around the tombstone — all while answering queries.
//!
//! Run with: `cargo run --example failover`

use std::time::Duration;

use skipwebs::core::engine::{DistributedSkipWeb, Timeouts};
use skipwebs::core::onedim::OneDimSkipWeb;
use skipwebs::net::HostId;

fn main() {
    // Every range placed on k = 2 hosts: any single crash is survivable.
    let web = OneDimSkipWeb::builder((0..200u64).map(|i| i * 10).collect())
        .seed(9)
        .replicate(2)
        .build();
    let dist = DistributedSkipWeb::builder(web.inner())
        .consolidated(10)
        .spawn();
    let client = dist.client();
    client.set_timeouts(Timeouts::uniform(Duration::from_secs(3))); // fail fast, not hang
    println!(
        "serving n = {} on {} hosts, {}",
        web.len(),
        dist.hosts(),
        dist.health()
    );

    let check = |label: &str| {
        let c = dist.client();
        c.set_timeouts(Timeouts::uniform(Duration::from_secs(3)));
        let mut ok = 0;
        for s in 0..50u64 {
            let q = (s * 397) % 2_100;
            if dist.query(&c, web.random_origin(s), q).is_ok() {
                ok += 1;
            }
        }
        println!("{label}: {ok}/50 queries answered — {}", dist.health());
        ok
    };

    assert_eq!(check("healthy fabric"), 50);

    // Crash a host. Routing steers every hop to the surviving replica.
    dist.kill_host(HostId(3));
    assert_eq!(check("after killing host#3 (k = 2)"), 50);

    // Gracefully retire another host: its blocks re-home first, then it
    // drains, so nothing is ever lost.
    dist.decommission(HostId(7)).expect("host#7 was alive");
    assert_eq!(check("after decommissioning host#7"), 50);

    // Grow the fabric: a new host joins live and takes over blocks.
    let new = dist.spawn_host();
    assert_eq!(check(&format!("after spawning {new}")), 50);

    // Heal: re-home permanently around the crashed host.
    dist.heal();
    assert_eq!(check("after heal"), 50);

    let dropped = dist.traffic().total_dropped();
    println!("messages lost at the crashed host: {dropped}");
    dist.shutdown();
    println!("all hosts stopped and workers joined cleanly");
}
