//! Integration: the threaded actor runtime (real concurrent message
//! passing) delivers exactly the simulator's answers, for both placements,
//! including after churn.

use std::time::Duration;

use skipwebs::core::onedim::OneDimSkipWeb;

#[test]
fn runtime_agrees_with_simulator_owner_hosted() {
    let web = OneDimSkipWeb::builder((0..400u64).map(|i| i * 13 + 5).collect())
        .seed(31)
        .build();
    let dist = web.serve();
    let client = dist.client();
    for s in 0..80u64 {
        let q = (s * 211) % 6000;
        let origin = web.random_origin(s);
        let sim = web.nearest(origin, q).answer.nearest;
        let got = dist.nearest(&client, origin, q).unwrap().unwrap();
        assert_eq!(got, sim, "q={q}");
    }
    dist.shutdown();
}

#[test]
fn runtime_agrees_with_simulator_bucketed() {
    let web = OneDimSkipWeb::builder((0..500u64).map(|i| i * 9).collect())
        .seed(32)
        .bucketed(40)
        .build();
    let dist = web.serve();
    let client = dist.client();
    for s in 0..60u64 {
        let q = (s * 389) % 5000;
        let origin = web.random_origin(s);
        let sim = web.nearest(origin, q).answer.nearest;
        let got = dist.nearest(&client, origin, q).unwrap().unwrap();
        assert_eq!(got, sim, "bucketed q={q}");
    }
    dist.shutdown();
}

#[test]
fn runtime_serves_post_churn_structures() {
    let mut web = OneDimSkipWeb::builder((0..200u64).map(|i| i * 10).collect())
        .seed(33)
        .build();
    for i in 0..50u64 {
        web.insert(i * 37 + 3);
    }
    for i in 0..20u64 {
        web.remove(&(i * 10));
    }
    let dist = web.serve();
    let client = dist.client();
    for s in 0..50u64 {
        let q = (s * 167) % 3000;
        let origin = web.random_origin(s);
        let sim = web.nearest(origin, q).answer.nearest;
        let got = dist.nearest(&client, origin, q).unwrap().unwrap();
        assert_eq!(got, sim, "post-churn q={q}");
    }
    dist.shutdown();
}

#[test]
fn many_concurrent_clients_fan_out() {
    let web = OneDimSkipWeb::builder((0..300u64).map(|i| i * 8 + 1).collect())
        .seed(34)
        .build();
    let dist = web.serve();
    let clients: Vec<_> = (0..8).map(|_| dist.client()).collect();
    // All clients query concurrently from scoped threads.
    std::thread::scope(|scope| {
        for (i, client) in clients.iter().enumerate() {
            let web = &web;
            let dist = &dist;
            scope.spawn(move || {
                for round in 0..10u64 {
                    let q = (i as u64 * 401 + round * 97) % 2400;
                    let origin = web.random_origin(i as u64 + round);
                    let want = web.nearest(origin, q).answer.nearest;
                    let got = dist
                        .nearest(client, origin, q)
                        .expect("runtime alive")
                        .expect("nonempty");
                    assert_eq!(got, want, "client {i} round {round}");
                }
            });
        }
    });
    assert!(dist.traffic().total_sent() > 0);
    dist.shutdown();
}

#[test]
fn runtime_message_counts_stay_logarithmic() {
    let n = 1024u64;
    let web = OneDimSkipWeb::builder((0..n).map(|i| i * 3).collect())
        .seed(35)
        .build();
    let dist = web.serve();
    let client = dist.client();
    let trials = 50u64;
    for s in 0..trials {
        dist.nearest(&client, web.random_origin(s), (s * 797) % 3200)
            .unwrap();
    }
    let per_query = dist.traffic().total_sent() as f64 / trials as f64;
    assert!(per_query < 45.0, "per-query messages {per_query} too high");
    dist.shutdown();
}

#[test]
fn client_timeout_surfaces_cleanly() {
    let web = OneDimSkipWeb::builder(vec![1, 2, 3]).seed(36).build();
    let dist = web.serve();
    let client = dist.client();
    // No query sent: the receive must time out, not hang.
    let err = client.recv_any(Duration::from_millis(20)).unwrap_err();
    assert_eq!(err, skipwebs::net::runtime::RuntimeError::Timeout);
    dist.shutdown();
}
