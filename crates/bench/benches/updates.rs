//! Criterion bench for §4: insert/remove wall time on the 1-D skip-web and
//! the skip graph baseline, plus the distributed engine under mixed
//! read/write workloads at {1, 4, 16} hosts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use skipweb_baselines::{OrderedDictionary, SkipGraph};
use skipweb_bench::workloads;
use skipweb_core::engine::DistributedSkipWeb;
use skipweb_core::onedim::OneDimSkipWeb;
use skipweb_net::MessageMeter;

fn bench_updates(c: &mut Criterion) {
    let mut group = c.benchmark_group("sec4_updates");
    group.sample_size(10);
    let n = 1024;
    let keys: Vec<u64> = workloads::uniform_keys(n, 19)
        .iter()
        .map(|k| k * 2)
        .collect();

    group.bench_function(BenchmarkId::new("skipweb_insert_remove", n), |b| {
        let mut web = OneDimSkipWeb::builder(keys.clone()).seed(19).build();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let key = (i * 7919) | 1;
            web.insert(key);
            web.remove(&key);
        });
    });

    group.bench_function(BenchmarkId::new("skipgraph_insert_remove", n), |b| {
        let mut g = SkipGraph::new(keys.clone(), 19);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let key = (i * 7919) | 1;
            let mut meter = MessageMeter::new();
            g.insert(key, &mut meter);
            g.remove(key, &mut meter);
        });
    });

    group.finish();
}

/// Live updates over the actor runtime: one op per iteration drawn from a
/// mixed read/write stream (90/10 and 50/50), across deployment sizes. The
/// write half alternates inserting a fresh key and removing it again, so
/// the structure size stays bounded while every write pays a real §4
/// route-and-repair.
fn bench_distributed_updates(c: &mut Criterion) {
    let mut group = c.benchmark_group("distributed_updates");
    group.sample_size(10);
    let n = 256usize;
    let keys: Vec<u64> = workloads::uniform_keys(n, 23)
        .iter()
        .map(|k| k * 2)
        .collect();
    let web = OneDimSkipWeb::builder(keys).seed(23).build();
    for hosts in [1usize, 4, 16] {
        for (mix, write_pct) in [("mix90_10", 10u64), ("mix50_50", 50u64)] {
            let dist = DistributedSkipWeb::builder(web.inner())
                .consolidated(hosts)
                .spawn();
            let client = dist.client();
            group.bench_function(BenchmarkId::new(format!("onedim_{mix}"), hosts), |b| {
                let mut i = 0u64;
                b.iter(|| {
                    i += 1;
                    if i % 100 < write_pct {
                        let key = ((i / 2) * 7919) | 1;
                        if i.is_multiple_of(2) {
                            dist.insert(&client, key).expect("runtime alive").applied
                        } else {
                            dist.remove(&client, key).expect("runtime alive").applied
                        }
                    } else {
                        let origin = (i as usize * 31) % dist.len();
                        dist.query(&client, origin, (i * 997) % 6000)
                            .expect("runtime alive")
                            .answer
                            .is_some()
                    }
                });
            });
            dist.shutdown();
        }
    }
    group.finish();
}

criterion_group!(benches, bench_updates, bench_distributed_updates);
criterion_main!(benches);
