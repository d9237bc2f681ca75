//! Golden placement: which hosts store every range, and what that placement
//! costs, on fixed seeds. For the list, the quadtree and the trie, each
//! owner-hosted and bucketed (M = 24 and 48) at k = 1, 2 and 3, a digest of
//! `hosts()`, `host_of_item` of every item, the storage the accounting
//! charges every host (each primary and replica copy), the messages of a
//! fixed query set and of a few metered updates — taken after the build,
//! after one insert batch and after one remove batch — is held to a
//! recorded value, so any change to where a range lives, or to its replica
//! order, shows up here. Only the public API is used, so the test outlives
//! any change to how placement is stored.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use skipwebs::core::engine::Routable;
use skipwebs::core::web::Web;
use skipwebs::net::{HostId, MessageMeter};
use skipwebs::structures::{CompressedQuadtree, CompressedTrie, PointKey, SortedLinkedList};

/// 64-bit FNV-1a, stable across toolchains (unlike `DefaultHasher`).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, line: &str) {
        for b in line.bytes().chain([b'\n']) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Everything placement decides about `web`, as text lines.
fn digest_state<D: Routable + Send + Sync + 'static>(
    web: &Web<D>,
    probes: &[D::Item],
    out: &mut Fnv,
) {
    let inner = web.inner();
    out.write(&format!("hosts {} items {}", web.hosts(), web.len()));
    let homes: Vec<u32> = (0..web.len()).map(|i| inner.host_of_item(i).0).collect();
    out.write(&format!("homes {homes:?}"));
    let net = web.network();
    let storage: Vec<u64> = (0..web.hosts() as u32)
        .map(|h| net.storage(HostId(h)))
        .collect();
    out.write(&format!("storage {storage:?}"));
    for (s, probe) in (0u64..).zip(probes) {
        let mut meter = MessageMeter::new();
        let o = inner.query(web.random_origin(s), &D::item_query(probe), &mut meter);
        out.write(&format!(
            "query {s}: {} msgs {} touches {:?} trail {:?}",
            o.locus,
            o.messages,
            o.per_level_touches,
            meter.trail()
        ));
    }
}

/// Builds one web, digests it, applies one insert batch and one remove
/// batch and a few metered single updates, digesting after each step.
fn digest<D: Routable + Send + Sync + 'static>(
    items: Vec<D::Item>,
    fresh: Vec<D::Item>,
    memory: Option<usize>,
    k: usize,
) -> u64 {
    let builder = Web::<D>::builder(items).seed(11).replicate(k);
    let mut web = match memory {
        Some(m) => builder.bucketed(m),
        None => builder,
    }
    .build();
    let mut out = Fnv::new();
    let stored = web.inner().ground().to_vec();
    let probes: Vec<D::Item> = stored.iter().step_by(29).chain(&fresh).cloned().collect();
    digest_state(&web, &probes, &mut out);

    let tower = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED;
    let (batch, single) = fresh.split_at(fresh.len() - 3);
    let inserts = (0u64..).zip(batch).map(|(i, x)| (x.clone(), tower(i)));
    let applied = web.inner_mut().apply_insert_batch(inserts.collect());
    out.write(&format!("insert batch {applied:?}"));
    digest_state(&web, &probes, &mut out);

    let removes: Vec<D::Item> = stored.iter().skip(5).step_by(23).cloned().collect();
    let applied = web.inner_mut().apply_remove_batch(&removes);
    out.write(&format!("remove batch {applied:?}"));
    digest_state(&web, &probes, &mut out);

    for (i, item) in (100u64..).zip(single) {
        let mut meter = MessageMeter::new();
        let origin = Some(web.random_origin(i));
        let applied = web
            .inner_mut()
            .insert_with(origin, item.clone(), tower(i), &mut meter);
        out.write(&format!("insert {applied} trail {:?}", meter.trail()));
    }
    for (i, item) in (200u64..).zip(stored.iter().skip(2).step_by(67)) {
        let mut meter = MessageMeter::new();
        let origin = Some(web.random_origin(i));
        let applied = web.inner_mut().remove_with(origin, item, &mut meter);
        out.write(&format!("remove {applied} trail {:?}", meter.trail()));
    }
    digest_state(&web, &probes, &mut out);
    out.0
}

fn list_items() -> (Vec<u64>, Vec<u64>) {
    let items = (0..200).map(|i| i * 10).collect();
    let fresh = (0..15).map(|i| i * 149 + 3).collect();
    (items, fresh)
}

fn quadtree_items() -> (Vec<PointKey<2>>, Vec<PointKey<2>>) {
    let mut rng = StdRng::seed_from_u64(3);
    let mut point = || PointKey::new([rng.gen::<u32>(), rng.gen::<u32>()]);
    let items = (0..200).map(|_| point()).collect();
    let fresh = (0..15).map(|_| point()).collect();
    (items, fresh)
}

fn trie_items() -> (Vec<String>, Vec<String>) {
    let isbn = |i: u32| format!("978{:04}{:05}", i.wrapping_mul(7919) % 89, i * 37 % 10007);
    let items = (0..90).map(isbn).collect();
    let fresh = (0..9).map(|i| format!("979{:04}x", i * 13)).collect();
    (items, fresh)
}

/// `None` for owner-hosted placement, else the bucketed per-host memory.
const PLACEMENTS: [Option<usize>; 3] = [None, Some(24), Some(48)];

/// Digests in order: list, quadtree, trie; owner-hosted, M = 24, M = 48;
/// k = 1, 2, 3.
const GOLDEN: [u64; 27] = [
    0xae5df3528c0e669c, // list None k = 1
    0xdcab68c53924b559, // list None k = 2
    0xb59a008a18980940, // list None k = 3
    0xd6475e737fe3d765, // list Some(24) k = 1
    0x77c488c55419b674, // list Some(24) k = 2
    0xf1bff292b60f69d9, // list Some(24) k = 3
    0xda3691bc01dd3a8a, // list Some(48) k = 1
    0xe53a33eba7af9fb2, // list Some(48) k = 2
    0x217f656a378cdc8d, // list Some(48) k = 3
    0x366dd7e81abeb558, // quadtree None k = 1
    0x79dbbc6adb6e6d48, // quadtree None k = 2
    0xa99e82b343fcbcfe, // quadtree None k = 3
    0x1859f8eabbb80414, // quadtree Some(24) k = 1
    0xb79fe7d16d3f3659, // quadtree Some(24) k = 2
    0xbbe2cd363ed2a08e, // quadtree Some(24) k = 3
    0x47776176274eb5bb, // quadtree Some(48) k = 1
    0x35f2ac3779d2b58e, // quadtree Some(48) k = 2
    0xab0eb96ccd2e41c4, // quadtree Some(48) k = 3
    0x235534b7279aaad5, // trie None k = 1
    0x60521d69bd6d6f39, // trie None k = 2
    0xc8f53432d555ee7b, // trie None k = 3
    0x3911ee5518e6d512, // trie Some(24) k = 1
    0xb2c655a4ef2aff91, // trie Some(24) k = 2
    0xaea7816832fda93a, // trie Some(24) k = 3
    0x0f58ff773428dc00, // trie Some(48) k = 1
    0x225c36a75257e302, // trie Some(48) k = 2
    0x0f2973a48d5d5a06, // trie Some(48) k = 3
];

#[test]
fn placement_matches_the_golden_digests() {
    let mut got = Vec::new();
    let mut each = |name: &str, f: &dyn Fn(Option<usize>, usize) -> u64| {
        for memory in PLACEMENTS {
            for k in 1..=3 {
                got.push((format!("{name} {memory:?} k = {k}"), f(memory, k)));
            }
        }
    };
    each("list", &|m, k| {
        let (items, fresh) = list_items();
        digest::<SortedLinkedList>(items, fresh, m, k)
    });
    each("quadtree", &|m, k| {
        let (items, fresh) = quadtree_items();
        digest::<CompressedQuadtree<2>>(items, fresh, m, k)
    });
    each("trie", &|m, k| {
        let (items, fresh) = trie_items();
        digest::<CompressedTrie>(items, fresh, m, k)
    });
    let report: Vec<String> = got
        .iter()
        .map(|(name, d)| format!("    {d:#018x}, // {name}"))
        .collect();
    let digests: Vec<u64> = got.iter().map(|(_, d)| *d).collect();
    assert_eq!(digests, GOLDEN, "digests now:\n{}", report.join("\n"));
}

/// The digest sees placement: the same items and towers blocked under
/// another memory budget hash differently.
#[test]
fn the_digest_sees_placement() {
    let (items, fresh) = list_items();
    let a = digest::<SortedLinkedList>(items.clone(), fresh.clone(), Some(24), 2);
    let b = digest::<SortedLinkedList>(items, fresh, Some(48), 2);
    assert_ne!(a, b);
}
