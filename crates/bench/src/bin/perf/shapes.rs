//! The three structures the fabric workloads run over, each with its seeded
//! inputs and its sequential model.

use std::collections::BTreeSet;

use skipweb_core::engine::Routable;
use skipweb_core::multidim::{
    PrefixAnswer, QuadtreeAnswer, QuadtreeRequest, QuadtreeSkipWeb, TrieSkipWeb,
};
use skipweb_core::skipweb::SkipWeb;
use skipweb_structures::{CompressedQuadtree, CompressedTrie, PointKey, SortedLinkedList};

use crate::fabric::{ChurnWindow, Mix, Shape};
use crate::gen::{self, HotRange, Rng};
use crate::store::KvInputs;

const READ_ONLY: Mix = Mix {
    read: 100,
    insert: 0,
};
/// Half reads, a quarter inserts, a quarter removes.
const HALF_WRITES: Mix = Mix {
    read: 50,
    insert: 25,
};

/// The three workloads over 1-D keys, as [`OneDim`]'s parameter.
pub const READ: u8 = 0;
pub const CHURN: u8 = 1;
pub const KV: u8 = 2;

/// 1-D nearest-key search over even keys, for three workloads: [`READ`] is
/// `onedim_read` (n = 16 384, uniform targets, reads only); [`CHURN`] is
/// `onedim_churn` (n = 3072, half the ops insert fresh odd keys or remove
/// them again — 3072 sits between two powers of two, so churn never adds
/// or drops a level); [`KV`] is the web under `store_kv` (the store's own
/// keys and Zipf targets), which the traced run probes layer by layer.
pub struct OneDim<const KIND: u8> {
    keys: Vec<u64>,
    pool: Vec<u64>,
}

impl<const KIND: u8> Shape for OneDim<KIND> {
    type D = SortedLinkedList;

    fn new(seed: u64, shrink: usize) -> Self {
        if KIND == KV {
            let kv = KvInputs::new(seed, shrink);
            let mut rng = Rng::stream(seed, "kv-pool");
            let pool = (0..4096).map(|_| kv.hot_key(&mut rng)).collect();
            return OneDim {
                keys: kv.keys,
                pool,
            };
        }
        let n = if KIND == CHURN { 3072 } else { 16_384 } / shrink;
        let pool = if KIND == CHURN { 4096 } else { n };
        let mut rng = Rng::stream(seed, "onedim");
        OneDim {
            keys: gen::even_keys(n, &mut rng),
            pool: (0..pool).map(|_| rng.below(gen::KEY_SPACE)).collect(),
        }
    }

    fn mix(&self) -> Mix {
        if KIND == CHURN {
            HALF_WRITES
        } else {
            READ_ONLY
        }
    }

    fn items(&self) -> Vec<u64> {
        self.keys.clone()
    }

    fn pool(&self) -> &[u64] {
        &self.pool
    }

    /// An odd key: random high bits, the serial number below them.
    fn fresh(&self, rng: &mut Rng, serial: u64) -> u64 {
        (((rng.below(1 << 19) << 20) | (serial & 0xf_ffff)) << 1) | 1
    }

    fn model(&self, _web: &SkipWeb<SortedLinkedList>) -> Vec<Option<u64>> {
        let set: BTreeSet<u64> = self.keys.iter().copied().collect();
        self.pool
            .iter()
            .map(|&q| {
                let below = set.range(..=q).next_back().copied();
                let above = set.range(q..).next().copied();
                match (below, above) {
                    (Some(b), Some(a)) => Some(if q - b <= a - q { b } else { a }),
                    (b, a) => b.or(a),
                }
            })
            .collect()
    }

    fn check(
        &self,
        req: &u64,
        expected: &Option<u64>,
        got: &Option<u64>,
        churn: &ChurnWindow<'_, u64>,
    ) -> bool {
        let (Some(e), Some(k)) = (*expected, *got) else {
            return false;
        };
        let dist = |x: u64| x.abs_diff(*req);
        let stored = self.keys.binary_search(&k).is_ok() || churn.possible().any(|&c| c == k);
        stored && dist(k) <= dist(e) && churn.definite().all(|&c| dist(k) <= dist(c))
    }

    fn target_item(req: &u64) -> u64 {
        *req
    }
}

/// Share of quadtree reads that report a box instead of locating a point.
const BOX_SHARE: f64 = 0.15;
/// Half the side of a reported box: boxes are 2^27 wide, 1/1024 of the
/// plane's area, so about 16 of 16 384 uniform points fall in one.
const BOX_HALF: u32 = 1 << 26;

/// `quadtree_read`: point location and box reports over uniform points,
/// with hot-range targets. Stored points have even x, so a probe's fresh
/// point (odd x) is never a stored one.
pub struct Quadtree {
    points: Vec<PointKey<2>>,
    pool: Vec<QuadtreeRequest<2>>,
}

impl Shape for Quadtree {
    type D = CompressedQuadtree<2>;

    fn new(seed: u64, shrink: usize) -> Self {
        let mut rng = Rng::stream(seed, "quadtree");
        let points = gen::uniform_points(16_384 / shrink, &mut rng)
            .into_iter()
            .map(|[x, y]| [x & !1, y])
            .collect::<BTreeSet<_>>()
            .into_iter()
            .map(PointKey::new)
            .collect();
        let hot = HotRange::new(&mut rng);
        let pool = (0..4096)
            .map(|_| {
                let p = hot.draw(&mut rng);
                if rng.unit() < BOX_SHARE {
                    QuadtreeRequest::InBox {
                        lo: p.map(|c| c.saturating_sub(BOX_HALF)),
                        hi: p.map(|c| c.saturating_add(BOX_HALF)),
                    }
                } else {
                    QuadtreeRequest::Locate(PointKey::new(p))
                }
            })
            .collect();
        Quadtree { points, pool }
    }

    fn mix(&self) -> Mix {
        READ_ONLY
    }

    fn items(&self) -> Vec<PointKey<2>> {
        self.points.clone()
    }

    fn pool(&self) -> &[QuadtreeRequest<2>] {
        &self.pool
    }

    fn fresh(&self, rng: &mut Rng, serial: u64) -> PointKey<2> {
        let x = (rng.next_u64() as u32 & !0x1f_ffff) | ((serial as u32 & 0xf_ffff) << 1) | 1;
        PointKey::new([x, rng.next_u64() as u32])
    }

    fn model(&self, web: &SkipWeb<Self::D>) -> Vec<QuadtreeAnswer<2>> {
        let sim = QuadtreeSkipWeb::from_web(web.clone());
        self.pool
            .iter()
            .map(|req| match *req {
                QuadtreeRequest::Locate(p) => {
                    let out = sim.locate_point(0, p);
                    QuadtreeAnswer::Located {
                        cell: out.cell,
                        approx_nearest: out.approx_nearest,
                    }
                }
                QuadtreeRequest::InBox { lo, hi } => {
                    QuadtreeAnswer::Points(sim.points_in_box(0, lo, hi).points)
                }
            })
            .collect()
    }

    fn check(
        &self,
        _req: &QuadtreeRequest<2>,
        expected: &QuadtreeAnswer<2>,
        got: &QuadtreeAnswer<2>,
        _churn: &ChurnWindow<'_, PointKey<2>>,
    ) -> bool {
        expected == got
    }

    fn target_item(req: &QuadtreeRequest<2>) -> PointKey<2> {
        CompressedQuadtree::<2>::target(req)
    }

    fn reports(req: &QuadtreeRequest<2>) -> bool {
        matches!(req, QuadtreeRequest::InBox { .. })
    }
}

/// Publisher blocks of the ISBN-like strings: with 768 strings over 48
/// blocks a six-character prefix matches about 16 of them.
const PUBLISHERS: u64 = 48;

/// `trie_churn`: prefix search over ISBN-like strings while half the ops
/// insert and remove strings that share those prefixes.
pub struct Trie {
    strings: Vec<String>,
    pool: Vec<String>,
}

impl Shape for Trie {
    type D = CompressedTrie;

    fn new(seed: u64, shrink: usize) -> Self {
        let mut rng = Rng::stream(seed, "trie");
        let strings = gen::isbn_strings(768 / shrink, PUBLISHERS, &mut rng);
        let pool = (0..1024)
            .map(|_| {
                // Nine in ten prefixes are on the trie (the publisher block
                // or a few title digits of a stored string); the rest run
                // off it somewhere.
                let whole = if rng.below(10) < 9 {
                    strings[rng.index(strings.len())].clone()
                } else {
                    gen::isbn(&mut rng, 1000, "")
                };
                whole[..6 + rng.index(5)].to_string()
            })
            .collect();
        Trie { strings, pool }
    }

    fn mix(&self) -> Mix {
        HALF_WRITES
    }

    fn items(&self) -> Vec<String> {
        self.strings.clone()
    }

    fn pool(&self) -> &[String] {
        &self.pool
    }

    fn fresh(&self, rng: &mut Rng, serial: u64) -> String {
        gen::isbn(rng, PUBLISHERS, &format!("-{serial}"))
    }

    fn model(&self, web: &SkipWeb<CompressedTrie>) -> Vec<PrefixAnswer> {
        let sim = TrieSkipWeb::from_web(web.clone());
        self.pool
            .iter()
            .map(|prefix| {
                let out = sim.prefix_search(0, prefix);
                PrefixAnswer {
                    matched_len: out.matched_len,
                    matches: out.matches,
                }
            })
            .collect()
    }

    /// The answer must be the model's answer over the stored strings plus
    /// some set of churn strings between "certainly live" and "possibly
    /// live": the matched length lies between the two sets' lengths, and
    /// the matches hold every certain one and nothing unexplained.
    fn check(
        &self,
        req: &String,
        expected: &PrefixAnswer,
        got: &PrefixAnswer,
        churn: &ChurnWindow<'_, String>,
    ) -> bool {
        let common = |s: &String| {
            s.bytes()
                .zip(req.bytes())
                .take_while(|(a, b)| a == b)
                .count()
        };
        let reach = |extra: &mut dyn Iterator<Item = &String>| {
            extra.map(common).fold(expected.matched_len, usize::max)
        };
        if got.matched_len < reach(&mut churn.definite())
            || got.matched_len > reach(&mut churn.possible())
        {
            return false;
        }
        if got.matched_len < req.len() {
            return got.matches.is_empty();
        }
        let sorted = got.matches.windows(2).all(|w| w[0] < w[1]);
        let explained = got.matches.iter().all(|m| {
            m.starts_with(req.as_str())
                && (expected.matches.binary_search(m).is_ok() || churn.possible().any(|c| c == m))
        });
        let complete = expected
            .matches
            .iter()
            .chain(churn.definite().filter(|c| c.starts_with(req.as_str())))
            .all(|m| got.matches.binary_search(m).is_ok());
        sorted && explained && complete
    }

    fn target_item(req: &String) -> String {
        req.clone()
    }
}
