//! Experiment runners: one per table/figure/lemma/theorem of the paper.
//!
//! Each runner returns a [`Table`] (TSV-renderable); `EXPERIMENTS.md`
//! records the measured outputs next to the paper's claims.

use std::fmt;

use rand::rngs::StdRng;
use rand::SeedableRng;

use skipweb_baselines::{
    BucketSkipGraph, Chord, DeterministicSkipNet, FamilyTree, NonSkipGraph, OrderedDictionary,
    SkipGraph, SkipList,
};
use skipweb_core::multidim::{QuadtreeSkipWeb, TrapezoidSkipWeb, TrieSkipWeb};
use skipweb_core::onedim::OneDimSkipWeb;
use skipweb_net::sim::MessageMeter;
use skipweb_net::SeriesStats;
use skipweb_structures::properties::measure_halving;
use skipweb_structures::quadtree::CompressedQuadtree;
use skipweb_structures::trapezoid::TrapezoidalMap;
use skipweb_structures::trie::CompressedTrie;
use skipweb_structures::SortedLinkedList;

use crate::adapters::SkipWebDict;
use crate::workloads;

/// A rendered experiment result.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment title (paper artifact it reproduces).
    pub title: String,
    /// Column names.
    pub header: Vec<String>,
    /// Row cells, stringified.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    fn push(&mut self, row: Vec<String>) {
        debug_assert_eq!(row.len(), self.header.len());
        self.rows.push(row);
    }

    /// Renders the table in the `BENCH_*.json` artifact schema committed at
    /// the repo root and uploaded by the bench-report CI job.
    pub fn to_json(&self, experiment: &str) -> String {
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        fn arr(cells: &[String]) -> String {
            let quoted: Vec<String> = cells.iter().map(|c| format!("\"{}\"", esc(c))).collect();
            format!("[{}]", quoted.join(", "))
        }
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| format!("    {}", arr(r)))
            .collect();
        format!(
            "{{\n  \"experiment\": \"{}\",\n  \"title\": \"{}\",\n  \"header\": {},\n  \"rows\": [\n{}\n  ]\n}}\n",
            esc(experiment),
            esc(&self.title),
            arr(&self.header),
            rows.join(",\n")
        )
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# {}", self.title)?;
        writeln!(f, "{}", self.header.join("\t"))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join("\t"))?;
        }
        Ok(())
    }
}

fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// The per-method measurement batch shared by Table 1 and the sweeps:
/// `queries` nearest-neighbour queries plus `updates` insert/remove pairs.
fn measure_dict(
    dict: &mut dyn OrderedDictionary,
    queries: usize,
    updates: usize,
    seed: u64,
) -> (u64, f64, f64, SeriesStats, SeriesStats) {
    // `M` and the `n/H` congestion term are over the structure's own hosts;
    // updates that add hosts only add touch counters.
    let mut net = skipweb_net::SimNetwork::new(dict.hosts());
    dict.account(&mut net);
    let qs = workloads::query_keys(queries, seed);
    for (i, &q) in qs.iter().enumerate() {
        let mut meter = MessageMeter::new();
        let origin = dict.random_origin(seed ^ i as u64);
        let _ = dict.nearest(origin, q, &mut meter);
        net.absorb_query(&meter);
    }
    // Updates: insert odd keys (stored keys are even), then remove them.
    let fresh: Vec<u64> = workloads::query_keys(updates, seed ^ 0x5EED)
        .iter()
        .map(|k| k | 1)
        .collect();
    for &k in &fresh {
        let mut meter = MessageMeter::new();
        dict.insert(k, &mut meter);
        net.absorb_update(&meter);
    }
    for &k in &fresh {
        let mut meter = MessageMeter::new();
        dict.remove(k, &mut meter);
        net.absorb_update(&meter);
    }
    let report = net.metrics();
    (
        report.max_memory,
        report.mean_memory,
        report.max_congestion,
        report.query_messages,
        report.update_messages,
    )
}

/// **Table 1** — the seven-method cost comparison: `H`, `M`, `C(n)`,
/// `Q(n)`, `U(n)` for every row of the paper's table.
pub fn table1(sizes: &[usize], queries: usize, updates: usize, seed: u64) -> Table {
    let mut t = Table::new(
        "Table 1: 1-D nearest-neighbour structures (measured)",
        &[
            "method", "n", "H", "M_max", "M_mean", "C_max", "Q_mean", "Q_p95", "U_mean", "U_p95",
        ],
    );
    for &n in sizes {
        // Even keys so updates can use odd ones.
        let keys: Vec<u64> = workloads::uniform_keys(n, seed)
            .into_iter()
            .map(|k| k * 2)
            .collect();
        let log_n = (usize::BITS - n.leading_zeros()) as usize;
        let mut methods: Vec<Box<dyn OrderedDictionary>> = vec![
            Box::new(SkipGraph::new(keys.clone(), seed)),
            Box::new(NonSkipGraph::new(keys.clone(), seed)),
            Box::new(FamilyTree::new(keys.clone())),
            Box::new(DeterministicSkipNet::new(keys.clone())),
            Box::new(BucketSkipGraph::new(keys.clone(), (n / log_n).max(2), seed)),
            Box::new(SkipWebDict::owner_hosted(keys.clone(), seed)),
            Box::new(SkipWebDict::bucketed(keys.clone(), 4 * log_n, seed)),
        ];
        for dict in &mut methods {
            let (m_max, m_mean, c_max, q, u) = measure_dict(dict.as_mut(), queries, updates, seed);
            t.push(vec![
                dict.name().to_string(),
                n.to_string(),
                dict.hosts().to_string(),
                m_max.to_string(),
                f2(m_mean),
                f2(c_max),
                f2(q.mean),
                q.p95.to_string(),
                f2(u.mean),
                u.p95.to_string(),
            ]);
        }
    }
    t
}

/// **Figure 1** — the classic skip list: expected `O(log n)` search and
/// `O(n)` space, level populations halving.
pub fn fig1(sizes: &[usize], seed: u64) -> Table {
    let mut t = Table::new(
        "Figure 1: skip list search cost and space",
        &[
            "n",
            "levels",
            "total_nodes",
            "nodes_per_key",
            "steps_mean",
            "steps_p95",
        ],
    );
    for &n in sizes {
        let keys = workloads::uniform_keys(n, seed);
        let sl = SkipList::new(keys, seed);
        let qs = workloads::query_keys(400, seed);
        let steps: Vec<u64> = qs.iter().map(|&q| sl.nearest_counted(q).1).collect();
        let stats = SeriesStats::from_samples(&steps);
        t.push(vec![
            n.to_string(),
            sl.levels().to_string(),
            sl.total_nodes().to_string(),
            f2(sl.total_nodes() as f64 / n as f64),
            f2(stats.mean),
            stats.p95.to_string(),
        ]);
    }
    t
}

/// **Figure 2** — the 1-D skip-web hierarchy: halving levels, per-host
/// storage, and query messages for owner-hosted vs bucketed placement.
pub fn fig2(sizes: &[usize], seed: u64) -> Table {
    let mut t = Table::new(
        "Figure 2: one-dimensional skip-web structure",
        &[
            "n",
            "levels",
            "level1_split",
            "M_max_owner",
            "Q_owner_mean",
            "Q_bucket_mean",
            "per_level_touches",
            "H_bucket",
        ],
    );
    for &n in sizes {
        let keys = workloads::uniform_keys(n, seed);
        let log_n = (usize::BITS - n.leading_zeros()) as usize;
        let owner = OneDimSkipWeb::builder(keys.clone()).seed(seed).build();
        let bucket = OneDimSkipWeb::builder(keys)
            .seed(seed)
            .bucketed(4 * log_n)
            .build();
        let qs = workloads::query_keys(200, seed);
        let mut q_owner = Vec::new();
        let mut q_bucket = Vec::new();
        let mut touches = 0f64;
        let mut touch_count = 0f64;
        for (i, &q) in qs.iter().enumerate() {
            let o = owner.nearest(owner.random_origin(i as u64), q);
            touches += o.per_level_touches.iter().map(|&x| x as f64).sum::<f64>();
            touch_count += o.per_level_touches.len() as f64;
            q_owner.push(o.messages);
            q_bucket.push(bucket.nearest(bucket.random_origin(i as u64), q).messages);
        }
        let split = owner.inner().level_set_sizes(1);
        let split_str = if split.len() == 2 {
            format!("{}/{}", split[0], split[1])
        } else {
            format!("{split:?}")
        };
        t.push(vec![
            n.to_string(),
            (owner.inner().top_level() + 1).to_string(),
            split_str,
            owner.network().max_memory().to_string(),
            f2(SeriesStats::from_samples(&q_owner).mean),
            f2(SeriesStats::from_samples(&q_bucket).mean),
            f2(touches / touch_count),
            bucket.hosts().to_string(),
        ]);
    }
    t
}

/// **Figure 3 / Lemma 3** — quadtree set-halving: the conflict list of the
/// half-sample cell containing a random point stays `O(1)` as `n` grows,
/// and quadtree skip-web point location stays `O(log n)` messages.
pub fn fig3(sizes: &[usize], seed: u64) -> Table {
    let mut t = Table::new(
        "Figure 3: quadtree set-halving and point location",
        &[
            "n",
            "distribution",
            "conflicts_mean",
            "conflicts_max",
            "descent_walk_mean",
            "Q_messages_mean",
        ],
    );
    for &n in sizes {
        for (dist, pts) in [
            ("uniform", workloads::uniform_points(n, seed)),
            ("clustered", workloads::clustered_points(n, 16, seed)),
        ] {
            let queries = workloads::query_points(200, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let stats = measure_halving::<CompressedQuadtree<2>, _>(&pts, &queries, &mut rng);
            let web = QuadtreeSkipWeb::builder(pts).seed(seed).build();
            let msgs: Vec<u64> = queries
                .iter()
                .take(100)
                .enumerate()
                .map(|(i, q)| web.locate_point(web.random_origin(i as u64), *q).messages)
                .collect();
            t.push(vec![
                n.to_string(),
                dist.to_string(),
                f2(stats.mean_conflicts),
                stats.max_conflicts.to_string(),
                f2(stats.mean_descent_walk),
                f2(SeriesStats::from_samples(&msgs).mean),
            ]);
        }
    }
    t
}

/// **Figure 4 / Lemma 5** — trapezoidal maps: half-sample conflict lists
/// stay `O(1)` (the `1 + a + 2b + 3c` identity is property-tested), and
/// trapezoid skip-web point location stays `O(log n)` messages.
pub fn fig4(sizes: &[usize], seed: u64) -> Table {
    let mut t = Table::new(
        "Figure 4: trapezoidal-map set-halving and point location",
        &[
            "n",
            "trapezoids",
            "conflicts_mean",
            "conflicts_max",
            "Q_messages_mean",
            "Q_messages_p95",
        ],
    );
    for &n in sizes {
        let segments = workloads::disjoint_segments(n, seed);
        let queries = workloads::trapezoid_queries(n, 100, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let stats = measure_halving::<TrapezoidalMap, _>(&segments, &queries, &mut rng);
        let web = TrapezoidSkipWeb::builder(segments.clone())
            .seed(seed)
            .build();
        let msgs: Vec<u64> = queries
            .iter()
            .take(60)
            .enumerate()
            .map(|(i, q)| web.locate_point(web.random_origin(i as u64), *q).messages)
            .collect();
        use skipweb_structures::traits::RangeDetermined;
        let map = TrapezoidalMap::build(segments);
        let s = SeriesStats::from_samples(&msgs);
        t.push(vec![
            n.to_string(),
            map.num_trapezoids().to_string(),
            f2(stats.mean_conflicts),
            stats.max_conflicts.to_string(),
            f2(s.mean),
            s.p95.to_string(),
        ]);
    }
    t
}

/// **Lemma 1** — sorted-list set-halving: `E[|C(Q,S)|]` flat in `n`
/// (≤ 9 with closed intervals; the paper's `2k−1` form gives ≤ 7).
pub fn lemma1(sizes: &[usize], seed: u64) -> Table {
    let mut t = Table::new(
        "Lemma 1: 1-D set-halving conflict lists",
        &["n", "conflicts_mean", "conflicts_max", "descent_walk_mean"],
    );
    for &n in sizes {
        let keys = workloads::uniform_keys(n, seed);
        let queries = workloads::query_keys(500, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let stats = measure_halving::<SortedLinkedList, _>(&keys, &queries, &mut rng);
        t.push(vec![
            n.to_string(),
            f2(stats.mean_conflicts),
            stats.max_conflicts.to_string(),
            f2(stats.mean_descent_walk),
        ]);
    }
    t
}

/// **Lemma 4** — trie set-halving: conflict lists flat in `n` for fixed
/// alphabets.
pub fn lemma4(sizes: &[usize], seed: u64) -> Table {
    let mut t = Table::new(
        "Lemma 4: trie set-halving conflict lists",
        &[
            "n",
            "corpus",
            "conflicts_mean",
            "conflicts_max",
            "descent_walk_mean",
        ],
    );
    for &n in sizes {
        for (corpus, items) in [
            ("random", workloads::random_strings(n, seed)),
            ("isbn", workloads::isbn_strings(n, seed)),
        ] {
            let queries = workloads::query_strings(300, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let stats = measure_halving::<CompressedTrie, _>(&items, &queries, &mut rng);
            t.push(vec![
                n.to_string(),
                corpus.to_string(),
                f2(stats.mean_conflicts),
                stats.max_conflicts.to_string(),
                f2(stats.mean_descent_walk),
            ]);
        }
    }
    t
}

/// **Theorem 2** — skip-web query complexity across all four
/// instantiations: `O(log n)` generally, `O(log n / log log n)` for 1-D
/// bucketed, with `O(log n)` memory.
pub fn thm2(sizes: &[usize], trap_cap: usize, seed: u64) -> Table {
    let mut t = Table::new(
        "Theorem 2: skip-web query complexity by instantiation",
        &["structure", "n", "H", "Q_mean", "Q_p95", "M_max"],
    );
    for &n in sizes {
        // 1-D owner-hosted and bucketed.
        let keys = workloads::uniform_keys(n, seed);
        let log_n = (usize::BITS - n.leading_zeros()) as usize;
        let qs = workloads::query_keys(150, seed);
        let owner = OneDimSkipWeb::builder(keys.clone()).seed(seed).build();
        let bucket = OneDimSkipWeb::builder(keys)
            .seed(seed)
            .bucketed(4 * log_n)
            .build();
        for (name, web) in [("1d-owner", &owner), ("1d-bucket", &bucket)] {
            let msgs: Vec<u64> = qs
                .iter()
                .enumerate()
                .map(|(i, &q)| web.nearest(web.random_origin(i as u64), q).messages)
                .collect();
            let s = SeriesStats::from_samples(&msgs);
            t.push(vec![
                name.to_string(),
                n.to_string(),
                web.hosts().to_string(),
                f2(s.mean),
                s.p95.to_string(),
                web.network().max_memory().to_string(),
            ]);
        }
        // Quadtree.
        let pts = workloads::uniform_points(n, seed);
        let qweb = QuadtreeSkipWeb::builder(pts).seed(seed).build();
        let qpts = workloads::query_points(150, seed);
        let msgs: Vec<u64> = qpts
            .iter()
            .enumerate()
            .map(|(i, q)| qweb.locate_point(qweb.random_origin(i as u64), *q).messages)
            .collect();
        let s = SeriesStats::from_samples(&msgs);
        t.push(vec![
            "quadtree".into(),
            n.to_string(),
            qweb.hosts().to_string(),
            f2(s.mean),
            s.p95.to_string(),
            qweb.network().max_memory().to_string(),
        ]);
        // Trie.
        let strings = workloads::random_strings(n, seed);
        let tweb = TrieSkipWeb::builder(strings).seed(seed).build();
        let tqs = workloads::query_strings(150, seed);
        let msgs: Vec<u64> = tqs
            .iter()
            .enumerate()
            .map(|(i, q)| tweb.prefix_search(tweb.random_origin(i as u64), q).messages)
            .collect();
        let s = SeriesStats::from_samples(&msgs);
        t.push(vec![
            "trie".into(),
            n.to_string(),
            tweb.hosts().to_string(),
            f2(s.mean),
            s.p95.to_string(),
            tweb.network().max_memory().to_string(),
        ]);
        // Trapezoidal map (capped: conflict enumeration is quadratic).
        if n <= trap_cap {
            let segments = workloads::disjoint_segments(n, seed);
            let zweb = TrapezoidSkipWeb::builder(segments).seed(seed).build();
            let zqs = workloads::trapezoid_queries(n, 60, seed);
            let msgs: Vec<u64> = zqs
                .iter()
                .enumerate()
                .map(|(i, q)| zweb.locate_point(zweb.random_origin(i as u64), *q).messages)
                .collect();
            let s = SeriesStats::from_samples(&msgs);
            t.push(vec![
                "trapezoid".into(),
                n.to_string(),
                zweb.hosts().to_string(),
                f2(s.mean),
                s.p95.to_string(),
                zweb.network().max_memory().to_string(),
            ]);
        }
    }
    t
}

/// **§4** — update costs: `O(log n)` messages for skip-web inserts and
/// removals (`O(log n / log log n)` bucketed), across instantiations.
pub fn updates(sizes: &[usize], count: usize, seed: u64) -> Table {
    let mut t = Table::new(
        "Section 4: update message costs",
        &["structure", "n", "insert_mean", "insert_p95", "remove_mean"],
    );
    for &n in sizes {
        let keys: Vec<u64> = workloads::uniform_keys(n, seed)
            .into_iter()
            .map(|k| k * 2)
            .collect();
        let fresh: Vec<u64> = workloads::query_keys(count, seed ^ 1)
            .iter()
            .map(|k| k | 1)
            .collect();
        let log_n = (usize::BITS - n.leading_zeros()) as usize;
        // 1-D owner + bucket.
        for (name, mut web) in [
            (
                "1d-owner",
                OneDimSkipWeb::builder(keys.clone()).seed(seed).build(),
            ),
            (
                "1d-bucket",
                OneDimSkipWeb::builder(keys.clone())
                    .seed(seed)
                    .bucketed(4 * log_n)
                    .build(),
            ),
        ] {
            let ins: Vec<u64> = fresh
                .iter()
                .map(|&k| web.insert(k).expect("fresh"))
                .collect();
            let rem: Vec<u64> = fresh
                .iter()
                .map(|k| web.remove(k).expect("present"))
                .collect();
            let si = SeriesStats::from_samples(&ins);
            let sr = SeriesStats::from_samples(&rem);
            t.push(vec![
                name.to_string(),
                n.to_string(),
                f2(si.mean),
                si.p95.to_string(),
                f2(sr.mean),
            ]);
        }
        // Quadtree skip-web updates.
        let pts = workloads::uniform_points(n, seed);
        let mut qweb = QuadtreeSkipWeb::builder(pts).seed(seed).build();
        let fresh_pts = workloads::query_points(count, seed ^ 2);
        let ins: Vec<u64> = fresh_pts.iter().filter_map(|p| qweb.insert(*p)).collect();
        let rem: Vec<u64> = fresh_pts.iter().filter_map(|p| qweb.remove(p)).collect();
        let si = SeriesStats::from_samples(&ins);
        let sr = SeriesStats::from_samples(&rem);
        t.push(vec![
            "quadtree".into(),
            n.to_string(),
            f2(si.mean),
            si.p95.to_string(),
            f2(sr.mean),
        ]);
        // Trie skip-web updates.
        let strings = workloads::random_strings(n, seed);
        let mut tweb = TrieSkipWeb::builder(strings).seed(seed).build();
        let fresh_strs: Vec<String> = (0..count).map(|i| format!("zz{i:04}x")).collect();
        let ins: Vec<u64> = fresh_strs
            .iter()
            .filter_map(|s| tweb.insert(s.clone()))
            .collect();
        let rem: Vec<u64> = fresh_strs.iter().filter_map(|s| tweb.remove(s)).collect();
        let si = SeriesStats::from_samples(&ins);
        let sr = SeriesStats::from_samples(&rem);
        t.push(vec![
            "trie".into(),
            n.to_string(),
            f2(si.mean),
            si.p95.to_string(),
            f2(sr.mean),
        ]);
    }
    t
}

/// **Bucket sweep** — Table 1's `M`-parameterized rows: query cost vs
/// per-host memory for bucket skip-webs and bucket skip graphs at fixed `n`.
/// The paper's claim: `Q = Õ(log_M H)`, constant once `M = n^ε`.
pub fn buckets(n: usize, memories: &[usize], seed: u64) -> Table {
    let mut t = Table::new(
        "Bucket sweep: query cost vs per-host memory (fixed n)",
        &[
            "method",
            "n",
            "M_budget",
            "H",
            "Q_mean",
            "Q_p95",
            "M_max_measured",
        ],
    );
    let keys = workloads::uniform_keys(n, seed);
    let qs = workloads::query_keys(150, seed);
    for &m in memories {
        let web = OneDimSkipWeb::builder(keys.clone())
            .seed(seed)
            .bucketed(m)
            .build();
        let msgs: Vec<u64> = qs
            .iter()
            .enumerate()
            .map(|(i, &q)| web.nearest(web.random_origin(i as u64), q).messages)
            .collect();
        let s = SeriesStats::from_samples(&msgs);
        t.push(vec![
            "bucket-skip-web".into(),
            n.to_string(),
            m.to_string(),
            web.hosts().to_string(),
            f2(s.mean),
            s.p95.to_string(),
            web.network().max_memory().to_string(),
        ]);
        let hosts = (n / m).max(2);
        let bg = BucketSkipGraph::new(keys.clone(), hosts, seed);
        let msgs: Vec<u64> = qs
            .iter()
            .enumerate()
            .map(|(i, &q)| {
                let mut meter = MessageMeter::new();
                let _ = bg.nearest(bg.random_origin(i as u64), q, &mut meter);
                meter.messages()
            })
            .collect();
        let s = SeriesStats::from_samples(&msgs);
        t.push(vec![
            "bucket-skip-graph".into(),
            n.to_string(),
            m.to_string(),
            bg.hosts().to_string(),
            f2(s.mean),
            s.p95.to_string(),
            bg.network().max_memory().to_string(),
        ]);
    }
    t
}

/// **Ablation** — the design trade-off the paper highlights: NoN skip
/// graphs buy `O(log n / log log n)` queries with `O(log² n)` memory;
/// skip-webs match the query bound at `O(log n)` memory.
pub fn ablation(sizes: &[usize], seed: u64) -> Table {
    let mut t = Table::new(
        "Ablation: query cost vs memory across designs",
        &["method", "n", "Q_mean", "M_max"],
    );
    for &n in sizes {
        let keys = workloads::uniform_keys(n, seed);
        let qs = workloads::query_keys(120, seed);
        let log_n = (usize::BITS - n.leading_zeros()) as usize;
        let mut run = |name: &str, dict: &dyn OrderedDictionary| {
            let msgs: Vec<u64> = qs
                .iter()
                .enumerate()
                .map(|(i, &q)| {
                    let mut meter = MessageMeter::new();
                    let _ = dict.nearest(dict.random_origin(i as u64), q, &mut meter);
                    meter.messages()
                })
                .collect();
            let s = SeriesStats::from_samples(&msgs);
            t.push(vec![
                name.to_string(),
                n.to_string(),
                f2(s.mean),
                dict.network().max_memory().to_string(),
            ]);
        };
        run("skip-graph", &SkipGraph::new(keys.clone(), seed));
        run("non-skip-graph", &NonSkipGraph::new(keys.clone(), seed));
        run("skip-web", &SkipWebDict::owner_hosted(keys.clone(), seed));
        run(
            "bucket-skip-web",
            &SkipWebDict::bucketed(keys, 4 * log_n, seed),
        );
    }
    t
}

/// **§1.2 contrast** — DHTs support exact match only: Chord's exact lookups
/// are `O(log H)` hops, but its ordered nearest-neighbour degenerates to a
/// ring walk, while the skip-web stays logarithmic.
pub fn chord(sizes: &[usize], seed: u64) -> Table {
    let mut t = Table::new(
        "Section 1.2: Chord DHT vs skip-web on ordered queries",
        &[
            "n",
            "H",
            "chord_exact_mean",
            "chord_nn_mean",
            "skipweb_nn_mean",
        ],
    );
    for &n in sizes {
        let keys = workloads::uniform_keys(n, seed);
        let hosts = (n / 8).max(8);
        let c = Chord::new(keys.clone(), hosts);
        let web = OneDimSkipWeb::builder(keys.clone()).seed(seed).build();
        let mut exact = Vec::new();
        let mut nn = Vec::new();
        let mut webnn = Vec::new();
        for (i, &k) in keys.iter().take(40).enumerate() {
            let mut m = MessageMeter::new();
            let _ = c.lookup(c.random_origin(i as u64), k, &mut m);
            exact.push(m.messages());
            let mut m = MessageMeter::new();
            let _ = c.nearest(c.random_origin(i as u64), k + 1, &mut m);
            nn.push(m.messages());
            webnn.push(web.nearest(web.random_origin(i as u64), k + 1).messages);
        }
        t.push(vec![
            n.to_string(),
            c.ring_size().to_string(),
            f2(SeriesStats::from_samples(&exact).mean),
            f2(SeriesStats::from_samples(&nn).mean),
            f2(SeriesStats::from_samples(&webnn).mean),
        ]);
    }
    t
}

/// **Congestion** — the §1.1 motivation "query-processing load … spread as
/// uniformly as possible": run a query mix and compare the hottest host's
/// touch count against a perfectly even spread. A centralized design (e.g. a
/// search tree routed through its root) would score ~`H`; the skip-web and
/// skip graphs stay near `O(log n)`.
pub fn congestion(sizes: &[usize], queries: usize, seed: u64) -> Table {
    let mut t = Table::new(
        "Congestion: operational load balance under a query mix",
        &[
            "method",
            "n",
            "H",
            "hottest_touches",
            "mean_touches",
            "imbalance",
        ],
    );
    for &n in sizes {
        let keys = workloads::uniform_keys(n, seed);
        let qs = workloads::query_keys(queries, seed);
        let methods: Vec<Box<dyn OrderedDictionary>> = vec![
            Box::new(SkipGraph::new(keys.clone(), seed)),
            Box::new(NonSkipGraph::new(keys.clone(), seed)),
            Box::new(FamilyTree::new(keys.clone())),
            Box::new(DeterministicSkipNet::new(keys.clone())),
            Box::new(SkipWebDict::owner_hosted(keys.clone(), seed)),
        ];
        for dict in methods {
            let mut net = dict.network();
            for (i, &q) in qs.iter().enumerate() {
                let mut meter = MessageMeter::new();
                let _ = dict.nearest(dict.random_origin(seed ^ i as u64), q, &mut meter);
                net.absorb_query(&meter);
            }
            let hottest = net.max_touch_count();
            let total: u64 = (0..net.hosts())
                .map(|h| net.touch_count(skipweb_net::HostId(h as u32)))
                .sum();
            let mean = total as f64 / net.hosts() as f64;
            t.push(vec![
                dict.name().to_string(),
                n.to_string(),
                dict.hosts().to_string(),
                hottest.to_string(),
                f2(mean),
                f2(hottest as f64 / mean.max(f64::MIN_POSITIVE)),
            ]);
        }
    }
    t
}

/// Distributed throughput: the same structures served by the threaded actor
/// runtime, folded onto each of `host_counts` physical hosts; `clients`
/// client threads fire `queries` queries each and the wall clock gives
/// queries/sec. Also reports the measured messages per query, which shrink
/// as consolidation makes more forwarding hops host-local.
pub fn distributed(
    host_counts: &[usize],
    n: usize,
    clients: usize,
    queries: usize,
    seed: u64,
) -> Table {
    use skipweb_core::engine::DistributedSkipWeb;
    use skipweb_core::multidim::QuadtreeRequest;
    use std::time::Instant;

    let mut t = Table::new(
        "Distributed throughput: threaded runtime queries/sec by host count",
        &[
            "structure",
            "hosts",
            "clients",
            "queries",
            "msgs_per_query",
            "queries_per_sec",
        ],
    );

    // One generic measurement loop per structure, monomorphized by closure.
    fn run<D, F>(
        t: &mut Table,
        name: &str,
        web: &skipweb_core::SkipWeb<D>,
        host_counts: &[usize],
        clients: usize,
        queries: usize,
        make_req: F,
    ) where
        D: skipweb_core::engine::Routable + Send + Sync + 'static,
        skipweb_core::SkipWeb<D>: Sync,
        F: Fn(usize) -> D::Request + Sync,
    {
        for &hosts in host_counts {
            let dist = DistributedSkipWeb::builder(web).consolidated(hosts).spawn();
            let start = Instant::now();
            std::thread::scope(|scope| {
                for c in 0..clients {
                    let client = dist.client();
                    let dist = &dist;
                    let make_req = &make_req;
                    scope.spawn(move || {
                        for i in 0..queries {
                            let k = c * queries + i;
                            let origin = web.random_origin(k as u64);
                            dist.query(&client, origin, make_req(k))
                                .expect("runtime alive");
                        }
                    });
                }
            });
            let elapsed = start.elapsed().as_secs_f64();
            let total = (clients * queries) as f64;
            t.push(vec![
                name.to_string(),
                dist.hosts().to_string(),
                clients.to_string(),
                (clients * queries).to_string(),
                f2(dist.traffic().total_sent() as f64 / total),
                f2(total / elapsed.max(f64::MIN_POSITIVE)),
            ]);
            dist.shutdown();
        }
    }

    let onedim = OneDimSkipWeb::builder(workloads::uniform_keys(n, seed))
        .seed(seed)
        .build();
    let qs = workloads::query_keys(queries.max(64), seed);
    run(
        &mut t,
        "onedim-nearest",
        onedim.inner(),
        host_counts,
        clients,
        queries,
        |k| qs[k % qs.len()],
    );

    let quadtree = QuadtreeSkipWeb::builder(workloads::uniform_points(n.min(2048), seed))
        .seed(seed)
        .build();
    let pts = workloads::query_points(queries.max(64), seed);
    run(
        &mut t,
        "quadtree-locate",
        quadtree.inner(),
        host_counts,
        clients,
        queries,
        |k| QuadtreeRequest::Locate(pts[k % pts.len()]),
    );

    let trie = TrieSkipWeb::builder(workloads::isbn_strings(n.min(2048), seed))
        .seed(seed)
        .build();
    let prefixes = workloads::query_strings(queries.max(64), seed);
    run(
        &mut t,
        "trie-prefix",
        trie.inner(),
        host_counts,
        clients,
        queries,
        |k| prefixes[k % prefixes.len()].clone(),
    );

    t
}

/// Mixed read/write churn over the live runtime: for each host count and
/// each read/write mix, one client drives `ops` operations (writes
/// alternate inserting a fresh key and removing it again) and the wall
/// clock gives ops/sec. Reports the measured messages per query and per
/// update separately — the live `Q(n)` / `U(n)` split the engine's tagged
/// traffic counters make observable.
pub fn churn(host_counts: &[usize], n: usize, ops: usize, seed: u64) -> Table {
    use skipweb_core::engine::DistributedSkipWeb;
    use std::time::Instant;

    let mut t = Table::new(
        "Distributed churn: mixed insert/remove/query throughput by host count",
        &[
            "structure",
            "hosts",
            "mix",
            "ops",
            "updates_applied",
            "msgs_per_query",
            "msgs_per_update",
            "ops_per_sec",
        ],
    );
    let keys: Vec<u64> = workloads::uniform_keys(n, seed)
        .iter()
        .map(|k| k * 2)
        .collect();
    let web = OneDimSkipWeb::builder(keys).seed(seed).build();
    for &hosts in host_counts {
        for (mix, write_pct) in [("90/10", 10usize), ("50/50", 50usize)] {
            let dist = DistributedSkipWeb::builder(web.inner())
                .consolidated(hosts)
                .spawn();
            let client = dist.client();
            let mut applied = 0usize;
            let mut queries = 0usize;
            let mut updates = 0usize;
            let start = Instant::now();
            for i in 0..ops {
                if i % 100 < write_pct {
                    updates += 1;
                    let key = ((i as u64 / 2) * 7919 + seed) | 1;
                    let reply = if i % 2 == 0 {
                        dist.insert(&client, key).expect("runtime alive")
                    } else {
                        dist.remove(&client, key).expect("runtime alive")
                    };
                    applied += usize::from(reply.applied);
                } else {
                    queries += 1;
                    let origin = (i * 31) % dist.len();
                    dist.query(
                        &client,
                        origin,
                        ((i as u64) * 997 + seed) % (2 * n as u64 * 2),
                    )
                    .expect("runtime alive");
                }
            }
            let elapsed = start.elapsed().as_secs_f64();
            let traffic = dist.traffic();
            t.push(vec![
                "onedim-nearest".to_string(),
                dist.hosts().to_string(),
                mix.to_string(),
                ops.to_string(),
                applied.to_string(),
                f2(traffic.total_query_sent() as f64 / (queries.max(1)) as f64),
                f2(traffic.total_update_sent() as f64 / (updates.max(1)) as f64),
                f2(ops as f64 / elapsed.max(f64::MIN_POSITIVE)),
            ]);
            dist.shutdown();
        }
    }
    t
}

/// Batched scatter-gather throughput: for each host count and batch size,
/// the same query workload runs once serially and once through
/// `query_batch`, reporting the metered host crossings of both, the saving,
/// and the coalescing the batch counters observed (envelopes and mean ops
/// per envelope). Answers are asserted identical along the way — the table
/// is also a parity check.
pub fn batch(
    host_counts: &[usize],
    n: usize,
    batch_sizes: &[usize],
    ops: usize,
    seed: u64,
) -> Table {
    use skipweb_core::engine::DistributedSkipWeb;
    use std::time::Instant;

    let mut t = Table::new(
        "Batched operations: metered host crossings, serial vs coalesced envelopes",
        &[
            "structure",
            "hosts",
            "batch",
            "ops",
            "serial_msgs",
            "batch_msgs",
            "saved_pct",
            "envelopes",
            "ops_per_envelope",
            "ops_per_sec",
        ],
    );
    let web = OneDimSkipWeb::builder(workloads::uniform_keys(n, seed))
        .seed(seed)
        .build();
    let qs = workloads::query_keys(ops.max(64), seed);
    for &hosts in host_counts {
        // Serial baseline, measured once per deployment size.
        let serial = DistributedSkipWeb::builder(web.inner())
            .consolidated(hosts)
            .spawn();
        let sc = serial.client();
        let origin = web.random_origin(seed);
        let want: Vec<Option<u64>> = qs
            .iter()
            .take(ops)
            .map(|&q| serial.query(&sc, origin, q).expect("runtime alive").answer)
            .collect();
        let serial_msgs = serial.traffic().total_sent();
        serial.shutdown();
        for &batch in batch_sizes {
            let dist = DistributedSkipWeb::builder(web.inner())
                .consolidated(hosts)
                .spawn();
            let client = dist.client();
            let start = Instant::now();
            let mut got: Vec<Option<u64>> = Vec::with_capacity(ops);
            for chunk in qs[..ops.min(qs.len())].chunks(batch.max(1)) {
                got.extend(
                    dist.query_batch(&client, origin, chunk.to_vec())
                        .expect("runtime alive")
                        .into_iter()
                        .map(|r| r.answer),
                );
            }
            let elapsed = start.elapsed().as_secs_f64();
            assert_eq!(got, want, "batch answers must match serial");
            let traffic = dist.traffic();
            let batch_msgs = traffic.total_sent();
            t.push(vec![
                "onedim-nearest".to_string(),
                dist.hosts().to_string(),
                batch.to_string(),
                ops.to_string(),
                serial_msgs.to_string(),
                batch_msgs.to_string(),
                f2(if serial_msgs == 0 {
                    0.0
                } else {
                    100.0 * (1.0 - batch_msgs as f64 / serial_msgs as f64)
                }),
                traffic.total_batch_sent().to_string(),
                f2(traffic.mean_batch_size()),
                f2(ops as f64 / elapsed.max(f64::MIN_POSITIVE)),
            ]);
            dist.shutdown();
        }
    }
    t
}

/// Failover throughput: for each replication factor `k`, one client drives
/// `ops` queries per phase against a consolidated fabric — *before* a host
/// crash, *during* the crash window (one host killed, nothing healed), and
/// *after* `heal()` re-homes the dead host's blocks. Reports successes,
/// fast-failures (`Unavailable`, the `k = 1` signature), timeouts, and
/// queries/sec per phase. With `k ≥ 2` the during-crash throughput stays
/// nonzero and error-free: every query answers from a replica.
pub fn failover(hosts: usize, n: usize, ks: &[usize], ops: usize, seed: u64) -> Table {
    use skipweb_core::engine::{DistributedSkipWeb, Timeouts};
    use skipweb_net::runtime::RuntimeError;
    use skipweb_net::HostId;
    use std::time::Instant;

    let mut t = Table::new(
        "Failover: queries/sec before, during, and after a host crash, by replication factor",
        &[
            "structure",
            "hosts",
            "k",
            "phase",
            "ops",
            "ok",
            "unavailable",
            "timeout",
            "queries_per_sec",
        ],
    );
    let keys = workloads::uniform_keys(n, seed);
    let qs = workloads::query_keys(ops.max(64), seed);
    for &k in ks {
        let web = OneDimSkipWeb::builder(keys.clone())
            .seed(seed)
            .replicate(k)
            .build();
        let dist = DistributedSkipWeb::builder(web.inner())
            .consolidated(hosts)
            .spawn();
        let client = dist.client();
        // Short timeouts so lost requests surface as data, not stalls.
        client.set_timeouts(Timeouts::uniform(std::time::Duration::from_millis(2_000)));
        let phase = |t: &mut Table, name: &str| {
            let mut ok = 0usize;
            let mut unavailable = 0usize;
            let mut timeout = 0usize;
            let start = Instant::now();
            for (i, &q) in qs.iter().take(ops).enumerate() {
                let origin = web.random_origin(seed ^ i as u64);
                match dist.query(&client, origin, q) {
                    Ok(_) => ok += 1,
                    Err(RuntimeError::Unavailable) => unavailable += 1,
                    Err(RuntimeError::Timeout) => timeout += 1,
                    Err(e) => panic!("unexpected runtime error {e}"),
                }
            }
            let elapsed = start.elapsed().as_secs_f64();
            t.push(vec![
                "onedim-nearest".to_string(),
                dist.hosts().to_string(),
                k.to_string(),
                name.to_string(),
                ops.to_string(),
                ok.to_string(),
                unavailable.to_string(),
                timeout.to_string(),
                f2(ok as f64 / elapsed.max(f64::MIN_POSITIVE)),
            ]);
        };
        phase(&mut t, "before");
        dist.kill_host(HostId(1));
        phase(&mut t, "during-crash");
        dist.heal();
        phase(&mut t, "after-heal");
        dist.shutdown();
    }
    t
}

/// **WAN sweep** — query throughput over the simulated-WAN transport as
/// per-link latency grows, at a fixed 5% probabilistic loss with jitter
/// equal to the base latency. Loss applies to every row (the resubmit
/// path absorbs it end to end), so the sweep isolates latency's cost;
/// each row also reports the transport's own frame accounting — how many
/// crossings the schedule dropped and how many arrived out of order.
pub fn wan(
    latencies_us: &[u64],
    hosts: usize,
    n: usize,
    clients: usize,
    queries: usize,
    seed: u64,
) -> Table {
    use skipweb_core::engine::{DistributedSkipWeb, Timeouts};
    use skipweb_net::wan::SimWanConfig;
    use std::time::{Duration, Instant};

    let mut t = Table::new(
        "WAN sweep: queries/sec over SimWanTransport at 5% loss by link latency",
        &[
            "latency_us",
            "jitter_us",
            "loss",
            "hosts",
            "queries",
            "queries_per_sec",
            "carried",
            "lost",
            "reordered",
        ],
    );
    let web = OneDimSkipWeb::builder(workloads::uniform_keys(n, seed))
        .seed(seed)
        .build();
    let qs = workloads::query_keys(queries.max(64), seed);
    for &latency_us in latencies_us {
        let cfg = SimWanConfig {
            seed,
            latency: Duration::from_micros(latency_us),
            jitter: Duration::from_micros(latency_us),
            loss: 0.05,
        };
        let dist = DistributedSkipWeb::builder(web.inner())
            .consolidated(hosts)
            .wan(cfg)
            .spawn();
        // The resubmit timeout must dominate the worst jittered round trip
        // but stay short enough that a lost frame costs little.
        let timeout = Duration::from_millis(150) + Duration::from_micros(latency_us * 50);
        let start = Instant::now();
        std::thread::scope(|scope| {
            for c in 0..clients {
                let client = dist.client();
                let (dist, web, qs) = (&dist, &web, &qs);
                scope.spawn(move || {
                    client.set_timeouts(Timeouts::new(timeout, timeout * 2));
                    for i in 0..queries {
                        let k = c * queries + i;
                        dist.query(&client, web.random_origin(k as u64), qs[k % qs.len()])
                            .expect("resubmits must mask loss");
                    }
                });
            }
        });
        let elapsed = start.elapsed().as_secs_f64();
        let stats = dist.traffic().transport;
        let total = (clients * queries) as f64;
        t.push(vec![
            latency_us.to_string(),
            latency_us.to_string(),
            "0.05".to_string(),
            dist.hosts().to_string(),
            (clients * queries).to_string(),
            f2(total / elapsed.max(f64::MIN_POSITIVE)),
            stats.carried.to_string(),
            stats.lost.to_string(),
            stats.reordered.to_string(),
        ]);
        dist.shutdown();
    }
    t
}

/// Builds the shared loopback-TCP deployment plan: `workers` worker
/// processes owning `hosts_per_worker` engine hosts each, plus one
/// driver endpoint (the last) that owns no hosts and receives every
/// reply. Every process derives the same plan from the same arguments —
/// the TCP analogue of the range-determined topology rebuild.
pub fn tcp_plan(ports: &[u16], me: usize, hosts_per_worker: usize) -> skipweb_net::tcp::TcpConfig {
    use std::net::{IpAddr, Ipv4Addr, SocketAddr};
    let endpoints: Vec<SocketAddr> = ports
        .iter()
        .map(|&p| SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), p))
        .collect();
    let workers = endpoints.len() - 1;
    let owners: Vec<usize> = (0..workers)
        .flat_map(|w| std::iter::repeat_n(w, hosts_per_worker))
        .collect();
    skipweb_net::tcp::TcpConfig {
        endpoints,
        me,
        owners,
        reply_endpoint: workers,
    }
}

/// The worker-process entry point behind `repro tcp-host`: rebuilds the
/// deterministic web from `(n, seed)`, joins the deployment at endpoint
/// `me`, and serves queries until the driver broadcasts shutdown.
/// Returns whether the shutdown arrived as an orderly goodbye (`true`)
/// rather than a timeout.
pub fn tcp_host(
    ports: &[u16],
    me: usize,
    hosts_per_worker: usize,
    n: usize,
    seed: u64,
) -> std::io::Result<bool> {
    use skipweb_core::engine::DistributedSkipWeb;
    let web = OneDimSkipWeb::builder(workloads::uniform_keys(n, seed))
        .seed(seed)
        .build();
    let dist = DistributedSkipWeb::builder(web.inner()).spawn_tcp(tcp_plan(
        ports,
        me,
        hosts_per_worker,
    ))?;
    Ok(dist.serve_until_peer_shutdown(std::time::Duration::from_secs(120)))
}

/// **TCP deployment** — hosts as separate OS processes over loopback
/// TCP: spawns `workers` copies of `exe` (re-entering through its
/// `tcp-host` argument), each owning `hosts_per_worker` engine hosts,
/// then drives `queries` nearest-neighbour queries per client thread
/// from this process and reports throughput plus the driver's wire-level
/// byte counts. Answers are checked against the locally rebuilt web's
/// serial fabric before anything is reported.
pub fn tcp(
    exe: &std::path::Path,
    workers: usize,
    hosts_per_worker: usize,
    n: usize,
    clients: usize,
    queries: usize,
    seed: u64,
) -> std::io::Result<Table> {
    use skipweb_core::engine::DistributedSkipWeb;
    use std::net::TcpListener;
    use std::time::Instant;

    let mut t = Table::new(
        "TCP deployment: queries/sec across separate worker processes on loopback",
        &[
            "workers",
            "hosts",
            "clients",
            "queries",
            "queries_per_sec",
            "driver_tx_bytes",
            "driver_rx_bytes",
        ],
    );

    // Reserve one loopback port per process by binding and releasing;
    // the spawned workers re-bind them by number.
    let ports: Vec<u16> = (0..workers + 1)
        .map(|_| {
            TcpListener::bind("127.0.0.1:0")
                .and_then(|l| l.local_addr())
                .map(|a| a.port())
        })
        .collect::<std::io::Result<_>>()?;
    let mut children: Vec<std::process::Child> = Vec::with_capacity(workers);
    let ports_csv = ports
        .iter()
        .map(|p| p.to_string())
        .collect::<Vec<_>>()
        .join(",");
    for w in 0..workers {
        children.push(
            std::process::Command::new(exe)
                .arg("tcp-host")
                .arg(w.to_string())
                .arg(hosts_per_worker.to_string())
                .arg(n.to_string())
                .arg(seed.to_string())
                .arg(&ports_csv)
                .spawn()?,
        );
    }
    let reap = |mut children: Vec<std::process::Child>| {
        for child in &mut children {
            let _ = child.kill();
            let _ = child.wait();
        }
    };

    let web = OneDimSkipWeb::builder(workloads::uniform_keys(n, seed))
        .seed(seed)
        .build();
    let dist = match DistributedSkipWeb::builder(web.inner()).spawn_tcp(tcp_plan(
        &ports,
        workers,
        hosts_per_worker,
    )) {
        Ok(dist) => dist,
        Err(e) => {
            reap(children);
            return Err(e);
        }
    };
    let serial = DistributedSkipWeb::builder(web.inner())
        .consolidated(workers * hosts_per_worker)
        .spawn();
    let qs = workloads::query_keys(queries.max(64), seed);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let client = dist.client();
            let check = serial.client();
            let (dist, serial, web, qs) = (&dist, &serial, &web, &qs);
            scope.spawn(move || {
                for i in 0..queries {
                    let k = c * queries + i;
                    let origin = web.random_origin(k as u64);
                    let got = dist
                        .query(&client, origin, qs[k % qs.len()])
                        .expect("tcp fabric alive")
                        .answer;
                    let want = serial
                        .query(&check, origin, qs[k % qs.len()])
                        .expect("runtime alive")
                        .answer;
                    assert_eq!(got, want, "tcp answer diverged from local fabric");
                }
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let stats = dist.traffic().transport;
    let total = (clients * queries) as f64;
    t.push(vec![
        workers.to_string(),
        (workers * hosts_per_worker).to_string(),
        clients.to_string(),
        (clients * queries).to_string(),
        f2(total / elapsed.max(f64::MIN_POSITIVE)),
        stats.bytes_sent.to_string(),
        stats.bytes_received.to_string(),
    ]);
    serial.shutdown();
    dist.shutdown();
    for child in &mut children {
        let status = child.wait()?;
        if !status.success() {
            return Err(std::io::Error::other(format!(
                "tcp worker exited with {status}"
            )));
        }
    }
    Ok(t)
}

/// Durable-store throughput and crash recovery: for each store size `n`,
/// time `n` fresh puts and `gets` routed lookups through the WAL-backed
/// store, then kill **every** host and time
/// [`recover`](skipweb_store::Store::recover) — checkpoint read, WAL replay, web
/// rebuild, host rejoin, and heal — verifying the recovered store is
/// scan-identical before reporting the row.
pub fn store(ns: &[usize], hosts: usize, gets: usize, seed: u64) -> Table {
    use skipweb_store::StoreBuilder;
    use std::time::Instant;

    let mut t = Table::new(
        "Durable store: put/get throughput and total-crash WAL recovery by store size",
        &[
            "n",
            "hosts",
            "puts_per_sec",
            "gets_per_sec",
            "wal_records",
            "replayed",
            "rejoined",
            "recovery_ms",
        ],
    );
    for &n in ns {
        let dir =
            std::env::temp_dir().join(format!("skipweb-bench-store-{}-{n}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = StoreBuilder::new(&dir)
            .hosts(hosts)
            .seed(seed)
            .checkpoint_every(0)
            .open()
            .expect("open bench store");

        let put_start = Instant::now();
        for i in 0..n {
            let key = i as u64 * 10 + 1;
            store
                .put(key, key.to_le_bytes().to_vec())
                .expect("bench put");
        }
        let put_secs = put_start.elapsed().as_secs_f64();

        let get_start = Instant::now();
        for i in 0..gets {
            let key = ((i * 37) % n) as u64 * 10 + 1;
            let got = store.get(key).expect("bench get");
            assert_eq!(got, Some(key.to_le_bytes().to_vec()));
        }
        let get_secs = get_start.elapsed().as_secs_f64();

        let before = store.scan(..);
        for host in store.fabric().health().alive {
            store.fabric().kill_host(host);
        }
        let report = store.recover().expect("bench recovery");
        assert_eq!(store.scan(..), before, "recovery must be scan-identical");

        t.push(vec![
            n.to_string(),
            hosts.to_string(),
            f2(n as f64 / put_secs.max(f64::MIN_POSITIVE)),
            f2(gets as f64 / get_secs.max(f64::MIN_POSITIVE)),
            report.wal_records.to_string(),
            report.replayed.to_string(),
            report.rejoined.to_string(),
            f2(report.duration.as_secs_f64() * 1e3),
        ]);
        store.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
    t
}

/// Full vs incremental apply latency: per structure × `n` × batch size,
/// the one-host latency of landing an insert batch, a remove batch, and a
/// churn round (insert then remove) through the full-rebuild oracle
/// (`apply_full`) and the per-op splicing path (`apply`), plus their
/// ratio. The two
/// paths are timed back to back within each repetition and the medians
/// reported, so load spikes hit both columns alike instead of skewing the
/// ratio. Emitted as the committed `BENCH_rebuild.json` artifact.
pub fn rebuild(
    ns: &[usize],
    trap_n: usize,
    batch_sizes: &[usize],
    reps: usize,
    seed: u64,
) -> Table {
    use skipweb_structures::geometry::GridPoint;
    use skipweb_structures::Segment;

    let mut t = Table::new(
        "Incremental vs full rebuild: one-host batch apply latency",
        &[
            "structure",
            "n",
            "batch",
            "op",
            "full_us",
            "incr_us",
            "speedup",
        ],
    );
    let max_batch = batch_sizes.iter().copied().max().unwrap_or(0);
    for &n in ns {
        let pool: Vec<u64> = (0..(n + max_batch) as u64).map(|i| i * 37 + 5).collect();
        rebuild_rows::<SortedLinkedList>(&mut t, "onedim-list", &pool, n, batch_sizes, reps, seed);
    }
    if let Some(&n) = ns.last() {
        let pool: Vec<GridPoint<2>> = (0..(n + max_batch) as u32)
            .map(|i| GridPoint::new([i.wrapping_mul(0x9E37_79B9), i.wrapping_mul(0x85EB_CA6B)]))
            .collect();
        rebuild_rows::<CompressedQuadtree<2>>(
            &mut t,
            "quadtree-2d",
            &pool,
            n,
            batch_sizes,
            reps,
            seed,
        );
        // Fixed-width keys from an odd-multiplier scramble: injective over
        // the pool and prefix-free, with a two-symbol alphabet that keeps
        // the trie deep.
        let pool: Vec<String> = (0..(n + max_batch) as u32)
            .map(|i| format!("{:032b}", i.wrapping_mul(2_654_435_761)))
            .collect();
        rebuild_rows::<CompressedTrie>(&mut t, "trie", &pool, n, batch_sizes, reps, seed);
    }
    // The trapezoidal map's superlinear build keeps its sizes small
    // elsewhere in the harness too; disjoint x-ranges per slot keep every
    // subset in general position.
    let pool: Vec<Segment> = (0..(trap_n + max_batch) as i64)
        .map(|slot| {
            let x = slot * 1_000;
            let y = (slot % 13) * 40;
            Segment::new((x, y), (x + 600, y + 3))
        })
        .collect();
    rebuild_rows::<TrapezoidalMap>(&mut t, "trapezoid", &pool, trap_n, batch_sizes, reps, seed);
    t
}

/// One structure's sweep for [`rebuild`]: batches larger than the web
/// itself are skipped.
fn rebuild_rows<D>(
    t: &mut Table,
    name: &str,
    pool: &[D::Item],
    n: usize,
    batch_sizes: &[usize],
    reps: usize,
    seed: u64,
) where
    D: skipweb_structures::RangeDetermined + PartialEq,
{
    use skipweb_core::{SkipWeb, Update};
    use std::time::Instant;

    let base = SkipWeb::<D>::builder(pool[..n].to_vec()).seed(seed).build();
    for &batch in batch_sizes {
        if batch == 0 || batch > n || n + batch > pool.len() {
            continue;
        }
        let inserts: Vec<Update<D::Item>> = pool[n..n + batch]
            .iter()
            .enumerate()
            .map(|(i, item)| Update::Insert {
                item: item.clone(),
                bits: (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed,
            })
            .collect();
        let removes: Vec<Update<D::Item>> = pool[n..n + batch]
            .iter()
            .map(|item| Update::Remove { item: item.clone() })
            .collect();

        // Seconds per rep: [insert, remove] × [full rebuild, incremental].
        let mut secs = [[Vec::new(), Vec::new()], [Vec::new(), Vec::new()]];
        let mut inserted = base.clone();
        inserted.apply(inserts.clone());
        for rep in 0..reps {
            // Both incremental applies are timed before the oracle runs: right
            // after `apply_full` frees a whole web of small blocks, an apply
            // would pay for glibc consolidating them.
            let (mut w, mut oracle) = (base.clone(), base.clone());
            for (op, batch) in [&inserts, &removes].into_iter().enumerate() {
                let for_incr = batch.clone();
                let start = Instant::now();
                w.apply(for_incr);
                secs[op][1].push(start.elapsed().as_secs_f64());
            }
            let wants = [(&inserts, &inserted), (&removes, &w)];
            for (op, (batch, want)) in wants.into_iter().enumerate() {
                let for_full = batch.clone();
                let start = Instant::now();
                oracle.apply_full(for_full);
                secs[op][0].push(start.elapsed().as_secs_f64());
                // Parity insurance on the numbers being reported.
                assert!(
                    rep > 0 || *want == oracle,
                    "incremental apply diverged from full rebuild"
                );
            }
        }
        let [[full_ins, incr_ins], [full_rem, incr_rem]] = secs;
        let full_churn: Vec<f64> = full_ins.iter().zip(&full_rem).map(|(a, b)| a + b).collect();
        let incr_churn: Vec<f64> = incr_ins.iter().zip(&incr_rem).map(|(a, b)| a + b).collect();
        for (op, full, incr) in [
            ("insert", &full_ins, &incr_ins),
            ("remove", &full_rem, &incr_rem),
            ("churn", &full_churn, &incr_churn),
        ] {
            let (full_us, incr_us) = (median_us(full), median_us(incr));
            t.push(vec![
                name.to_string(),
                n.to_string(),
                batch.to_string(),
                op.to_string(),
                f2(full_us),
                f2(incr_us),
                f2(full_us / incr_us.max(f64::MIN_POSITIVE)),
            ]);
        }
    }
}

/// Median of a sample of second-counts, in microseconds.
fn median_us(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    let m = if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    };
    m * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_produces_a_row_per_method_per_size() {
        let t = table1(&[64, 128], 10, 4, 1);
        assert_eq!(t.rows.len(), 7 * 2);
        assert!(t.to_string().contains("skip-web"));
    }

    #[test]
    fn fig1_rows_show_linear_space() {
        let t = fig1(&[256], 1);
        assert_eq!(t.rows.len(), 1);
        let nodes_per_key: f64 = t.rows[0][3].parse().unwrap();
        assert!(nodes_per_key > 1.0 && nodes_per_key < 3.0);
    }

    #[test]
    fn fig3_covers_both_distributions() {
        let t = fig3(&[128], 2);
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn thm2_caps_trapezoid_sizes() {
        let t = thm2(&[64, 256], 128, 3);
        let traps: Vec<_> = t.rows.iter().filter(|r| r[0] == "trapezoid").collect();
        assert_eq!(traps.len(), 1); // only n=64 fits under the cap
    }

    #[test]
    fn buckets_sweep_reports_both_methods() {
        let t = buckets(512, &[16, 64], 4);
        assert_eq!(t.rows.len(), 4);
    }

    #[test]
    fn failover_reports_nonzero_throughput_during_the_crash_window() {
        let t = failover(8, 256, &[1, 2], 30, 5);
        assert_eq!(t.rows.len(), 6, "three phases per replication factor");
        // The acceptance gate: with k = 2, the during-crash phase keeps
        // answering every query from replicas at nonzero throughput.
        for row in t.rows.iter().filter(|r| r[2] == "2") {
            let ok: usize = row[5].parse().unwrap();
            let qps: f64 = row[8].parse().unwrap();
            assert_eq!(ok, 30, "k=2 phase {} must answer everything", row[3]);
            assert!(qps > 0.0, "k=2 phase {} throughput", row[3]);
            assert_eq!(row[6], "0", "k=2 never reports Unavailable");
        }
        // After heal even k = 1 recovers fully.
        let after_k1 = t
            .rows
            .iter()
            .find(|r| r[2] == "1" && r[3] == "after-heal")
            .unwrap();
        assert_eq!(after_k1[5], "30");
    }

    #[test]
    fn fig2_reports_placement_comparison() {
        let t = fig2(&[128], 6);
        assert_eq!(t.rows.len(), 1);
        let q_owner: f64 = t.rows[0][4].parse().unwrap();
        let q_bucket: f64 = t.rows[0][5].parse().unwrap();
        assert!(q_bucket <= q_owner + 0.5, "bucketing must not cost more");
    }

    #[test]
    fn fig4_counts_trapezoids_exactly() {
        let t = fig4(&[16], 7);
        let traps: usize = t.rows[0][1].parse().unwrap();
        assert_eq!(traps, 3 * 16 + 1);
    }

    #[test]
    fn updates_experiment_covers_all_structures() {
        let t = updates(&[64], 4, 8);
        let names: Vec<&str> = t.rows.iter().map(|r| r[0].as_str()).collect();
        assert_eq!(names, ["1d-owner", "1d-bucket", "quadtree", "trie"]);
    }

    #[test]
    fn ablation_orders_methods_as_the_paper_claims() {
        let t = ablation(&[1024], 9);
        let q = |name: &str| -> f64 {
            t.rows
                .iter()
                .find(|r| r[0] == name)
                .expect("method present")[2]
                .parse()
                .unwrap()
        };
        assert!(q("non-skip-graph") < q("skip-graph"));
        assert!(q("skip-web") < q("skip-graph"));
    }

    #[test]
    fn chord_experiment_shows_the_ring_walk() {
        let t = chord(&[128], 10);
        let h: f64 = t.rows[0][1].parse().unwrap();
        let nn: f64 = t.rows[0][3].parse().unwrap();
        assert!((nn - h).abs() < 1.5, "Chord NN must walk the whole ring");
    }

    #[test]
    fn congestion_experiment_shows_balanced_methods() {
        let t = congestion(&[256], 60, 11);
        assert_eq!(t.rows.len(), 5);
        // Every method's hottest host stays far below the total touch mass.
        for row in &t.rows {
            let hottest: f64 = row[3].parse().unwrap();
            let mean: f64 = row[4].parse().unwrap();
            assert!(
                hottest < mean * 256.0,
                "{} routes everything via one host",
                row[0]
            );
        }
    }

    #[test]
    fn distributed_experiment_reports_all_structures_and_host_counts() {
        let t = distributed(&[1, 4], 128, 2, 8, 12);
        assert_eq!(t.rows.len(), 6); // 3 structures x 2 host counts
        for row in &t.rows {
            let qps: f64 = row[5].parse().unwrap();
            assert!(qps > 0.0, "{} must make progress", row[0]);
        }
        // A single host never pays a network message.
        for row in t.rows.iter().filter(|r| r[1] == "1") {
            assert_eq!(row[4], "0.00", "{} on one host sent messages", row[0]);
        }
    }

    #[test]
    fn churn_experiment_reports_every_host_count_and_mix() {
        let t = churn(&[1, 4], 96, 60, 9);
        assert_eq!(t.rows.len(), 4); // 2 host counts x 2 mixes
        for row in &t.rows {
            let applied: usize = row[4].parse().unwrap();
            assert!(applied > 0, "churn must apply updates ({row:?})");
            let ops_per_sec: f64 = row[7].parse().unwrap();
            assert!(ops_per_sec > 0.0, "churn must make progress ({row:?})");
        }
        // A single host never pays a network message, per query or update.
        for row in t.rows.iter().filter(|r| r[1] == "1") {
            assert_eq!(row[5], "0.00", "one-host queries sent messages");
            assert_eq!(row[6], "0.00", "one-host updates sent messages");
        }
    }

    #[test]
    fn tables_render_as_tsv() {
        let t = lemma1(&[128], 5);
        let s = t.to_string();
        assert!(s.starts_with("# Lemma 1"));
        assert!(s.lines().count() >= 3);
    }

    #[test]
    fn tables_render_as_bench_json() {
        let t = lemma1(&[128], 5);
        let json = t.to_json("lemma1");
        assert!(json.starts_with("{\n  \"experiment\": \"lemma1\""));
        assert!(json.contains("\"header\": ["));
        assert!(json.trim_end().ends_with('}'));
    }

    #[test]
    fn store_experiment_reports_throughput_and_recovery() {
        let t = store(&[64], 3, 20, 11);
        assert_eq!(t.rows.len(), 1);
        let row = &t.rows[0];
        assert_eq!(row[0], "64");
        assert!(row[2].parse::<f64>().unwrap() > 0.0, "puts/sec ({row:?})");
        assert!(row[3].parse::<f64>().unwrap() > 0.0, "gets/sec ({row:?})");
        assert!(
            row[4].parse::<usize>().unwrap() >= 64,
            "wal records ({row:?})"
        );
        assert_eq!(row[6], "3", "every killed host must rejoin ({row:?})");
        assert!(
            row[7].parse::<f64>().unwrap() > 0.0,
            "recovery ms ({row:?})"
        );
    }

    #[test]
    fn rebuild_experiment_covers_structures_and_ops() {
        let t = rebuild(&[256], 96, &[1, 8], 1, 7);
        assert!(!t.rows.is_empty());
        for structure in ["onedim-list", "quadtree-2d", "trie", "trapezoid"] {
            assert!(
                t.rows.iter().any(|r| r[0] == structure),
                "missing {structure}"
            );
        }
        for op in ["insert", "remove", "churn"] {
            assert!(t.rows.iter().any(|r| r[3] == op), "missing op {op}");
        }
        for row in &t.rows {
            assert!(
                row[4].parse::<f64>().unwrap() > 0.0 && row[5].parse::<f64>().unwrap() > 0.0,
                "latencies must be positive ({row:?})"
            );
        }
    }
}
