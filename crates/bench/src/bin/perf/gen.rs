//! Seeded input generators: every input the program sees is a pure function
//! of `--seed`. Three distributions — uniform, Zipf(0.99) and hot-range —
//! over one small generator, so the benchmark needs no crate for randomness.

/// SplitMix64: a 64-bit state, full period, good enough for inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream for one purpose (`tag`) of one run (`seed`), so
    /// adding a draw to one stream never shifts another.
    pub fn stream(seed: u64, tag: &str) -> Self {
        let mut h = Rng(seed ^ 0x9e37_79b9_7f4a_7c15);
        for b in tag.bytes() {
            h.0 = (h.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            h.next_u64();
        }
        Rng(h.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (widening multiply; the bias is below 2^-40 for
    /// every `n` used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.index(i + 1));
        }
    }
}

/// `n` distinct values drawn with `draw`, sorted.
fn distinct_sorted<T: Ord>(n: usize, mut draw: impl FnMut() -> T) -> Vec<T> {
    let mut set = std::collections::BTreeSet::new();
    while set.len() < n {
        set.insert(draw());
    }
    set.into_iter().collect()
}

/// Keys live below this bound, as in the repository's own experiments.
pub const KEY_SPACE: u64 = 1 << 40;

/// `n` distinct even keys, sorted — fresh odd keys can then never collide
/// with a stored one.
pub fn even_keys(n: usize, rng: &mut Rng) -> Vec<u64> {
    distinct_sorted(n, || rng.below(KEY_SPACE / 2) * 2)
}

/// `n` distinct uniform points of the 2-D grid.
pub fn uniform_points(n: usize, rng: &mut Rng) -> Vec<[u32; 2]> {
    distinct_sorted(n, || [rng.next_u64() as u32, rng.next_u64() as u32])
}

/// One ISBN-like string: `978` + a publisher block out of `publishers` + six
/// title digits + `suffix` (empty for stored strings; churn strings carry a
/// letter so they never equal a stored one).
pub fn isbn(rng: &mut Rng, publishers: u64, suffix: &str) -> String {
    format!(
        "978{:03}{:06}{suffix}",
        rng.below(publishers),
        rng.below(1_000_000)
    )
}

/// `n` distinct ISBN-like strings, sorted.
pub fn isbn_strings(n: usize, publishers: u64, rng: &mut Rng) -> Vec<String> {
    distinct_sorted(n, || isbn(rng, publishers, ""))
}

/// Zipf(`s`) over ranks `0..n`: rank `r` is drawn with weight `1/(r+1)^s`.
/// The cumulative table makes a draw one binary search.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// The share of draws expected to land on ranks `0..k`.
    #[cfg(test)]
    pub fn expected_share(&self, k: usize) -> f64 {
        if k == 0 {
            0.0
        } else {
            self.cdf[k - 1]
        }
    }
}

/// Hot-range points: [`HOT_SHARE`] of the draws fall in [`HOT_CELLS`] cells
/// of a 16 × 16 grid over the plane (each 1/256 of it), chosen once from
/// the seed; the rest are uniform over the whole plane.
#[derive(Debug, Clone)]
pub struct HotRange {
    cells: Vec<[u32; 2]>,
}

pub const HOT_CELLS: usize = 8;
pub const HOT_SHARE: f64 = 0.8;
/// log2 of a hot cell's side: the plane is 2^32 wide, a cell 2^28.
const HOT_CELL_LOG2: u32 = 28;

impl HotRange {
    pub fn new(rng: &mut Rng) -> Self {
        let mut all: Vec<[u32; 2]> = (0..16).flat_map(|x| (0..16).map(move |y| [x, y])).collect();
        rng.shuffle(&mut all);
        all.truncate(HOT_CELLS);
        HotRange { cells: all }
    }

    pub fn draw(&self, rng: &mut Rng) -> [u32; 2] {
        if rng.unit() < HOT_SHARE {
            let cell = self.cells[rng.index(self.cells.len())];
            let within =
                |c: u32, r: u64| (c << HOT_CELL_LOG2) | (r as u32 & ((1 << HOT_CELL_LOG2) - 1));
            [
                within(cell[0], rng.next_u64()),
                within(cell[1], rng.next_u64()),
            ]
        } else {
            [rng.next_u64() as u32, rng.next_u64() as u32]
        }
    }

    #[cfg(test)]
    pub fn in_hot_cell(&self, p: [u32; 2]) -> bool {
        self.cells
            .contains(&[p[0] >> HOT_CELL_LOG2, p[1] >> HOT_CELL_LOG2])
    }

    /// The share of draws expected inside a hot cell: the hot draws plus the
    /// uniform ones that happen to land there.
    #[cfg(test)]
    pub fn expected_in_cell_share() -> f64 {
        HOT_SHARE + (1.0 - HOT_SHARE) * HOT_CELLS as f64 / 256.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_stream() {
        let draw = |seed| {
            let mut rng = Rng::stream(seed, "t");
            let hot = HotRange::new(&mut rng);
            let zipf = Zipf::new(1000, 0.99);
            let keys = even_keys(100, &mut rng);
            let strings = isbn_strings(50, 48, &mut rng);
            let points: Vec<[u32; 2]> = (0..100).map(|_| hot.draw(&mut rng)).collect();
            let ranks: Vec<usize> = (0..100).map(|_| zipf.draw(&mut rng)).collect();
            (keys, strings, points, ranks)
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        assert_ne!(
            Rng::stream(7, "a").next_u64(),
            Rng::stream(7, "b").next_u64()
        );
    }

    #[test]
    fn generated_sets_are_distinct_and_sized() {
        let mut rng = Rng::new(3);
        let keys = even_keys(3072, &mut rng);
        assert_eq!(keys.len(), 3072);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert!(keys.iter().all(|k| k % 2 == 0 && *k < KEY_SPACE));
        assert_eq!(uniform_points(500, &mut rng).len(), 500);
        let strings = isbn_strings(768, 48, &mut rng);
        assert_eq!(strings.len(), 768);
        assert!(strings
            .iter()
            .all(|s| s.len() == 12 && s.starts_with("978")));
    }

    #[test]
    fn zipf_top_one_percent_share_matches() {
        let n = 1536;
        let zipf = Zipf::new(n, 0.99);
        let mut rng = Rng::new(11);
        let draws = 200_000;
        let top = n / 100;
        let hits = (0..draws).filter(|_| zipf.draw(&mut rng) < top).count();
        let share = hits as f64 / draws as f64;
        let expected = zipf.expected_share(top);
        assert!(expected > 0.3, "Zipf(0.99) is heavily skewed ({expected})");
        assert!((share - expected).abs() < 0.02, "{share} vs {expected}");
    }

    #[test]
    fn hot_range_in_cell_share_matches() {
        let mut rng = Rng::new(5);
        let hot = HotRange::new(&mut rng);
        let draws = 200_000;
        let hits = (0..draws)
            .filter(|_| hot.in_hot_cell(hot.draw(&mut rng)))
            .count();
        let share = hits as f64 / draws as f64;
        let expected = HotRange::expected_in_cell_share();
        assert!((share - expected).abs() < 0.02, "{share} vs {expected}");
    }

    #[test]
    fn uniform_draws_cover_the_range_evenly() {
        let mut rng = Rng::new(9);
        let mut buckets = [0u32; 8];
        for _ in 0..80_000 {
            buckets[rng.index(8)] += 1;
        }
        assert!(buckets.iter().all(|&b| (9_000..11_000).contains(&b)));
    }
}
