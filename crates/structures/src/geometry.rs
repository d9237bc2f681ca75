//! Geometric primitives shared by the multi-dimensional structures:
//! Morton-coded points and hypercube cells for quadtrees/octrees (§3.1),
//! and exact integer segment predicates for trapezoidal maps (§3.3).

use std::fmt;

/// Number of bits per coordinate. Coordinates live in `[0, 2^32)` and the
/// universe hypercube has side `2^32`; with `D ≤ 4` dimensions the Morton
/// code fits a `u128`.
pub const COORD_BITS: u32 = 32;

/// Maximum quadtree depth (unit cells at depth [`COORD_BITS`]).
pub const MAX_DEPTH: u32 = COORD_BITS;

/// `SPREAD[D - 1][b]` is the byte `b` with bit `i` moved to bit `i * D`:
/// one byte of a coordinate spread out to its places in a `D`-dimensional
/// Morton code.
static SPREAD: [[u32; 256]; 4] = [
    spread_table(1),
    spread_table(2),
    spread_table(3),
    spread_table(4),
];

const fn spread_table(d: usize) -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut b = 0;
    while b < 256 {
        let mut bit = 0;
        while bit < 8 {
            table[b] |= ((b as u32 >> bit) & 1) << (bit * d);
            bit += 1;
        }
        b += 1;
    }
    table
}

/// A point in `D`-dimensional space with unsigned 32-bit coordinates.
///
/// # Example
///
/// ```
/// use skipweb_structures::geometry::GridPoint;
/// let p = GridPoint::new([3, 5]);
/// assert_eq!(p.coord(0), 3);
/// assert_eq!(p.coord(1), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GridPoint<const D: usize> {
    coords: [u32; D],
}

impl<const D: usize> GridPoint<D> {
    /// Creates a point from its coordinates.
    pub fn new(coords: [u32; D]) -> Self {
        GridPoint { coords }
    }

    /// The coordinate along `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= D`.
    pub fn coord(&self, axis: usize) -> u32 {
        self.coords[axis]
    }

    /// All coordinates.
    pub fn coords(&self) -> [u32; D] {
        self.coords
    }

    /// The Morton (Z-order) code: coordinate bits interleaved MSB-first, so
    /// that the top `depth * D` bits identify the depth-`depth` quadtree cell
    /// containing the point. Within each `D`-bit digit axis 0 is the most
    /// significant bit.
    ///
    /// The interleave is table-driven: each coordinate is spread one byte at
    /// a time through a 256-entry table built at compile time for `D` (four
    /// lookups per coordinate), so a code costs `4·D` loads, not a loop over
    /// all `32·D` bits. A quadtree hook encodes its query once and compares
    /// prefixes from there ([`Cell::contains_code`]). `D` outside `1..=4`
    /// does not compile:
    ///
    /// ```compile_fail
    /// use skipweb_structures::geometry::GridPoint;
    /// let _ = GridPoint::new([0u32; 5]).morton();
    /// ```
    pub fn morton(&self) -> u128 {
        const { assert!(D >= 1 && D <= 4, "supported dimensions: 1..=4") };
        let table = &SPREAD[D - 1];
        let mut code: u128 = 0;
        for (axis, &c) in self.coords.iter().enumerate() {
            let mut spread: u128 = 0;
            for byte in 0..4 {
                let bits = table[((c >> (8 * byte)) & 0xFF) as usize];
                spread |= u128::from(bits) << (8 * byte * D);
            }
            code |= spread << (D - 1 - axis);
        }
        code
    }

    /// Whether the point lies in the axis-aligned box `[lo, hi]`
    /// (inclusive corners).
    pub fn in_box(&self, lo: &[u32; D], hi: &[u32; D]) -> bool {
        (0..D).all(|axis| lo[axis] <= self.coords[axis] && self.coords[axis] <= hi[axis])
    }

    /// Squared Euclidean distance to another point.
    pub fn distance_sq(&self, other: &Self) -> u128 {
        let mut acc: u128 = 0;
        for axis in 0..D {
            let d = (self.coords[axis] as i64 - other.coords[axis] as i64).unsigned_abs() as u128;
            acc += d * d;
        }
        acc
    }
}

impl<const D: usize> fmt::Display for GridPoint<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.coords.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

/// A quadtree/octree cell: the hypercube at `depth` identified by the top
/// `depth * D` bits of a Morton code. Depth 0 is the whole universe; depth
/// [`MAX_DEPTH`] is a unit cell holding exactly one grid point.
///
/// Two cells either nest or are disjoint — the defining property of
/// quadtree subdivisions that [`Cell::relation`] exposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cell<const D: usize> {
    depth: u32,
    /// Morton prefix, with all bits below `depth * D` zeroed.
    prefix: u128,
}

/// Containment relation between two cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellRelation {
    /// The cells are the same.
    Equal,
    /// The first cell strictly contains the second.
    Contains,
    /// The first cell is strictly contained in the second.
    Inside,
    /// The cells are disjoint.
    Disjoint,
}

impl<const D: usize> Cell<D> {
    /// The universe cell (depth 0).
    pub fn universe() -> Self {
        Cell {
            depth: 0,
            prefix: 0,
        }
    }

    /// The depth-`depth` cell containing the point with Morton code `code`.
    ///
    /// # Panics
    ///
    /// Panics if `depth > MAX_DEPTH`.
    pub fn at_depth(code: u128, depth: u32) -> Self {
        assert!(depth <= MAX_DEPTH, "cell depth exceeds coordinate bits");
        let shift = ((MAX_DEPTH - depth) as usize) * D;
        let prefix = if shift >= 128 {
            0
        } else {
            (code >> shift) << shift
        };
        Cell { depth, prefix }
    }

    /// The unit cell of a point (depth [`MAX_DEPTH`]).
    pub fn of_point(p: &GridPoint<D>) -> Self {
        Cell::at_depth(p.morton(), MAX_DEPTH)
    }

    /// Cell depth (0 = universe).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// The Morton prefix identifying the cell (low bits zeroed).
    pub fn prefix(&self) -> u128 {
        self.prefix
    }

    /// Side length of the cell as a power of two exponent:
    /// `side = 2^(COORD_BITS - depth)`.
    pub fn side_log2(&self) -> u32 {
        COORD_BITS - self.depth
    }

    /// Whether the cell contains the point.
    pub fn contains_point(&self, p: &GridPoint<D>) -> bool {
        self.contains_code(p.morton())
    }

    /// Whether the cell contains the point whose Morton code is `code`:
    /// whether the code's top `depth * D` bits are the cell's prefix. One
    /// shift and one compare — a hook that tests one query against many
    /// cells encodes the query once ([`GridPoint::morton`]) and calls this.
    pub fn contains_code(&self, code: u128) -> bool {
        let shift = (MAX_DEPTH - self.depth) as usize * D;
        // A shift of all 128 bits is the universe cell of `D = 4`.
        shift >= 128 || (code ^ self.prefix) >> shift == 0
    }

    /// Whether this cell contains (or equals) `other`.
    pub fn contains_cell(&self, other: &Cell<D>) -> bool {
        // A cell's prefix is the code of its lowest point.
        self.depth <= other.depth && self.contains_code(other.prefix)
    }

    /// The nesting relation between two cells.
    pub fn relation(&self, other: &Cell<D>) -> CellRelation {
        if self.depth == other.depth {
            return if self.prefix == other.prefix {
                CellRelation::Equal
            } else {
                CellRelation::Disjoint
            };
        }
        let (coarse, fine, flipped) = if self.depth < other.depth {
            (self, other, false)
        } else {
            (other, self, true)
        };
        let shift = ((MAX_DEPTH - coarse.depth) as usize) * D;
        let fine_trunc = if shift >= 128 {
            0
        } else {
            (fine.prefix >> shift) << shift
        };
        if fine_trunc == coarse.prefix {
            if flipped {
                CellRelation::Inside
            } else {
                CellRelation::Contains
            }
        } else {
            CellRelation::Disjoint
        }
    }

    /// Whether the two cells intersect (equivalently: one contains the other).
    pub fn intersects(&self, other: &Cell<D>) -> bool {
        self.relation(other) != CellRelation::Disjoint
    }

    /// The `D`-bit child digit of Morton code `code` at this cell's depth —
    /// which child subcell of this cell the code descends into.
    ///
    /// # Panics
    ///
    /// Panics if the cell is already at [`MAX_DEPTH`].
    pub fn child_digit(&self, code: u128) -> u32 {
        assert!(self.depth < MAX_DEPTH, "unit cells have no children");
        let shift = ((MAX_DEPTH - self.depth - 1) as usize) * D;
        ((code >> shift) & ((1u128 << D) - 1)) as u32
    }

    /// Whether the cell's region intersects the axis-aligned box
    /// `[lo, hi]` (inclusive corners).
    pub fn intersects_box(&self, lo: &[u32; D], hi: &[u32; D]) -> bool {
        let corner = self.corner();
        let side_minus_1 = if self.side_log2() == 32 {
            u32::MAX
        } else {
            (1u32 << self.side_log2()) - 1
        };
        (0..D).all(|axis| {
            let c_lo = corner[axis];
            let c_hi = c_lo.saturating_add(side_minus_1);
            c_lo <= hi[axis] && lo[axis] <= c_hi
        })
    }

    /// The lower corner of the cell in coordinate space.
    pub fn corner(&self) -> [u32; D] {
        let mut coords = [0u32; D];
        for bit in (0..COORD_BITS).rev() {
            for (axis, coord) in coords.iter_mut().enumerate() {
                let pos = (bit as usize) * D + (D - 1 - axis);
                *coord = (*coord << 1) | ((self.prefix >> pos) & 1) as u32;
            }
        }
        coords
    }
}

impl<const D: usize> fmt::Display for Cell<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let corner = self.corner();
        write!(f, "cell@d{}[", self.depth)?;
        for (i, c) in corner.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "]+2^{}", self.side_log2())
    }
}

/// Exact 2-D orientation predicate on `i64` points: returns the sign of the
/// cross product `(b - a) × (c - a)` — positive when `c` lies left of the
/// directed line `a → b`.
pub fn orient(a: (i64, i64), b: (i64, i64), c: (i64, i64)) -> i32 {
    let v1 = ((b.0 - a.0) as i128) * ((c.1 - a.1) as i128);
    let v2 = ((b.1 - a.1) as i128) * ((c.0 - a.0) as i128);
    match v1.cmp(&v2) {
        std::cmp::Ordering::Greater => 1,
        std::cmp::Ordering::Equal => 0,
        std::cmp::Ordering::Less => -1,
    }
}

/// An exact rational `y`-value `num/den` with `den > 0`, used to compare
/// segment heights at rational `x` without floating point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rational {
    num: i128,
    den: i128,
}

impl Rational {
    /// Creates `num/den`, normalizing the sign into the numerator and\n    /// reducing by the GCD so equal values compare equal structurally.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Self {
        assert!(den != 0, "rational with zero denominator");
        let (mut num, mut den) = if den < 0 { (-num, -den) } else { (num, den) };
        let g = gcd(num.unsigned_abs(), den.unsigned_abs());
        if g > 1 {
            num /= g as i128;
            den /= g as i128;
        }
        Rational { num, den }
    }

    /// The integer `v/1`.
    pub fn integer(v: i64) -> Self {
        Rational {
            num: v as i128,
            den: 1,
        }
    }

    /// The smallest integer `>= self`, saturated into `i64`.
    pub fn ceil_i64(&self) -> i64 {
        let q = self.num.div_euclid(self.den);
        let ceil = if self.num.rem_euclid(self.den) == 0 {
            q
        } else {
            q + 1
        };
        ceil.clamp(i64::MIN as i128, i64::MAX as i128) as i64
    }
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a.max(1)
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // num1/den1 ? num2/den2  with positive denominators. Products of
        // values bounded by coordinate magnitudes stay within i128 for the
        // i64 coordinate domain used by the trapezoid structures.
        (self.num * other.den).cmp(&(other.num * self.den))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bit-at-a-time interleave the tables replace: the reference the
    /// table encoding is held to.
    fn morton_by_bits<const D: usize>(p: &GridPoint<D>) -> u128 {
        let mut code: u128 = 0;
        for bit in (0..COORD_BITS).rev() {
            for axis in 0..D {
                code = (code << 1) | ((p.coord(axis) >> bit) & 1) as u128;
            }
        }
        code
    }

    fn assert_morton_matches_bits<const D: usize>(coords: [u32; D]) {
        let p = GridPoint::new(coords);
        assert_eq!(p.morton(), morton_by_bits(&p), "{p}");
    }

    const EDGES: [u32; 3] = [0, u32::MAX, 1 << 31];

    #[test]
    fn morton_tables_match_the_bit_loop_on_edge_values() {
        for a in EDGES {
            assert_morton_matches_bits([a]);
            for b in EDGES {
                assert_morton_matches_bits([a, b]);
                for c in EDGES {
                    assert_morton_matches_bits([a, b, c]);
                    for d in EDGES {
                        assert_morton_matches_bits([a, b, c, d]);
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn morton_tables_match_the_bit_loop(
            (a, b, c, d) in (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>())
        ) {
            prop_assert_eq!(GridPoint::new([a]).morton(), morton_by_bits(&GridPoint::new([a])));
            let p2 = GridPoint::new([a, b]);
            prop_assert_eq!(p2.morton(), morton_by_bits(&p2));
            let p3 = GridPoint::new([a, b, c]);
            prop_assert_eq!(p3.morton(), morton_by_bits(&p3));
            let p4 = GridPoint::new([a, b, c, d]);
            prop_assert_eq!(p4.morton(), morton_by_bits(&p4));
        }

        #[test]
        fn code_containment_matches_cell_truncation(
            (a, b, c) in (any::<u32>(), any::<u32>(), any::<u32>()),
            (depth, other_depth) in (0u32..=MAX_DEPTH, 0u32..=MAX_DEPTH)
        ) {
            // A cell around one point, tested against itself and a second.
            let (p, q) = (GridPoint::new([a, b]), GridPoint::new([b, c]));
            let cell = Cell::<2>::at_depth(p.morton(), depth);
            prop_assert!(cell.contains_code(p.morton()));
            prop_assert_eq!(
                cell.contains_code(q.morton()),
                Cell::<2>::at_depth(q.morton(), depth) == cell
            );
            // Cell containment by code agrees with the nesting relation, for
            // a cell around either point.
            for other in [p, q].map(|o| Cell::<2>::at_depth(o.morton(), other_depth)) {
                prop_assert_eq!(
                    cell.contains_cell(&other),
                    matches!(cell.relation(&other), CellRelation::Equal | CellRelation::Contains)
                );
            }
            let (p4, q4) = (GridPoint::new([a, b, c, a]), GridPoint::new([c, b, a, c]));
            let cell4 = Cell::<4>::at_depth(p4.morton(), depth);
            prop_assert!(cell4.contains_code(p4.morton()));
            prop_assert_eq!(
                cell4.contains_code(q4.morton()),
                Cell::<4>::at_depth(q4.morton(), depth) == cell4
            );
        }
    }

    #[test]
    fn morton_interleaves_msb_first_2d() {
        // Top bit of each coordinate lands in the top 2 bits of the code.
        let p = GridPoint::new([1u32 << 31, 0]);
        assert_eq!(p.morton() >> 62, 0b10);
        let q = GridPoint::new([0, 1u32 << 31]);
        assert_eq!(q.morton() >> 62, 0b01);
    }

    #[test]
    fn morton_orders_quadrants() {
        // Points in different quadrants sort by quadrant digit.
        let half = 1u32 << 31;
        let sw = GridPoint::new([0, 0]);
        let se = GridPoint::new([half, 0]);
        let nw = GridPoint::new([0, half]);
        let ne = GridPoint::new([half, half]);
        let mut codes = [ne.morton(), sw.morton(), se.morton(), nw.morton()];
        codes.sort();
        assert_eq!(codes, [sw.morton(), nw.morton(), se.morton(), ne.morton()]);
    }

    #[test]
    fn cell_relations_nest_or_disjoint() {
        let p = GridPoint::new([7u32, 9]);
        let deep = Cell::<2>::at_depth(p.morton(), 30);
        let shallow = Cell::<2>::at_depth(p.morton(), 3);
        assert_eq!(shallow.relation(&deep), CellRelation::Contains);
        assert_eq!(deep.relation(&shallow), CellRelation::Inside);
        assert_eq!(deep.relation(&deep.clone()), CellRelation::Equal);
        let other = Cell::<2>::at_depth(GridPoint::new([u32::MAX, 0]).morton(), 3);
        assert_eq!(shallow.relation(&other), CellRelation::Disjoint);
        assert!(!shallow.intersects(&other));
    }

    #[test]
    fn universe_contains_everything() {
        let u = Cell::<2>::universe();
        assert!(u.contains_point(&GridPoint::new([0, 0])));
        assert!(u.contains_point(&GridPoint::new([u32::MAX, u32::MAX])));
        assert_eq!(u.side_log2(), COORD_BITS);
    }

    #[test]
    fn unit_cell_contains_exactly_its_point() {
        let p = GridPoint::new([123u32, 456]);
        let c = Cell::of_point(&p);
        assert!(c.contains_point(&p));
        assert!(!c.contains_point(&GridPoint::new([123, 457])));
        assert_eq!(c.depth(), MAX_DEPTH);
    }

    #[test]
    fn corner_round_trips_through_prefix() {
        let p = GridPoint::new([0xDEAD_BEEFu32, 0x0BAD_CAFE]);
        let c = Cell::<2>::at_depth(p.morton(), MAX_DEPTH);
        assert_eq!(c.corner(), p.coords());
        let c8 = Cell::<2>::at_depth(p.morton(), 8);
        let corner = c8.corner();
        // The corner keeps the top 8 bits of each coordinate.
        assert_eq!(corner[0], p.coord(0) & 0xFF00_0000);
        assert_eq!(corner[1], p.coord(1) & 0xFF00_0000);
    }

    #[test]
    fn child_digit_selects_subcell() {
        let p = GridPoint::new([1u32 << 31, 1u32 << 31]); // NE quadrant
        let u = Cell::<2>::universe();
        // MSB-first interleave: x-bit then y-bit per level -> digit 0b11.
        assert_eq!(u.child_digit(p.morton()), 0b11);
        let q = GridPoint::new([0u32, 1u32 << 31]);
        assert_eq!(u.child_digit(q.morton()), 0b01);
    }

    #[test]
    fn orientation_signs() {
        assert_eq!(orient((0, 0), (10, 0), (5, 3)), 1);
        assert_eq!(orient((0, 0), (10, 0), (5, -3)), -1);
        assert_eq!(orient((0, 0), (10, 0), (20, 0)), 0);
    }

    #[test]
    fn rational_comparisons_are_exact() {
        let a = Rational::new(1, 3);
        let b = Rational::new(2, 6);
        let c = Rational::new(1, 2);
        assert_eq!(a, b);
        assert!(a < c);
        assert!(Rational::new(-1, 2) < Rational::integer(0));
        assert!(Rational::new(1, -2) < Rational::integer(0)); // sign normalizes
    }

    #[test]
    fn distance_sq_is_euclidean() {
        let a = GridPoint::new([0u32, 0]);
        let b = GridPoint::new([3u32, 4]);
        assert_eq!(a.distance_sq(&b), 25);
    }

    #[test]
    fn cell_box_intersection_checks_every_axis() {
        let p = GridPoint::new([64u32, 64]);
        let c = Cell::<2>::at_depth(p.morton(), 26); // side 64: [64,127]^2
        assert!(c.intersects_box(&[0, 0], &[64, 64]));
        assert!(c.intersects_box(&[100, 100], &[200, 200]));
        assert!(!c.intersects_box(&[0, 0], &[63, 200]));
        assert!(!c.intersects_box(&[128, 0], &[200, 200]));
        assert!(Cell::<2>::universe().intersects_box(&[5, 5], &[6, 6]));
    }

    #[test]
    fn point_in_box_is_inclusive() {
        let p = GridPoint::new([10u32, 20]);
        assert!(p.in_box(&[10, 20], &[10, 20]));
        assert!(p.in_box(&[0, 0], &[100, 100]));
        assert!(!p.in_box(&[11, 0], &[100, 100]));
        assert!(!p.in_box(&[0, 0], &[100, 19]));
    }

    #[test]
    fn morton_3d_fits_u128() {
        let p = GridPoint::new([u32::MAX, u32::MAX, u32::MAX]);
        // 96 bits used; the top 32 stay clear.
        assert_eq!(p.morton() >> 96, 0);
        assert_eq!(p.morton(), (1u128 << 96) - 1);
    }
}
