//! Golden outcomes of the typed query and update surface: the answers, the
//! message counts and the per-level touches that `nearest`, `range`,
//! `locate_point`, `points_in_box`, `prefix_search`, `insert` and `remove`
//! return on fixed seeds, owner-hosted and bucketed. Any change to how a
//! typed wrapper routes, answers or meters shows up here as a diff.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use skipwebs::core::multidim::{QuadtreeSkipWeb, TrapezoidSkipWeb, TrieSkipWeb};
use skipwebs::core::onedim::OneDimSkipWeb;
use skipwebs::net::MessageMeter;
use skipwebs::structures::{PointKey, Segment};

/// `None` for owner-hosted placement, else the bucketed per-host memory.
const PLACEMENTS: [Option<usize>; 2] = [None, Some(48)];

fn onedim(memory: Option<usize>, out: &mut Vec<String>) {
    let keys: Vec<u64> = (0..300).map(|i| i * 7 + 3).collect();
    let builder = OneDimSkipWeb::builder(keys).seed(5);
    let mut web = match memory {
        Some(m) => builder.bucketed(m),
        None => builder,
    }
    .build();
    for s in 0..5u64 {
        let q = s * 433 + 11;
        let o = web.nearest(web.random_origin(s), q);
        out.push(format!(
            "1d nearest {q}: {} {:?} msgs {} touches {:?}",
            o.answer.nearest, o.answer.locus, o.messages, o.per_level_touches
        ));
    }
    for (lo, hi) in [(100u64, 180u64), (0, 2500)] {
        let o = web.range(web.random_origin(lo), lo, hi);
        let sum: u64 = o.keys.iter().sum();
        out.push(format!(
            "1d range {lo}..{hi}: {} keys sum {sum} msgs {}",
            o.keys.len(),
            o.messages
        ));
    }
    let ins: Vec<Option<u64>> = [5u64, 1000, 10].map(|k| web.insert(k)).into();
    let rem: Vec<Option<u64>> = [5u64, 17, 6]
        .map(|k| {
            let mut meter = MessageMeter::new();
            let applied = web.inner_mut().remove(&k, &mut meter);
            applied.then(|| meter.messages())
        })
        .into();
    out.push(format!("1d insert {ins:?} remove {rem:?}"));
}

fn points(n: usize, seed: u64) -> Vec<PointKey<2>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| PointKey::new([rng.gen(), rng.gen()]))
        .collect()
}

fn quadtree(memory: Option<usize>, out: &mut Vec<String>) {
    let builder = QuadtreeSkipWeb::builder(points(256, 3)).seed(7);
    let mut web = match memory {
        Some(m) => builder.bucketed(m),
        None => builder,
    }
    .build();
    for (s, q) in (0..).zip(points(5, 4)) {
        let o = web.locate_point(web.random_origin(s), q);
        out.push(format!(
            "quad locate {:?}: cell {:x}/{} near {:?} msgs {} touches {:?}",
            q.coords(),
            o.cell.prefix(),
            o.cell.depth(),
            o.approx_nearest.map(|p| p.coords()),
            o.messages,
            o.per_level_touches
        ));
    }
    let boxes: [([u32; 2], [u32; 2]); 3] = [
        ([0, 0], [1 << 30, 1 << 30]),
        ([1 << 31, 1 << 29], [(1 << 31) + (1 << 28), 3 << 29]),
        ([7, 7], [9, 9]),
    ];
    for (s, (lo, hi)) in (0..).zip(boxes) {
        let o = web.points_in_box(web.random_origin(s), lo, hi);
        let first = o.points.first().map(|p| p.coords());
        out.push(format!(
            "quad box {lo:?}..{hi:?}: {} points first {first:?} msgs {}",
            o.points.len(),
            o.messages
        ));
    }
    let fresh = points(3, 5);
    let ins: Vec<Option<u64>> = fresh.iter().map(|&p| web.insert(p)).collect();
    let dup = web.insert(fresh[0]);
    let rem: Vec<Option<u64>> = fresh.iter().map(|p| web.remove(p)).collect();
    let absent = web.remove(&fresh[1]);
    out.push(format!(
        "quad insert {ins:?} dup {dup:?} remove {rem:?} absent {absent:?}"
    ));
}

fn trie(memory: Option<usize>, out: &mut Vec<String>) {
    let strings: Vec<String> = (0..200)
        .map(|i| format!("978{:02}{:05}", i % 12, i * 7919 % 100_000))
        .collect();
    let builder = TrieSkipWeb::builder(strings).seed(9);
    let mut web = match memory {
        Some(m) => builder.bucketed(m),
        None => builder,
    }
    .build();
    for (s, prefix) in (0..).zip(["97803", "9780", "97811", "9790", "978055"]) {
        let o = web.prefix_search(web.random_origin(s), prefix);
        out.push(format!(
            "trie {prefix}: matched {} {} matches first {:?} msgs {} touches {:?}",
            o.matched_len,
            o.matches.len(),
            o.matches.first(),
            o.messages,
            o.per_level_touches
        ));
    }
    let fresh: Vec<String> = ["97803zz", "978", "12345"].map(String::from).into();
    let ins: Vec<Option<u64>> = fresh.iter().map(|s| web.insert(s.clone())).collect();
    let dup = web.insert(fresh[0].clone());
    let rem: Vec<Option<u64>> = fresh.iter().map(|s| web.remove(s)).collect();
    let absent = web.remove(&fresh[2]);
    out.push(format!(
        "trie insert {ins:?} dup {dup:?} remove {rem:?} absent {absent:?}"
    ));
}

fn trapezoid(out: &mut Vec<String>) {
    let segments: Vec<Segment> = (0..48)
        .map(|i| Segment::new((i * 40, (i % 9) * 30), (i * 40 + 25, (i % 9) * 30 + 4)))
        .collect();
    let mut web = TrapezoidSkipWeb::builder(segments).seed(11).build();
    for (s, q) in (0..).zip([(13, 40), (507, 3), (1200, 300), (-50, -50), (1919, 121)]) {
        let o = web.locate_point(web.random_origin(s), q);
        out.push(format!(
            "trap {q:?}: {:?} msgs {} touches {:?}",
            o.trapezoid, o.messages, o.per_level_touches
        ));
    }
    let fresh = [
        Segment::new((3, 1000), (31, 1003)),
        Segment::new((501, 2000), (533, 2001)),
    ];
    let ins: Vec<Option<u64>> = fresh.iter().map(|&s| web.insert(s)).collect();
    let dup = web.insert(fresh[0]);
    let rem: Vec<Option<u64>> = fresh.iter().map(|s| web.remove(s)).collect();
    let absent = web.remove(&fresh[1]);
    out.push(format!(
        "trap insert {ins:?} dup {dup:?} remove {rem:?} absent {absent:?}"
    ));
}

/// The outcomes, one line each, exactly as the typed surface returned them
/// when this test was written.
const GOLDEN: &str = r#"-- placement None
1d nearest 11: 10 KeyInterval { lo: Key(10), hi: Key(17) } msgs 3 touches [2, 1, 1, 1, 1, 1, 1, 1, 1, 1]
1d nearest 444: 444 KeyInterval { lo: Key(444), hi: Key(444) } msgs 8 touches [4, 1, 1, 1, 1, 1, 1, 1, 1, 1]
1d nearest 877: 878 KeyInterval { lo: Key(871), hi: Key(878) } msgs 5 touches [4, 1, 1, 1, 1, 1, 1, 1, 1, 1]
1d nearest 1310: 1312 KeyInterval { lo: Key(1305), hi: Key(1312) } msgs 5 touches [2, 1, 1, 1, 1, 1, 1, 1, 1, 1]
1d nearest 1743: 1746 KeyInterval { lo: Key(1739), hi: Key(1746) } msgs 5 touches [2, 1, 1, 1, 1, 1, 1, 1, 1, 1]
1d range 100..180: 12 keys sum 1674 msgs 18
1d range 0..2500: 300 keys sum 314850 msgs 302
1d insert [Some(7), Some(10), None] remove [Some(8), Some(4), None]
quad locate [2527704881, 2550742836]: cell c300000000000000/4 near Some([2599157726, 2607833404]) msgs 5 touches [3, 1, 1, 1, 1, 1, 1, 1, 1]
quad locate [2329112832, 93882244]: cell 8000000000000000/3 near Some([2452323266, 159424678]) msgs 4 touches [3, 1, 1, 1, 1, 1, 1, 1, 1]
quad locate [650295940, 2031158360]: cell 1c00000000000000/3 near Some([765461330, 1957189861]) msgs 6 touches [5, 1, 1, 1, 1, 1, 1, 1, 1]
quad locate [1386046164, 4107408353]: cell 7000000000000000/2 near Some([1297655729, 3970765031]) msgs 4 touches [3, 1, 1, 1, 1, 1, 1, 1, 1]
quad locate [779227580, 605510822]: cell c00000000000000/3 near Some([644645101, 798954428]) msgs 4 touches [5, 1, 1, 1, 1, 1, 1, 3, 1]
quad box [0, 0]..[1073741824, 1073741824]: 13 points first Some([106299761, 370535936]) msgs 35
quad box [2147483648, 536870912]..[2415919104, 1610612736]: 4 points first Some([2166345266, 744510539]) msgs 16
quad box [7, 7]..[9, 9]: 0 points first None msgs 5
quad insert [Some(9), Some(10), Some(7)] dup None remove [Some(6), Some(6), Some(5)] absent None
trie 97803: matched 5 17 matches first Some("9780303869") msgs 15 touches [3, 2, 2, 2, 2, 1, 2, 2, 2]
trie 9780: matched 4 168 matches first Some("9780000000") msgs 17 touches [5, 2, 2, 2, 2, 2, 2, 2, 2]
trie 97811: matched 5 16 matches first Some("9781112529") msgs 5 touches [2, 1, 1, 1, 1, 1, 1, 2, 2]
trie 9790: matched 2 0 matches first None msgs 3 touches [2, 1, 1, 1, 1, 1, 1, 1, 1]
trie 978055: matched 5 0 matches first None msgs 13 touches [3, 2, 2, 2, 1, 1, 2, 2, 2]
trie insert [Some(13), Some(25), Some(2)] dup None remove [Some(12), Some(41), Some(4)] absent None
-- placement Some(48)
1d nearest 11: 10 KeyInterval { lo: Key(10), hi: Key(17) } msgs 1 touches [2, 1, 1, 1, 1, 1, 1, 1, 1, 1]
1d nearest 444: 444 KeyInterval { lo: Key(444), hi: Key(444) } msgs 2 touches [4, 1, 1, 1, 1, 1, 1, 1, 1, 1]
1d nearest 877: 878 KeyInterval { lo: Key(871), hi: Key(878) } msgs 1 touches [4, 1, 1, 1, 1, 1, 1, 1, 1, 1]
1d nearest 1310: 1312 KeyInterval { lo: Key(1305), hi: Key(1312) } msgs 1 touches [2, 1, 1, 1, 1, 1, 1, 1, 1, 1]
1d nearest 1743: 1746 KeyInterval { lo: Key(1739), hi: Key(1746) } msgs 1 touches [2, 1, 1, 1, 1, 1, 1, 1, 1, 1]
1d range 100..180: 12 keys sum 1674 msgs 5
1d range 0..2500: 300 keys sum 314850 msgs 76
1d insert [Some(2), Some(2), None] remove [Some(2), Some(2), None]
quad locate [2527704881, 2550742836]: cell c300000000000000/4 near Some([2599157726, 2607833404]) msgs 1 touches [3, 1, 1, 1, 1, 1, 1, 1, 1]
quad locate [2329112832, 93882244]: cell 8000000000000000/3 near Some([2452323266, 159424678]) msgs 2 touches [3, 1, 1, 1, 1, 1, 1, 1, 1]
quad locate [650295940, 2031158360]: cell 1c00000000000000/3 near Some([765461330, 1957189861]) msgs 2 touches [5, 1, 1, 1, 1, 1, 1, 1, 1]
quad locate [1386046164, 4107408353]: cell 7000000000000000/2 near Some([1297655729, 3970765031]) msgs 1 touches [3, 1, 1, 1, 1, 1, 1, 1, 1]
quad locate [779227580, 605510822]: cell c00000000000000/3 near Some([644645101, 798954428]) msgs 1 touches [5, 1, 1, 1, 1, 1, 1, 3, 1]
quad box [0, 0]..[1073741824, 1073741824]: 13 points first Some([106299761, 370535936]) msgs 22
quad box [2147483648, 536870912]..[2415919104, 1610612736]: 4 points first Some([2166345266, 744510539]) msgs 11
quad box [7, 7]..[9, 9]: 0 points first None msgs 2
quad insert [Some(3), Some(3), Some(2)] dup None remove [Some(2), Some(3), Some(3)] absent None
trie 97803: matched 5 17 matches first Some("9780303869") msgs 3 touches [3, 2, 2, 2, 2, 1, 2, 2, 2]
trie 9780: matched 4 168 matches first Some("9780000000") msgs 3 touches [5, 2, 2, 2, 2, 2, 2, 2, 2]
trie 97811: matched 5 16 matches first Some("9781112529") msgs 2 touches [2, 1, 1, 1, 1, 1, 1, 2, 2]
trie 9790: matched 2 0 matches first None msgs 1 touches [2, 1, 1, 1, 1, 1, 1, 1, 1]
trie 978055: matched 5 0 matches first None msgs 3 touches [3, 2, 2, 2, 1, 1, 2, 2, 2]
trie insert [Some(3), Some(7), Some(1)] dup None remove [Some(5), Some(9), Some(3)] absent None
-- trapezoid
trap (13, 40): Trapezoid { top: None, bottom: Some(Segment { x1: 0, y1: 0, x2: 25, y2: 4 }), left_x: Some(0), right_x: Some(25) } msgs 3 touches [3, 1, 1, 1, 1, 1, 1]
trap (507, 3): Trapezoid { top: None, bottom: None, left_x: Some(505), right_x: Some(520) } msgs 2 touches [3, 1, 1, 1, 1, 1, 1]
trap (1200, 300): Trapezoid { top: None, bottom: Some(Segment { x1: 1200, y1: 90, x2: 1225, y2: 94 }), left_x: Some(1200), right_x: Some(1225) } msgs 3 touches [3, 1, 1, 1, 1, 1, 1]
trap (-50, -50): Trapezoid { top: None, bottom: None, left_x: None, right_x: Some(0) } msgs 1 touches [3, 1, 1, 1, 1, 1, 1]
trap (1919, 121): Trapezoid { top: None, bottom: None, left_x: Some(1905), right_x: None } msgs 3 touches [3, 1, 1, 1, 1, 1, 1]
trap insert [Some(2), Some(19)] dup None remove [Some(1), Some(4)] absent None
"#;

#[test]
fn typed_queries_and_updates_keep_their_golden_outcomes() {
    let mut out = Vec::new();
    for memory in PLACEMENTS {
        out.push(format!("-- placement {memory:?}"));
        onedim(memory, &mut out);
        quadtree(memory, &mut out);
        trie(memory, &mut out);
    }
    out.push("-- trapezoid".into());
    trapezoid(&mut out);
    let got: String = out.iter().map(|l| format!("{l}\n")).collect();
    assert_eq!(got, GOLDEN);
}
