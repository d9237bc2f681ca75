//! Byte-level wire format for engine envelopes: the [`WireCodec`] trait the
//! served structures implement, plus the [`FabricMsg`]/[`EngineReply`]
//! codecs the multi-process [`TcpTransport`](skipweb_net::TcpTransport)
//! rides on.
//!
//! The workspace is offline (no serde), so every layout is hand-rolled from
//! the little-endian primitives in [`skipweb_net::wire`]. A structure only
//! has to serialize its three leaf types (`Request`, `Answer`, `Item`); the
//! engine-level envelope around them is encoded once, here:
//!
//! ```text
//! EngineMsg   := at.level u16 · at.set u32 · at.range u32
//!              · client u64 · corr u64 · hops u32 · op
//! op          := 0 · gather u8 · Request                      (query)
//!              | 1 · kind · phase · op_id u64 · Item          (update)
//!              | 2 · of u32 · ranges (u32 len + u32 each) · Request  (scatter)
//! kind        := 0 · bits u64 (insert) | 1 (remove)
//! phase       := 0 (route) | 1 · cursor u64 · trail (u32 len + u32 each)
//! FabricMsg   := 0 · EngineMsg | 1 · count u32 · EngineMsg×count
//! EngineReply := corr u64 · hops u32 · body
//! body        := 0 · Answer | 1 · Answer · of u32
//!              | 2 · applied u8 | 3 (unavailable)
//! ```
//!
//! One deliberate omission: the topology snapshot `Arc` every in-flight
//! message carries is **not** serialized. Skip-webs are range-determined
//! (§2.1 of the paper): the ground set and build seed uniquely determine
//! the whole overlay, so every process of a deployment rebuilds an
//! identical topology locally and the fabric-message decoder re-attaches the
//! receiving process's own snapshot. Decoders never trust wire input:
//! malformed bytes yield `None`, not a panic — and so does a well-formed
//! envelope whose address names no range of that snapshot, or whose
//! scatter covers ranges the locus would not report.

use std::sync::Arc;

use skipweb_net::wire::{put_bool, put_u16, put_u32, put_u64, put_u8, WireReader};
use skipweb_net::HostId;
use skipweb_structures::traits::RangeId;

use crate::engine::{
    BatchMsg, EngineMsg, EngineOp, EngineReply, FabricMsg, GlobalRef, ReplyBody, Routable,
    Topology, UpdateOp, UpdatePhase,
};
use crate::skipweb::Update;

/// A [`Routable`] structure whose leaf types can cross process boundaries:
/// byte-level encode/decode for requests, answers, and items. Implemented
/// by all four shipped webs (1-D sorted list, quadtree, trie, trapezoidal
/// map); the engine derives the full envelope codec from these six methods.
///
/// Decoders serve wire input and must return `None` on malformed bytes
/// instead of panicking. Every implementation satisfies
/// `decode(encode(x)) == x` (pinned by proptests per structure).
pub trait WireCodec: Routable {
    /// Serializes a request.
    fn encode_request(req: &Self::Request, buf: &mut Vec<u8>);
    /// Deserializes a request.
    fn decode_request(r: &mut WireReader<'_>) -> Option<Self::Request>;
    /// Serializes an answer.
    fn encode_answer(ans: &Self::Answer, buf: &mut Vec<u8>);
    /// Deserializes an answer.
    fn decode_answer(r: &mut WireReader<'_>) -> Option<Self::Answer>;
    /// Serializes a ground item.
    fn encode_item(item: &Self::Item, buf: &mut Vec<u8>);
    /// Deserializes a ground item.
    fn decode_item(r: &mut WireReader<'_>) -> Option<Self::Item>;
}

fn encode_engine_msg<D: WireCodec>(msg: &EngineMsg<D>, buf: &mut Vec<u8>) {
    put_u16(buf, msg.at.level);
    put_u32(buf, msg.at.set);
    put_u32(buf, msg.at.range);
    put_u64(buf, msg.client.0);
    put_u64(buf, msg.corr);
    put_u32(buf, msg.hops);
    match &msg.op {
        EngineOp::Query { req, gather } => {
            put_u8(buf, 0);
            put_bool(buf, *gather);
            D::encode_request(req, buf);
        }
        EngineOp::Update(up) => {
            put_u8(buf, 1);
            match up.update {
                Update::Insert { bits, .. } => {
                    put_u8(buf, 0);
                    put_u64(buf, bits);
                }
                Update::Remove { .. } => put_u8(buf, 1),
            }
            match &up.phase {
                UpdatePhase::Route => put_u8(buf, 0),
                UpdatePhase::Repair { cursor, trail } => {
                    put_u8(buf, 1);
                    put_u64(buf, *cursor as u64);
                    put_u32(buf, trail.len() as u32);
                    for h in trail {
                        put_u32(buf, h.0);
                    }
                }
            }
            put_u64(buf, up.op_id);
            D::encode_item(up.update.item(), buf);
        }
        EngineOp::Scatter { req, ranges, of } => {
            put_u8(buf, 2);
            put_u32(buf, *of);
            put_u32(buf, ranges.len() as u32);
            for r in ranges {
                put_u32(buf, r.0);
            }
            D::encode_request(req, buf);
        }
    }
}

fn decode_engine_msg<D: WireCodec>(
    r: &mut WireReader<'_>,
    topo: &Arc<Topology<D>>,
) -> Option<EngineMsg<D>> {
    let at = GlobalRef {
        level: r.read_u16()?,
        set: r.read_u32()?,
        range: r.read_u32()?,
    };
    let client = skipweb_net::runtime::ClientId(r.read_u64()?);
    let corr = r.read_u64()?;
    let hops = r.read_u32()?;
    let op = match r.read_u8()? {
        0 => EngineOp::Query {
            gather: r.read_bool()?,
            req: D::decode_request(r)?,
        },
        1 => {
            let bits = match r.read_u8()? {
                0 => Some(r.read_u64()?),
                1 => None,
                _ => return None,
            };
            let phase = match r.read_u8()? {
                0 => UpdatePhase::Route,
                1 => {
                    let cursor = usize::try_from(r.read_u64()?).ok()?;
                    let len = r.read_u32()? as usize;
                    let mut trail = Vec::with_capacity(len.min(1024));
                    for _ in 0..len {
                        trail.push(HostId(r.read_u32()?));
                    }
                    UpdatePhase::Repair { cursor, trail }
                }
                _ => return None,
            };
            let op_id = r.read_u64()?;
            let item = D::decode_item(r)?;
            EngineOp::Update(UpdateOp {
                update: match bits {
                    Some(bits) => Update::Insert { item, bits },
                    None => Update::Remove { item },
                },
                phase,
                op_id,
            })
        }
        2 => {
            let of = r.read_u32()?;
            let len = r.read_u32()? as usize;
            let mut ranges = Vec::with_capacity(len.min(1024));
            for _ in 0..len {
                ranges.push(RangeId(r.read_u32()?));
            }
            EngineOp::Scatter {
                req: D::decode_request(r)?,
                ranges,
                of,
            }
        }
        _ => return None,
    };
    admissible(&op, at, topo).then(|| EngineMsg {
        op,
        at,
        client,
        corr,
        hops,
        topo: Arc::clone(topo),
    })
}

/// Whether a decoded op may run under the receiving process's snapshot:
/// `at` must name a range of it — the forwarding loop indexes levels, sets
/// and ranges with it unchecked — and a scatter must cover a non-empty
/// share of the ranges [`Routable::report_ranges`] names at that locus,
/// which also rejects scatters to structures that never report.
fn admissible<D: Routable>(op: &EngineOp<D>, at: GlobalRef, topo: &Topology<D>) -> bool {
    let Some(level) = topo.web.level_structs().get(at.level as usize) else {
        return false;
    };
    let Some(set) = level.sets.get(at.set as usize) else {
        return false;
    };
    let structure = level.structure(set);
    let named = (at.range as usize) < structure.num_ranges();
    let EngineOp::Scatter { req, ranges, .. } = op else {
        return named;
    };
    let reported = named.then(|| structure.report_ranges(RangeId(at.range), req));
    let Some(mut reported) = reported.flatten() else {
        return false;
    };
    reported.sort_unstable();
    !ranges.is_empty() && ranges.iter().all(|r| reported.binary_search(r).is_ok())
}

/// Serializes a fabric envelope (without its topology snapshot — see the
/// [module docs](self)).
pub(crate) fn encode_fabric_msg<D: WireCodec>(msg: &FabricMsg<D>) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    match msg {
        FabricMsg::One(m) => {
            put_u8(&mut buf, 0);
            encode_engine_msg(m, &mut buf);
        }
        FabricMsg::Batch(b) => {
            put_u8(&mut buf, 1);
            put_u32(&mut buf, b.ops.len() as u32);
            for m in &b.ops {
                encode_engine_msg(m, &mut buf);
            }
        }
    }
    buf
}

/// Deserializes a fabric envelope, re-attaching the receiving process's
/// own topology snapshot (identical on every process by
/// range-determinism). Returns `None` on malformed or trailing bytes.
pub(crate) fn decode_fabric_msg<D: WireCodec>(
    bytes: &[u8],
    topo: &Arc<Topology<D>>,
) -> Option<FabricMsg<D>> {
    let mut r = WireReader::new(bytes);
    let msg = match r.read_u8()? {
        0 => FabricMsg::One(decode_engine_msg(&mut r, topo)?),
        1 => {
            let count = r.read_u32()? as usize;
            let mut ops = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                ops.push(decode_engine_msg(&mut r, topo)?);
            }
            FabricMsg::Batch(BatchMsg { ops })
        }
        _ => return None,
    };
    r.is_empty().then_some(msg)
}

/// Serializes an engine reply.
pub(crate) fn encode_reply<D: WireCodec>(reply: &EngineReply<D>) -> Vec<u8> {
    let mut buf = Vec::with_capacity(32);
    put_u64(&mut buf, reply.corr);
    put_u32(&mut buf, reply.hops);
    match &reply.body {
        ReplyBody::Answer(a) => {
            put_u8(&mut buf, 0);
            D::encode_answer(a, &mut buf);
        }
        ReplyBody::Partial { answer, of } => {
            put_u8(&mut buf, 1);
            D::encode_answer(answer, &mut buf);
            put_u32(&mut buf, *of);
        }
        ReplyBody::Updated { applied } => {
            put_u8(&mut buf, 2);
            put_bool(&mut buf, *applied);
        }
        ReplyBody::Unavailable => put_u8(&mut buf, 3),
    }
    buf
}

/// Deserializes an engine reply. Returns `None` on malformed or trailing
/// bytes.
pub(crate) fn decode_reply<D: WireCodec>(bytes: &[u8]) -> Option<EngineReply<D>> {
    let mut r = WireReader::new(bytes);
    let corr = r.read_u64()?;
    let hops = r.read_u32()?;
    let body = match r.read_u8()? {
        0 => ReplyBody::Answer(D::decode_answer(&mut r)?),
        1 => {
            let answer = D::decode_answer(&mut r)?;
            ReplyBody::Partial {
                answer,
                of: r.read_u32()?,
            }
        }
        2 => ReplyBody::Updated {
            applied: r.read_bool()?,
        },
        3 => ReplyBody::Unavailable,
        _ => return None,
    };
    r.is_empty().then_some(EngineReply { corr, hops, body })
}

#[cfg(test)]
mod tests {
    use proptest::collection;
    use proptest::prelude::*;
    use skipweb_net::runtime::ClientId;
    use skipweb_structures::geometry::{Cell, MAX_DEPTH};
    use skipweb_structures::quadtree::{CompressedQuadtree, PointKey};
    use skipweb_structures::trapezoid::{Segment, Trapezoid, TrapezoidalMap};
    use skipweb_structures::trie::CompressedTrie;
    use skipweb_structures::SortedLinkedList;

    use super::*;
    use crate::engine::PlacementCtl;
    use crate::multidim::{PrefixAnswer, QuadtreeAnswer, QuadtreeRequest};
    use crate::skipweb::SkipWeb;

    /// A tiny but real topology snapshot for decode to re-attach; its
    /// contents are irrelevant to the codec (the wire never carries it).
    fn topo<D>(items: Vec<D::Item>) -> Arc<Topology<D>>
    where
        D: WireCodec + Send + Sync + 'static,
        D::Item: Ord,
    {
        Arc::new(Topology {
            web: Arc::new(SkipWeb::<D>::builder(items).build()),
            ctl: PlacementCtl::new(2),
            version: 0,
        })
    }

    /// Drives one envelope through encode → decode → re-encode and checks
    /// byte-for-byte stability (encode is deterministic, so byte equality
    /// of the re-encode is exactly `decode(encode(m)) == m` minus the
    /// unserialized topology `Arc`).
    fn assert_msg_roundtrips<D>(msg: &FabricMsg<D>, topo: &Arc<Topology<D>>)
    where
        D: WireCodec + Send + Sync + 'static,
    {
        let bytes = encode_fabric_msg(msg);
        let decoded = decode_fabric_msg::<D>(&bytes, topo).expect("well-formed envelope decodes");
        assert_eq!(
            encode_fabric_msg(&decoded),
            bytes,
            "decode must invert encode"
        );
        // Truncations of a valid envelope never decode (and never panic).
        for cut in [0, 1, bytes.len() / 2, bytes.len().saturating_sub(1)] {
            if cut < bytes.len() {
                assert!(decode_fabric_msg::<D>(&bytes[..cut], topo).is_none());
            }
        }
        // Trailing garbage is rejected too.
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode_fabric_msg::<D>(&long, topo).is_none());
    }

    fn assert_reply_roundtrips<D>(reply: &EngineReply<D>)
    where
        D: WireCodec + Send + Sync + 'static,
    {
        let bytes = encode_reply(reply);
        let decoded = decode_reply::<D>(&bytes).expect("well-formed reply decodes");
        assert_eq!(encode_reply(&decoded), bytes, "decode must invert encode");
        assert_eq!(decoded.corr, reply.corr);
        assert_eq!(decoded.hops, reply.hops);
        assert_eq!(decoded.body.kind(), reply.body.kind());
        for cut in [0, bytes.len().saturating_sub(1)] {
            if cut < bytes.len() {
                assert!(decode_reply::<D>(&bytes[..cut]).is_none());
            }
        }
    }

    /// Builds the three op shapes around a request/item pair, exercising
    /// both update kinds and both update phases, at an address of `topo`
    /// picked by `seed` — the decoder admits no other. A scatter is built
    /// only where that locus reports, over a share of what it reports.
    fn msgs_around<D: WireCodec>(
        topo: &Arc<Topology<D>>,
        req: D::Request,
        item: D::Item,
        seed: u64,
    ) -> Vec<FabricMsg<D>> {
        let levels = topo.web.level_structs();
        let level = seed as usize % levels.len();
        let set = seed as usize % levels[level].sets.len();
        let structure = levels[level].structure(&levels[level].sets[set]);
        let at = GlobalRef {
            level: level as u16,
            set: set as u32,
            range: (seed % structure.num_ranges() as u64) as u32,
        };
        let reported = structure.report_ranges(RangeId(at.range), &req);
        let client = ClientId(seed);
        let mk = |op: EngineOp<D>| EngineMsg {
            op,
            at,
            client,
            corr: seed ^ 0xabcd,
            hops: (seed % 40) as u32,
            topo: Arc::clone(topo),
        };
        let query = mk(EngineOp::Query {
            req: req.clone(),
            gather: seed.is_multiple_of(2),
        });
        let insert = mk(EngineOp::Update(UpdateOp {
            update: Update::Insert {
                item: item.clone(),
                bits: seed,
            },
            phase: UpdatePhase::Route,
            op_id: seed.wrapping_mul(3),
        }));
        let remove = mk(EngineOp::Update(UpdateOp {
            update: Update::Remove { item: item.clone() },
            phase: UpdatePhase::Repair {
                cursor: (seed % 5) as usize,
                trail: (0..seed % 6).map(|h| HostId(h as u32)).collect(),
            },
            op_id: seed.wrapping_mul(5),
        }));
        let scatter = reported.map(|ranges| {
            let share = 1 + seed as usize % ranges.len();
            FabricMsg::One(mk(EngineOp::Scatter {
                req: req.clone(),
                ranges: ranges[..share].to_vec(),
                of: (seed % 9) as u32,
            }))
        });
        let batch = FabricMsg::Batch(BatchMsg {
            ops: vec![
                mk(EngineOp::Query { req, gather: false }),
                mk(EngineOp::Update(UpdateOp {
                    update: Update::Insert { item, bits: !seed },
                    phase: UpdatePhase::Route,
                    op_id: seed,
                })),
            ],
        });
        let msgs = [query, insert, remove].map(FabricMsg::One);
        msgs.into_iter().chain([batch]).chain(scatter).collect()
    }

    /// All four reply bodies, with `Partial { of }` edge values and
    /// `Unavailable`.
    fn replies_around<D: WireCodec>(answer: D::Answer, seed: u64) -> Vec<EngineReply<D>> {
        let mut replies = vec![
            EngineReply {
                corr: seed,
                hops: 1,
                body: ReplyBody::Answer(answer.clone()),
            },
            EngineReply {
                corr: seed ^ 1,
                hops: u32::MAX,
                body: ReplyBody::Updated {
                    applied: seed.is_multiple_of(2),
                },
            },
            EngineReply {
                corr: u64::MAX,
                hops: 0,
                body: ReplyBody::Unavailable,
            },
        ];
        for of in [0u32, 1, 2, u32::MAX] {
            replies.push(EngineReply {
                corr: seed.rotate_left(7),
                hops: (seed % 3) as u32,
                body: ReplyBody::Partial {
                    answer: answer.clone(),
                    of,
                },
            });
        }
        replies
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// 1-D web: `u64` keys and `Option<u64>` answers.
        #[test]
        fn onedim_envelopes_round_trip(key in any::<u64>(), seed in any::<u64>()) {
            let topo = topo::<SortedLinkedList>(vec![1, 2, 3]);
            for msg in msgs_around::<SortedLinkedList>(&topo, key, key ^ 7, seed) {
                assert_msg_roundtrips(&msg, &topo);
            }
            for reply in replies_around::<SortedLinkedList>(
                (seed.is_multiple_of(2)).then_some(key),
                seed,
            ) {
                assert_reply_roundtrips(&reply);
            }
        }

        /// Quadtree web: point and box requests, located and report
        /// answers.
        #[test]
        fn quadtree_envelopes_round_trip(
            coords in collection::vec((any::<u32>(), any::<u32>()), 2..6),
            code in any::<u64>(),
            depth in 0u32..33,
            seed in any::<u64>(),
        ) {
            let base: Vec<PointKey<2>> =
                vec![PointKey::new([1, 2]), PointKey::new([8, 3]), PointKey::new([5, 9])];
            let topo = topo::<CompressedQuadtree<2>>(base);
            let pts: Vec<PointKey<2>> =
                coords.iter().map(|&(x, y)| PointKey::new([x, y])).collect();
            let (x0, y0) = coords[0];
            let (x1, y1) = coords[1];
            let reqs = [
                QuadtreeRequest::Locate(pts[0]),
                QuadtreeRequest::InBox { lo: [x0, y0], hi: [x1, y1] },
            ];
            for req in reqs {
                for msg in msgs_around::<CompressedQuadtree<2>>(&topo, req, pts[1], seed) {
                    assert_msg_roundtrips(&msg, &topo);
                }
            }
            prop_assert!(depth <= MAX_DEPTH);
            let answers = [
                QuadtreeAnswer::Located {
                    cell: Cell::<2>::at_depth(code as u128, depth),
                    approx_nearest: (seed.is_multiple_of(2)).then_some(pts[0]),
                },
                QuadtreeAnswer::Points(pts.clone()),
                QuadtreeAnswer::Points(Vec::new()),
            ];
            for answer in answers {
                for reply in replies_around::<CompressedQuadtree<2>>(answer.clone(), seed) {
                    assert_reply_roundtrips(&reply);
                }
            }
        }

        /// Trie web: UTF-8 strings both ways, including the empty string.
        #[test]
        fn trie_envelopes_round_trip(
            words in collection::vec("[a-z]{0,12}", 1..5),
            matched_len in 0u32..64,
            seed in any::<u64>(),
        ) {
            let topo = topo::<CompressedTrie>(vec![
                "alpha".into(),
                "beta".into(),
                "gamma".into(),
            ]);
            for msg in msgs_around::<CompressedTrie>(
                &topo,
                words[0].clone(),
                words[words.len() - 1].clone(),
                seed,
            ) {
                assert_msg_roundtrips(&msg, &topo);
            }
            let mut matches = words.clone();
            matches.sort();
            let answer = PrefixAnswer {
                matched_len: matched_len as usize,
                matches,
            };
            for reply in replies_around::<CompressedTrie>(answer, seed) {
                assert_reply_roundtrips(&reply);
            }
        }

        /// Trapezoidal map: segments and optional-bounded trapezoids.
        #[test]
        fn trapezoid_envelopes_round_trip(
            q in (-1_000_000i64..1_000_000, -1_000_000i64..1_000_000),
            ends in collection::vec((-1_000i64..1_000, -1_000i64..1_000), 4..8),
            seed in any::<u64>(),
        ) {
            let topo = topo::<TrapezoidalMap>(vec![
                Segment::new((0, 0), (10, 1)),
                Segment::new((2, 5), (9, 6)),
            ]);
            let seg = |a: (i64, i64), mut b: (i64, i64)| {
                if a.0 == b.0 {
                    b.0 += 1; // general position: never vertical
                }
                Segment::new(a, b)
            };
            let item = seg(ends[0], ends[1]);
            for msg in msgs_around::<TrapezoidalMap>(&topo, q, item, seed) {
                assert_msg_roundtrips(&msg, &topo);
            }
            let answers = [
                Trapezoid {
                    top: Some(seg(ends[2], ends[3])),
                    bottom: Some(item),
                    left_x: Some(q.0),
                    right_x: Some(q.0 + 5),
                },
                Trapezoid {
                    top: None,
                    bottom: None,
                    left_x: None,
                    right_x: None,
                },
            ];
            for answer in answers {
                for reply in replies_around::<TrapezoidalMap>(answer, seed) {
                    assert_reply_roundtrips(&reply);
                }
            }
        }
    }

    /// The update layout of the module docs, byte for byte: carrying an
    /// [`Update`] instead of a kind + item pair must not move a byte.
    #[test]
    fn update_envelopes_keep_their_wire_bytes() {
        use skipweb_net::wire::{put_u16, put_u32, put_u64, put_u8};
        let topo = topo::<SortedLinkedList>(vec![1, 2, 3]);
        let encoded = |update| {
            encode_fabric_msg(&FabricMsg::One(EngineMsg::<SortedLinkedList> {
                op: EngineOp::Update(UpdateOp {
                    update,
                    phase: UpdatePhase::Repair {
                        cursor: 1,
                        trail: vec![HostId(4), HostId(6)],
                    },
                    op_id: 13,
                }),
                at: GlobalRef {
                    level: 3,
                    set: 5,
                    range: 7,
                },
                client: ClientId(9),
                corr: 11,
                hops: 2,
                topo: Arc::clone(&topo),
            }))
        };
        // `kind` is the one field that differs: 0 · bits, or 1.
        let expected = |kind: &[u8]| {
            let mut buf = vec![0]; // FabricMsg::One
            put_u16(&mut buf, 3);
            put_u32(&mut buf, 5);
            put_u32(&mut buf, 7);
            put_u64(&mut buf, 9);
            put_u64(&mut buf, 11);
            put_u32(&mut buf, 2);
            put_u8(&mut buf, 1); // op: update
            buf.extend_from_slice(kind);
            put_u8(&mut buf, 1); // phase: repair · cursor · trail
            put_u64(&mut buf, 1);
            for word in [2, 4, 6] {
                put_u32(&mut buf, word);
            }
            put_u64(&mut buf, 13); // op id
            put_u64(&mut buf, 42); // item
            buf
        };
        let bits = 0xBEEF_u64;
        let insert = [&[0u8][..], &bits.to_le_bytes()].concat();
        assert_eq!(
            encoded(Update::Insert { item: 42, bits }),
            expected(&insert)
        );
        assert_eq!(encoded(Update::Remove { item: 42 }), expected(&[1]));
    }

    /// Well-formed envelopes the receiving snapshot cannot run decode to
    /// `None` instead of reaching the forwarding loop: an address naming no
    /// level, set or range of it; an empty scatter; and a scatter over a
    /// range the locus does not report — on the list, which never reports,
    /// any scatter at all.
    fn assert_hostile_frames_rejected<D>(topo: &Arc<Topology<D>>, req: D::Request)
    where
        D: WireCodec + Send + Sync + 'static,
    {
        let locus = GlobalRef {
            level: 0,
            set: 0,
            range: 0,
        };
        let base = topo.web.base();
        let n = base.num_ranges() as u32;
        let reported = base.report_ranges(RangeId(0), &req).unwrap_or_default();
        let stray = (0..n).map(RangeId).find(|r| !reported.contains(r));
        let frame = |at: GlobalRef, op: EngineOp<D>| {
            encode_fabric_msg(&FabricMsg::One(EngineMsg {
                op,
                at,
                client: ClientId(1),
                corr: 2,
                hops: 0,
                topo: Arc::clone(topo),
            }))
        };
        let query = || EngineOp::Query {
            req: req.clone(),
            gather: true,
        };
        let scatter = |ranges| EngineOp::Scatter {
            req: req.clone(),
            ranges,
            of: 1,
        };
        let hostile = [
            frame(GlobalRef { range: n, ..locus }, query()),
            frame(GlobalRef { set: 1, ..locus }, query()),
            frame(GlobalRef { level: 64, ..locus }, query()),
            frame(locus, scatter(Vec::new())),
            frame(
                locus,
                scatter(vec![stray.expect("a range outside the report")]),
            ),
        ];
        for bytes in hostile {
            assert!(decode_fabric_msg::<D>(&bytes, topo).is_none());
        }
        assert!(decode_fabric_msg::<D>(&frame(locus, query()), topo).is_some());
    }

    #[test]
    fn hostile_addresses_and_scatters_decode_to_none() {
        assert_hostile_frames_rejected(&topo::<SortedLinkedList>(vec![1, 2, 3]), 2);
        let points = (0..9).map(|i| PointKey::new([i * 7, i * 5])).collect();
        let box_req = QuadtreeRequest::InBox {
            lo: [0, 0],
            hi: [8, 6],
        };
        assert_hostile_frames_rejected(&topo::<CompressedQuadtree<2>>(points), box_req);
        let words = ["alpha", "alps", "beta", "gamma"]
            .map(String::from)
            .to_vec();
        assert_hostile_frames_rejected(&topo::<CompressedTrie>(words), "al".to_string());
    }

    /// A vertical or out-of-`i32` segment on the wire must decode to
    /// `None` instead of tripping `Segment::new`'s asserts.
    #[test]
    fn malformed_segment_bytes_never_panic() {
        let mut vertical = Vec::new();
        for v in [5i64, 0, 5, 9] {
            skipweb_net::wire::put_i64(&mut vertical, v);
        }
        let mut huge = Vec::new();
        for v in [i64::MIN, 0, 17, 9] {
            skipweb_net::wire::put_i64(&mut huge, v);
        }
        for bytes in [vertical, huge] {
            let mut reply = Vec::new();
            skipweb_net::wire::put_u64(&mut reply, 1); // corr
            skipweb_net::wire::put_u32(&mut reply, 0); // hops
            skipweb_net::wire::put_u8(&mut reply, 0); // Answer
            skipweb_net::wire::put_u8(&mut reply, 1); // top = Some(segment)
            reply.extend_from_slice(&bytes);
            skipweb_net::wire::put_u8(&mut reply, 0); // bottom = None
            skipweb_net::wire::put_u8(&mut reply, 0); // left_x = None
            skipweb_net::wire::put_u8(&mut reply, 0); // right_x = None
            assert!(decode_reply::<TrapezoidalMap>(&reply).is_none());
        }
    }
}
