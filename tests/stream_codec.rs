//! Property tests for the streaming journal codecs (DESIGN §12): every
//! chunk kind round-trips losslessly through its compact wire form, the
//! digest chain is reproducible from raw frame bytes, metrics deltas
//! fold back to the exact snapshot they were diffed from, and no
//! mutated payload — truncated or bit-flipped — may ever panic a
//! decoder (frame CRCs catch corruption; decoders only need to be
//! total).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use journal::store::chain;
use journal::stream::chunk_own_digest;
use journal::{
    DecisionChunkRec, DecisionRec, EventChunkRec, IndexRec, MetricsDeltaRec, StreamSummary,
};
use marcel::{Event, HistSnapshot, MetricsSnapshot, SpanKind, ThreadMeta, TraceEvent, VirtualTime};
use proptest::collection::vec;
use proptest::prelude::*;

/// A proptest-driven sampler over every field shape the event codec
/// handles: unit variants, usizes, virtual times, interned channel
/// names (`Arc<str>`), packet kinds and span labels (which must be in
/// `mpich::TRACE_LABELS`), signed tags, and spans.
fn arb_event() -> impl Strategy<Value = Event> {
    let chan = || prop_oneof![Just("tcp#0"), Just("sci#1"), Just("bip#2")];
    let kind = || prop_oneof![Just("SHORT"), Just("REQUEST"), Just("SENDOK")];
    let span = || {
        prop_oneof![
            Just(SpanKind::Pack),
            Just(SpanKind::Unpack),
            Just(SpanKind::Handle),
            Just(SpanKind::Setup),
            Just(SpanKind::Stripe),
            Just(SpanKind::Post),
            Just(SpanKind::Coll),
        ]
    };
    prop_oneof![
        Just(Event::Spawn),
        Just(Event::Exit),
        (0usize..64).prop_map(|sem| Event::SemBlock { sem }),
        (0usize..64, any::<u64>()).prop_map(|(sem, t)| Event::SemBlockTimeout {
            sem,
            deadline: VirtualTime(t),
        }),
        (0usize..64, 0usize..64).prop_map(|(sem, woken)| Event::SemWake { sem, woken }),
        (0usize..64).prop_map(|source| Event::PollWake { source }),
        (chan(), 0usize..16, any::<u64>(), 0usize..1 << 20, 1usize..4).prop_map(
            |(c, to, seq, bytes, segments)| Event::Pack {
                channel: Arc::from(c),
                to,
                seq,
                bytes,
                segments,
            }
        ),
        (chan(), 0usize..16, any::<u64>(), 0usize..1 << 20).prop_map(|(c, from, seq, bytes)| {
            Event::Unpack {
                channel: Arc::from(c),
                from,
                seq,
                bytes,
            }
        }),
        (0usize..16, 0usize..16, kind(), chan(), 0usize..1 << 20).prop_map(
            |(rank, dst, k, rail, bytes)| Event::PacketSent {
                rank,
                dst,
                kind: k,
                rail: Arc::from(rail),
                bytes,
            }
        ),
        (0usize..16, 0usize..16, kind()).prop_map(|(rank, src, k)| Event::PacketDelivered {
            rank,
            src,
            kind: k,
        }),
        (0usize..16, 0usize..16, any::<i32>(), any::<bool>()).prop_map(
            |(rank, src, tag, unexpected)| Event::RecvMatched {
                rank,
                src,
                tag,
                unexpected,
            }
        ),
        (0usize..16, 0usize..16, any::<i32>(), 0usize..64).prop_map(|(rank, src, tag, depth)| {
            Event::UnexpectedQueued {
                rank,
                src,
                tag,
                depth,
            }
        }),
        (any::<u64>(), span(), 0u8..3).prop_map(|(id, kind, label)| Event::SpanBegin {
            id,
            kind,
            label: ["tcp", "adi", "allreduce"][label as usize],
        }),
        (any::<u64>(), span()).prop_map(|(id, kind)| Event::SpanEnd {
            id,
            kind,
            label: "sisci",
        }),
    ]
}

fn arb_chunk() -> impl Strategy<Value = EventChunkRec> {
    (
        (0u32..1 << 16, 0u32..1 << 10, any::<bool>(), 0u64..1 << 40),
        vec((arb_event(), any::<u64>(), 0usize..64), 0..48),
        vec((0u32..100, 0u32..16), 0..4),
        any::<u64>(),
    )
        .prop_map(|((episode, seq, fin, first_ticket), evs, threads, cum)| {
            let events = evs
                .into_iter()
                .enumerate()
                .map(|(i, (what, t, tid))| TraceEvent {
                    time: VirtualTime(t),
                    tid,
                    ticket: first_ticket + i as u64,
                    what,
                })
                .collect();
            EventChunkRec {
                episode,
                seq,
                fin,
                first_ticket,
                events,
                threads: threads
                    .into_iter()
                    .map(|(n, pid)| ThreadMeta {
                        name: format!("rank{n}"),
                        pid,
                    })
                    .collect(),
                cum,
            }
        })
}

/// Registry values live below `2^63` (counts, bytes, nanoseconds) —
/// that is the documented domain of the signed-delta codec, so the
/// generators respect it.
fn arb_metric() -> impl Strategy<Value = u64> {
    0u64..1 << 62
}

fn arb_hist() -> impl Strategy<Value = HistSnapshot> {
    (
        arb_metric(),
        arb_metric(),
        arb_metric(),
        arb_metric(),
        vec(arb_metric(), 32),
    )
        .prop_map(|(count, sum_ns, min_ns, max_ns, b)| HistSnapshot {
            count,
            sum_ns,
            min_ns,
            max_ns,
            buckets: b.try_into().expect("32 buckets"),
        })
}

fn arb_snapshot() -> impl Strategy<Value = MetricsSnapshot> {
    let key = || prop_oneof![Just("a/x"), Just("b/y"), Just("c/z"), Just("d/w")];
    (
        vec((key(), arb_metric()), 0..4),
        vec((key(), arb_metric()), 0..4),
        vec((key(), arb_hist()), 0..3),
    )
        .prop_map(|(c, g, h)| MetricsSnapshot {
            counters: c.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
            gauges: g.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
            hists: h.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        })
}

fn arb_pos() -> impl Strategy<Value = Option<(u32, u64)>> {
    (any::<bool>(), 0u32..64, 0u64..1 << 30).prop_map(|(some, seg, off)| some.then_some((seg, off)))
}

fn arb_summary() -> impl Strategy<Value = StreamSummary> {
    (
        (0u32..1 << 10, any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (arb_pos(), arb_pos(), arb_pos()),
    )
        .prop_map(
            |(
                (episode, events, decisions, first_event_ticket),
                (first_sched_ticket, decisions_digest, cum),
                (event_pos, decision_pos, metrics_pos),
            )| StreamSummary {
                episode,
                events,
                decisions,
                first_event_ticket,
                first_sched_ticket,
                decisions_digest,
                cum,
                event_pos,
                decision_pos,
                metrics_pos,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Event chunks survive the wire losslessly, and the chunk digest
    /// chain recomputes from the raw encoded payload exactly as the
    /// journal reader does it.
    #[test]
    fn event_chunk_round_trips(chunk in arb_chunk(), prev in any::<u64>()) {
        let mut chunk = chunk.clone();
        chunk.seal(prev);
        let buf = chunk.encode();
        let back = EventChunkRec::decode(&buf).expect("decode own encoding");
        prop_assert_eq!(&back, &chunk);
        let own = chunk_own_digest(&buf).expect("payload carries a digest");
        prop_assert_eq!(chain(prev, own), chunk.cum);
    }

    /// No truncation or single-bit corruption of an event chunk payload
    /// may panic the decoder — `Err` or a decoded value, never an abort.
    #[test]
    fn mutated_event_chunks_never_panic(
        chunk in arb_chunk(),
        cut_salt in any::<u64>(),
        flip_salt in any::<u64>(),
    ) {
        let mut chunk = chunk.clone();
        chunk.seal(0);
        let buf = chunk.encode();
        let cut = (cut_salt % (buf.len() as u64 + 1)) as usize;
        let truncated = buf[..cut].to_vec();
        catch_unwind(AssertUnwindSafe(|| {
            let _ = EventChunkRec::decode(&truncated);
        }))
        .expect("decoder panicked on truncation");
        if !buf.is_empty() {
            let mut flipped = buf.clone();
            let byte = (flip_salt % flipped.len() as u64) as usize;
            flipped[byte] ^= 1 << ((flip_salt >> 32) % 8);
            catch_unwind(AssertUnwindSafe(|| {
                let _ = EventChunkRec::decode(&flipped);
            }))
            .expect("decoder panicked on bit flip");
        }
    }

    /// Decision chunks round-trip (tickets implicit, events_before
    /// delta-coded), and truncated payloads fail typed, never abort.
    #[test]
    fn decision_chunk_round_trips(
        episode in 0u32..1 << 16,
        seq in 0u32..1 << 10,
        first_ticket in 0u64..1 << 40,
        rows in vec(((0u32..64, any::<u64>()), (any::<bool>(), 0u64..1 << 20)), 0..48),
        prev in any::<u64>(),
    ) {
        let mut events_before = 0u64;
        let decisions: Vec<DecisionRec> = rows
            .clone()
            .into_iter()
            .enumerate()
            .map(|(i, ((tid, at_ns), (fallback, gap)))| {
                events_before += gap; // monotone, as the kernel guarantees
                DecisionRec {
                    ticket: first_ticket + i as u64,
                    tid,
                    at_ns,
                    fallback,
                    events_before,
                }
            })
            .collect();
        let mut chunk = DecisionChunkRec { episode, seq, first_ticket, decisions, cum: 0 };
        chunk.seal(prev);
        let buf = chunk.encode();
        let back = DecisionChunkRec::decode(&buf).expect("decode own encoding");
        prop_assert_eq!(&back, &chunk);

        let cut = buf.len() / 2;
        catch_unwind(AssertUnwindSafe(|| {
            let _ = DecisionChunkRec::decode(&buf[..cut]);
        }))
        .expect("decoder panicked on truncation");
    }

    /// `diff` then `apply` reproduces the target snapshot exactly, for
    /// arbitrary before/after registries (including vanished keys and
    /// shrinking gauges), and the delta itself round-trips the wire.
    #[test]
    fn metrics_delta_is_exact_and_round_trips(
        prev in arb_snapshot(),
        next in arb_snapshot(),
        episode in 0u32..1 << 16,
    ) {
        let delta = MetricsDeltaRec::diff(episode, &prev, &next);
        let buf = delta.encode();
        let back = MetricsDeltaRec::decode(&buf).expect("decode own encoding");
        prop_assert_eq!(&back, &delta);

        let mut folded = prev.clone();
        back.apply(&mut folded).expect("apply own diff");
        prop_assert_eq!(folded, next);

        let cut = buf.len() / 3;
        catch_unwind(AssertUnwindSafe(|| {
            let _ = MetricsDeltaRec::decode(&buf[..cut]);
        }))
        .expect("decoder panicked on truncation");
    }

    /// The seekable index round-trips with every summary field intact
    /// (positions included — they are what makes it an index).
    #[test]
    fn index_round_trips(entries in vec(arb_summary(), 0..12)) {
        let rec = IndexRec { entries: entries.clone() };
        let buf = rec.encode();
        let back = IndexRec::decode(&buf).expect("decode own encoding");
        prop_assert_eq!(back, rec);
    }
}

/// Entry `i` of a chunk has ticket `first_ticket + i`: a chunk whose
/// ticket range runs past `u64::MAX` must fail to decode with a typed
/// error, not overflow.
#[test]
fn event_chunk_ticket_overflow_is_a_decode_error() {
    let spawn = TraceEvent {
        time: VirtualTime(0),
        tid: 0,
        ticket: u64::MAX,
        what: Event::Spawn,
    };
    let mut chunk = EventChunkRec {
        episode: 0,
        seq: 0,
        fin: false,
        first_ticket: u64::MAX,
        events: vec![spawn.clone(), spawn],
        threads: Vec::new(),
        cum: 0,
    };
    chunk.seal(0);
    let err = EventChunkRec::decode(&chunk.encode()).expect_err("ticket range overflows");
    assert_eq!(err.what, "event_chunk.first_ticket");
}

#[test]
fn decision_chunk_ticket_overflow_is_a_decode_error() {
    let decision = |ticket| DecisionRec {
        ticket,
        tid: 0,
        at_ns: 0,
        fallback: false,
        events_before: 0,
    };
    let mut chunk = DecisionChunkRec {
        episode: 0,
        seq: 0,
        first_ticket: u64::MAX,
        decisions: vec![decision(u64::MAX), decision(u64::MAX.wrapping_add(1))],
        cum: 0,
    };
    chunk.seal(0);
    let err = DecisionChunkRec::decode(&chunk.encode()).expect_err("ticket range overflows");
    assert_eq!(err.what, "decision_chunk.first_ticket");
}

/// Packet kinds and span labels decode only to entries of
/// `mpich::TRACE_LABELS`: a chunk whose string table carries any other
/// label is a typed error, not a string kept for the life of the
/// process.
#[test]
fn unlisted_labels_are_decode_errors() {
    let decode_one = |what: Event| {
        let mut chunk = EventChunkRec {
            episode: 0,
            seq: 0,
            fin: false,
            first_ticket: 0,
            events: vec![TraceEvent {
                time: VirtualTime(0),
                tid: 0,
                ticket: 0,
                what,
            }],
            threads: Vec::new(),
            cum: 0,
        };
        chunk.seal(0);
        EventChunkRec::decode(&chunk.encode())
    };
    let span = |label| Event::SpanBegin {
        id: 1,
        kind: SpanKind::Pack,
        label,
    };
    let kind = |kind| Event::PacketDelivered {
        rank: 0,
        src: 1,
        kind,
    };
    assert!(decode_one(span("tcp")).is_ok());
    assert!(decode_one(kind("RNDV")).is_ok());
    let err = decode_one(span("crafted")).expect_err("unlisted span label");
    assert_eq!(err.what, "event.label");
    let err = decode_one(kind("EAGER")).expect_err("unlisted packet kind");
    assert_eq!(err.what, "event.kind");
}
