//! Streaming flight recorder: typed event/decision chunks, metrics
//! deltas, and the seekable (episode, ticket) index (DESIGN §12).
//!
//! The journal's only recorder. With `SoakConfig::stream_chunk > 0`
//! every episode runs with tracing on and a [`StreamRecorder`]
//! installed as the kernel's [`marcel::EventSink`]: the trace and
//! decision buffers are flushed to the journal in bounded chunks
//! instead of accumulating per episode, so buffered bytes stay constant
//! in episode length (the `journal.stream.hwm` gauge proves it) and the
//! full event history of a million-message campaign survives on disk.
//!
//! Four frame kinds carry the stream:
//!
//! * [`EventChunkRec`] — a contiguous, ticket-ordered run of trace
//!   events in a compact varint encoding with a per-chunk string table
//!   (channel/rail/packet-kind/span-label strings are stored once per
//!   chunk, referenced by index; packet kinds and span labels must be
//!   in [`mpich::TRACE_LABELS`]). The final chunk of an episode
//!   (`fin`) also carries the [`marcel::ThreadMeta`] table the Chrome
//!   exporter needs.
//! * [`DecisionChunkRec`] — a run of committer decisions, each a
//!   [`DecisionRec`] with the `events_before` cursor bridging
//!   scheduling tickets to trace tickets.
//! * [`MetricsDeltaRec`] — the metrics registry of this episode as a
//!   signed delta against the previous episode's registry (episodes
//!   have independent registries with near-identical contents, so the
//!   delta is tiny); folding deltas `0..=K` materializes the exact
//!   snapshot at episode boundary `K`.
//! * [`IndexRec`] — the seekable index, cumulative and rewritten after
//!   every snapshot: it maps each episode to the journal position of
//!   its first event chunk, first decision chunk and metrics delta plus
//!   its ticket ranges, so a reader can jump to (episode, ticket)
//!   without scanning segments.
//!
//! Integrity: every chunk payload ends with a fixed 8-byte `cum` field
//! — the stream digest chain `cum' = chain(cum, crc64(payload minus the
//! trailing 8 bytes))` folded over the episode's event *and* decision
//! chunks in append order. A streamed episode's `trace_digest` in its
//! [`crate::record::EpisodeRecord`] is the final chain value, tying the
//! chunk stream into the episode chain: corrupt or reorder any
//! chunk and the episode record no longer validates.
//!
//! One accumulator: `StreamAccum` holds an episode's stream bookkeeping
//! (its [`StreamSummary`], chunk sequence and ticket cursors, decision
//! digest, frame positions). The recorder updates it with each chunk it
//! appends; the journal reader checks each chunk it reads and then
//! updates the same accumulator, so the index entry written and the one
//! rebuilt on read are one fold over the same chunks.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use marcel::{
    Decision, Event, EventSink, MetricsSnapshot, SpanKind, ThreadMeta, TraceEvent, VirtualTime,
};

use crate::codec::{Dec, DecodeError, Enc};
use crate::crc::crc64;
use crate::error::JournalError;
use crate::record::{
    DecisionRec, DECISION_DIGEST_SEED, KIND_DECISION_CHUNK, KIND_EVENT_CHUNK, KIND_METRICS_DELTA,
};
use crate::store::{chain, JournalWriter};

// ---------------------------------------------------------------------------
// Small shared codecs
// ---------------------------------------------------------------------------

fn span_kind_code(k: SpanKind) -> u8 {
    match k {
        SpanKind::Pack => 0,
        SpanKind::Unpack => 1,
        SpanKind::Handle => 2,
        SpanKind::Setup => 3,
        SpanKind::Stripe => 4,
        SpanKind::Post => 5,
        SpanKind::Coll => 6,
    }
}

fn span_kind_from(code: u8, at: usize) -> Result<SpanKind, DecodeError> {
    Ok(match code {
        0 => SpanKind::Pack,
        1 => SpanKind::Unpack,
        2 => SpanKind::Handle,
        3 => SpanKind::Setup,
        4 => SpanKind::Stripe,
        5 => SpanKind::Post,
        6 => SpanKind::Coll,
        _ => {
            return Err(DecodeError {
                what: "event.span_kind",
                at,
            })
        }
    })
}

/// Per-chunk string table, built in first-use order during encoding
/// (deterministic: events are encoded in ticket order).
#[derive(Default)]
struct StrTable {
    map: HashMap<String, u32>,
    list: Vec<String>,
}

impl StrTable {
    fn idx(&mut self, s: &str) -> u32 {
        if let Some(&i) = self.map.get(s) {
            return i;
        }
        let i = self.list.len() as u32;
        self.map.insert(s.to_string(), i);
        self.list.push(s.to_string());
        i
    }
}

/// Decoded string table, each entry resolved once per chunk: the
/// `Arc<str>` every event referencing it shares, and its entry in
/// [`mpich::TRACE_LABELS`] when it is one of the stack's labels.
struct StrView {
    list: Vec<(Arc<str>, Option<&'static str>)>,
}

impl StrView {
    fn entry(&self, i: u32, at: usize) -> Result<&(Arc<str>, Option<&'static str>), DecodeError> {
        self.list.get(i as usize).ok_or(DecodeError {
            what: "event.string_index",
            at,
        })
    }

    fn arc(&self, i: u32, at: usize) -> Result<Arc<str>, DecodeError> {
        Ok(self.entry(i, at)?.0.clone())
    }

    /// The listed label at `i`; an unlisted string fails as `what`.
    fn label(&self, i: u32, what: &'static str, at: usize) -> Result<&'static str, DecodeError> {
        self.entry(i, at)?.1.ok_or(DecodeError { what, at })
    }
}

/// How one field of a trace event travels: written by [`enc_event`],
/// read back by [`dec_event`]. Strings go through the chunk's string
/// table; `what` names the field in a decode error.
trait Field: Sized {
    fn enc(&self, e: &mut Enc, table: &mut StrTable);
    fn dec(d: &mut Dec<'_>, table: &StrView, what: &'static str, at: usize) -> DecResult<Self>;
}

type DecResult<T> = Result<T, DecodeError>;

impl Field for usize {
    fn enc(&self, e: &mut Enc, _: &mut StrTable) {
        e.vu64(*self as u64)
    }
    fn dec(d: &mut Dec<'_>, _: &StrView, what: &'static str, _: usize) -> DecResult<Self> {
        Ok(d.vu64(what)? as usize)
    }
}

impl Field for u64 {
    fn enc(&self, e: &mut Enc, _: &mut StrTable) {
        e.vu64(*self)
    }
    fn dec(d: &mut Dec<'_>, _: &StrView, what: &'static str, _: usize) -> DecResult<Self> {
        d.vu64(what)
    }
}

impl Field for u32 {
    fn enc(&self, e: &mut Enc, _: &mut StrTable) {
        e.vu32(*self)
    }
    fn dec(d: &mut Dec<'_>, _: &StrView, what: &'static str, _: usize) -> DecResult<Self> {
        d.vu32(what)
    }
}

impl Field for i32 {
    fn enc(&self, e: &mut Enc, _: &mut StrTable) {
        e.vi64(*self as i64)
    }
    fn dec(d: &mut Dec<'_>, _: &StrView, what: &'static str, _: usize) -> DecResult<Self> {
        Ok(d.vi64(what)? as i32)
    }
}

impl Field for bool {
    fn enc(&self, e: &mut Enc, _: &mut StrTable) {
        e.bool(*self)
    }
    fn dec(d: &mut Dec<'_>, _: &StrView, what: &'static str, _: usize) -> DecResult<Self> {
        d.bool(what)
    }
}

impl Field for VirtualTime {
    fn enc(&self, e: &mut Enc, _: &mut StrTable) {
        e.vu64(self.0)
    }
    fn dec(d: &mut Dec<'_>, _: &StrView, what: &'static str, _: usize) -> DecResult<Self> {
        Ok(VirtualTime(d.vu64(what)?))
    }
}

impl Field for SpanKind {
    fn enc(&self, e: &mut Enc, _: &mut StrTable) {
        e.u8(span_kind_code(*self))
    }
    fn dec(d: &mut Dec<'_>, _: &StrView, what: &'static str, at: usize) -> DecResult<Self> {
        span_kind_from(d.u8(what)?, at)
    }
}

impl Field for Arc<str> {
    fn enc(&self, e: &mut Enc, table: &mut StrTable) {
        e.vu32(table.idx(self))
    }
    fn dec(d: &mut Dec<'_>, table: &StrView, what: &'static str, at: usize) -> DecResult<Self> {
        table.arc(d.vu32(what)?, at)
    }
}

impl Field for &'static str {
    fn enc(&self, e: &mut Enc, table: &mut StrTable) {
        e.vu32(table.idx(self))
    }
    fn dec(d: &mut Dec<'_>, table: &StrView, what: &'static str, at: usize) -> DecResult<Self> {
        table.label(d.vu32(what)?, what, at)
    }
}

/// The trace-event wire format, described once: each row is an
/// [`Event`] variant's tag byte and its fields in wire order, each with
/// the name a decode error reports. Both [`enc_event`] and
/// [`dec_event`] are generated from the table, so the writer and the
/// reader cannot drift apart.
macro_rules! event_codec {
    ($($tag:literal => $variant:ident { $($field:ident: $what:literal),* },)*) => {
        fn enc_event(e: &mut Enc, ev: &TraceEvent, table: &mut StrTable) {
            e.vu64(ev.time.0);
            e.vu64(ev.tid as u64);
            match &ev.what {
                $(Event::$variant { $($field),* } => {
                    e.u8($tag);
                    $(Field::enc($field, e, table);)*
                })*
            }
        }

        fn dec_event(
            d: &mut Dec<'_>,
            ticket: u64,
            table: &StrView,
            at: usize,
        ) -> DecResult<TraceEvent> {
            let time = VirtualTime(d.vu64("event.time")?);
            let tid = d.vu64("event.tid")? as usize;
            let what = match d.u8("event.tag")? {
                $($tag => Event::$variant { $($field: Field::dec(d, table, $what, at)?),* },)*
                _ => return Err(DecodeError { what: "event.tag", at }),
            };
            Ok(TraceEvent { time, tid, ticket, what })
        }
    };
}

event_codec! {
    0 => Spawn {},
    1 => Exit {},
    2 => SemBlock { sem: "event.sem" },
    3 => SemBlockTimeout { sem: "event.sem", deadline: "event.deadline" },
    4 => SemWake { sem: "event.sem", woken: "event.woken" },
    5 => PollWake { source: "event.source" },
    6 => PollQueued { source: "event.source" },
    7 => PollWaited { source: "event.source" },
    8 => Pack {
        channel: "event.channel", to: "event.to", seq: "event.seq", bytes: "event.bytes",
        segments: "event.segments"
    },
    9 => Unpack {
        channel: "event.channel", from: "event.from", seq: "event.seq", bytes: "event.bytes"
    },
    10 => Retransmit {
        channel: "event.channel", to: "event.to", seq: "event.seq", attempt: "event.attempt"
    },
    11 => DedupDrop { channel: "event.channel", from: "event.from", seq: "event.seq" },
    12 => PacketSent {
        rank: "event.rank", dst: "event.dst", kind: "event.kind", rail: "event.rail",
        bytes: "event.bytes"
    },
    13 => PacketDelivered { rank: "event.rank", src: "event.src", kind: "event.kind" },
    14 => RailSelected {
        rank: "event.rank", dst: "event.dst", rail: "event.rail", bytes: "event.bytes"
    },
    15 => RailFailover {
        rank: "event.rank", dst: "event.dst", from_rail: "event.from_rail", to_rail: "event.to_rail"
    },
    16 => RndvRequest {
        rank: "event.rank", dst: "event.dst", token: "event.token", bytes: "event.bytes"
    },
    17 => RndvAck { rank: "event.rank", src: "event.src", token: "event.token" },
    18 => RecvPosted { rank: "event.rank", depth: "event.depth" },
    19 => RecvMatched {
        rank: "event.rank", src: "event.src", tag: "event.tag", unexpected: "event.unexpected"
    },
    20 => UnexpectedQueued {
        rank: "event.rank", src: "event.src", tag: "event.tag", depth: "event.depth"
    },
    21 => SpanBegin { id: "event.span_id", kind: "event.span_kind", label: "event.label" },
    22 => SpanEnd { id: "event.span_id", kind: "event.span_kind", label: "event.label" },
}

// ---------------------------------------------------------------------------
// Sealed chunks
// ---------------------------------------------------------------------------

/// The chunk's own contribution to the stream chain: CRC-64 of the
/// payload minus its trailing 8-byte `cum` field. Computed from the raw
/// frame bytes so reader and writer cannot disagree on canonicalization.
pub fn chunk_own_digest(payload: &[u8]) -> Option<u64> {
    payload.len().checked_sub(8).map(|n| crc64(&payload[..n]))
}

/// The sealed-chunk layout shared by event and decision chunks: the
/// chunk's core encoding, then its 8-byte `cum` field.
fn sealed(mut core: Vec<u8>, cum: u64) -> Vec<u8> {
    core.extend_from_slice(&cum.to_le_bytes());
    core
}

/// Seal `core` onto the stream chain at `prev`: store the new chain
/// value in `cum` and return the frame payload plus the chunk's own
/// digest (the CRC the stream accumulator chains).
fn seal_core(core: Vec<u8>, prev: u64, cum: &mut u64) -> (Vec<u8>, u64) {
    let own = crc64(&core);
    *cum = chain(prev, own);
    (sealed(core, *cum), own)
}

/// Split a sealed payload into a decoder over its core and its `cum`.
fn unseal<'a>(buf: &'a [u8], what: &'static str) -> Result<(Dec<'a>, u64), DecodeError> {
    let cut = buf
        .len()
        .checked_sub(8)
        .ok_or(DecodeError { what, at: 0 })?;
    let cum = u64::from_le_bytes(buf[cut..].try_into().expect("8 bytes"));
    Ok((Dec::new(&buf[..cut]), cum))
}

/// A chunk's `first_ticket` and entry count. Entry `i` has ticket
/// `first_ticket + i`, so a range past `u64::MAX` is a decode error.
fn dec_tickets(
    d: &mut Dec<'_>,
    first: &'static str,
    count: &'static str,
) -> Result<(u64, u32), DecodeError> {
    let at = d.pos();
    let (first_ticket, n) = (d.vu64(first)?, d.vu32(count)?);
    match first_ticket.checked_add(n as u64) {
        Some(_) => Ok((first_ticket, n)),
        None => Err(DecodeError { what: first, at }),
    }
}

// ---------------------------------------------------------------------------
// EventChunkRec
// ---------------------------------------------------------------------------

/// A contiguous run of trace events of one episode. Tickets are
/// implicit: event `i` has ticket `first_ticket + i` (the kernel
/// records one operation at a time with a gapless commit sequence).
#[derive(Clone, Debug, PartialEq)]
pub struct EventChunkRec {
    pub episode: u32,
    /// Chunk sequence within the episode's event stream, from 0.
    pub seq: u32,
    /// Final chunk of the episode (carries the thread table).
    pub fin: bool,
    pub first_ticket: u64,
    pub events: Vec<TraceEvent>,
    /// Per-tid Chrome-exporter metadata; only on `fin` chunks.
    pub threads: Vec<ThreadMeta>,
    /// Stream digest chain value *after* this chunk (see module docs).
    pub cum: u64,
}

impl Eq for EventChunkRec {}

impl EventChunkRec {
    /// Payload minus the trailing chain field (the bytes
    /// [`chunk_own_digest`] covers).
    fn encode_core(&self) -> Vec<u8> {
        let mut table = StrTable::default();
        let mut body = Enc::new();
        for ev in &self.events {
            enc_event(&mut body, ev, &mut table);
        }
        let mut e = Enc::new();
        e.vu32(self.episode);
        e.vu32(self.seq);
        e.bool(self.fin);
        e.vu64(self.first_ticket);
        e.vu32(self.events.len() as u32);
        e.vu32(table.list.len() as u32);
        for s in &table.list {
            e.str(s);
        }
        e.vu32(self.threads.len() as u32);
        for t in &self.threads {
            e.str(&t.name);
            e.vu32(t.pid);
        }
        let mut out = e.into_vec();
        out.extend_from_slice(&body.into_vec());
        out
    }

    pub fn encode(&self) -> Vec<u8> {
        sealed(self.encode_core(), self.cum)
    }

    /// Seal an unsealed chunk onto the stream chain at `prev`, storing
    /// the new chain value in `cum`. Returns the encoded payload and
    /// the chunk's own digest.
    pub fn seal(&mut self, prev: u64) -> (Vec<u8>, u64) {
        seal_core(self.encode_core(), prev, &mut self.cum)
    }

    pub fn decode(buf: &[u8]) -> Result<EventChunkRec, DecodeError> {
        let (mut d, cum) = unseal(buf, "event_chunk.cum")?;
        let cut = buf.len() - 8;
        let episode = d.vu32("event_chunk.episode")?;
        let seq = d.vu32("event_chunk.seq")?;
        let fin = d.bool("event_chunk.fin")?;
        let (first_ticket, count) =
            dec_tickets(&mut d, "event_chunk.first_ticket", "event_chunk.count")?;
        let nstr = d.vu32("event_chunk.string_count")?;
        let mut list = Vec::with_capacity(nstr.min(1 << 16) as usize);
        for _ in 0..nstr {
            let s = d.str("event_chunk.string")?;
            let label = mpich::TRACE_LABELS.iter().copied().find(|&l| l == s);
            list.push((Arc::from(s), label));
        }
        let table = StrView { list };
        let nthreads = d.vu32("event_chunk.thread_count")?;
        let mut threads = Vec::with_capacity(nthreads.min(1 << 16) as usize);
        for _ in 0..nthreads {
            threads.push(ThreadMeta {
                name: d.str("event_chunk.thread_name")?,
                pid: d.vu32("event_chunk.thread_pid")?,
            });
        }
        let mut events = Vec::with_capacity(count.min(1 << 20) as usize);
        for i in 0..count {
            events.push(dec_event(&mut d, first_ticket + i as u64, &table, cut)?);
        }
        d.finish("event_chunk")?;
        Ok(EventChunkRec {
            episode,
            seq,
            fin,
            first_ticket,
            events,
            threads,
            cum,
        })
    }
}

// ---------------------------------------------------------------------------
// DecisionChunkRec
// ---------------------------------------------------------------------------

/// A contiguous run of committer decisions of one episode. Scheduling
/// tickets are implicit and gapless: entry `i` has ticket
/// `first_ticket + i`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecisionChunkRec {
    pub episode: u32,
    /// Chunk sequence within the episode's decision stream, from 0.
    pub seq: u32,
    pub first_ticket: u64,
    pub decisions: Vec<DecisionRec>,
    /// Stream digest chain value *after* this chunk.
    pub cum: u64,
}

impl DecisionChunkRec {
    fn encode_core(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.vu32(self.episode);
        e.vu32(self.seq);
        e.vu64(self.first_ticket);
        e.vu32(self.decisions.len() as u32);
        let mut prev_events_before = 0u64;
        for (i, d) in self.decisions.iter().enumerate() {
            debug_assert_eq!(d.ticket, self.first_ticket.wrapping_add(i as u64));
            e.vu64(d.tid as u64);
            e.vu64(d.at_ns);
            // A zero byte stands where the deleted fallback flag was:
            // the stream chain hashes these bytes, and the episode's
            // trace digest, which benchmark/golden.json pins through the
            // report, is that chain. It goes when golden.json is
            // re-blessed.
            e.u8(0);
            // events_before is monotone non-decreasing → delta-code it.
            e.vu64(d.events_before.wrapping_sub(prev_events_before));
            prev_events_before = d.events_before;
        }
        e.into_vec()
    }

    pub fn encode(&self) -> Vec<u8> {
        sealed(self.encode_core(), self.cum)
    }

    /// See [`EventChunkRec::seal`].
    pub fn seal(&mut self, prev: u64) -> (Vec<u8>, u64) {
        seal_core(self.encode_core(), prev, &mut self.cum)
    }

    pub fn decode(buf: &[u8]) -> Result<DecisionChunkRec, DecodeError> {
        let (mut d, cum) = unseal(buf, "decision_chunk.cum")?;
        let episode = d.vu32("decision_chunk.episode")?;
        let seq = d.vu32("decision_chunk.seq")?;
        let (first_ticket, count) = dec_tickets(
            &mut d,
            "decision_chunk.first_ticket",
            "decision_chunk.count",
        )?;
        let mut decisions = Vec::with_capacity(count.min(1 << 20) as usize);
        let mut events_before = 0u64;
        for i in 0..count {
            let tid = d.vu32("decision_chunk.tid")?;
            let at_ns = d.vu64("decision_chunk.at_ns")?;
            if d.u8("decision_chunk.reserved")? != 0 {
                let at = d.pos() - 1;
                return Err(DecodeError {
                    what: "decision_chunk.reserved",
                    at,
                });
            }
            events_before = events_before.wrapping_add(d.vu64("decision_chunk.events_delta")?);
            decisions.push(DecisionRec {
                ticket: first_ticket + i as u64,
                tid,
                at_ns,
                events_before,
            });
        }
        d.finish("decision_chunk")?;
        Ok(DecisionChunkRec {
            episode,
            seq,
            first_ticket,
            decisions,
            cum,
        })
    }
}

// ---------------------------------------------------------------------------
// MetricsDeltaRec
// ---------------------------------------------------------------------------

/// Signed per-field histogram delta.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistDelta {
    pub count: i64,
    pub sum_ns: i64,
    pub min_ns: i64,
    pub max_ns: i64,
    pub buckets: [i64; 32],
}

/// The metrics registry snapshot of one episode, encoded as a delta
/// against the previous episode's snapshot (the empty snapshot for
/// episode 0). `apply` folds it back; `diff` produces it. All maps are
/// iterated through `BTreeMap`, so the encoding is deterministic.
///
/// Deltas are signed `i64`s and `apply` is checked, not wrapping: the
/// codec's domain is registry values below `2^63` (counts, bytes and
/// nanoseconds never approach it), and anything that would over- or
/// underflow on fold is a typed error — a corrupt delta must never
/// silently wrap into a plausible registry.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsDeltaRec {
    pub episode: u32,
    pub counters: Vec<(String, i64)>,
    pub counters_removed: Vec<String>,
    pub gauges: Vec<(String, i64)>,
    pub gauges_removed: Vec<String>,
    pub hists: Vec<(String, HistDelta)>,
    pub hists_removed: Vec<String>,
}

/// The names whose value changed from `prev` to `next`, each with
/// `delta(old, new)`, and the names gone from `next`. A name new to
/// this episode is emitted even when its value equals the empty one,
/// or a freshly created counter, gauge or histogram would vanish on
/// replay.
fn diff_map<V: PartialEq, D>(
    prev: &BTreeMap<String, V>,
    next: &BTreeMap<String, V>,
    delta: impl Fn(Option<&V>, &V) -> D,
) -> (Vec<(String, D)>, Vec<String>) {
    let changed = next.iter().filter(|&(k, v)| prev.get(k) != Some(v));
    let changed = changed
        .map(|(k, v)| (k.clone(), delta(prev.get(k), v)))
        .collect();
    let removed = prev
        .keys()
        .filter(|k| !next.contains_key(*k))
        .cloned()
        .collect();
    (changed, removed)
}

fn checked_apply(base: u64, delta: i64, what: &str) -> Result<u64, String> {
    base.checked_add_signed(delta)
        .ok_or_else(|| format!("metrics delta overflows {what}"))
}

impl MetricsDeltaRec {
    /// Delta taking `prev` to `next`.
    pub fn diff(episode: u32, prev: &MetricsSnapshot, next: &MetricsSnapshot) -> MetricsDeltaRec {
        let u64_delta = |old: Option<&u64>, v: &u64| v.wrapping_sub(*old.unwrap_or(&0)) as i64;
        let (counters, counters_removed) = diff_map(&prev.counters, &next.counters, u64_delta);
        let (gauges, gauges_removed) = diff_map(&prev.gauges, &next.gauges, u64_delta);
        let (hists, hists_removed) = diff_map(&prev.hists, &next.hists, |old, h| {
            let old = old.cloned().unwrap_or_default();
            HistDelta {
                count: h.count.wrapping_sub(old.count) as i64,
                sum_ns: h.sum_ns.wrapping_sub(old.sum_ns) as i64,
                min_ns: h.min_ns.wrapping_sub(old.min_ns) as i64,
                max_ns: h.max_ns.wrapping_sub(old.max_ns) as i64,
                buckets: std::array::from_fn(|i| h.buckets[i].wrapping_sub(old.buckets[i]) as i64),
            }
        });
        MetricsDeltaRec {
            episode,
            counters,
            counters_removed,
            gauges,
            gauges_removed,
            hists,
            hists_removed,
        }
    }

    /// Fold this delta into `base`. Total: a corrupt delta yields a
    /// typed message, never a panic or a silently wrapped value.
    pub fn apply(&self, base: &mut MetricsSnapshot) -> Result<(), String> {
        let (counters, gauges) = (&mut base.counters, &mut base.gauges);
        for (map, changed, removed, what) in [
            (counters, &self.counters, &self.counters_removed, "counter"),
            (gauges, &self.gauges, &self.gauges_removed, "gauge"),
        ] {
            for (k, dv) in changed {
                let old = map.get(k).copied().unwrap_or(0);
                map.insert(k.clone(), checked_apply(old, *dv, what)?);
            }
            for k in removed {
                map.remove(k);
            }
        }
        for (k, dh) in &self.hists {
            let mut h = base.hists.get(k).cloned().unwrap_or_default();
            h.count = checked_apply(h.count, dh.count, "hist.count")?;
            h.sum_ns = checked_apply(h.sum_ns, dh.sum_ns, "hist.sum_ns")?;
            h.min_ns = checked_apply(h.min_ns, dh.min_ns, "hist.min_ns")?;
            h.max_ns = checked_apply(h.max_ns, dh.max_ns, "hist.max_ns")?;
            for i in 0..32 {
                h.buckets[i] = checked_apply(h.buckets[i], dh.buckets[i], "hist.bucket")?;
            }
            base.hists.insert(k.clone(), h);
        }
        for k in &self.hists_removed {
            base.hists.remove(k);
        }
        Ok(())
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.vu32(self.episode);
        for (changed, removed) in [
            (&self.counters, &self.counters_removed),
            (&self.gauges, &self.gauges_removed),
        ] {
            e.vu32(changed.len() as u32);
            for (k, v) in changed {
                e.str(k);
                e.vi64(*v);
            }
            e.vu32(removed.len() as u32);
            for k in removed {
                e.str(k);
            }
        }
        e.vu32(self.hists.len() as u32);
        for (k, h) in &self.hists {
            e.str(k);
            e.vi64(h.count);
            e.vi64(h.sum_ns);
            e.vi64(h.min_ns);
            e.vi64(h.max_ns);
            for b in h.buckets {
                e.vi64(b);
            }
        }
        e.vu32(self.hists_removed.len() as u32);
        for k in &self.hists_removed {
            e.str(k);
        }
        e.into_vec()
    }

    pub fn decode(buf: &[u8]) -> Result<MetricsDeltaRec, DecodeError> {
        let mut d = Dec::new(buf);
        let episode = d.vu32("metrics_delta.episode")?;
        let mut rec = MetricsDeltaRec {
            episode,
            ..MetricsDeltaRec::default()
        };
        let n = d.vu32("metrics_delta.counter_count")?;
        for _ in 0..n {
            rec.counters.push((
                d.str("metrics_delta.counter_name")?,
                d.vi64("metrics_delta.counter_delta")?,
            ));
        }
        let n = d.vu32("metrics_delta.counter_removed_count")?;
        for _ in 0..n {
            rec.counters_removed
                .push(d.str("metrics_delta.counter_removed")?);
        }
        let n = d.vu32("metrics_delta.gauge_count")?;
        for _ in 0..n {
            rec.gauges.push((
                d.str("metrics_delta.gauge_name")?,
                d.vi64("metrics_delta.gauge_delta")?,
            ));
        }
        let n = d.vu32("metrics_delta.gauge_removed_count")?;
        for _ in 0..n {
            rec.gauges_removed
                .push(d.str("metrics_delta.gauge_removed")?);
        }
        let n = d.vu32("metrics_delta.hist_count")?;
        for _ in 0..n {
            let name = d.str("metrics_delta.hist_name")?;
            let mut h = HistDelta {
                count: d.vi64("metrics_delta.hist.count")?,
                sum_ns: d.vi64("metrics_delta.hist.sum_ns")?,
                min_ns: d.vi64("metrics_delta.hist.min_ns")?,
                max_ns: d.vi64("metrics_delta.hist.max_ns")?,
                buckets: [0; 32],
            };
            for b in h.buckets.iter_mut() {
                *b = d.vi64("metrics_delta.hist.bucket")?;
            }
            rec.hists.push((name, h));
        }
        let n = d.vu32("metrics_delta.hist_removed_count")?;
        for _ in 0..n {
            rec.hists_removed.push(d.str("metrics_delta.hist_removed")?);
        }
        d.finish("metrics_delta")?;
        Ok(rec)
    }
}

// ---------------------------------------------------------------------------
// Index
// ---------------------------------------------------------------------------

/// Per-episode entry of the seekable index: ticket ranges, stream
/// digests, and the journal coordinates of the episode's stream frames.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StreamSummary {
    pub episode: u32,
    /// Total trace events streamed for the episode.
    pub events: u64,
    /// Total decisions streamed for the episode.
    pub decisions: u64,
    /// Ticket of the first streamed event (tickets are gapless, so the
    /// episode covers `first_event_ticket .. first_event_ticket + events`).
    pub first_event_ticket: u64,
    /// Scheduling ticket of the first streamed decision.
    pub first_sched_ticket: u64,
    /// Decision digest folded over the stream (0 when none).
    pub decisions_digest: u64,
    /// Final stream chain value — equals the episode record's
    /// `trace_digest` in streamed mode.
    pub cum: u64,
    /// (segment, offset) of the first event chunk frame.
    pub event_pos: Option<(u32, u64)>,
    /// (segment, offset) of the first decision chunk frame.
    pub decision_pos: Option<(u32, u64)>,
    /// (segment, offset) of the metrics delta frame.
    pub metrics_pos: Option<(u32, u64)>,
}

fn enc_pos(e: &mut Enc, pos: &Option<(u32, u64)>) {
    match pos {
        None => e.bool(false),
        Some((seg, off)) => {
            e.bool(true);
            e.vu32(*seg);
            e.vu64(*off);
        }
    }
}

fn dec_pos(d: &mut Dec<'_>, what: &'static str) -> Result<Option<(u32, u64)>, DecodeError> {
    if d.bool(what)? {
        Ok(Some((d.vu32(what)?, d.vu64(what)?)))
    } else {
        Ok(None)
    }
}

/// The cumulative seekable index: one [`StreamSummary`] per completed
/// episode. Rewritten in full after every snapshot and at campaign
/// completion; [`crate::replay::load_index`] uses the newest copy when
/// it is the journal's last frame, found by walking only the last
/// segment (and otherwise the full read's summaries), so a reader can
/// jump to any (episode, ticket) in one seek.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IndexRec {
    pub entries: Vec<StreamSummary>,
}

impl IndexRec {
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.vu32(self.entries.len() as u32);
        for s in &self.entries {
            e.vu32(s.episode);
            e.vu64(s.events);
            e.vu64(s.decisions);
            e.vu64(s.first_event_ticket);
            e.vu64(s.first_sched_ticket);
            e.u64(s.decisions_digest);
            e.u64(s.cum);
            enc_pos(&mut e, &s.event_pos);
            enc_pos(&mut e, &s.decision_pos);
            enc_pos(&mut e, &s.metrics_pos);
        }
        e.into_vec()
    }

    pub fn decode(buf: &[u8]) -> Result<IndexRec, DecodeError> {
        let mut d = Dec::new(buf);
        let n = d.vu32("index.entry_count")?;
        let mut entries = Vec::with_capacity(n.min(1 << 20) as usize);
        for _ in 0..n {
            entries.push(StreamSummary {
                episode: d.vu32("index.episode")?,
                events: d.vu64("index.events")?,
                decisions: d.vu64("index.decisions")?,
                first_event_ticket: d.vu64("index.first_event_ticket")?,
                first_sched_ticket: d.vu64("index.first_sched_ticket")?,
                decisions_digest: d.u64("index.decisions_digest")?,
                cum: d.u64("index.cum")?,
                event_pos: dec_pos(&mut d, "index.event_pos")?,
                decision_pos: dec_pos(&mut d, "index.decision_pos")?,
                metrics_pos: dec_pos(&mut d, "index.metrics_pos")?,
            });
        }
        d.finish("index")?;
        Ok(IndexRec { entries })
    }
}

// ---------------------------------------------------------------------------
// StreamAccum: the stream bookkeeping writer and reader share
// ---------------------------------------------------------------------------

/// One episode's chunk-stream bookkeeping: the index entry being built
/// (counts, first tickets, decision digest, chain value, frame
/// positions) and the chunk sequence cursors. [`StreamRecorder`] folds
/// each chunk it appends into one; the journal reader checks each chunk
/// it reads and then folds it the same way (see the module docs).
#[derive(Default)]
pub(crate) struct StreamAccum {
    pub(crate) summary: StreamSummary,
    pub(crate) next_event_seq: u32,
    pub(crate) next_decision_seq: u32,
    pub(crate) fin_seen: bool,
    /// Reader side: the episode's metrics delta, held until the episode
    /// record seals the stream.
    pub(crate) pending_metrics: Option<MetricsDeltaRec>,
}

impl StreamAccum {
    pub(crate) fn new(episode: u32) -> StreamAccum {
        StreamAccum {
            summary: StreamSummary {
                episode,
                ..StreamSummary::default()
            },
            ..StreamAccum::default()
        }
    }

    /// Ticket the next non-empty event chunk must start at.
    pub(crate) fn next_event_ticket(&self) -> Option<u64> {
        let s = &self.summary;
        (s.events > 0).then(|| s.first_event_ticket + s.events)
    }

    /// Scheduling ticket the next non-empty decision chunk must start at.
    pub(crate) fn next_sched_ticket(&self) -> Option<u64> {
        let s = &self.summary;
        (s.decisions > 0).then(|| s.first_sched_ticket + s.decisions)
    }

    /// Fold in an event chunk whose own digest is `own`, framed at `pos`.
    pub(crate) fn add_events(&mut self, chunk: &EventChunkRec, own: u64, pos: (u32, u64)) {
        let s = &mut self.summary;
        if s.events == 0 && !chunk.events.is_empty() {
            s.first_event_ticket = chunk.first_ticket;
        }
        s.events += chunk.events.len() as u64;
        s.cum = chain(s.cum, own);
        s.event_pos.get_or_insert(pos);
        self.next_event_seq += 1;
        self.fin_seen = chunk.fin;
    }

    /// Fold in a decision chunk whose own digest is `own`, framed at `pos`.
    pub(crate) fn add_decisions(&mut self, chunk: &DecisionChunkRec, own: u64, pos: (u32, u64)) {
        let s = &mut self.summary;
        if s.decisions == 0 && !chunk.decisions.is_empty() {
            s.first_sched_ticket = chunk.first_ticket;
            s.decisions_digest = DECISION_DIGEST_SEED;
        }
        for d in &chunk.decisions {
            s.decisions_digest = d.fold_digest(s.decisions_digest);
        }
        s.decisions += chunk.decisions.len() as u64;
        s.cum = chain(s.cum, own);
        s.decision_pos.get_or_insert(pos);
        self.next_decision_seq += 1;
    }
}

// ---------------------------------------------------------------------------
// StreamRecorder: the journal's EventSink
// ---------------------------------------------------------------------------

/// The journal's [`EventSink`]: each chunk the kernel drains is sealed
/// into the stream digest chain and appended to the journal as it
/// arrives, so buffered state never exceeds one chunk. Create one per
/// episode around the campaign's [`JournalWriter`] and install it via
/// `Kernel::set_event_sink`; once `Kernel::finish_event_sink` hands it
/// back, [`StreamRecorder::finish`] hands the writer back, or
/// [`StreamRecorder::into_writer`] when the episode's world failed.
pub struct StreamRecorder {
    writer: JournalWriter,
    accum: StreamAccum,
    /// First I/O error; surfaced at `finish` (the sink runs inside a
    /// kernel operation and cannot propagate errors inline).
    io_error: Option<JournalError>,
}

impl EventSink for StreamRecorder {
    fn events(&mut self, chunk: &[TraceEvent]) {
        self.push_events(chunk, false, Vec::new());
    }

    fn decisions(&mut self, chunk: &[Decision]) {
        if self.io_error.is_some() || chunk.is_empty() {
            return;
        }
        let mut rec = DecisionChunkRec {
            episode: self.accum.summary.episode,
            seq: self.accum.next_decision_seq,
            first_ticket: chunk[0].ticket,
            decisions: chunk.iter().map(|&d| DecisionRec::from(d)).collect(),
            cum: 0,
        };
        let (payload, own) = rec.seal(self.accum.summary.cum);
        if let Some(pos) = self.append(KIND_DECISION_CHUNK, &payload) {
            self.accum.add_decisions(&rec, own, pos);
        }
    }
}

impl StreamRecorder {
    pub fn new(writer: JournalWriter, episode: u32) -> StreamRecorder {
        StreamRecorder {
            writer,
            accum: StreamAccum::new(episode),
            io_error: None,
        }
    }

    /// The writer of an episode whose world failed; the campaign cuts
    /// the episode's chunks off again before a re-run (DESIGN §12).
    pub fn into_writer(self) -> JournalWriter {
        self.writer
    }

    /// Append one encoded frame; on failure keep the error for `finish`.
    fn append(&mut self, kind: u8, payload: &[u8]) -> Option<(u32, u64)> {
        self.writer
            .append_payload(kind, payload)
            .map_err(|e| self.io_error = Some(e))
            .ok()
    }

    fn push_events(&mut self, chunk: &[TraceEvent], fin: bool, threads: Vec<ThreadMeta>) {
        if self.io_error.is_some() || (chunk.is_empty() && !fin) {
            return;
        }
        let mut rec = EventChunkRec {
            episode: self.accum.summary.episode,
            seq: self.accum.next_event_seq,
            fin,
            first_ticket: chunk.first().map_or(0, |e| e.ticket),
            events: chunk.to_vec(),
            threads,
            cum: 0,
        };
        let (payload, own) = rec.seal(self.accum.summary.cum);
        if let Some(pos) = self.append(KIND_EVENT_CHUNK, &payload) {
            self.accum.add_events(&rec, own, pos);
        }
    }

    /// Seal the episode's stream: append the `fin` event chunk carrying
    /// the thread table and the metrics delta against `prev_metrics`.
    /// Hands the writer back together with the episode's index entry —
    /// its `cum` is the streamed episode's `trace_digest`, its
    /// `decisions_digest` the episode's decision digest (0 when
    /// decisions were not recorded) — or with any I/O error the sink
    /// swallowed mid-episode.
    pub fn finish(
        mut self,
        threads: Vec<ThreadMeta>,
        prev_metrics: &MetricsSnapshot,
        metrics: &MetricsSnapshot,
    ) -> (JournalWriter, Result<StreamSummary, JournalError>) {
        // The kernel has already flushed all remaining events and
        // decisions through the sink (`finish_event_sink`); the fin
        // chunk is empty of events but carries the thread table and
        // closes the chain.
        self.push_events(&[], true, threads);
        if self.io_error.is_none() {
            let delta = MetricsDeltaRec::diff(self.accum.summary.episode, prev_metrics, metrics);
            if let Some(pos) = self.append(KIND_METRICS_DELTA, &delta.encode()) {
                self.accum.summary.metrics_pos = Some(pos);
            }
        }
        let summary = match self.io_error {
            Some(e) => Err(e),
            None => Ok(self.accum.summary),
        };
        (self.writer, summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::EpisodeRecord;
    use marcel::HistSnapshot;

    fn sample_events() -> Vec<TraceEvent> {
        let mk = |ticket: u64, what: Event| TraceEvent {
            time: VirtualTime(ticket * 100),
            tid: (ticket % 3) as usize,
            ticket,
            what,
        };
        vec![
            mk(5, Event::Spawn),
            mk(6, Event::SemBlock { sem: 3 }),
            mk(
                7,
                Event::Pack {
                    channel: "tcp#0".into(),
                    to: 1,
                    seq: 42,
                    bytes: 256,
                    segments: 2,
                },
            ),
            mk(
                8,
                Event::PacketSent {
                    rank: 0,
                    dst: 1,
                    kind: "SHORT",
                    rail: "tcp#0".into(),
                    bytes: 300,
                },
            ),
            mk(
                9,
                Event::RecvMatched {
                    rank: 1,
                    src: 0,
                    tag: -7,
                    unexpected: true,
                },
            ),
            mk(
                10,
                Event::SpanBegin {
                    id: 9,
                    kind: SpanKind::Handle,
                    label: "tcp",
                },
            ),
            mk(
                11,
                Event::SpanEnd {
                    id: 9,
                    kind: SpanKind::Handle,
                    label: "tcp",
                },
            ),
        ]
    }

    #[test]
    fn event_chunk_round_trips() {
        let mut rec = EventChunkRec {
            episode: 2,
            seq: 1,
            fin: true,
            first_ticket: 5,
            events: sample_events(),
            threads: vec![
                ThreadMeta {
                    name: "rank0".into(),
                    pid: 0,
                },
                ThreadMeta {
                    name: "rank1-poll-tcp#0".into(),
                    pid: 1,
                },
            ],
            cum: 0,
        };
        rec.seal(0xFEED);
        let buf = rec.encode();
        let back = EventChunkRec::decode(&buf).unwrap();
        assert_eq!(back.episode, rec.episode);
        assert_eq!(back.seq, rec.seq);
        assert!(back.fin);
        assert_eq!(back.events.len(), rec.events.len());
        for (a, b) in rec.events.iter().zip(&back.events) {
            assert_eq!(a.time, b.time);
            assert_eq!(a.tid, b.tid);
            assert_eq!(a.ticket, b.ticket);
            assert_eq!(a.what, b.what);
        }
        assert_eq!(back.threads.len(), 2);
        assert_eq!(back.threads[1].name, "rank1-poll-tcp#0");
        assert_eq!(back.cum, rec.cum);
        // The reader's raw-bytes own digest matches the writer's seal.
        let own = chunk_own_digest(&buf).unwrap();
        assert_eq!(chain(0xFEED, own), rec.cum);
    }

    #[test]
    fn event_chunk_truncations_are_typed() {
        let mut rec = EventChunkRec {
            episode: 0,
            seq: 0,
            fin: false,
            first_ticket: 0,
            events: sample_events(),
            threads: Vec::new(),
            cum: 0,
        };
        rec.seal(0);
        let buf = rec.encode();
        for cut in 0..buf.len() {
            assert!(
                EventChunkRec::decode(&buf[..cut]).is_err() || cut == buf.len(),
                "cut at {cut} decoded"
            );
        }
    }

    #[test]
    fn decision_chunk_round_trips_and_digest_matches_record_digest() {
        let decisions: Vec<DecisionRec> = (0..10)
            .map(|i| DecisionRec {
                ticket: 100 + i,
                tid: (i % 4) as u32,
                at_ns: 1_000 * i,
                events_before: 7 * i,
            })
            .collect();
        let mut rec = DecisionChunkRec {
            episode: 1,
            seq: 0,
            first_ticket: 100,
            decisions: decisions.clone(),
            cum: 0,
        };
        rec.seal(42);
        let back = DecisionChunkRec::decode(&rec.encode()).unwrap();
        assert_eq!(back, rec);
        // The streamed fold reproduces EpisodeRecord::digest_decisions.
        let mut acc = StreamAccum::new(1);
        acc.summary.cum = 42;
        acc.add_decisions(&back, chunk_own_digest(&rec.encode()).unwrap(), (0, 32));
        assert_eq!(
            acc.summary.decisions_digest,
            EpisodeRecord::digest_decisions(&decisions)
        );
        assert_eq!(acc.summary.cum, rec.cum);
    }

    #[test]
    fn metrics_delta_diff_apply_round_trips() {
        let mut prev = MetricsSnapshot::default();
        prev.counters.insert("a".into(), 10);
        prev.counters.insert("gone".into(), 5);
        prev.gauges.insert("g".into(), 7);
        prev.hists.insert(
            "h".into(),
            HistSnapshot {
                count: 2,
                sum_ns: 30,
                min_ns: 10,
                max_ns: 20,
                buckets: {
                    let mut b = [0u64; 32];
                    b[4] = 2;
                    b
                },
            },
        );
        let mut next = prev.clone();
        next.counters.remove("gone");
        next.counters.insert("a".into(), 25);
        next.counters.insert("new".into(), 3);
        next.gauges.insert("g".into(), 2); // gauges can shrink across episodes
        next.hists.get_mut("h").unwrap().count = 5;
        next.hists.get_mut("h").unwrap().sum_ns = 90;
        next.hists.insert("h2".into(), HistSnapshot::default());

        let delta = MetricsDeltaRec::diff(3, &prev, &next);
        let back = MetricsDeltaRec::decode(&delta.encode()).unwrap();
        assert_eq!(back, delta);
        let mut folded = prev.clone();
        back.apply(&mut folded).unwrap();
        assert_eq!(folded, next);

        // A corrupt delta underflowing a counter is a typed error.
        let mut bad = delta.clone();
        bad.counters.push(("a".into(), -1_000_000));
        let mut folded = prev.clone();
        assert!(bad.apply(&mut folded).is_err());
    }

    #[test]
    fn index_round_trips() {
        let idx = IndexRec {
            entries: vec![
                StreamSummary {
                    episode: 0,
                    events: 120,
                    decisions: 40,
                    first_event_ticket: 0,
                    first_sched_ticket: 0,
                    decisions_digest: 0xD15C,
                    cum: 0xC0FFEE,
                    event_pos: Some((0, 32)),
                    decision_pos: Some((0, 900)),
                    metrics_pos: Some((1, 32)),
                },
                StreamSummary {
                    episode: 1,
                    events: 130,
                    decisions: 0,
                    first_event_ticket: 0,
                    first_sched_ticket: 0,
                    decisions_digest: 0,
                    cum: 0xBEEF,
                    event_pos: Some((1, 400)),
                    decision_pos: None,
                    metrics_pos: Some((2, 32)),
                },
            ],
        };
        assert_eq!(IndexRec::decode(&idx.encode()).unwrap(), idx);
    }
}
