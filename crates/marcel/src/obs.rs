//! Cross-layer observability: typed trace events, virtual-time spans, a
//! metrics registry, and exporters.
//!
//! # Typed events
//!
//! The kernel trace used to be a flat list of format strings. It now
//! records [`Event`] values: every layer of the stack (marcel kernel,
//! Madeleine channels, the ch_mad device, the ADI engine) has variants
//! carrying its own tags (channel, rank, message sequence number, rail),
//! so a message's life — pack, wire, poll detection, demultiplex,
//! delivery, completion — is reconstructable end-to-end from one trace.
//! [`Event`]'s `Display` reproduces the legacy strings byte-for-byte for
//! the original kernel events, so the human-readable timeline is
//! unchanged.
//!
//! # Spans
//!
//! A span is a begin/end pair in *virtual* time ([`span_begin`] /
//! [`span_end`]). Ends may occur on a different simulated thread than
//! the begin (e.g. the ch_mad *handling* span starts on the polling
//! thread and ends when the receiving rank observes completion), which
//! is why spans carry explicit ids and the Chrome exporter emits them as
//! async ("b"/"e") events. Every finished span feeds a virtual-time
//! histogram in the metrics registry — that is what `bench --bin
//! overhead` measures the paper's §5 packing-vs-handling decomposition
//! from. `span_begin` resolves the span's `(kind, label)` pair to its
//! histogram's handle, so `span_end` touches the registry by index.
//!
//! # Metrics by handle
//!
//! Each kernel keeps one registry of counters, high-water gauges and
//! virtual-time histograms. Every count is named once, by the owner
//! that keeps it, when the owner is built: a Madeleine channel
//! (`chan/`, `net/`, `rail/`, `poll_detect/`), the session (`chmad/`),
//! an ADI engine (`adi/`), the collective engine (`coll.`) and the
//! kernel's event stream (`journal.stream.hwm`). Registration
//! ([`Kernel::register_counter`](crate::Kernel::register_counter) and
//! its gauge and histogram twins) returns a `Copy` handle —
//! [`Counter`], [`Gauge`], [`Hist`] — and registering a name twice
//! returns the same handle. An update ([`counter_add`], [`gauge_max`],
//! [`observe_ns`]) indexes a slot through its handle, and a live count
//! is read the same way ([`Kernel::counter`](crate::Kernel::counter)):
//! nothing spells a name or copies the registry to count. The name
//! index is read only by registration and by [`MetricsSnapshot`], the
//! one by-name view (sorted by name) that reports, journal deltas,
//! digests and tests read. A slot enters snapshots on its first
//! touch (even a zero one) and [`reset_metrics`] clears the values but
//! keeps every handle.
//!
//! # Zero cost when disabled
//!
//! Instrumentation never advances virtual time and never reschedules:
//! with tracing off, runs are bit-identical to uninstrumented ones, and
//! with tracing *on* only host (real) time is spent. Metrics are always
//! collected (they are pure host-side bookkeeping); an event closure
//! runs only when the kernel has a trace buffer.
//!
//! # Exporters
//!
//! [`chrome_trace_json`] renders a trace as Chrome trace-event JSON
//! (loadable in Perfetto / `chrome://tracing`): one virtual *process*
//! per cluster node, one *thread* per Marcel tid.
//! [`MetricsSnapshot`]'s `Display` is the plain-text stats report.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::fmt::{self, Write as _};
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::sync::Arc;

use crate::kernel::{Decision, TraceEvent};
use crate::thread::try_with_current;
use crate::time::VirtualTime;

/// Which layer of the stack emitted an event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    /// marcel kernel: threads, semaphores, polling.
    Marcel,
    /// Madeleine channels: pack/unpack, reliable delivery.
    Madeleine,
    /// The ch_mad multi-protocol device: packets, rails, rendezvous.
    ChMad,
    /// The ADI message engine: posted/unexpected queues.
    Adi,
    /// The generic MPI layer's collective engine.
    Coll,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Marcel => "marcel",
            Layer::Madeleine => "madeleine",
            Layer::ChMad => "ch_mad",
            Layer::Adi => "adi",
            Layer::Coll => "coll",
        }
    }
}

/// The kind of a measured span (selects the histogram family).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum SpanKind {
    /// Madeleine packing: `begin_packing` → `end_packing` returns.
    Pack,
    /// Madeleine unpacking: `begin_unpacking` returns → `end_unpacking`.
    Unpack,
    /// ch_mad receive-side handling: packet noticed → receiving rank
    /// observes completion (crosses threads).
    Handle,
    /// ch_mad send-side setup: `ChMad::send` entry → packing begins.
    Setup,
    /// One rail's share of a striped rendezvous send.
    Stripe,
    /// ADI receive posting: `Engine::post_recv` entry → return (queue
    /// lock, match attempt against the unexpected queue, enqueue).
    Post,
    /// One collective operation on one rank: engine entry → result
    /// available (the label carries the operation name; the selected
    /// algorithm is recorded in the `coll.<op>.<algorithm>` counters).
    Coll,
}

impl SpanKind {
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Pack => "pack",
            SpanKind::Unpack => "unpack",
            SpanKind::Handle => "handle",
            SpanKind::Setup => "setup",
            SpanKind::Stripe => "stripe",
            SpanKind::Post => "post",
            SpanKind::Coll => "coll",
        }
    }
}

/// One typed trace event. The first eight variants are the legacy
/// kernel events; their `Display` output is byte-identical to the
/// strings the kernel recorded before events were typed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    // ---- marcel: threads, semaphores, polling ----
    /// A simulated thread was spawned (recorded with the new thread's tid).
    Spawn,
    /// A simulated thread finished.
    Exit,
    /// `P` on a semaphore with count 0: the caller blocks.
    SemBlock { sem: usize },
    /// Timed `P` blocking until a deadline.
    SemBlockTimeout { sem: usize, deadline: VirtualTime },
    /// `V` granted the semaphore to a blocked waiter.
    SemWake { sem: usize, woken: usize },
    /// A message post woke the thread blocked in `poll_wait`.
    PollWake { source: usize },
    /// `poll_wait` found a message already queued.
    PollQueued { source: usize },
    /// `poll_wait` blocked and was woken by a later arrival.
    PollWaited { source: usize },
    // ---- madeleine: channels ----
    /// A packed message was injected into the wire.
    Pack {
        channel: Arc<str>,
        to: usize,
        seq: u64,
        bytes: usize,
        segments: usize,
    },
    /// A wire message was accepted by the receiver.
    Unpack {
        channel: Arc<str>,
        from: usize,
        seq: u64,
        bytes: usize,
    },
    /// The reliable-delivery sublayer re-sent a lost message.
    Retransmit {
        channel: Arc<str>,
        to: usize,
        seq: u64,
        attempt: u32,
    },
    /// The receiver dropped an already-delivered duplicate.
    DedupDrop {
        channel: Arc<str>,
        from: usize,
        seq: u64,
    },
    // ---- ch_mad: packets, rails, rendezvous ----
    /// A device packet left on some rail.
    PacketSent {
        rank: usize,
        dst: usize,
        kind: &'static str,
        rail: Arc<str>,
        bytes: usize,
    },
    /// A device packet was demultiplexed on the receiving rank.
    PacketDelivered {
        rank: usize,
        src: usize,
        kind: &'static str,
    },
    /// The policy picked a rail for an outgoing packet.
    RailSelected {
        rank: usize,
        dst: usize,
        rail: Arc<str>,
        bytes: usize,
    },
    /// A send failed over from a dead rail to the next live one.
    RailFailover {
        rank: usize,
        dst: usize,
        from_rail: Arc<str>,
        to_rail: Arc<str>,
    },
    /// Rendezvous REQUEST issued.
    RndvRequest {
        rank: usize,
        dst: usize,
        token: u64,
        bytes: usize,
    },
    /// Rendezvous OK_TO_SEND observed by the sender.
    RndvAck { rank: usize, src: usize, token: u64 },
    // ---- ADI engine: queues ----
    /// A receive was posted (depth = posted-queue depth after).
    RecvPosted { rank: usize, depth: usize },
    /// An incoming message matched a receive (posted or unexpected).
    RecvMatched {
        rank: usize,
        src: usize,
        tag: i32,
        unexpected: bool,
    },
    /// An incoming message found no posted receive and was queued.
    UnexpectedQueued {
        rank: usize,
        src: usize,
        tag: i32,
        depth: usize,
    },
    // ---- spans ----
    SpanBegin {
        id: u64,
        kind: SpanKind,
        label: &'static str,
    },
    SpanEnd {
        id: u64,
        kind: SpanKind,
        label: &'static str,
    },
}

impl Event {
    /// The stack layer this event belongs to.
    pub fn layer(&self) -> Layer {
        use Event::*;
        match self {
            Spawn
            | Exit
            | SemBlock { .. }
            | SemBlockTimeout { .. }
            | SemWake { .. }
            | PollWake { .. }
            | PollQueued { .. }
            | PollWaited { .. } => Layer::Marcel,
            Pack { .. } | Unpack { .. } | Retransmit { .. } | DedupDrop { .. } => Layer::Madeleine,
            PacketSent { .. }
            | PacketDelivered { .. }
            | RailSelected { .. }
            | RailFailover { .. }
            | RndvRequest { .. }
            | RndvAck { .. } => Layer::ChMad,
            RecvPosted { .. } | RecvMatched { .. } | UnexpectedQueued { .. } => Layer::Adi,
            SpanBegin { kind, .. } | SpanEnd { kind, .. } => match kind {
                SpanKind::Pack | SpanKind::Unpack => Layer::Madeleine,
                SpanKind::Handle | SpanKind::Setup | SpanKind::Stripe => Layer::ChMad,
                SpanKind::Post => Layer::Adi,
                SpanKind::Coll => Layer::Coll,
            },
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Event::*;
        match self {
            // Legacy kernel strings, byte-identical to the pre-typed trace.
            Spawn => write!(f, "spawn"),
            Exit => write!(f, "exit"),
            SemBlock { sem } => write!(f, "P sem#{sem} blocks"),
            SemBlockTimeout { sem, deadline } => {
                write!(f, "P sem#{sem} blocks until {deadline}")
            }
            SemWake { sem, woken } => write!(f, "V sem#{sem} wakes #{woken}"),
            PollWake { source } => write!(f, "post->wake src#{source}"),
            PollQueued { source } => write!(f, "polled src#{source} (queued)"),
            PollWaited { source } => write!(f, "polled src#{source} (waited)"),
            // Madeleine.
            Pack {
                channel,
                to,
                seq,
                bytes,
                segments,
            } => write!(f, "pack {channel}->#{to} seq={seq} {bytes}B x{segments}"),
            Unpack {
                channel,
                from,
                seq,
                bytes,
            } => write!(f, "unpack {channel}<-#{from} seq={seq} {bytes}B"),
            Retransmit {
                channel,
                to,
                seq,
                attempt,
            } => write!(f, "retransmit {channel}->#{to} seq={seq} attempt={attempt}"),
            DedupDrop { channel, from, seq } => {
                write!(f, "dedup-drop {channel}<-#{from} seq={seq}")
            }
            // ch_mad.
            PacketSent {
                rank,
                dst,
                kind,
                rail,
                bytes,
            } => write!(f, "packet {kind} #{rank}->#{dst} via {rail} {bytes}B"),
            PacketDelivered { rank, src, kind } => {
                write!(f, "packet {kind} #{src}->#{rank} delivered")
            }
            RailSelected {
                rank,
                dst,
                rail,
                bytes,
            } => write!(f, "rail {rail} selected #{rank}->#{dst} {bytes}B"),
            RailFailover {
                rank,
                dst,
                from_rail,
                to_rail,
            } => write!(f, "rail failover #{rank}->#{dst}: {from_rail} -> {to_rail}"),
            RndvRequest {
                rank,
                dst,
                token,
                bytes,
            } => write!(f, "rndv REQUEST #{rank}->#{dst} token={token} {bytes}B"),
            RndvAck { rank, src, token } => {
                write!(f, "rndv OK_TO_SEND #{src}->#{rank} token={token}")
            }
            // ADI.
            RecvPosted { rank, depth } => write!(f, "adi post-recv rank{rank} depth={depth}"),
            RecvMatched {
                rank,
                src,
                tag,
                unexpected,
            } => write!(
                f,
                "adi match rank{rank} src=#{src} tag={tag} ({})",
                if *unexpected { "unexpected" } else { "posted" }
            ),
            UnexpectedQueued {
                rank,
                src,
                tag,
                depth,
            } => write!(
                f,
                "adi unexpected rank{rank} src=#{src} tag={tag} depth={depth}"
            ),
            // Spans.
            SpanBegin { id, kind, label } => {
                write!(f, "begin {}:{label} span#{id}", kind.name())
            }
            SpanEnd { id, kind, label } => write!(f, "end {}:{label} span#{id}", kind.name()),
        }
    }
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// Summary statistics of one virtual-time histogram.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct HistSnapshot {
    pub count: u64,
    pub sum_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
    /// Log2 buckets: `buckets[i]` counts observations with
    /// `bit_length(ns) == i` (bucket 0 holds zero-duration samples).
    pub buckets: [u64; 32],
}

impl HistSnapshot {
    /// Add one observation.
    fn record(&mut self, ns: u64) {
        if self.count == 0 {
            self.min_ns = ns;
            self.max_ns = ns;
        } else {
            self.min_ns = self.min_ns.min(ns);
            self.max_ns = self.max_ns.max(ns);
        }
        self.count += 1;
        self.sum_ns += ns;
        let bucket = (64 - ns.leading_zeros()) as usize;
        self.buckets[bucket.min(31)] += 1;
    }

    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64 / 1_000.0
        }
    }
}

/// A registered counter: its slot in one kernel's registry. `Copy`, so
/// an owner keeps it by value and bumps it by index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counter(u32);

/// A registered high-water gauge (see [`Counter`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Gauge(u32);

/// A registered virtual-time histogram (see [`Counter`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hist(u32);

/// One family's name index: registration looks a name's slot up in it,
/// and a snapshot walks it, sorting the touched names into its maps.
/// Sized up front, it costs a small world one allocation, where a
/// B-tree paid a node per few names; its hasher's keys are fixed, so a
/// snapshot's insertion order repeats from run to run.
type Index = HashMap<Cow<'static, str>, u32, BuildHasherDefault<DefaultHasher>>;

/// `name`'s slot in `index`, first adding an untouched slot to `slots`
/// if the name is new.
fn register<V: Default>(index: &mut Index, slots: &mut Vec<V>, name: Cow<'static, str>) -> u32 {
    let slot = *index.entry(name).or_insert(slots.len() as u32);
    if slot as usize == slots.len() {
        slots.push(V::default());
    }
    slot
}

/// The touched slots of `index` by name (`value` is `None` for an
/// untouched slot).
fn touched<V>(index: &Index, value: impl Fn(usize) -> Option<V>) -> BTreeMap<String, V> {
    let touched = index
        .iter()
        .filter_map(|(name, &slot)| Some((name, value(slot as usize)?)));
    let mut out = BTreeMap::new();
    out.extend(touched.map(|(name, v)| (name.to_string(), v)));
    out
}

/// The per-kernel metrics registry: counters, high-water gauges and
/// virtual-time histograms, each family an index of `/`-separated
/// names over a `Vec` of slots.
///
/// An owner (a channel, a session, an engine, the collective engine,
/// the kernel's stream) registers its names once, when it is built,
/// and keeps the returned `Copy` handles; registering a name that
/// already exists returns its handle, so every channel of one protocol
/// shares `poll_detect/<protocol>`. An update indexes its slot through
/// the handle, and a live count is read the same way: nothing walks an
/// index but registration and [`Metrics::snapshot`]. A slot enters
/// snapshots on its first touch, even a zero one, exactly as if the
/// name were created then.
///
/// All updates are pure host-side bookkeeping — they never advance
/// virtual time or reschedule, so collection is always on and cannot
/// perturb the simulation. Exactly one simulated thread runs at a time,
/// so the update order (and therefore every snapshot) is deterministic.
/// The registry is a field of the kernel's scheduler: an update is one
/// borrow of the scheduler's cell, and nothing is locked.
#[derive(Default)]
pub(crate) struct Metrics {
    counters: Index,
    gauges: Index,
    /// Counter and gauge slots, `None` until their first touch.
    values: Vec<Option<u64>>,
    hist_names: Index,
    /// Histogram slots, untouched while their count is zero.
    hists: Vec<HistSnapshot>,
    /// The histogram of every `(kind, label)` span pair begun so far.
    spans: BTreeMap<(SpanKind, &'static str), Hist>,
    last_span: u64,
}

impl Metrics {
    /// A registry sized for a small world's names (66 collective
    /// counters, ten a channel, two gauges a rank, a histogram a span
    /// kind and label), so registering them regrows nothing.
    pub(crate) fn new() -> Metrics {
        let index = |n| Index::with_capacity_and_hasher(n, Default::default());
        Metrics {
            counters: index(128),
            gauges: index(32),
            values: Vec::with_capacity(160),
            hist_names: index(16),
            hists: Vec::with_capacity(16),
            ..Metrics::default()
        }
    }

    pub(crate) fn counter(&mut self, name: Cow<'static, str>) -> Counter {
        Counter(register(&mut self.counters, &mut self.values, name))
    }

    pub(crate) fn gauge(&mut self, name: Cow<'static, str>) -> Gauge {
        Gauge(register(&mut self.gauges, &mut self.values, name))
    }

    pub(crate) fn hist(&mut self, name: Cow<'static, str>) -> Hist {
        Hist(register(&mut self.hist_names, &mut self.hists, name))
    }

    /// Add `delta` to counter `c` (touched at zero first).
    fn add(&mut self, c: Counter, delta: u64) {
        *self.values[c.0 as usize].get_or_insert(0) += delta;
    }

    /// Raise gauge `g` to `v` if `v` exceeds it.
    pub(crate) fn raise(&mut self, g: Gauge, v: u64) {
        let high = self.values[g.0 as usize].get_or_insert(v);
        *high = (*high).max(v);
    }

    /// Record one observation into histogram `h`.
    fn observe(&mut self, h: Hist, ns: u64) {
        self.hists[h.0 as usize].record(ns);
    }

    /// Counter `c`'s value (zero until its first touch).
    pub(crate) fn read(&self, c: Counter) -> u64 {
        self.values[c.0 as usize].unwrap_or(0)
    }

    /// The `span/<kind>/<label>` histogram, registered on the pair's
    /// first span.
    fn span_hist(&mut self, kind: SpanKind, label: &'static str) -> Hist {
        *self.spans.entry((kind, label)).or_insert_with(|| {
            let name = ["span/", kind.name(), "/", label].concat();
            Hist(register(&mut self.hist_names, &mut self.hists, name.into()))
        })
    }

    /// Allocate a fresh span id (deterministic: one simulated thread
    /// runs at a time).
    fn next_span_id(&mut self) -> u64 {
        self.last_span += 1;
        self.last_span
    }

    /// Clear every counter, gauge and histogram; handles stay valid and
    /// span ids keep counting.
    fn reset(&mut self) {
        self.values.fill(None);
        self.hists.fill(HistSnapshot::default());
    }

    /// Copy the registry's touched slots by name.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let hist = |slot: usize| Some(&self.hists[slot]).filter(|h| h.count > 0).cloned();
        MetricsSnapshot {
            counters: touched(&self.counters, |slot| self.values[slot]),
            gauges: touched(&self.gauges, |slot| self.values[slot]),
            hists: touched(&self.hist_names, hist),
        }
    }
}

/// A point-in-time copy of the registry. `Display` renders the
/// plain-text stats report; `PartialEq` makes determinism testable.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, u64>,
    pub hists: BTreeMap<String, HistSnapshot>,
}

impl MetricsSnapshot {
    /// Counter value (zero when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// High-water gauge value (zero when never touched).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Histogram summary, if any observation was recorded.
    pub fn hist(&self, name: &str) -> Option<&HistSnapshot> {
        self.hists.get(name)
    }

    /// Machine-readable single-line JSON rendering. Key order is the
    /// `BTreeMap` iteration order, i.e. sorted and stable across runs —
    /// CI checkers and the replay tooling diff this byte-for-byte.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":");
        json_object(&mut out, &self.counters, |out, v| push_u64(out, *v));
        out.push_str(",\"gauges\":");
        json_object(&mut out, &self.gauges, |out, v| push_u64(out, *v));
        out.push_str(",\"hists\":");
        json_object(&mut out, &self.hists, |out, h| {
            for (field, v) in [
                ("{\"count\":", h.count),
                (",\"sum_ns\":", h.sum_ns),
                (",\"min_ns\":", h.min_ns),
                (",\"max_ns\":", h.max_ns),
            ] {
                out.push_str(field);
                push_u64(out, v);
            }
            out.push_str(",\"buckets\":[");
            for (j, b) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                push_u64(out, *b);
            }
            out.push_str("]}");
        });
        out.push('}');
        out
    }
}

/// `map` as a JSON object onto `out`, each value rendered by `value`.
fn json_object<V>(out: &mut String, map: &BTreeMap<String, V>, value: impl Fn(&mut String, &V)) {
    out.push('{');
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(out, k);
        out.push(':');
        value(out, v);
    }
    out.push('}');
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (title, map) in [
            ("counters", &self.counters),
            ("gauges (high-water)", &self.gauges),
        ] {
            writeln!(f, "-- {title} --")?;
            for (k, v) in map {
                writeln!(f, "{k:<44} {v:>12}")?;
            }
        }
        writeln!(f, "-- histograms (virtual time, us) --")?;
        writeln!(
            f,
            "{:<44} {:>8} {:>10} {:>10} {:>10}",
            "name", "count", "mean", "min", "max"
        )?;
        for (k, h) in &self.hists {
            writeln!(
                f,
                "{:<44} {:>8} {:>10.3} {:>10.3} {:>10.3}",
                k,
                h.count,
                h.mean_us(),
                h.min_ns as f64 / 1_000.0,
                h.max_ns as f64 / 1_000.0
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Incremental event streaming
// ---------------------------------------------------------------------------

/// Receiver for incremental drains of the kernel's event and decision
/// buffers (the journal's streaming flight recorder implements this).
///
/// Contract:
///
/// * Chunks arrive in strictly increasing ticket order — events by
///   [`TraceEvent::ticket`] (the trace commit sequence), decisions by
///   [`Decision::ticket`] (the scheduling sequence) — with no gaps and
///   no overlap between successive chunks.
/// * Both callbacks run **inside a kernel operation**, while it borrows
///   the scheduler, on the OS thread that owns the kernel.
///   Implementations must spend host time only (serialize, hand off)
///   and must never re-enter the kernel: a call through a
///   [`Kernel`](crate::kernel::Kernel) handle panics on the scheduler's
///   borrow check, and the ambient API sees no simulated thread (an
///   operation holds the identity). The metrics registry lives in the
///   scheduler, so a sink must not read or update metrics either
///   ([`Kernel::metrics_snapshot`](crate::kernel::Kernel::metrics_snapshot)
///   panics the same way).
/// * A final drain of whatever remains buffered happens in
///   [`crate::kernel::Kernel::finish_event_sink`], after the simulation
///   has quiesced, which then hands the sink back by value: the
///   installer upcasts it to `Box<dyn Any>` and downcasts it to its own
///   type to take back what it lent (the journal's writer).
pub trait EventSink: std::any::Any + Send {
    /// A contiguous, ticket-ordered run of trace events.
    fn events(&mut self, chunk: &[TraceEvent]);
    /// A contiguous, ticket-ordered run of committer decisions.
    fn decisions(&mut self, chunk: &[Decision]);
}

// ---------------------------------------------------------------------------
// Ambient emission API (usable from any simulated thread)
// ---------------------------------------------------------------------------

/// Record a trace event for the calling simulated thread. The closure
/// only runs when tracing is enabled; outside a simulated thread this is
/// a no-op. Never advances virtual time. `f` runs inside the kernel's
/// borrow of its scheduler and must only build the event, not call back
/// into marcel.
pub fn emit(f: impl FnOnce() -> Event) {
    try_with_current(|shared, me| shared.state.borrow().record(me, f));
}

/// A copy of the calling thread's kernel's metrics registry; `None`
/// outside a simulated thread.
pub fn metrics_snapshot() -> Option<MetricsSnapshot> {
    try_with_current(|shared, _| shared.state.borrow().metrics.snapshot())
}

/// `f` on the calling thread's metrics registry, inside one borrow of
/// the scheduler; a no-op outside a simulated thread.
fn with_registry(f: impl FnOnce(&mut Metrics)) {
    try_with_current(|shared, _| f(&mut shared.state.borrow().metrics));
}

/// Add `delta` to counter `c` of the calling thread's kernel (the
/// kernel that registered it).
pub fn counter_add(c: Counter, delta: u64) {
    with_registry(|m| m.add(c, delta));
}

/// Raise gauge `g` to `v` if `v` exceeds it.
pub fn gauge_max(g: Gauge, v: u64) {
    with_registry(|m| m.raise(g, v));
}

/// Record one observation into histogram `h`.
pub fn observe_ns(h: Hist, ns: u64) {
    with_registry(|m| m.observe(h, ns));
}

/// Clear every counter, gauge and histogram of the calling thread's
/// kernel (handles stay valid, span ids keep counting) — benchmarks
/// call this from inside the simulation between warm-up and the
/// measured iterations. The registry is the only home of madeleine's
/// channel and session counts (reliability counters, wire totals,
/// failovers, rendezvous re-issues), so those restart from zero too.
pub fn reset_metrics() {
    with_registry(Metrics::reset);
}

/// An open span. `Copy`, so it can be stashed in shared state and ended
/// on a different simulated thread than it began on.
#[derive(Clone, Copy, Debug)]
pub struct ActiveSpan {
    id: u64,
    kind: SpanKind,
    label: &'static str,
    hist: Hist,
    begin: VirtualTime,
}

/// Open a span at the calling thread's current virtual time. `label`
/// selects the histogram (`span/<kind>/<label>`, resolved to its handle
/// here) — by convention the protocol name. `None` outside a simulated
/// thread.
pub fn span_begin(kind: SpanKind, label: &'static str) -> Option<ActiveSpan> {
    try_with_current(|shared, me| {
        let mut sched = shared.state.borrow();
        let begin = sched.threads[me.index()].vtime;
        let id = sched.metrics.next_span_id();
        let hist = sched.metrics.span_hist(kind, label);
        sched.record(me, || Event::SpanBegin { id, kind, label });
        ActiveSpan {
            id,
            kind,
            label,
            hist,
            begin,
        }
    })
}

/// Close a span on the calling thread, feeding its
/// `span/<kind>/<label>` histogram. Accepts the `Option` from
/// [`span_begin`] so call sites stay unconditional.
pub fn span_end(span: Option<ActiveSpan>) {
    let Some(span) = span else { return };
    try_with_current(|shared, me| {
        let (id, kind, label) = (span.id, span.kind, span.label);
        let mut sched = shared.state.borrow();
        sched.record(me, || Event::SpanEnd { id, kind, label });
        let ns = sched.threads[me.index()].vtime.saturating_since(span.begin);
        sched.metrics.observe(span.hist, ns.as_nanos());
    });
}

// ---------------------------------------------------------------------------
// Trace validation & export
// ---------------------------------------------------------------------------

/// Check the span invariant: every `SpanBegin` in `trace` has exactly
/// one matching `SpanEnd` (same id) and no end lacks a begin.
// The clippy-suggested collapse would move the map mutations into
// match guards; the nested form keeps them visible.
#[allow(clippy::collapsible_match)]
pub fn validate_spans(trace: &[TraceEvent]) -> Result<(), String> {
    let mut open: BTreeMap<u64, &'static str> = BTreeMap::new();
    for e in trace {
        match &e.what {
            Event::SpanBegin { id, label, .. } => {
                if open.insert(*id, label).is_some() {
                    return Err(format!("span #{id} began twice"));
                }
            }
            Event::SpanEnd { id, .. } => {
                if open.remove(id).is_none() {
                    return Err(format!("span #{id} ended without a begin (or twice)"));
                }
            }
            _ => {}
        }
    }
    if open.is_empty() {
        Ok(())
    } else {
        let dangling: Vec<String> = open
            .iter()
            .map(|(id, label)| format!("#{id} ({label})"))
            .collect();
        Err(format!("unclosed spans: {}", dangling.join(", ")))
    }
}

/// Per-tid metadata for the Chrome exporter: the Marcel thread's name
/// and the virtual "process" (cluster node) it belongs to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThreadMeta {
    pub name: String,
    pub pid: u32,
}

/// Render a trace as Chrome trace-event JSON (the "JSON array format"
/// Perfetto and `chrome://tracing` load). One virtual process per
/// cluster node, one thread per Marcel tid; spans become async
/// nestable "b"/"e" pairs (they may cross threads), everything else an
/// instant "i". Every record carries `ph`, `ts` (virtual µs), `pid` and
/// `tid`.
///
/// Events are emitted in commit order (a stable sort on
/// [`TraceEvent::ticket`]), so a buffer handed over out of order
/// exports byte-identically to the canonical in-order trace. Virtual time is *not* the sort key: the
/// canonical trace is legitimately non-monotone in `ts` (a semaphore
/// release records the wake at the releaser's clock), and reordering by
/// time would change the output for already-ordered traces.
pub fn chrome_trace_json(trace: &[TraceEvent], threads: &[ThreadMeta]) -> String {
    let mut order: Vec<&TraceEvent> = trace.iter().collect();
    order.sort_by_key(|e| e.ticket);
    // A record is typically 70–110 bytes; one reservation covers most traces.
    let mut out = String::with_capacity(64 + 96 * (threads.len() + trace.len()));
    out.push_str("[\n");
    let mut first = true;
    // Every record opens with its separator and indent.
    let mut open = |out: &mut String| {
        out.push_str(if std::mem::take(&mut first) {
            "  "
        } else {
            ",\n  "
        });
    };
    // Process/thread name metadata.
    let mut pids: Vec<u32> = threads.iter().map(|t| t.pid).collect();
    pids.sort_unstable();
    pids.dedup();
    for pid in pids {
        open(&mut out);
        out.push_str("{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":");
        push_u64(&mut out, pid.into());
        out.push_str(",\"tid\":0,\"args\":{\"name\":\"node");
        push_u64(&mut out, pid.into());
        out.push_str("\"}}");
    }
    for (tid, meta) in threads.iter().enumerate() {
        open(&mut out);
        out.push_str("{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":");
        push_u64(&mut out, meta.pid.into());
        out.push_str(",\"tid\":");
        push_u64(&mut out, tid as u64);
        out.push_str(",\"args\":{\"name\":");
        push_json_str(&mut out, &meta.name);
        out.push_str("}}");
    }
    // The event text or span name of the current record, reused.
    let mut name = String::new();
    for e in order {
        let pid = threads.get(e.tid).map_or(0, |meta| meta.pid);
        name.clear();
        let (cat, ph, id) = match &e.what {
            Event::SpanBegin { id, kind, label } | Event::SpanEnd { id, kind, label } => {
                name.push_str(kind.name());
                name.push(':');
                name.push_str(label);
                let ph = if matches!(e.what, Event::SpanBegin { .. }) {
                    "b"
                } else {
                    "e"
                };
                (kind.name(), ph, Some(*id))
            }
            other => {
                // Writing into a `String` cannot fail.
                let _ = write!(name, "{other}");
                (other.layer().name(), "i", None)
            }
        };
        open(&mut out);
        out.push_str("{\"name\":");
        push_json_str(&mut out, &name);
        out.push_str(",\"cat\":");
        push_json_str(&mut out, cat);
        out.push_str(",\"ph\":\"");
        out.push_str(ph);
        match id {
            Some(id) => {
                out.push_str("\",\"id\":");
                push_u64(&mut out, id);
            }
            None => out.push_str("\",\"s\":\"t\""),
        }
        out.push_str(",\"ts\":");
        push_micros(&mut out, e.time);
        out.push_str(",\"pid\":");
        push_u64(&mut out, pid.into());
        out.push_str(",\"tid\":");
        push_u64(&mut out, e.tid as u64);
        out.push('}');
    }
    out.push_str("\n]\n");
    out
}

/// Append `s` as a JSON string literal (the build has no serde
/// available). Scans bytes and copies unescaped runs whole; every
/// escaped character is ASCII, so each run boundary is a char boundary.
fn push_json_str(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\t' => out.push_str("\\t"),
            b'\r' => out.push_str("\\r"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xF)]));
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Append the decimal digits of `v`.
fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for &d in &digits[at..] {
        out.push(d as char);
    }
}

/// Below this many nanoseconds, adjacent doubles near `ns / 1000` lie
/// far less than 0.001 µs apart, so the shortest decimal that
/// round-trips `ns as f64 / 1000.0` is the exact quotient.
const EXACT_MICROS_BELOW_NS: u64 = 1 << 50;

/// Append `t` in microseconds exactly as `{}` prints
/// [`VirtualTime::as_micros_f64`]: the integer part, then up to three
/// fraction digits with trailing zeros trimmed.
fn push_micros(out: &mut String, t: VirtualTime) {
    let ns = t.0;
    if ns >= EXACT_MICROS_BELOW_NS {
        // Writing into a `String` cannot fail.
        let _ = write!(out, "{}", t.as_micros_f64());
        return;
    }
    push_u64(out, ns / 1_000);
    let mut frac = ns % 1_000;
    if frac == 0 {
        return;
    }
    out.push('.');
    let mut scale = 100;
    while frac != 0 {
        out.push((b'0' + (frac / scale) as u8) as char);
        frac %= scale;
        scale /= 10;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_strings_are_byte_identical() {
        assert_eq!(Event::Spawn.to_string(), "spawn");
        assert_eq!(Event::Exit.to_string(), "exit");
        assert_eq!(Event::SemBlock { sem: 7 }.to_string(), "P sem#7 blocks");
        assert_eq!(
            Event::SemBlockTimeout {
                sem: 2,
                deadline: VirtualTime(1_500)
            }
            .to_string(),
            "P sem#2 blocks until 1.500us"
        );
        assert_eq!(
            Event::SemWake { sem: 3, woken: 9 }.to_string(),
            "V sem#3 wakes #9"
        );
        assert_eq!(
            Event::PollWake { source: 4 }.to_string(),
            "post->wake src#4"
        );
        assert_eq!(
            Event::PollQueued { source: 1 }.to_string(),
            "polled src#1 (queued)"
        );
        assert_eq!(
            Event::PollWaited { source: 0 }.to_string(),
            "polled src#0 (waited)"
        );
    }

    #[test]
    fn layers_are_attributed() {
        assert_eq!(Event::Spawn.layer(), Layer::Marcel);
        assert_eq!(
            Event::Pack {
                channel: "sisci#0".into(),
                to: 1,
                seq: 0,
                bytes: 4,
                segments: 2
            }
            .layer(),
            Layer::Madeleine
        );
        assert_eq!(Event::RecvPosted { rank: 0, depth: 1 }.layer(), Layer::Adi);
        assert_eq!(
            Event::SpanBegin {
                id: 1,
                kind: SpanKind::Handle,
                label: "tcp"
            }
            .layer(),
            Layer::ChMad
        );
        assert_eq!(
            Event::SpanEnd {
                id: 2,
                kind: SpanKind::Coll,
                label: "allreduce"
            }
            .layer(),
            Layer::Coll
        );
        assert_eq!(Layer::Coll.name(), "coll");
        assert_eq!(SpanKind::Coll.name(), "coll");
    }

    #[test]
    fn metrics_registry_counts_and_observes() {
        let mut m = Metrics::default();
        let (x, g, h) = (
            m.counter("a/x".into()),
            m.gauge("g".into()),
            m.hist("h".into()),
        );
        m.add(x, 2);
        m.add(x, 3);
        m.raise(g, 4);
        m.raise(g, 2);
        m.observe(h, 1_000);
        m.observe(h, 3_000);
        let s = m.snapshot();
        assert_eq!(s.counter("a/x"), 5);
        assert_eq!(m.read(x), 5);
        assert_eq!(s.counter("a/missing"), 0);
        assert_eq!(s.gauge("g"), 4);
        let hs = s.hist("h").unwrap();
        assert_eq!(hs.count, 2);
        assert_eq!(hs.min_ns, 1_000);
        assert_eq!(hs.max_ns, 3_000);
        assert!((hs.mean_us() - 2.0).abs() < 1e-9);
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
        assert_eq!(m.read(x), 0);
        // Reset keeps the handles: the same slot counts on.
        m.add(x, 7);
        assert_eq!(m.snapshot().counter("a/x"), 7);
        let text = s.to_string();
        assert!(text.contains("a/x"));
        assert!(text.contains("histograms"));
    }

    #[test]
    fn untouched_registered_slots_stay_out_of_snapshots() {
        let mut m = Metrics::default();
        let c = m.counter("c".into());
        let z = m.counter("z".into());
        m.gauge("g".into());
        m.hist("h".into());
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
        // A name registered twice is one slot.
        assert_eq!(m.counter(String::from("c").into()), c);
        assert_ne!(c, z);
        // A zero touch still enters the snapshot, as a created name did.
        m.add(z, 0);
        let s = m.snapshot();
        assert_eq!(s.counters.keys().collect::<Vec<_>>(), ["z"]);
        assert!(s.gauges.is_empty() && s.hists.is_empty());
    }

    #[test]
    fn ambient_snapshot_reads_the_callers_kernel() {
        assert!(metrics_snapshot().is_none());
        let k = crate::Kernel::new(crate::CostModel::free());
        let seen = k.register_counter("seen");
        let h = k.spawn("t", move || {
            counter_add(seen, 2);
            metrics_snapshot().map(|s| s.counter("seen"))
        });
        k.run().unwrap();
        assert_eq!(h.join_outcome(), Some(Some(2)));
        assert_eq!(k.metrics_snapshot().counter("seen"), 2);
        assert_eq!(k.counter(seen), 2);
    }

    #[test]
    fn prefix_iteration_is_sorted() {
        let mut m = Metrics::default();
        for (name, v) in [
            ("chan/tcp#0/bytes", 10),
            ("chan/sisci#0/bytes", 20),
            ("other", 1),
        ] {
            let c = m.counter(name.into());
            m.add(c, v);
        }
        // Name order, not registration order.
        let s = m.snapshot();
        let got: Vec<(&str, u64)> = s.counters.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        assert_eq!(
            got,
            vec![
                ("chan/sisci#0/bytes", 20),
                ("chan/tcp#0/bytes", 10),
                ("other", 1)
            ]
        );
    }

    #[test]
    fn span_validation_catches_dangling() {
        let ev = |what| TraceEvent {
            time: VirtualTime::ZERO,
            tid: 0,
            ticket: 0,
            what,
        };
        let good = vec![
            ev(Event::SpanBegin {
                id: 1,
                kind: SpanKind::Pack,
                label: "tcp",
            }),
            ev(Event::SpanEnd {
                id: 1,
                kind: SpanKind::Pack,
                label: "tcp",
            }),
        ];
        assert!(validate_spans(&good).is_ok());
        let dangling = vec![ev(Event::SpanBegin {
            id: 2,
            kind: SpanKind::Handle,
            label: "bip",
        })];
        assert!(validate_spans(&dangling).unwrap_err().contains("#2"));
        let orphan = vec![ev(Event::SpanEnd {
            id: 3,
            kind: SpanKind::Handle,
            label: "bip",
        })];
        assert!(validate_spans(&orphan).is_err());
    }

    #[test]
    fn chrome_export_has_required_fields() {
        let threads = vec![
            ThreadMeta {
                name: "rank0".into(),
                pid: 0,
            },
            ThreadMeta {
                name: "rank1-poll-tcp#0".into(),
                pid: 1,
            },
        ];
        let trace = vec![
            TraceEvent {
                time: VirtualTime(2_000),
                tid: 0,
                ticket: 0,
                what: Event::SpanBegin {
                    id: 1,
                    kind: SpanKind::Pack,
                    label: "tcp",
                },
            },
            TraceEvent {
                time: VirtualTime(9_000),
                tid: 1,
                ticket: 1,
                what: Event::SpanEnd {
                    id: 1,
                    kind: SpanKind::Pack,
                    label: "tcp",
                },
            },
            TraceEvent {
                time: VirtualTime(9_500),
                tid: 1,
                ticket: 2,
                what: Event::PollWake { source: 0 },
            },
        ];
        let json = chrome_trace_json(&trace, &threads);
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        // Every record carries the required fields.
        for line in json.lines().filter(|l| l.trim_start().starts_with('{')) {
            for field in ["\"ph\":", "\"ts\":", "\"pid\":", "\"tid\":"] {
                assert!(line.contains(field), "missing {field} in {line}");
            }
        }
        assert!(json.contains("\"ph\":\"b\""));
        assert!(json.contains("\"ph\":\"e\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("rank1-poll-tcp#0"));
    }

    #[test]
    fn chrome_export_is_stable_under_buffer_reordering() {
        // The exporter must flush in commit (ticket) order: a trace
        // buffer that arrives shuffled — as per-worker buffers merged
        // in arbitrary order would — exports byte-identically to the
        // canonical in-order trace. Virtual times are deliberately
        // non-monotone across tickets (a real trace property).
        let threads = vec![ThreadMeta {
            name: "rank0".into(),
            pid: 0,
        }];
        let canonical: Vec<TraceEvent> = [(0u64, 5_000u64), (1, 2_000), (2, 9_000), (3, 3_000)]
            .into_iter()
            .map(|(ticket, ns)| TraceEvent {
                time: VirtualTime(ns),
                tid: 0,
                ticket,
                what: Event::PollWake {
                    source: ticket as usize,
                },
            })
            .collect();
        let golden = chrome_trace_json(&canonical, &threads);
        let shuffled: Vec<TraceEvent> = [3usize, 0, 2, 1]
            .into_iter()
            .map(|i| canonical[i].clone())
            .collect();
        assert_eq!(chrome_trace_json(&shuffled, &threads), golden);
        // And the non-monotone virtual times survive in ticket order
        // (sorting by time would have put src#1 before src#0).
        let order: Vec<&str> = golden
            .lines()
            .filter(|l| l.contains("\"ph\":\"i\""))
            .map(|l| {
                let at = l.find("src#").unwrap();
                &l[at..at + 5]
            })
            .collect();
        assert_eq!(order, ["src#0", "src#1", "src#2", "src#3"]);
    }

    /// A trace that exercises every branch of the exporter: span pairs,
    /// instants, escapes in thread names and event text, a tid beyond
    /// the thread table, tickets out of order, and `ts` on both sides
    /// of the integer-formatting bound.
    fn exporter_fixture() -> (Vec<TraceEvent>, Vec<ThreadMeta>) {
        let threads = vec![
            ThreadMeta {
                name: "rank0".into(),
                pid: 0,
            },
            ThreadMeta {
                name: "q\"b\\s\nt\tr\r\u{1}\u{1f}é→名".into(),
                pid: 3,
            },
            ThreadMeta {
                name: "rank1-poll-tcp#0".into(),
                pid: 1,
            },
        ];
        let times = [
            0u64,
            1,
            10,
            100,
            999,
            1_000,
            1_001,
            123_456_789,
            (1 << 50) - 1,
            1 << 50,
            (1 << 50) + 7,
            u64::MAX,
        ];
        let whats = [
            Event::SpanBegin {
                id: 1,
                kind: SpanKind::Pack,
                label: "tcp",
            },
            Event::PollWake { source: 2 },
            Event::SpanEnd {
                id: 1,
                kind: SpanKind::Pack,
                label: "tcp",
            },
            Event::Pack {
                channel: Arc::from("ch\"\\é"),
                to: 1,
                seq: 9,
                bytes: 64,
                segments: 2,
            },
            Event::SemBlockTimeout {
                sem: 4,
                deadline: VirtualTime(1_500),
            },
            Event::RecvMatched {
                rank: 0,
                src: 1,
                tag: -1,
                unexpected: true,
            },
            Event::SpanBegin {
                id: 2,
                kind: SpanKind::Handle,
                label: "sisci",
            },
            Event::Spawn,
            Event::SpanEnd {
                id: 2,
                kind: SpanKind::Handle,
                label: "sisci",
            },
            Event::Exit,
            Event::RailSelected {
                rank: 1,
                dst: 0,
                rail: Arc::from("bip"),
                bytes: 4096,
            },
            Event::UnexpectedQueued {
                rank: 1,
                src: 0,
                tag: 7,
                depth: 3,
            },
        ];
        // Tickets reversed in pairs; tid 5 lies beyond the table.
        let trace = times
            .iter()
            .zip(whats)
            .enumerate()
            .map(|(i, (&ns, what))| TraceEvent {
                time: VirtualTime(ns),
                tid: [0, 1, 2, 5][i % 4],
                ticket: (i ^ 1) as u64,
                what,
            })
            .collect();
        (trace, threads)
    }

    /// A snapshot with an escaped key in every section.
    fn metrics_fixture() -> MetricsSnapshot {
        let mut m = Metrics::default();
        for (name, v) in [("z", 0), ("q\"\\\n/é", u64::MAX), ("a/x", 5)] {
            let c = m.counter(name.into());
            m.add(c, v);
        }
        for (name, v) in [("h", 17), ("g\t", 4)] {
            let g = m.gauge(name.into());
            m.raise(g, v);
        }
        let h = m.hist("h\"".into());
        for ns in [0, 1_000, 3_000_000_007] {
            m.observe(h, ns);
        }
        let pack = m.span_hist(SpanKind::Pack, "tcp");
        m.observe(pack, 12);
        m.snapshot()
    }

    #[test]
    fn chrome_export_bytes_are_pinned() {
        // A capture of the per-event `format!` exporter's output: the
        // one-buffer exporter must not move a byte.
        let (trace, threads) = exporter_fixture();
        assert_eq!(
            chrome_trace_json(&trace, &threads),
            r##"[
  {"name":"process_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"node0"}},
  {"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"node1"}},
  {"name":"process_name","ph":"M","ts":0,"pid":3,"tid":0,"args":{"name":"node3"}},
  {"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"rank0"}},
  {"name":"thread_name","ph":"M","ts":0,"pid":3,"tid":1,"args":{"name":"q\"b\\s\nt\tr\r\u0001\u001fé→名"}},
  {"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":2,"args":{"name":"rank1-poll-tcp#0"}},
  {"name":"post->wake src#2","cat":"marcel","ph":"i","s":"t","ts":0.001,"pid":3,"tid":1},
  {"name":"pack:tcp","cat":"pack","ph":"b","id":1,"ts":0,"pid":0,"tid":0},
  {"name":"pack ch\"\\é->#1 seq=9 64B x2","cat":"madeleine","ph":"i","s":"t","ts":0.1,"pid":0,"tid":5},
  {"name":"pack:tcp","cat":"pack","ph":"e","id":1,"ts":0.01,"pid":1,"tid":2},
  {"name":"adi match rank0 src=#1 tag=-1 (unexpected)","cat":"adi","ph":"i","s":"t","ts":1,"pid":3,"tid":1},
  {"name":"P sem#4 blocks until 1.500us","cat":"marcel","ph":"i","s":"t","ts":0.999,"pid":0,"tid":0},
  {"name":"spawn","cat":"marcel","ph":"i","s":"t","ts":123456.789,"pid":0,"tid":5},
  {"name":"handle:sisci","cat":"handle","ph":"b","id":2,"ts":1.001,"pid":1,"tid":2},
  {"name":"exit","cat":"marcel","ph":"i","s":"t","ts":1125899906842.624,"pid":3,"tid":1},
  {"name":"handle:sisci","cat":"handle","ph":"e","id":2,"ts":1125899906842.623,"pid":0,"tid":0},
  {"name":"adi unexpected rank1 src=#0 tag=7 depth=3","cat":"adi","ph":"i","s":"t","ts":18446744073709550,"pid":0,"tid":5},
  {"name":"rail bip selected #1->#0 4096B","cat":"ch_mad","ph":"i","s":"t","ts":1125899906842.631,"pid":1,"tid":2}
]
"##
        );
        assert_eq!(chrome_trace_json(&[], &[]), "[\n\n]\n");
    }

    #[test]
    fn metrics_json_bytes_are_pinned() {
        // A capture of the former `to_json` output, which CI checkers
        // and the replay tooling diff byte for byte.
        assert_eq!(
            metrics_fixture().to_json(),
            r##"{"counters":{"a/x":5,"q\"\\\n/é":18446744073709551615,"z":0},"gauges":{"g\t":4,"h":17},"hists":{"h\"":{"count":3,"sum_ns":3000001007,"min_ns":0,"max_ns":3000000007,"buckets":[1,0,0,0,0,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1]},"span/pack/tcp":{"count":1,"sum_ns":12,"min_ns":12,"max_ns":12,"buckets":[0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}}}"##
        );
        assert_eq!(
            MetricsSnapshot::default().to_json(),
            r#"{"counters":{},"gauges":{},"hists":{}}"#
        );
    }

    fn micros(ns: u64) -> String {
        let mut out = String::new();
        push_micros(&mut out, VirtualTime(ns));
        out
    }

    proptest::proptest! {
        #[test]
        fn micros_formatting_equals_the_f64_display(
            ns in proptest::prelude::any::<u64>(),
            near in 0u64..1 << 20,
        ) {
            for ns in [
                ns,
                ns >> 14,
                ns >> 40,
                EXACT_MICROS_BELOW_NS - 1 - near,
                EXACT_MICROS_BELOW_NS + near,
            ] {
                proptest::prop_assert_eq!(micros(ns), format!("{}", ns as f64 / 1000.0));
            }
        }
    }
}
