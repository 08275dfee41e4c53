//! The per-rank matching engine: the ADI's "request queues management"
//! box (paper Fig. 3). One engine per rank holds the posted-receive
//! queue and the unexpected-message queue, shared by *all* devices of
//! that rank — which is what makes `MPI_ANY_SOURCE` work across
//! `ch_self`, `smp_plug` and `ch_mad` simultaneously.
//!
//! Devices deliver into the engine from their polling threads:
//!
//! * [`Engine::deliver_eager`] — a short/eager message: matched against
//!   posted receives, else buffered (the intermediate copy the eager
//!   mode pays for, §4.1).
//! * [`Engine::deliver_rndv_offer`] — a rendezvous REQUEST: when a
//!   matching receive exists (or arrives), the engine allocates an
//!   rhandle ("sync_address") and invokes the device's responder, which
//!   sends the OK_TO_SEND message *from a separate thread* (a polling
//!   thread must never send, §4.2.3).
//! * [`Engine::rndv_chunk`] — the rendezvous DATA message, routed by
//!   rhandle straight into the posted buffer: zero-copy. A striped or
//!   forwarded message arrives as several spans, which are re-joined in
//!   place, copied only when they are not one allocation.

use std::collections::HashMap;

use bytes::Bytes;
use marcel::obs::{self, ActiveSpan, Event, SpanKind};
use marcel::{Kernel, OneShot, OwnedCell, SimCondvar, SimMutex, VirtualDuration};

use crate::adi::AdiCosts;
use crate::matching::{Handle, PostedStore, UnexpectedStore};
use crate::request::{self, Completion};
use crate::types::{Envelope, MatchSpec, Status};
use crate::vci::vci_for;

/// Responder invoked when a rendezvous request finds its receive: gets
/// the freshly allocated rhandle token (the paper's `sync_address`) and
/// must arrange the OK_TO_SEND reply.
pub type RndvResponder = Box<dyn FnOnce(u64) + Send>;

/// Typed rejection of a rendezvous delivery. These used to be panics,
/// but every one of them is reachable from outside the engine's own
/// invariants — a fault-driven re-issue race, a corrupt journal replay,
/// or a forged wire packet — so the engine reports them and lets the
/// device decide (ch_mad counts and drops; the loop-back devices, whose
/// tokens never leave the process, treat them as fatal).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EngineError {
    /// No live rendezvous transaction under this rhandle token.
    UnknownRhandle { rank: usize, token: u64 },
    /// A chunk announced a different transfer size than the slot.
    TotalMismatch {
        rank: usize,
        token: u64,
        expected: usize,
        got: usize,
    },
    /// A chunk extends past the end of the transfer.
    ChunkOutOfBounds {
        rank: usize,
        token: u64,
        offset: usize,
        len: usize,
        total: usize,
    },
    /// More payload than the transfer's total (overlapping or duplicate
    /// chunks).
    OverDelivery {
        rank: usize,
        token: u64,
        received: usize,
        total: usize,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownRhandle { rank, token } => {
                write!(f, "rank {rank}: unknown rendezvous rhandle {token}")
            }
            EngineError::TotalMismatch {
                rank,
                token,
                expected,
                got,
            } => write!(
                f,
                "rank {rank}, rhandle {token}: rendezvous total changed mid-flight \
                 (slot says {expected}, chunk says {got})"
            ),
            EngineError::ChunkOutOfBounds {
                rank,
                token,
                offset,
                len,
                total,
            } => write!(
                f,
                "rank {rank}, rhandle {token}: chunk [{offset}, {offset}+{len}) \
                 out of bounds for a {total}-byte transfer"
            ),
            EngineError::OverDelivery {
                rank,
                token,
                received,
                total,
            } => write!(
                f,
                "rank {rank}, rhandle {token}: over-delivery \
                 ({received} bytes already assembled of {total})"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

enum UnexpPayload {
    /// Buffered eager data plus the per-byte cost (ns) of copying it out
    /// when the receive finally posts, and the handling span opened on
    /// the polling thread (parked here until the receive posts).
    Eager(Bytes, f64, Option<ActiveSpan>),
    /// A rendezvous offer waiting for its receive.
    Rndv(RndvResponder),
}

struct Posted {
    /// Receive buffer capacity; a longer incoming message is an MPI
    /// truncation error (we fail fast).
    cap: usize,
    req: OneShot<Completion>,
}

/// The spans one receiver-side rendezvous transaction has received, in
/// arrival order: each is the wire's own buffer at its offset in the
/// message. Madeleine's wire never copies, so the spans of a striped or
/// forwarded message are adjacent slices of the sender's one
/// allocation: on completion they are re-joined in place, and copied
/// only when the spans are not one allocation. The first span is held
/// inline, so a whole-message delivery allocates nothing.
#[derive(Default)]
struct RndvBuf {
    first: Option<(usize, Bytes)>,
    rest: Vec<(usize, Bytes)>,
}

impl RndvBuf {
    fn push(&mut self, offset: usize, data: Bytes) {
        if self.first.is_none() {
            self.first = Some((offset, data));
        } else {
            self.rest.push((offset, data));
        }
    }

    fn spans(&self) -> impl Iterator<Item = &(usize, Bytes)> {
        self.first.iter().chain(&self.rest)
    }

    /// The `total`-byte message, once the spans account for all of it.
    fn into_message(self, total: usize) -> Bytes {
        self.rejoin(total).unwrap_or_else(|| {
            // The spans are not one allocation, or leave a gap that
            // duplicates made up for: write them at their offsets in
            // arrival order over a zeroed buffer.
            let mut buf = vec![0u8; total];
            for (offset, data) in self.spans() {
                buf[*offset..*offset + data.len()].copy_from_slice(data);
            }
            Bytes::from(buf)
        })
    }

    /// Walk the message from offset 0, joining each next span onto the
    /// handle so far. A whole-message delivery is the one-span case.
    fn rejoin(&self, total: usize) -> Option<Bytes> {
        let mut joined = Bytes::new();
        while joined.len() < total {
            let at = joined.len();
            let (_, next) = self
                .spans()
                .find(|(offset, data)| *offset == at && !data.is_empty())?;
            joined = if at == 0 {
                next.clone()
            } else {
                joined.try_join(next)?
            };
        }
        Some(joined)
    }
}

/// One receiver-side rendezvous transaction, possibly delivered in
/// several spans (striped across rails, or chunked on forwarded routes
/// to keep the gateway pipeline full).
struct RndvSlot {
    req: OneShot<Completion>,
    total: usize,
    buf: RndvBuf,
    received: usize,
}

/// One VCI's shard of the matching state. With `vcis = 1` (the
/// default) there is exactly one shard holding everything — the
/// pre-VCI engine. With `vcis > 1`, arrivals and concrete-tag receives
/// route to the shard `vci_for(context, tag)` selects, so disjoint
/// streams touch disjoint locks, queues and rendezvous tables.
struct Shard {
    posted: PostedStore<Posted>,
    unexpected: UnexpectedStore<UnexpPayload>,
    /// Receiver-side rendezvous transactions: rhandle token -> slot.
    /// A slot lives in the shard its envelope routes to.
    rndv: HashMap<u64, RndvSlot>,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            posted: PostedStore::new(),
            unexpected: UnexpectedStore::new(),
            rndv: HashMap::new(),
        }
    }
}

/// Handle to a probed unexpected message: the shard (VCI) it was found
/// in plus its handle in that shard's store. Pinning the VCI is what
/// makes probe-then-receive race-free under sharding — the receive goes
/// back to exactly the shard the probe matched in, no matter how its
/// own spec would have routed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ProbeHandle {
    pub(crate) vci: usize,
    pub(crate) arrival: Handle,
}

/// The matching engine of one rank.
///
/// # Locking
///
/// * `vcis == 1`: every operation takes exactly one lock (shard 0) —
///   the same kernel-operation sequence as the pre-VCI engine, which
///   keeps virtual time bit-identical.
/// * `vcis > 1`: arrivals lock their envelope's shard, then (briefly)
///   the wildcard posted store. Wildcard-tag receives and probes lock
///   shards in ascending index order, then the wildcard store. A
///   blocking probe waits on the dedicated `probe_gen` mutex, which
///   arrival paths bump *after* releasing their shard — so the two
///   lock classes are never held across each other in opposite order.
pub struct Engine {
    rank: usize,
    vcis: usize,
    /// One matching shard per VCI.
    shards: Vec<SimMutex<Shard>>,
    /// Posted receives with a wildcard tag: unroutable (the arrival's
    /// concrete tag decides the shard), so they live here and every
    /// arrival arbitrates against them by FIFO sequence. Touched only
    /// when `vcis > 1` — with one shard, wildcards stay inside the
    /// shard's own store.
    wild: SimMutex<PostedStore<Posted>>,
    /// Companion mutex of `arrivals` for cross-shard blocking probes
    /// (`vcis > 1` only): arrivals bump the generation after releasing
    /// their shard so a prober mid-search cannot miss the wake-up.
    probe_gen: SimMutex<u64>,
    /// Mirrors the matching state for probe wake-ups.
    arrivals: SimCondvar,
    /// Engine-global allocators, owned by the world's OS thread.
    next: OwnedCell<Allocators>,
    costs: AdiCosts,
    /// High-water-mark gauge keys, interned at construction — the
    /// post/arrival paths must not pay a `format!` per message.
    posted_hwm_key: String,
    unexpected_hwm_key: String,
}

/// Next values of the engine-global counters. The FIFO sequences are
/// drawn while holding the destination store's lock, so per-bucket
/// sequences stay monotone and cross-shard comparisons pick the true
/// earliest entry.
struct Allocators {
    posted_seq: u64,
    unexp_seq: u64,
    /// Rendezvous rhandle tokens (engine-global).
    rhandle: u64,
}

impl Engine {
    /// The matching engine of world rank `rank`, with `vcis` matching
    /// shards (one per VCI lane).
    pub fn new(kernel: &Kernel, rank: usize, costs: AdiCosts, vcis: usize) -> Engine {
        assert!(vcis >= 1, "an engine needs at least one VCI shard");
        Engine {
            rank,
            vcis,
            shards: (0..vcis)
                .map(|_| SimMutex::new(kernel, Shard::new()))
                .collect(),
            wild: SimMutex::new(kernel, PostedStore::new()),
            probe_gen: SimMutex::new(kernel, 0),
            arrivals: SimCondvar::new(kernel),
            next: OwnedCell::new(Allocators {
                posted_seq: 0,
                unexp_seq: 0,
                rhandle: 1,
            }),
            costs,
            posted_hwm_key: format!("adi/rank{rank}/posted_hwm"),
            unexpected_hwm_key: format!("adi/rank{rank}/unexpected_hwm"),
        }
    }

    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of VCI shards.
    pub fn vcis(&self) -> usize {
        self.vcis
    }

    /// Shard index an envelope (or a concrete-tag spec) routes to.
    #[inline]
    fn shard_of(&self, context: u32, tag: crate::types::Tag) -> usize {
        vci_for(context, tag, self.vcis)
    }

    /// Draw the next value of one of the engine's allocators.
    fn draw(&self, counter: fn(&mut Allocators) -> &mut u64) -> u64 {
        self.next.with(|a| {
            let c = counter(a);
            *c += 1;
            *c - 1
        })
    }

    /// Bump the probe generation and wake blocked probes. Called by
    /// arrival paths *after* their shard lock is released; no-op kernel
    /// traffic at `vcis == 1` is avoided by the caller branching.
    fn bump_probe_gen(&self) {
        let mut g = self.probe_gen.lock();
        *g = g.wrapping_add(1);
        drop(g);
    }

    fn check_cap(env: &Envelope, cap: usize) {
        assert!(
            env.len <= cap,
            "message truncation: {}-byte message for a {}-byte receive (src={}, tag={})",
            env.len,
            cap,
            env.src,
            env.tag
        );
    }

    fn status_of(env: &Envelope) -> Status {
        Status {
            source: env.src,
            tag: env.tag,
            len: env.len,
        }
    }

    /// Post a receive. If a matching unexpected message is buffered it
    /// completes (or initiates the rendezvous reply) immediately;
    /// otherwise the receive is queued. The whole call is measured as a
    /// `post` span — the request-management cost the paper's §5
    /// "handling" decomposition charges to the ADI (usually overlapped
    /// with the message flight in a ping-pong).
    pub(crate) fn post_recv(&self, spec: MatchSpec, cap: usize, req: OneShot<Completion>) {
        let post_span = obs::span_begin(SpanKind::Post, "adi");
        marcel::advance(self.costs.post_recv);
        let depth = if self.vcis == 1 || spec.tag.is_some() {
            // The spec routes to exactly one shard — the same one any
            // matching arrival routes to. With one shard, wildcards live
            // inside its own store.
            let v = spec.tag.map_or(0, |t| self.shard_of(spec.context, t));
            let mut st = self.shards[v].lock();
            if let Some((env, payload)) = st.unexpected.take_match(&spec) {
                self.complete_unexpected(st, env, payload, cap, req);
                obs::span_end(post_span);
                return;
            }
            let seq = self.draw(|a| &mut a.posted_seq);
            st.posted.insert_at(seq, spec, Posted { cap, req });
            let depth = st.posted.len();
            drop(st); // the queue unlock belongs to the posting cost
            depth
        } else {
            // Wildcard tag: a matching arrival may sit in any shard.
            // Hold every shard (ascending order) to pick the true
            // earliest; if none matches, enqueue on the wildcard store
            // *before* releasing the shards so no arrival can slip past
            // unmatched.
            let mut guards: Vec<_> = self.shards.iter().map(|s| s.lock()).collect();
            if let Some((arrival, v, _)) = Self::earliest(&guards, &spec) {
                let mut winner = guards.swap_remove(v);
                drop(guards);
                let (env, payload) = winner
                    .unexpected
                    .take(arrival)
                    .expect("entry held under lock");
                self.complete_unexpected(winner, env, payload, cap, req);
                obs::span_end(post_span);
                return;
            }
            let mut wl = self.wild.lock();
            let seq = self.draw(|a| &mut a.posted_seq);
            wl.insert_at(seq, spec, Posted { cap, req });
            let depth = wl.len();
            drop(wl);
            drop(guards);
            depth
        };
        let rank = self.rank;
        obs::gauge_max(&self.posted_hwm_key, depth as u64);
        obs::emit(move || Event::RecvPosted { rank, depth });
        obs::span_end(post_span);
    }

    /// The earliest arrival matching `spec` across the held shards: its
    /// handle, its shard and its envelope.
    fn earliest(
        guards: &[marcel::SimMutexGuard<'_, Shard>],
        spec: &MatchSpec,
    ) -> Option<(Handle, usize, Envelope)> {
        guards
            .iter()
            .enumerate()
            .filter_map(|(v, g)| {
                let (arrival, env) = g.unexpected.find(spec)?;
                Some((arrival, v, env))
            })
            .min_by_key(|&(arrival, _, _)| arrival)
    }

    /// [`Engine::post_recv`] for a receive that follows a successful
    /// probe: `handle` (from [`Engine::probe`] / [`Engine::iprobe`])
    /// addresses the probed arrival directly, skipping the second queue
    /// lookup the seed performed.
    /// Identical cost structure to `post_recv` — one lock, the same
    /// virtual-time charges.
    pub(crate) fn post_recv_probed(
        &self,
        handle: ProbeHandle,
        spec: MatchSpec,
        cap: usize,
        req: OneShot<Completion>,
    ) {
        let post_span = obs::span_begin(SpanKind::Post, "adi");
        marcel::advance(self.costs.post_recv);
        // The handle pins the shard the probe found the message in —
        // the receive must look there, not wherever its own spec would
        // route (a wildcard probe's concrete Status tag may hash to a
        // different shard than the one holding an earlier message).
        let mut st = self.shards[handle.vci].lock();
        let (env, payload) = st
            .unexpected
            .take(handle.arrival)
            .filter(|(env, _)| spec.matches(env))
            .or_else(|| st.unexpected.take_match(&spec))
            .expect("probed message vanished before the receive");
        self.complete_unexpected(st, env, payload, cap, req);
        obs::span_end(post_span);
    }

    /// Complete a receive against a just-dequeued unexpected message
    /// (common tail of [`Engine::post_recv`] and
    /// [`Engine::post_recv_probed`]); consumes the queue lock.
    fn complete_unexpected(
        &self,
        mut st: marcel::SimMutexGuard<'_, Shard>,
        env: Envelope,
        payload: UnexpPayload,
        cap: usize,
        req: OneShot<Completion>,
    ) {
        self.note_match(&env, true);
        match payload {
            UnexpPayload::Eager(data, copy_ns, span) => {
                Self::check_cap(&env, cap);
                drop(st);
                // The copy out of the bounce buffer is paid here, by
                // the receiving side — the eager mode's cost.
                marcel::advance(per_byte(copy_ns, data.len()));
                marcel::advance(self.costs.complete);
                request::complete(&req, Some(data), Self::status_of(&env), span);
            }
            UnexpPayload::Rndv(respond) => {
                Self::check_cap(&env, cap);
                let token = self.draw(|a| &mut a.rhandle);
                st.rndv.insert(
                    token,
                    RndvSlot {
                        req,
                        total: env.len,
                        buf: RndvBuf::default(),
                        received: 0,
                    },
                );
                drop(st);
                respond(token);
            }
        }
    }

    /// Record a match (posted↔incoming) in the trace.
    fn note_match(&self, env: &Envelope, unexpected: bool) {
        let (rank, src, tag) = (self.rank, env.src, env.tag);
        obs::emit(move || Event::RecvMatched {
            rank,
            src,
            tag,
            unexpected,
        });
    }

    /// Deliver an eager message (called from a device's polling thread
    /// or, for intra-node devices, from the sender's thread). `span` is
    /// the device's open handling span, if any: it rides the request (or
    /// the unexpected queue) until the receiving rank observes the
    /// completion.
    pub fn deliver_eager(
        &self,
        env: Envelope,
        data: Bytes,
        copy_ns: f64,
        span: Option<ActiveSpan>,
    ) {
        debug_assert_eq!(env.len, data.len(), "envelope length out of sync");
        let v = self.shard_of(env.context, env.tag);
        let mut st = self.shards[v].lock();
        if let Some(posted) = self.take_posted(&mut st, &env) {
            Self::check_cap(&env, posted.cap);
            self.note_match(&env, false);
            drop(st);
            marcel::advance(per_byte(copy_ns, data.len()));
            marcel::advance(self.costs.complete);
            request::complete(&posted.req, Some(data), Self::status_of(&env), span);
        } else {
            let (rank, src, tag) = (self.rank, env.src, env.tag);
            let seq = self.draw(|a| &mut a.unexp_seq);
            st.unexpected
                .insert_at(seq, env, UnexpPayload::Eager(data, copy_ns, span));
            let depth = st.unexpected.len();
            obs::gauge_max(&self.unexpected_hwm_key, depth as u64);
            obs::emit(move || Event::UnexpectedQueued {
                rank,
                src,
                tag,
                depth,
            });
            drop(st);
        }
        if self.vcis > 1 {
            self.bump_probe_gen();
        }
        self.arrivals.notify_all();
    }

    /// Take the earliest posted receive matching `env`, arbitrating
    /// between the envelope's shard and (at `vcis > 1`) the engine's
    /// wildcard-tag store by FIFO sequence. The shard guard stays held;
    /// the wildcard lock is taken only when multiple shards exist.
    fn take_posted(
        &self,
        st: &mut marcel::SimMutexGuard<'_, Shard>,
        env: &Envelope,
    ) -> Option<Posted> {
        if self.vcis == 1 {
            return st.posted.take_match(env);
        }
        let mut wl = self.wild.lock();
        match (st.posted.find(env), wl.find(env)) {
            (Some(s), w) if w.is_none_or(|w| s < w) => st.posted.take(s),
            (_, Some(w)) => wl.take(w),
            _ => None,
        }
    }

    /// Deliver a rendezvous REQUEST.
    pub fn deliver_rndv_offer(&self, env: Envelope, respond: RndvResponder) {
        let v = self.shard_of(env.context, env.tag);
        let mut st = self.shards[v].lock();
        if let Some(posted) = self.take_posted(&mut st, &env) {
            Self::check_cap(&env, posted.cap);
            self.note_match(&env, false);
            let token = self.draw(|a| &mut a.rhandle);
            st.rndv.insert(
                token,
                RndvSlot {
                    req: posted.req,
                    total: env.len,
                    buf: RndvBuf::default(),
                    received: 0,
                },
            );
            drop(st);
            respond(token);
        } else {
            let (rank, src, tag) = (self.rank, env.src, env.tag);
            let seq = self.draw(|a| &mut a.unexp_seq);
            st.unexpected
                .insert_at(seq, env, UnexpPayload::Rndv(respond));
            let depth = st.unexpected.len();
            obs::gauge_max(&self.unexpected_hwm_key, depth as u64);
            obs::emit(move || Event::UnexpectedQueued {
                rank,
                src,
                tag,
                depth,
            });
            drop(st);
        }
        if self.vcis > 1 {
            self.bump_probe_gen();
        }
        self.arrivals.notify_all();
    }

    /// Validate one chunk and keep it in its slot, under the state
    /// lock. Returns whether the transaction is now complete. Every
    /// error path leaves `st.rndv` exactly as it was.
    fn assemble(
        st: &mut Shard,
        rank: usize,
        token: u64,
        offset: usize,
        total: usize,
        data: Bytes,
    ) -> Result<bool, EngineError> {
        let slot = st
            .rndv
            .get_mut(&token)
            .ok_or(EngineError::UnknownRhandle { rank, token })?;
        if slot.total != total {
            return Err(EngineError::TotalMismatch {
                rank,
                token,
                expected: slot.total,
                got: total,
            });
        }
        if offset + data.len() > total {
            return Err(EngineError::ChunkOutOfBounds {
                rank,
                token,
                offset,
                len: data.len(),
                total,
            });
        }
        if slot.received + data.len() > total {
            return Err(EngineError::OverDelivery {
                rank,
                token,
                received: slot.received,
                total,
            });
        }
        slot.received += data.len();
        slot.buf.push(offset, data);
        Ok(slot.received == total)
    }

    /// Deliver one chunk of a rendezvous transaction (the whole DATA is
    /// the chunk at offset 0). Chunks may arrive in any order; the
    /// transaction completes when `total` bytes have arrived, and its
    /// chunks are re-joined in place — copied only when they are not one
    /// allocation. A rejected chunk leaves the slot untouched (the
    /// transaction can still complete from other chunks) and is reported
    /// as a typed [`EngineError`].
    ///
    /// `span` is the device's open handling span, if any. The span of
    /// the *completing* chunk rides the request to the receiving rank; a
    /// non-final chunk's span ends here, covering the polling thread's
    /// share of the work (as does a rejected chunk's).
    pub fn rndv_chunk(
        &self,
        token: u64,
        env: Envelope,
        offset: usize,
        total: usize,
        data: Bytes,
        span: Option<ActiveSpan>,
    ) -> Result<(), EngineError> {
        // The slot lives in the shard the transaction's envelope routed
        // to (lane 0 at `vcis == 1`).
        let v = self.shard_of(env.context, env.tag);
        let mut st = self.shards[v].lock();
        let done = match Self::assemble(&mut st, self.rank, token, offset, total, data) {
            Ok(done) => done,
            Err(e) => {
                drop(st);
                obs::span_end(span);
                return Err(e);
            }
        };
        if done {
            let slot = st.rndv.remove(&token).expect("slot just seen");
            drop(st);
            marcel::advance(self.costs.complete);
            let payload = slot.buf.into_message(total);
            request::complete(&slot.req, Some(payload), Self::status_of(&env), span);
        } else {
            drop(st);
            obs::span_end(span);
        }
        Ok(())
    }

    /// Non-blocking probe of the unexpected queue (`MPI_Iprobe`): the
    /// matched message's status and handle, which
    /// [`Engine::post_recv_probed`] accepts to receive it without a
    /// second queue lookup.
    pub(crate) fn iprobe(&self, spec: MatchSpec) -> Option<(Status, ProbeHandle)> {
        if self.vcis == 1 || spec.tag.is_some() {
            // The spec routes to exactly one shard.
            let v = spec.tag.map_or(0, |t| self.shard_of(spec.context, t));
            let st = self.shards[v].lock();
            return st
                .unexpected
                .find(&spec)
                .map(|(arrival, env)| (Self::status_of(&env), ProbeHandle { vci: v, arrival }));
        }
        // Wildcard tag across shards: hold all shards (ascending) and
        // pick the earliest arrival by engine-global sequence.
        let guards: Vec<_> = self.shards.iter().map(|s| s.lock()).collect();
        let best = Self::earliest(&guards, &spec);
        drop(guards);
        best.map(|(arrival, vci, env)| (Self::status_of(&env), ProbeHandle { vci, arrival }))
    }

    /// Blocking probe (`MPI_Probe`): waits until a matching message is
    /// buffered, without consuming it, and returns it as
    /// [`Engine::iprobe`] does.
    pub(crate) fn probe(&self, spec: MatchSpec) -> (Status, ProbeHandle) {
        if self.vcis == 1 {
            // Single shard: wait directly on its lock, exactly as the
            // pre-VCI engine did.
            let mut st = self.shards[0].lock();
            loop {
                if let Some((arrival, env)) = st.unexpected.find(&spec) {
                    return (Self::status_of(&env), ProbeHandle { vci: 0, arrival });
                }
                st = self.arrivals.wait(&self.shards[0], st);
            }
        }
        // Multi-shard: wait on the probe generation. An arrival bumps
        // the generation (taking this lock) after releasing its shard,
        // so a probe holding `probe_gen` across its search cannot lose
        // a wake-up: any arrival it missed bumps after we release.
        let mut gen = self.probe_gen.lock();
        loop {
            if let Some(found) = self.iprobe(spec) {
                return found;
            }
            gen = self.arrivals.wait(&self.probe_gen, gen);
        }
    }

    /// Diagnostics: (posted, unexpected, live rendezvous) queue depths,
    /// summed across shards (and the wildcard posted store).
    pub fn depths(&self) -> (usize, usize, usize) {
        let (mut p, mut u, mut r) = (0, 0, 0);
        for s in &self.shards {
            let st = s.lock();
            p += st.posted.len();
            u += st.unexpected.len();
            r += st.rndv.len();
        }
        if self.vcis > 1 {
            p += self.wild.lock().len();
        }
        (p, u, r)
    }

    /// Diagnostics: envelopes of the unexpected-message queue, in
    /// arrival order (engine-global sequence across shards). Lets
    /// shutdown tests verify that messages queued behind an early
    /// finalize were drained into the engine instead of being stranded
    /// in a terminated polling loop.
    pub fn unexpected_envelopes(&self) -> Vec<Envelope> {
        let mut all: Vec<(u64, Envelope)> = Vec::new();
        for s in &self.shards {
            all.extend(s.lock().unexpected.envelopes_with_seq());
        }
        all.sort_by_key(|(seq, _)| *seq);
        all.into_iter().map(|(_, env)| env).collect()
    }
}

fn per_byte(ns: f64, bytes: usize) -> VirtualDuration {
    VirtualDuration::from_nanos((bytes as f64 * ns).round() as u64)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::request::Request;
    use marcel::{CostModel, Kernel};

    fn env(src: usize, tag: i32, len: usize) -> Envelope {
        Envelope {
            src,
            tag,
            context: 0,
            len,
        }
    }

    fn spec(src: Option<usize>, tag: Option<i32>) -> MatchSpec {
        MatchSpec {
            src,
            tag,
            context: 0,
        }
    }

    /// Post a receive; its request.
    fn post(e: &Engine, spec: MatchSpec, cap: usize) -> Request {
        let slot = OneShot::current();
        e.post_recv(spec, cap, slot.clone());
        Request::new(slot, crate::group::Group::world(16))
    }

    /// Offer a rendezvous; the slot its responder puts the rhandle in.
    fn offer(e: &Engine, env: Envelope) -> OneShot<u64> {
        let token = OneShot::current();
        let fire = token.clone();
        e.deliver_rndv_offer(env, Box::new(move |t| fire.put(t)));
        token
    }

    fn with_engine(f: impl FnOnce(Engine) + Send + 'static) {
        let k = Kernel::new(CostModel::free());
        let k2 = k.clone();
        k.spawn("main", move || f(Engine::new(&k2, 0, AdiCosts::free(), 1)));
        k.run().unwrap();
    }

    #[test]
    fn eager_then_post() {
        with_engine(|e| {
            e.deliver_eager(env(1, 5, 3), Bytes::from_static(&[1, 2, 3]), 0.0, None);
            let req = post(&e, spec(Some(1), Some(5)), 16);
            let (data, status) = req.wait();
            assert_eq!(data.unwrap(), vec![1, 2, 3]);
            assert_eq!(status.source, 1);
        });
    }

    #[test]
    fn post_then_eager() {
        with_engine(|e| {
            let req = post(&e, spec(Some(1), Some(5)), 16);
            assert_eq!(e.depths(), (1, 0, 0));
            e.deliver_eager(env(1, 5, 2), Bytes::from_static(&[7, 8]), 0.0, None);
            let (data, _) = req.wait();
            assert_eq!(data.unwrap(), vec![7, 8]);
            assert_eq!(e.depths(), (0, 0, 0));
        });
    }

    #[test]
    fn wildcard_matching_is_fifo() {
        with_engine(|e| {
            e.deliver_eager(env(2, 5, 1), Bytes::from_static(&[2]), 0.0, None);
            e.deliver_eager(env(1, 5, 1), Bytes::from_static(&[1]), 0.0, None);
            let r1 = post(&e, spec(None, None), 16);
            // ANY_SOURCE/ANY_TAG must take the earliest buffered message.
            let (data, status) = r1.wait();
            assert_eq!(data.unwrap(), vec![2]);
            assert_eq!(status.source, 2);
        });
    }

    #[test]
    fn non_matching_messages_do_not_complete() {
        with_engine(|e| {
            let mut r = post(&e, spec(Some(1), Some(5)), 16);
            e.deliver_eager(env(1, 6, 1), Bytes::from_static(&[9]), 0.0, None);
            e.deliver_eager(env(2, 5, 1), Bytes::from_static(&[9]), 0.0, None);
            assert!(!r.test());
            assert_eq!(e.depths(), (1, 2, 0));
            e.deliver_eager(env(1, 5, 1), Bytes::from_static(&[1]), 0.0, None);
            assert!(r.test());
        });
    }

    #[test]
    fn rendezvous_flow() {
        with_engine(|e| {
            // REQUEST arrives first; responder fires once the recv posts.
            let token = offer(&e, env(3, 1, 4));
            let req = post(&e, spec(Some(3), Some(1)), 16);
            let token = token.try_take().expect("responder must fire on post");
            e.rndv_chunk(
                token,
                env(3, 1, 4),
                0,
                4,
                Bytes::from_static(&[4, 3, 2, 1]),
                None,
            )
            .unwrap();
            let (data, _) = req.wait();
            assert_eq!(data.unwrap(), vec![4, 3, 2, 1]);
        });
    }

    #[test]
    fn rendezvous_posted_first() {
        with_engine(|e| {
            let req = post(&e, spec(None, Some(1)), 16);
            let token = offer(&e, env(3, 1, 2));
            let token = token.try_take().expect("responder fires immediately");
            e.rndv_chunk(token, env(3, 1, 2), 0, 2, Bytes::from_static(&[5, 6]), None)
                .unwrap();
            let (data, status) = req.wait();
            assert_eq!(data.unwrap(), vec![5, 6]);
            assert_eq!(status.source, 3);
        });
    }

    #[test]
    fn truncation_is_fatal() {
        let k = Kernel::new(CostModel::free());
        let k2 = k.clone();
        k.spawn("main", move || {
            let e = Engine::new(&k2, 0, AdiCosts::free(), 1);
            let _req = post(&e, spec(None, None), 2);
            e.deliver_eager(env(0, 0, 5), Bytes::from_static(&[0; 5]), 0.0, None);
        });
        match k.run() {
            Err(marcel::SimError::ThreadPanicked(msg)) => assert!(msg.contains("truncation")),
            other => panic!("expected truncation panic, got {other:?}"),
        }
    }

    #[test]
    fn probe_sees_unexpected_without_consuming() {
        with_engine(|e| {
            e.deliver_eager(env(1, 7, 3), Bytes::from_static(&[1, 2, 3]), 0.0, None);
            assert_eq!(e.iprobe(spec(None, Some(7))).unwrap().0.len, 3);
            assert_eq!(e.iprobe(spec(None, Some(8))), None);
            // Still buffered.
            assert_eq!(e.depths(), (0, 1, 0));
            let st = e.probe(spec(Some(1), None)).0;
            assert_eq!(st.source, 1);
        });
    }

    #[test]
    fn blocking_probe_wakes_on_arrival() {
        let k = Kernel::new(CostModel::free());
        let k2 = k.clone();
        let h = k.spawn("main", move || {
            let e = Arc::new(Engine::new(&k2, 0, AdiCosts::free(), 1));
            let e2 = e.clone();
            marcel::spawn("deliverer", move || {
                marcel::advance(VirtualDuration::from_micros(40));
                e2.deliver_eager(env(9, 3, 1), Bytes::from_static(&[1]), 0.0, None);
            });
            let st = e.probe(spec(Some(9), Some(3))).0;
            (st.len, marcel::now())
        });
        k.run().unwrap();
        let (len, t) = h.join_outcome().unwrap();
        assert_eq!(len, 1);
        assert!(t.as_micros_f64() >= 40.0);
    }

    #[test]
    fn rndv_chunks_assemble_out_of_order() {
        with_engine(|e| {
            let mut r = post(&e, spec(Some(1), Some(0)), 64);
            let token = offer(&e, env(1, 0, 10)).take();
            // Three chunks, delivered middle-last-first.
            e.rndv_chunk(
                token,
                env(1, 0, 10),
                4,
                10,
                Bytes::from_static(&[5, 6, 7]),
                None,
            )
            .unwrap();
            e.rndv_chunk(
                token,
                env(1, 0, 10),
                7,
                10,
                Bytes::from_static(&[8, 9, 10]),
                None,
            )
            .unwrap();
            assert!(!r.test(), "incomplete assembly must not complete");
            e.rndv_chunk(
                token,
                env(1, 0, 10),
                0,
                10,
                Bytes::from_static(&[1, 2, 3, 4]),
                None,
            )
            .unwrap();
            let (data, status) = r.wait();
            assert_eq!(data.unwrap(), vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
            assert_eq!(status.len, 10);
        });
    }

    #[test]
    fn striped_spans_assemble_even_when_first_starts_at_zero() {
        // A 2-rail stripe delivers exactly two spans, and the offset-0
        // span may land first while covering only part of the message —
        // the whole-message fast path must not adopt it.
        with_engine(|e| {
            let mut r = post(&e, spec(Some(1), Some(0)), 64);
            let token = offer(&e, env(1, 0, 8)).take();
            e.rndv_chunk(
                token,
                env(1, 0, 8),
                0,
                8,
                Bytes::from_static(&[1, 2, 3, 4, 5]),
                None,
            )
            .unwrap();
            assert!(!r.test(), "partial offset-0 span must not complete");
            e.rndv_chunk(
                token,
                env(1, 0, 8),
                5,
                8,
                Bytes::from_static(&[6, 7, 8]),
                None,
            )
            .unwrap();
            let (data, status) = r.wait();
            assert_eq!(data.unwrap(), vec![1, 2, 3, 4, 5, 6, 7, 8]);
            assert_eq!(status.len, 8);
            assert_eq!(e.depths(), (0, 0, 0));
        });
    }

    #[test]
    fn spans_of_one_allocation_rejoin_in_place_in_either_order() {
        for first_at_zero in [true, false] {
            with_engine(move |e| {
                let sent = Bytes::from((1u8..=8).collect::<Vec<u8>>());
                let (head, tail) = (sent.slice(..5), sent.slice(5..));
                let mut r = post(&e, spec(Some(1), Some(0)), 64);
                let token = offer(&e, env(1, 0, 8)).take();
                let spans = if first_at_zero {
                    [(0, head), (5, tail)]
                } else {
                    [(5, tail), (0, head)]
                };
                for (offset, data) in spans {
                    assert!(!r.test(), "completed before every span landed");
                    e.rndv_chunk(token, env(1, 0, 8), offset, 8, data, None)
                        .unwrap();
                }
                let data = r.wait_bytes().0.unwrap();
                assert_eq!(data, sent);
                assert_eq!(data.as_ptr(), sent.as_ptr(), "no copy was made");
            });
        }
    }

    #[test]
    fn spans_of_two_allocations_are_copied_into_place() {
        with_engine(|e| {
            let (a, b) = (Bytes::from(vec![1u8, 2, 3]), Bytes::from(vec![4u8, 5]));
            let r = post(&e, spec(Some(1), Some(0)), 64);
            let token = offer(&e, env(1, 0, 5)).take();
            e.rndv_chunk(token, env(1, 0, 5), 3, 5, b.clone(), None)
                .unwrap();
            e.rndv_chunk(token, env(1, 0, 5), 0, 5, a.clone(), None)
                .unwrap();
            let data = r.wait_bytes().0.unwrap();
            assert_eq!(data, vec![1, 2, 3, 4, 5]);
            assert!(data.as_ptr() != a.as_ptr() && data.as_ptr() != b.as_ptr());
        });
    }

    #[test]
    fn duplicate_then_gap_completes_with_the_bytes_written_in_arrival_order() {
        // A duplicated span makes up the byte count its missing twin
        // leaves: the transaction completes, the later copy of the
        // duplicated range wins, and the gap reads as zeros.
        with_engine(|e| {
            let sent = Bytes::from(vec![1u8, 2, 3, 4, 5, 6, 7, 8]);
            let r = post(&e, spec(Some(1), Some(0)), 64);
            let token = offer(&e, env(1, 0, 8)).take();
            e.rndv_chunk(token, env(1, 0, 8), 0, 8, sent.slice(..4), None)
                .unwrap();
            e.rndv_chunk(token, env(1, 0, 8), 0, 8, Bytes::from(vec![9u8; 4]), None)
                .unwrap();
            let data = r.wait_bytes().0.unwrap();
            assert_eq!(data, vec![9, 9, 9, 9, 0, 0, 0, 0]);
        });
    }

    /// An open 8-byte transaction from rank 1; its request and token.
    fn open_rndv(e: &Engine) -> (Request, u64) {
        let r = post(e, spec(Some(1), Some(0)), 64);
        let token = offer(e, env(1, 0, 8)).take();
        (r, token)
    }

    /// Complete an open 8-byte transaction with two valid spans and
    /// check the rejected chunk before them left no trace.
    fn finish_rndv(e: &Engine, mut r: Request, token: u64) {
        assert!(!r.test());
        let sent = Bytes::from((1u8..=8).collect::<Vec<u8>>());
        e.rndv_chunk(token, env(1, 0, 8), 0, 8, sent.slice(..4), None)
            .unwrap();
        e.rndv_chunk(token, env(1, 0, 8), 4, 8, sent.slice(4..), None)
            .unwrap();
        assert_eq!(r.wait_bytes().0.unwrap(), sent);
        assert_eq!(e.depths(), (0, 0, 0));
    }

    #[test]
    fn unknown_rhandle_is_rejected() {
        with_engine(|e| {
            let (r, token) = open_rndv(&e);
            let got = e.rndv_chunk(
                token + 7,
                env(1, 0, 8),
                0,
                8,
                Bytes::from(vec![0u8; 8]),
                None,
            );
            assert_eq!(
                got,
                Err(EngineError::UnknownRhandle {
                    rank: 0,
                    token: token + 7
                })
            );
            finish_rndv(&e, r, token);
        });
    }

    #[test]
    fn total_mismatch_is_rejected_before_bounds() {
        with_engine(|e| {
            let (r, token) = open_rndv(&e);
            // Out of bounds for either total, but the total is checked
            // first.
            let got = e.rndv_chunk(token, env(1, 0, 8), 9, 16, Bytes::from(vec![0u8; 8]), None);
            assert_eq!(
                got,
                Err(EngineError::TotalMismatch {
                    rank: 0,
                    token,
                    expected: 8,
                    got: 16
                })
            );
            finish_rndv(&e, r, token);
        });
    }

    #[test]
    fn chunk_out_of_bounds_is_rejected() {
        with_engine(|e| {
            let (r, token) = open_rndv(&e);
            let got = e.rndv_chunk(token, env(1, 0, 8), 6, 8, Bytes::from(vec![0u8; 3]), None);
            assert_eq!(
                got,
                Err(EngineError::ChunkOutOfBounds {
                    rank: 0,
                    token,
                    offset: 6,
                    len: 3,
                    total: 8
                })
            );
            finish_rndv(&e, r, token);
        });
    }

    #[test]
    fn over_delivery_is_rejected() {
        with_engine(|e| {
            let (r, token) = open_rndv(&e);
            e.rndv_chunk(token, env(1, 0, 8), 0, 8, Bytes::from(vec![7u8; 6]), None)
                .unwrap();
            let got = e.rndv_chunk(token, env(1, 0, 8), 4, 8, Bytes::from(vec![0u8; 4]), None);
            assert_eq!(
                got,
                Err(EngineError::OverDelivery {
                    rank: 0,
                    token,
                    received: 6,
                    total: 8
                })
            );
            e.rndv_chunk(token, env(1, 0, 8), 6, 8, Bytes::from(vec![8u8; 2]), None)
                .unwrap();
            assert_eq!(r.wait().0.unwrap(), vec![7, 7, 7, 7, 7, 7, 8, 8]);
        });
    }

    #[test]
    fn rndv_single_chunk_fast_path() {
        with_engine(|e| {
            let req = post(&e, spec(None, None), 8);
            let token = offer(&e, env(2, 1, 3)).take();
            static SENT: [u8; 3] = [9, 8, 7];
            e.rndv_chunk(token, env(2, 1, 3), 0, 3, Bytes::from_static(&SENT), None)
                .unwrap();
            let data = req.wait_bytes().0.unwrap();
            assert_eq!(data, vec![9, 8, 7]);
            assert_eq!(data.as_ptr(), SENT.as_ptr(), "the wire buffer is adopted");
        });
    }

    #[test]
    fn eager_copy_cost_charged_on_match() {
        let k = Kernel::new(CostModel::free());
        let k2 = k.clone();
        let h = k.spawn("main", move || {
            let e = Engine::new(&k2, 0, AdiCosts::free(), 1);
            e.deliver_eager(
                env(1, 0, 100_000),
                Bytes::from(vec![0u8; 100_000]),
                10.0,
                None,
            );
            let before = marcel::now();
            let req = post(&e, spec(None, None), 1 << 20);
            req.wait();
            marcel::now() - before
        });
        k.run().unwrap();
        // 100 KB at 10 ns/B = 1 ms.
        let d = h.join_outcome().unwrap();
        assert!(d.as_micros_f64() >= 1_000.0, "copy cost {d}");
    }
}
