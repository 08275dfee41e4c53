//! `ch_mad`: the paper's contribution — a *single* MPICH device carrying
//! all inter-node traffic over the multi-protocol Madeleine library.
//!
//! Structure (paper §4):
//!
//! * one Madeleine channel per network; each rank runs **one polling
//!   thread per channel** (`poll_loop`, or one for all of a rank's
//!   channels under fused progress), started at `MPI_Init` and
//!   terminated by a `MAD_TERM_PKT` per lane sent over the loop-back
//!   connection at `MPI_Finalize`;
//! * per destination, the device picks the *fastest network both nodes
//!   share* — this is the multi-protocol selection the paper adds over
//!   classical MPICH devices (no distinction between intra- and
//!   inter-cluster communication);
//! * **eager mode** for messages up to the switch point: one message,
//!   header EXPRESS + user bytes CHEAPER (the *split short packet*
//!   optimization of §4.2.2 — the naive alternative, a fixed
//!   `MPID_PKT_MAX_DATA_SIZE` inline buffer, is kept as an ablation);
//! * **rendezvous mode** above the switch point: REQUEST →
//!   OK_TO_SEND(sync_address) → DATA(sync_address, zero-copy body);
//!   the OK_TO_SEND is sent from a freshly spawned thread because *a
//!   polling thread must never send* (§4.2.3);
//! * the eager→rendezvous threshold is resolved per channel through a
//!   [`ProtocolPolicy`]: by default each network uses its own ideal
//!   value; [`PolicyMode::Elected`] reproduces the historical ADI
//!   limitation — one integer per device, **elected** for all networks
//!   (SCI's 8 KB when SCI is present, else the fastest network's;
//!   §4.2.2);
//! * with [`PolicyMode::Striped`], rendezvous DATA between ranks that
//!   share several networks is split into contiguous spans striped
//!   across all rails, weighted by each link's calibrated bandwidth;
//!   the receiver collects them through the engine's out-of-order
//!   chunk path, where they are re-joined in place, copied only when
//!   the spans are not one allocation.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::{BufMut, Bytes, BytesMut};
use madeleine::{
    Channel, ChannelError, Endpoint, Rails, ReceiveMode, SendMode, Session, UnpackingConnection,
};
use marcel::obs::{self, Event, SpanKind};
use marcel::{JoinHandle, Kernel, OneShot, SimMutex};

use crate::adi::{AdiCosts, PolicyMode, ProtocolPolicy};
use crate::device::packet::Packet;
use crate::types::Envelope;
use crate::vci::vci_for;
use crate::world::MpiWorld;
use marcel::VirtualDuration;

/// Per-byte polling-thread handling cost (see `AdiCosts`).
fn touch(ns_per_byte: f64, bytes: usize) -> VirtualDuration {
    VirtualDuration::from_nanos((bytes as f64 * ns_per_byte).round() as u64)
}

/// Tunables and ablation switches for the device.
#[derive(Clone, Debug)]
pub struct ChMadConfig {
    /// Split the ADI short packet: header in the `ch_mad` header block,
    /// user bytes as the message body (§4.2.2). `false` reproduces the
    /// naive scheme — a fixed-size inline buffer padded with nulls —
    /// whose waste the paper calls out.
    pub split_short: bool,
    /// Enable the rendezvous transfer mode. `false` forces eager for
    /// every size (ablation: shows what zero-copy buys).
    pub rendezvous: bool,
    /// How the eager→rendezvous threshold is resolved per channel, and
    /// whether rendezvous DATA is striped across rails.
    pub policy: PolicyMode,
    /// Flat threshold override for every channel, beating `policy`
    /// (used by the switch-point ablation bench).
    pub switch_point_override: Option<usize>,
    /// Allow transitively-connected topologies: inter-node messages
    /// between nodes without a shared network cross gateway ranks (the
    /// §6 future-work forwarding extension). A ch_mad setting, so no
    /// other device can be configured to forward.
    pub forwarding: bool,
    /// Chunk size for rendezvous DATA on *forwarded* (multi-hop) routes.
    /// Chunking lets consecutive hops pipeline, so the end-to-end
    /// bandwidth approaches the slowest link instead of its half
    /// (store-and-forward). `usize::MAX` disables chunking (ablation).
    pub fwd_chunk: usize,
    /// Serve all of a rank's (channel, VCI) lanes from one polling
    /// thread instead of one thread per lane: the same `poll_loop`, over
    /// every endpoint of the rank. The default (`false`) is the
    /// paper-faithful model — one polling thread per protocol — and is
    /// what every calibrated figure uses. Fused mode preserves the
    /// detection-delay model (all endpoints stay attached, so a notice
    /// pays the same factorized cycle) but changes thread
    /// interleavings, so its traces are self-consistent rather than
    /// bit-identical to unfused runs. What it saves is fibers, and each
    /// fiber's stack costs two kernel mappings: a three-channel rank
    /// runs two fibers fused (poller + application) instead of four, so
    /// an 8192-rank world needs ≈32.8k mappings, not ≈65.5k — the
    /// latter just over the default `vm.max_map_count` of 65 530.
    pub fused_progress: bool,
}

impl Default for ChMadConfig {
    fn default() -> Self {
        ChMadConfig {
            split_short: true,
            rendezvous: true,
            policy: PolicyMode::default(),
            switch_point_override: None,
            forwarding: false,
            fwd_chunk: 128 * 1024,
            fused_progress: false,
        }
    }
}

/// Sender-side rendezvous transactions of one rank.
struct PendingRndv {
    next_token: u64,
    waiting: HashMap<u64, OneShot<u64>>,
}

/// Receiver-side progress of one rendezvous REQUEST, keyed by
/// `(sender rank, sender_token)`. The sender re-issues its REQUEST
/// (same token) when no OK_TO_SEND arrives in time, so the receiver
/// must recognize re-issues instead of matching them against a second
/// receive.
enum RndvProgress {
    /// Offered to the engine; the responder has not fired yet (no
    /// matching receive posted so far). A re-issue is simply dropped.
    Offered,
    /// Acknowledged with this sync_address. A re-issue means the sender
    /// may have missed the OK_TO_SEND: acknowledge again.
    Acked(u64),
}

struct RankState {
    pending: SimMutex<PendingRndv>,
    seen: SimMutex<HashMap<(usize, u64), RndvProgress>>,
}

/// Where packets from one rank toward `dst` go — read from the
/// session's tables once per send and handed down to every packet of
/// it. The route is fixed for the session's life; only rail liveness
/// moves, and `rails` reads it afresh each time it is cloned and walked.
struct Hop<'a> {
    dst: usize,
    /// `dst` itself, or the gateway rank one hop closer to it.
    next: usize,
    is_final: bool,
    /// The surviving rails to `next`, fastest first.
    rails: Rails<'a>,
}

/// The device's per-rank state. Code that spawns a service thread takes
/// the world, whose clone the thread keeps: the device lives inside it.
pub(crate) struct ChMad {
    session: Arc<Session>,
    costs: AdiCosts,
    config: ChMadConfig,
    policy: ProtocolPolicy,
    ranks: Vec<RankState>,
    /// VCI lanes per channel (from the session). Wire traffic for an
    /// envelope rides lane `vci_for(env.context, env.tag, vcis)` so a
    /// matching pair's stream keeps FIFO order end to end.
    vcis: usize,
    /// Whether any channel carries a fault plan. On a fault-free session
    /// every robustness path below (REQUEST re-issue timers, failover
    /// retries) is bypassed, keeping the timing identical to a build
    /// without the reliability sublayer.
    has_faults: bool,
}

impl ChMad {
    pub(crate) fn new(
        kernel: &Kernel,
        session: Arc<Session>,
        costs: AdiCosts,
        config: ChMadConfig,
    ) -> ChMad {
        let protocols = session.topology().protocols();
        let policy = ProtocolPolicy::new(config.policy, &protocols, config.switch_point_override);
        let ranks = (0..session.n_ranks())
            .map(|_| RankState {
                pending: SimMutex::new(
                    kernel,
                    PendingRndv {
                        next_token: 1,
                        waiting: HashMap::new(),
                    },
                ),
                seen: SimMutex::new(kernel, HashMap::new()),
            })
            .collect();
        let has_faults = session.channels().iter().any(|c| c.fault().is_some());
        let vcis = session.vcis();
        ChMad {
            session,
            costs,
            config,
            policy,
            ranks,
            vcis,
            has_faults,
        }
    }

    /// Resolve where `from`'s packets toward `dst` go: two table reads
    /// in the session, no search and no allocation.
    fn hop(&self, from: usize, dst: usize) -> Hop<'_> {
        let (next, is_final) = self.session.next_hop(from, dst);
        Hop {
            dst,
            next,
            is_final,
            rails: self.session.live_channels_between(from, next),
        }
    }

    /// Ship one ch_mad packet (header + optional body) along `hop`,
    /// wrapping it in a `MAD_FWD_PKT` when the next hop is a gateway
    /// (§6 future-work extension).
    ///
    /// Rails are tried in transfer-priority order among the surviving
    /// (non-dead) channels of the hop; a [`ChannelError::LinkDead`]
    /// fails the send over to the next rail. Only when every rail
    /// between the pair is dead does the device give up — that is an
    /// unsurvivable fault plan, outside the robustness contract.
    fn send_packet(&self, from: usize, hop: &Hop, vci: usize, header: Bytes, body: Option<Bytes>) {
        let next = hop.next;
        let fwd = (!hop.is_final).then(|| {
            Packet::Fwd {
                final_dst: hop.dst as u32,
            }
            .encode()
        });
        let mut live = hop.rails.clone();
        let Some(mut rail) = live.next() else {
            panic!("rank {from}: no live rail to rank {next}");
        };
        // The fallbacks are the rails alive now, before the first
        // attempt spends virtual time. Only a rail with a fault plan
        // can fail a send, so otherwise the list is never read.
        let fallbacks: Vec<&Arc<Channel>> = match rail.fault() {
            Some(_) => live.collect(),
            None => Vec::new(),
        };
        let mut fallbacks = fallbacks.into_iter();
        let bytes = header.len() + body.as_ref().map_or(0, |b| b.len());
        obs::emit(|| Event::RailSelected {
            rank: from,
            dst: next,
            rail: rail.name_tag(),
            bytes,
        });
        let mut packet = Some((fwd, header, body));
        loop {
            // A rail with a fallback behind it sends a copy, kept for the
            // retry; the last candidate sends the packet itself.
            let (fwd, header, body) = match fallbacks.len() {
                0 => packet.take().expect("the last rail sends once"),
                _ => packet.clone().expect("kept for a retry"),
            };
            let Err(err) = self.send_packet_on(rail, from, next, vci, fwd, header, body) else {
                return;
            };
            self.session.note_failover();
            let fallback = fallbacks.next();
            let from_tag = rail.name_tag();
            let to_tag = fallback.map_or_else(|| Arc::from("none"), |r| r.name_tag());
            obs::emit(move || Event::RailFailover {
                rank: from,
                dst: next,
                from_rail: from_tag,
                to_rail: to_tag,
            });
            match fallback {
                Some(r) => rail = r,
                None => panic!("rank {from}: every rail to rank {next} is dead (last: {err})"),
            }
        }
    }

    /// Eager mode: one message, optimized for latency at the price of an
    /// intermediate copy on the receiving side. `threshold` is the
    /// channel's resolved switch point (sizes the naive inline buffer).
    fn send_eager(
        &self,
        from: usize,
        hop: &Hop,
        vci: usize,
        env: Envelope,
        data: Bytes,
        threshold: usize,
    ) {
        if self.config.split_short {
            self.send_packet(from, hop, vci, Packet::Short { env }.encode(), Some(data));
        } else {
            // Naive ADI short packet: header + MPID_PKT_MAX_DATA_SIZE
            // inline buffer, express in one piece. Everything beyond the
            // payload is null padding on the wire.
            let inline = Packet::short_header_len() + threshold;
            let mut buf = BytesMut::with_capacity(inline);
            buf.put_slice(&Packet::Short { env }.encode());
            buf.put_slice(&data);
            buf.resize(inline, 0);
            self.send_packet(from, hop, vci, buf.freeze(), None);
        }
    }

    /// Rendezvous mode: synchronize with the receiver, then transfer the
    /// body zero-copy (paper Fig. 4b).
    fn send_rndv(&self, from: usize, hop: &Hop, vci: usize, env: Envelope, data: Bytes) {
        let dst = hop.dst;
        let (token, slot) = {
            let mut pending = self.ranks[from].pending.lock();
            let token = pending.next_token;
            pending.next_token += 1;
            let slot = OneShot::current();
            pending.waiting.insert(token, slot.clone());
            (token, slot)
        };
        let bytes = data.len();
        obs::emit(move || Event::RndvRequest {
            rank: from,
            dst,
            token,
            bytes,
        });
        let request = Packet::Request {
            env,
            sender_token: token,
        }
        .encode();
        // 1) Request.
        self.send_packet(from, hop, vci, request.clone(), None);
        // 2) Wait for Ok_To_Send: the receiver's sync_address. On a
        //    faulty session the wait carries a timeout: if no reply
        //    lands (the REQUEST or its OK_TO_SEND may be transiting a
        //    rail that just died), the REQUEST is re-issued with the
        //    *same* token — the receiver dedups re-issues, so at most
        //    one receive is ever matched. A fault-free session waits
        //    unconditionally (no timer, identical timing to PR 1).
        let sync_address = if self.has_faults {
            let mut timeout = VirtualDuration::from_millis(30);
            loop {
                if let Some(addr) = slot.wait_timeout(timeout) {
                    break addr;
                }
                self.session.note_rndv_reissue();
                self.send_packet(from, hop, vci, request.clone(), None);
                // Exponential backoff, capped: a receiver may simply
                // not have posted its receive yet, which is not an
                // error — keep probing at a bounded rate.
                timeout = (timeout + timeout).min(VirtualDuration::from_millis(1_000));
            }
        } else {
            slot.take()
        };
        // 3) Data, straight to the rhandle — no intermediate copies.
        let direct = hop.is_final;
        if direct
            && self.policy.stripes()
            && self.send_rndv_striped(from, hop, vci, env, sync_address, &data)
        {
            return;
        }
        // Single-rail path. Across gateways, split into chunks so the
        // hops pipeline.
        let total = data.len() as u64;
        let chunk = if direct {
            usize::MAX
        } else {
            self.config.fwd_chunk.max(1)
        };
        let mut offset = 0usize;
        loop {
            let end = data.len().min(offset + chunk);
            let body = data.slice(offset..end);
            self.send_packet(
                from,
                hop,
                vci,
                Packet::Rndv {
                    env,
                    sync_address,
                    offset: offset as u64,
                    total,
                }
                .encode(),
                Some(body),
            );
            offset = end;
            if offset >= data.len() {
                break;
            }
        }
    }

    /// Striped rendezvous DATA: one contiguous span per rail, sized
    /// proportionally to the rail's calibrated link bandwidth so every
    /// wire finishes at about the same time. Each span is an ordinary
    /// `MAD_RNDV_PKT` carrying a slice of the sender's buffer; the
    /// receiver's per-channel polling threads feed them into the
    /// engine's out-of-order chunk path
    /// ([`crate::engine::Engine::rndv_chunk`]), which
    /// completes the request once `total` bytes have landed — the spans
    /// re-joined in place, copied only when they are not one
    /// allocation. Sender occupancy is per-message, so packing the
    /// spans back to back still overlaps their wire time.
    ///
    /// Sends nothing and returns `false` when the hop has fewer than two
    /// live rails, or fewer bytes than rails. The first walk over the
    /// rails counts them and sums their weights; the sending walk
    /// re-reads liveness as it reaches each rail.
    #[allow(clippy::too_many_arguments)]
    fn send_rndv_striped(
        &self,
        from: usize,
        hop: &Hop,
        vci: usize,
        env: Envelope,
        sync_address: u64,
        data: &Bytes,
    ) -> bool {
        let (rails, weight_sum) = hop
            .rails
            .clone()
            .fold((0, 0.0), |(n, sum), c| (n + 1, sum + c.stripe_weight()));
        if rails < 2 || data.len() < rails {
            return false;
        }
        let dst = hop.dst;
        let header = |offset: usize| {
            Packet::Rndv {
                env,
                sync_address,
                offset: offset as u64,
                total: data.len() as u64,
            }
            .encode()
        };
        let mut offset = 0usize;
        for (i, rail) in hop.rails.clone().enumerate() {
            let end = if i + 1 == rails {
                data.len()
            } else {
                let span = (data.len() as f64 * rail.stripe_weight() / weight_sum).round() as usize;
                data.len().min(offset + span.max(1))
            };
            if end <= offset {
                continue;
            }
            let header = header(offset);
            let body = data.slice(offset..end);
            let stripe = obs::span_begin(SpanKind::Stripe, rail.protocol().name());
            if self
                .send_packet_on(
                    rail,
                    from,
                    dst,
                    vci,
                    None,
                    header.clone(),
                    Some(body.clone()),
                )
                .is_err()
            {
                // The rail died mid-stripe (zero deliveries of this
                // span — a partially acknowledged span returns Ok).
                // Migrate the span to the surviving rails; the
                // receiver's out-of-order chunk path does not care
                // which wire a span rides.
                self.session.note_failover();
                self.send_packet(from, hop, vci, header, Some(body));
            } else {
                obs::counter_add(rail.striped_bytes_key(), (end - offset) as u64);
            }
            obs::span_end(stripe);
            offset = end;
        }
        if offset < data.len() {
            // A rail died after the count, so the walk skipped it and
            // never reached the last span: migrate the rest.
            self.session.note_failover();
            self.send_packet(from, hop, vci, header(offset), Some(data.slice(offset..)));
        }
        true
    }

    /// Ship one packet on an explicitly chosen channel; the destination
    /// must be a direct member of the channel. `Err` means the reliable
    /// sublayer declared the pair dead with this packet undelivered —
    /// the caller decides how to re-route.
    #[allow(clippy::too_many_arguments)]
    fn send_packet_on(
        &self,
        channel: &Arc<Channel>,
        from: usize,
        dst: usize,
        vci: usize,
        fwd: Option<Bytes>,
        header: Bytes,
        body: Option<Bytes>,
    ) -> Result<(), ChannelError> {
        let ep = channel.endpoint_vci(from, vci)?;
        let mut conn = ep.begin_packing(dst)?;
        let kind = Packet::decode(&header).kind();
        let bytes = header.len() + body.as_ref().map_or(0, |b| b.len());
        if let Some(fwd) = fwd {
            conn.pack_bytes(fwd, SendMode::Cheaper, ReceiveMode::Express);
        }
        conn.pack_bytes(header, SendMode::Cheaper, ReceiveMode::Express);
        if let Some(body) = body {
            if !body.is_empty() {
                conn.pack_bytes(body, SendMode::Cheaper, ReceiveMode::Cheaper);
            }
        }
        conn.end_packing()?;
        obs::emit(|| Event::PacketSent {
            rank: from,
            dst,
            kind,
            rail: channel.name_tag(),
            bytes,
        });
        Ok(())
    }

    /// The polling loop of one rank over a slice of its lanes: one
    /// (channel, VCI) endpoint per thread, or all of them under fused
    /// progress. `finalize_rank` sends each lane exactly one TERM over
    /// loop-back, which never duplicates, so the loop serves until it
    /// has counted `eps.len()` of them. Messages may still be queued
    /// behind a TERM (or in flight): late retransmissions, or traffic
    /// the application never received. Finalize must not strand them,
    /// so every lane's backlog is drained before the lane detaches.
    fn poll_loop(&self, world: &Arc<MpiWorld>, rank: usize, eps: &[Endpoint]) {
        let mut terms = eps.len();
        while terms > 0 {
            // `None`: every incoming side closed and drained (session
            // shutdown without TERMs, e.g. an aborted world).
            let Some((i, conn)) = Endpoint::begin_unpacking_any(eps) else {
                break;
            };
            if !self.handle_message(world, rank, &eps[i], conn) {
                terms -= 1;
            }
        }
        for ep in eps {
            while ep.backlog() > 0 {
                match ep.try_begin_unpacking() {
                    Some(conn) => {
                        self.handle_message(world, rank, ep, conn);
                    }
                    // Nothing arrived yet (or the poll consumed a
                    // duplicate): let in-flight arrivals land.
                    None => marcel::sleep(VirtualDuration::from_micros(10)),
                }
            }
            ep.detach_polling();
        }
    }

    /// Demultiplex and handle one incoming ch_mad packet, opened on
    /// `ep`. Returns `false` when the packet was the TERM marker.
    fn handle_message(
        &self,
        world: &Arc<MpiWorld>,
        rank: usize,
        ep: &Endpoint,
        mut conn: UnpackingConnection,
    ) -> bool {
        let engine = &world.engines[rank];
        let vci = ep.vci();
        let label = ep.channel().protocol().name();
        let mut span = obs::span_begin(SpanKind::Handle, label);
        let src = conn.from();
        let header = conn.unpack_bytes(SendMode::Cheaper, ReceiveMode::Express);
        marcel::advance(self.costs.demux);
        let packet = Packet::decode(&header);
        let kind = packet.kind();
        obs::emit(move || Event::PacketDelivered { rank, src, kind });
        let term = match packet {
            Packet::Short { env } => {
                let body = if self.config.split_short {
                    if conn.remaining_blocks() > 0 {
                        conn.unpack_bytes(SendMode::Cheaper, ReceiveMode::Cheaper)
                    } else {
                        Bytes::new()
                    }
                } else {
                    header.slice(Packet::short_header_len()..Packet::short_header_len() + env.len)
                };
                conn.end_unpacking();
                marcel::advance(touch(self.costs.recv_touch_per_byte_ns, body.len()));
                let eager_copy_ns = ep.channel().model().eager_copy_per_byte_ns;
                engine.deliver_eager(env, body, eager_copy_ns, span.take());
                true
            }
            Packet::Request { env, sender_token } => {
                conn.end_unpacking();
                self.handle_request(world, rank, env, sender_token);
                true
            }
            Packet::SendOk {
                sender_token,
                sync_address,
            } => {
                conn.end_unpacking();
                obs::emit(move || Event::RndvAck {
                    rank,
                    src,
                    token: sender_token,
                });
                let slot = self.ranks[rank]
                    .pending
                    .lock()
                    .waiting
                    .remove(&sender_token);
                match slot {
                    Some(slot) => slot.put(sync_address),
                    // A re-issued REQUEST can draw a second OK_TO_SEND
                    // after the first already completed the handshake.
                    None => debug_assert!(
                        self.has_faults,
                        "rank {rank}: Ok_To_Send for unknown token {sender_token}"
                    ),
                }
                true
            }
            Packet::Rndv {
                env,
                sync_address,
                offset,
                total,
            } => {
                let body = conn.unpack_bytes(SendMode::Cheaper, ReceiveMode::Cheaper);
                conn.end_unpacking();
                marcel::advance(touch(self.costs.recv_touch_per_byte_ns, body.len()));
                if let Err(e) = engine.rndv_chunk(
                    sync_address,
                    env,
                    offset as usize,
                    total as usize,
                    body,
                    span.take(),
                ) {
                    // Stale DATA only reaches a live rank through a
                    // fault-driven re-issue race (or a corrupt journal
                    // replay): count it and drop the chunk, mirroring
                    // the unknown-token OK_TO_SEND path above.
                    debug_assert!(self.has_faults, "rank {rank}: {e}");
                    obs::counter_add("chmad/rndv_stale_chunks", 1);
                }
                true
            }
            Packet::Term => {
                conn.end_unpacking();
                false
            }
            Packet::Fwd { final_dst } => {
                // Relay: read the wrapped header and optional body,
                // then ship them one hop closer to the destination.
                // A polling thread must never send (§4.2.3), so the
                // relay runs on its own short-lived thread.
                let inner = conn.unpack_bytes(SendMode::Cheaper, ReceiveMode::Express);
                let body = (conn.remaining_blocks() > 0)
                    .then(|| conn.unpack_bytes(SendMode::Cheaper, ReceiveMode::Cheaper));
                conn.end_unpacking();
                if let Some(b) = &body {
                    marcel::advance(touch(self.costs.recv_touch_per_byte_ns, b.len()));
                }
                // The relay keeps the packet on the lane it arrived on,
                // so a forwarded stream stays FIFO end to end.
                let world = world.clone();
                marcel::spawn(format!("rank{rank}-fwd"), move || {
                    let dev = world.ch_mad();
                    let hop = dev.hop(rank, final_dst as usize);
                    dev.send_packet(rank, &hop, vci, inner, body);
                });
                true
            }
        };
        obs::span_end(span);
        term
    }

    /// Handle a rendezvous REQUEST, deduplicating re-issues of the same
    /// `(sender, token)` transaction.
    fn handle_request(&self, world: &Arc<MpiWorld>, rank: usize, env: Envelope, sender_token: u64) {
        let key = (env.src, sender_token);
        // Control replies ride the transaction envelope's lane, like
        // every other packet of the stream.
        let vci = vci_for(env.context, env.tag, self.vcis);
        let mut seen = self.ranks[rank].seen.lock();
        match seen.get(&key) {
            // Re-issue before the receive posted: the original offer is
            // still queued in the engine and will answer when matched.
            Some(RndvProgress::Offered) => {}
            // Re-issue after the acknowledgement: the sender may have
            // missed the OK_TO_SEND — acknowledge again (the sender
            // ignores the duplicate if the first did arrive).
            Some(RndvProgress::Acked(sync)) => {
                let ok = Packet::SendOk {
                    sender_token,
                    sync_address: *sync,
                };
                drop(seen);
                spawn_ack(
                    world,
                    format!("rank{rank}-rndv-reack"),
                    rank,
                    env.src,
                    vci,
                    ok,
                );
            }
            None => {
                seen.insert(key, RndvProgress::Offered);
                drop(seen);
                let engine = &world.engines[rank];
                let world = world.clone();
                let respond: crate::engine::RndvResponder = Box::new(move |sync_address| {
                    world.ch_mad().ranks[rank]
                        .seen
                        .lock()
                        .insert(key, RndvProgress::Acked(sync_address));
                    let ok = Packet::SendOk {
                        sender_token,
                        sync_address,
                    };
                    spawn_ack(
                        &world,
                        format!("rank{rank}-rndv-ack"),
                        rank,
                        env.src,
                        vci,
                        ok,
                    );
                });
                engine.deliver_rndv_offer(env, respond);
            }
        }
    }

    /// Blocking send of one MPI message from world rank `from` to `dst`:
    /// eager or rendezvous by the channel's policy, rendezvous always
    /// when `sync` is set. `lane` is an endpoint's VCI pin; `None` rides
    /// the deterministic `(context, tag)` lane.
    pub(crate) fn send(
        &self,
        from: usize,
        dst: usize,
        env: Envelope,
        data: Bytes,
        sync: bool,
        lane: Option<usize>,
    ) {
        let vci = lane.unwrap_or_else(|| vci_for(env.context, env.tag, self.vcis));
        let hop = self.hop(from, dst);
        // The fastest surviving rail of the hop resolves the per-channel
        // protocol policy and labels the setup span: after a failover
        // the policy follows the traffic to the surviving rail.
        let protocol = hop.rails.clone().next().map(|c| c.protocol());
        let label = protocol.map_or("local", |p| p.name());
        let setup = obs::span_begin(SpanKind::Setup, label);
        marcel::advance(self.costs.send_setup);
        let threshold = self.policy.threshold(protocol);
        obs::span_end(setup);
        if sync || (self.config.rendezvous && env.len > threshold) {
            assert!(
                !sync || self.config.rendezvous,
                "synchronous sends require the rendezvous mode"
            );
            self.send_rndv(from, &hop, vci, env, data);
        } else {
            assert!(
                self.config.split_short || env.len <= threshold,
                "eager message larger than the inline short buffer"
            );
            self.send_eager(from, &hop, vci, env, data, threshold);
        }
    }

    /// `MPI_Init` of one rank: spawn its polling threads, one per
    /// (channel, VCI) lane, or under fused progress one for all of them.
    pub(crate) fn start_rank(&self, world: &Arc<MpiWorld>, rank: usize) -> Vec<JoinHandle<()>> {
        let mut handles = Vec::new();
        let mut fused = Vec::new();
        for channel in self.session.channels_of_rank(rank) {
            for vci in 0..self.vcis {
                let ep = channel
                    .endpoint_vci(rank, vci)
                    .expect("channels_of_rank returned a channel without the rank");
                ep.attach_polling();
                if self.config.fused_progress {
                    fused.push(ep);
                    continue;
                }
                let world = world.clone();
                let name = channel.name().to_string();
                // Lane 0 keeps the historic thread name so captures and
                // traces of a `vcis = 1` world stay bit-identical.
                let thread = if vci == 0 {
                    format!("rank{rank}-poll-{name}")
                } else {
                    format!("rank{rank}-poll-{name}-v{vci}")
                };
                handles.push(marcel::spawn(thread, move || {
                    world
                        .ch_mad()
                        .poll_loop(&world, rank, std::slice::from_ref(&ep));
                }));
            }
        }
        if !fused.is_empty() {
            let world = world.clone();
            handles.push(marcel::spawn(format!("rank{rank}-poll"), move || {
                world.ch_mad().poll_loop(&world, rank, &fused);
            }));
        }
        handles
    }

    /// `MPI_Finalize` of one rank, after the shutdown barrier: one TERM
    /// per polling lane.
    pub(crate) fn finalize_rank(&self, rank: usize) {
        for channel in self.session.channels_of_rank(rank) {
            // TERM rides the loop-back connection, which never touches
            // the wire: it cannot be lost or declared dead, so the TERM
            // path stays correct however many rails have failed. Every
            // VCI lane runs its own polling thread, so each lane gets
            // its own TERM.
            for vci in 0..self.vcis {
                let ep = channel
                    .endpoint_vci(rank, vci)
                    .expect("channels_of_rank returned a channel without the rank");
                let mut conn = ep
                    .begin_packing(rank)
                    .expect("loop-back pair always exists");
                conn.pack_bytes(
                    Packet::Term.encode(),
                    SendMode::Cheaper,
                    ReceiveMode::Express,
                );
                conn.end_packing().expect("loop-back TERM cannot fail");
            }
        }
    }
}

/// Send a rendezvous OK_TO_SEND from `rank` back to `dst` on a dedicated
/// short-lived thread: a polling thread must never send (§4.2.3).
fn spawn_ack(
    world: &Arc<MpiWorld>,
    thread: String,
    rank: usize,
    dst: usize,
    vci: usize,
    ok: Packet,
) {
    let world = world.clone();
    marcel::spawn(thread, move || {
        let dev = world.ch_mad();
        dev.send_packet(rank, &dev.hop(rank, dst), vci, ok.encode(), None);
    });
}

#[cfg(test)]
mod tests {
    use marcel::{CostModel, Kernel, VirtualTime};
    use simnet::{FaultPlan, Protocol, Topology};

    use crate::world::{Placement, WorldConfig};

    use super::*;

    /// A rank that finalizes with peer messages still in flight must not
    /// strand them: the polling loop notices TERM first (the degradation
    /// window delays every data arrival by 5 ms while loop-back TERM is
    /// immune), then drains the backlog into the engine's unexpected
    /// queue before terminating.
    #[test]
    fn finalize_drains_in_flight_backlog() {
        let kernel = Kernel::new(CostModel::calibrated());
        let mut t = Topology::new();
        let a = t.add_node("a", 1);
        let b = t.add_node("b", 1);
        t.add_network_with_fault(
            Protocol::Sisci,
            FaultPlan::new(0xF00D).with_degraded(
                VirtualTime(0),
                VirtualTime(10_000_000),
                VirtualDuration::from_millis(5),
            ),
            [a, b],
        );
        let config = WorldConfig::default();
        let (_, world) = MpiWorld::build(&kernel, t, &Placement::OneRankPerNode, &config);
        const MSGS: usize = 10;
        const LEN: usize = 64;
        let sender = world.clone();
        kernel.spawn("rank0", move || {
            let pollers = MpiWorld::start_rank(&sender, 0);
            for i in 0..MSGS {
                let env = Envelope {
                    src: 0,
                    tag: i as i32,
                    context: 0,
                    len: LEN,
                };
                sender.send(0, 1, env, Bytes::from(vec![i as u8; LEN]), false, None);
            }
            sender.finalize_rank(0);
            for p in pollers {
                p.join();
            }
        });
        let h = kernel.spawn("rank1", move || {
            let pollers = MpiWorld::start_rank(&world, 1);
            // Finalize at 1 ms: all ten sends are posted (the sender needs
            // only microseconds of CPU) but none has arrived yet — the
            // degradation window holds every arrival until ~5 ms.
            marcel::advance(VirtualDuration::from_millis(1));
            world.finalize_rank(1);
            for p in pollers {
                p.join();
            }
            let engine = &world.engines[1];
            (engine.depths(), engine.unexpected_envelopes())
        });
        kernel.run().expect("finalize-under-backlog run failed");
        let ((posted, unexpected, rndv), envelopes) = h.join_outcome().expect("rank1 finished");
        assert_eq!(posted, 0);
        assert_eq!(rndv, 0);
        assert_eq!(
            unexpected, MSGS,
            "every in-flight message was drained into the engine"
        );
        let tags: Vec<i32> = envelopes.iter().map(|e| e.tag).collect();
        assert_eq!(
            tags,
            (0..MSGS as i32).collect::<Vec<_>>(),
            "drained messages keep their send order"
        );
    }
}
