//! Channels, connections, and the packing/unpacking interface.
//!
//! A [`Channel`] is Madeleine's unit of communication isolation (paper
//! §3.1): it is bound to one network protocol (and adapter set) and owns
//! one point-to-point connection per ordered rank pair. In-order
//! delivery is guaranteed *within* a channel's connections only — exactly
//! the property the `ch_mad` device depends on when it restricts each MPI
//! message to a single channel (§4.2.1).
//!
//! A rank interacts with a channel through an [`Endpoint`], using the
//! paper's API shape:
//!
//! ```text
//! connection = mad_begin_packing(channel, remote);
//! mad_pack(connection, &size, sizeof(int), send_CHEAPER, receive_EXPRESS);
//! mad_pack(connection, array,  size,       send_CHEAPER, receive_CHEAPER);
//! mad_end_packing(connection);
//! ```
//!
//! # Cost accounting
//!
//! * each `pack`/`unpack` call charges a small constant CPU cost;
//! * `end_packing` charges the sender the link model's occupancy for the
//!   total byte count **plus one `extra_segment` per packing operation
//!   beyond the first** — the overhead the paper measures in §5.2–5.4;
//! * the wire arrival time is the sender's (charged) clock plus the link
//!   model's wire delay, floored to preserve per-connection FIFO order;
//! * `begin_unpacking` blocks in the rank's factorized polling loop (one
//!   cycle of detection delay — see `marcel::poll`), then charges the
//!   receiver's fixed drain cost; each `unpack` charges the per-byte
//!   drain cost of its block.
//!
//! # Lanes
//!
//! A channel built with `vcis` virtual communication interfaces gives
//! each member `vcis` independent *lanes*. Lane `slot · vcis + vci`
//! belongs to member `members[slot]` (the sorted member list is the
//! channel's only membership table, searched once per [`Endpoint`] and
//! once per `begin_packing`). Each lane owns one row of incoming state:
//! its poll source and its receiver-side dedup/reorder row, both
//! allocated when the channel is built. Per-peer state stays lazy and
//! pays only for pairs that communicate: a lane's per-sender cursors,
//! and the sender-side connection cursors, one channel-wide map keyed
//! by ordered pair and VCI.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::Arc;

use bytes::Bytes;
use marcel::obs::{self, ActiveSpan, Event, SpanKind};
use marcel::{
    Counter, Hist, Kernel, OwnedCell, PollSource, ProcId, SimMutex, VirtualDuration, VirtualTime,
};
use simnet::{Fate, FaultPlan, LinkModel, Protocol};

use crate::error::ChannelError;
use crate::message::{Block, WireMessage};
use crate::modes::{ReceiveMode, SendMode};

/// CPU cost of one `mad_pack`/`mad_unpack` library call (argument
/// handling, iovec bookkeeping). The per-*segment* protocol cost is the
/// link model's `extra_segment` and dwarfs this.
pub const PACK_CALL_CPU: VirtualDuration = VirtualDuration::from_nanos(120);

/// Minimum spacing between two messages on one connection, used to keep
/// per-connection arrivals strictly monotone (FIFO on the wire).
const FIFO_EPSILON: VirtualDuration = VirtualDuration::from_nanos(1);

/// Retransmit budget of the reliable sublayer: a connection that makes
/// this many transmission attempts without one delivery is declared
/// dead ([`ChannelError::LinkDead`]).
pub const MAX_SEND_ATTEMPTS: u32 = 30;

/// Retransmission timeout before attempt `attempt + 1` (1-based
/// argument): 100 µs base, doubling per attempt, capped at 5 ms.
fn rto_for(attempt: u32) -> VirtualDuration {
    let exp = attempt.saturating_sub(1).min(6);
    VirtualDuration::from_nanos((100_000u64 << exp).min(5_000_000))
}

/// Sender-side state of one point-to-point connection: the FIFO floor,
/// the wire sequence number (one per transmission *attempt* — drives
/// deterministic jitter and the fault plan's loss stream) and the
/// logical message number (one per message — carried on the wire for
/// receiver-side dedup/reorder).
#[derive(Clone, Copy)]
struct ConnState {
    floor: VirtualTime,
    seq: u64,
    msg_seq: u64,
}

/// Receiver-side reliable-delivery state of one lane. An empty row
/// allocates nothing.
#[derive(Default)]
struct RecvState {
    /// In-order messages released from the stash, consumed before the
    /// poll source is asked for more.
    ready: VecDeque<WireMessage>,
    /// Per-sender dedup/reorder tracking.
    peers: HashMap<usize, PeerRecv>,
}

#[derive(Default)]
struct PeerRecv {
    /// Next logical message number expected from this sender.
    expected: u64,
    /// Early (out-of-order) messages keyed by logical number.
    stash: BTreeMap<u64, WireMessage>,
}

/// A channel's reliable-delivery counters (all zero on a fault-free
/// channel): a read-only view of its `chan/{name}/*` counters in the
/// kernel's metrics registry, which is where they are counted.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultCounters {
    /// Transmission attempts beyond the first per message.
    pub retransmits: u64,
    /// Attempts the fault plan dropped on the wire.
    pub drops: u64,
    /// Received messages discarded as duplicates.
    pub duplicates: u64,
    /// Attempts postponed by a finite link-down window.
    pub deferrals: u64,
    /// Ordered rank pairs declared dead.
    pub dead_pairs: u64,
}

impl std::ops::AddAssign for FaultCounters {
    fn add_assign(&mut self, rhs: FaultCounters) {
        self.retransmits += rhs.retransmits;
        self.drops += rhs.drops;
        self.duplicates += rhs.duplicates;
        self.deferrals += rhs.deferrals;
        self.dead_pairs += rhs.dead_pairs;
    }
}

/// A Madeleine channel: one protocol, a set of member ranks, one
/// incoming message source per member lane, one connection per ordered
/// pair and lane.
pub struct Channel {
    name: Arc<str>,
    protocol: Protocol,
    model: LinkModel,
    /// Deterministic fault injection for this channel's network (None =
    /// perfectly reliable wire, the paper's assumption).
    fault: Option<FaultPlan>,
    /// Member ranks (session-global indices), sorted: member
    /// `members[slot]` owns lanes `slot · vcis .. (slot + 1) · vcis`.
    members: Vec<usize>,
    /// Number of virtual communication interfaces (VCIs): independent
    /// lanes per member, each with its own poll source, connection
    /// cursors and dedup state. 1 = the paper's single shared endpoint.
    vcis: usize,
    /// Incoming source of every lane, indexed by lane.
    lanes: Vec<PollSource<WireMessage>>,
    /// Host-side bookkeeping, owned by the OS thread the channel's
    /// world runs on.
    host: OwnedCell<HostState>,
    /// The kernel the channel was built on: its metrics registry holds
    /// every count the channel keeps (see [`FaultCounters`]).
    kernel: Kernel,
    /// The channel's handles in that registry.
    counts: Counts,
}

/// A channel's host-side bookkeeping. Each access borrows it for one
/// step that performs no kernel operation, so it charges no virtual
/// time (the fault-free path stays bit-identical to the unreliable
/// channel) and no fiber switch can find it borrowed.
struct HostState {
    /// Receiver-side dedup/reorder state of every lane, indexed by lane.
    lanes: Vec<RecvState>,
    /// (from, to, vci) -> connection, created on first send. The eager
    /// all-pairs matrix was O(members² · vcis) — at 8k ranks that is
    /// 67M sender cursors before the first message moves — while real
    /// communication patterns (rings, trees, neighbor exchanges) touch
    /// O(active pairs). Creating a cursor costs no virtual time (one
    /// semaphore registration, no kernel scheduling), so laziness is
    /// invisible to the simulation's results.
    conns: HashMap<(usize, usize, usize), SimMutex<ConnState>>,
    /// Ordered pairs whose retransmit budget was exhausted. Pair death
    /// is a property of the physical link, so it spans every VCI lane.
    dead: HashSet<(usize, usize)>,
}

/// One channel's handles in its kernel's metrics registry, registered
/// with the channel: the reliable-delivery counters, the wire totals of
/// [`Channel::record_wire`], the rendezvous bytes striped onto it, and
/// the poll-detect histogram of `open_unpacking`. Counter names follow
/// the channel, so the channels of one kernel need distinct names; the
/// histogram is per protocol, one slot for all its channels.
struct Counts {
    messages: Counter,
    bytes: Counter,
    retransmits: Counter,
    drops: Counter,
    dedup_drops: Counter,
    deferrals: Counter,
    dead_pairs: Counter,
    net_messages: Counter,
    net_bytes: Counter,
    striped_bytes: Counter,
    poll_detect: Hist,
}

impl Counts {
    fn register(kernel: &Kernel, name: &str, label: &str) -> Counts {
        Counts {
            messages: kernel.register_counter(format!("chan/{name}/messages")),
            bytes: kernel.register_counter(format!("chan/{name}/bytes")),
            retransmits: kernel.register_counter(format!("chan/{name}/retransmits")),
            drops: kernel.register_counter(format!("chan/{name}/drops")),
            dedup_drops: kernel.register_counter(format!("chan/{name}/dedup_drops")),
            deferrals: kernel.register_counter(format!("chan/{name}/deferrals")),
            dead_pairs: kernel.register_counter(format!("chan/{name}/dead_pairs")),
            net_messages: kernel.register_counter(format!("net/{name}/messages")),
            net_bytes: kernel.register_counter(format!("net/{name}/bytes")),
            striped_bytes: kernel.register_counter(format!("rail/{name}/striped_bytes")),
            poll_detect: kernel.register_hist(format!("poll_detect/{label}")),
        }
    }
}

impl Channel {
    /// Build a channel over `protocol` with the given link `model` and
    /// optional fault plan, connecting `members` (rank indices) through
    /// `vcis` independent lanes each: every lane gets its own poll
    /// source and dedup row per member and its own connection cursors
    /// per ordered pair — the per-VCI state the sharded MPI layer relies
    /// on so that disjoint message streams never contend. `vcis = 1` is
    /// the paper's single shared endpoint. Connections include the
    /// loop-back pair (rank, rank), which the `ch_mad` shutdown path
    /// uses to deliver its TERM packet to the local polling thread
    /// (loop-back never traverses the wire, so the fault plan does not
    /// apply to it).
    pub fn new(
        kernel: &Kernel,
        name: impl Into<String>,
        protocol: Protocol,
        model: LinkModel,
        fault: Option<FaultPlan>,
        members: impl IntoIterator<Item = usize>,
        vcis: usize,
    ) -> Arc<Channel> {
        assert!(vcis >= 1, "a channel needs at least one VCI lane");
        let name: Arc<str> = Arc::from(name.into());
        let mut members: Vec<usize> = members.into_iter().collect();
        members.sort_unstable();
        members.dedup();
        // Member by member, lane by lane: source ids follow lane order.
        // A member's lanes are sub-queues of one channel: they share a
        // single slot in the factorized polling loop (one poll checks
        // every lane), so adding lanes does not tax the cycle the way
        // adding channels does.
        let mut lanes = Vec::with_capacity(members.len() * vcis);
        for &r in &members {
            lanes.extend(PollSource::lanes(
                kernel,
                ProcId(r as u32),
                model.poll_cost,
                vcis,
            ));
        }
        let recv = lanes.iter().map(|_| RecvState::default()).collect();
        Arc::new(Channel {
            counts: Counts::register(kernel, &name, protocol.name()),
            name,
            protocol,
            model,
            fault,
            members,
            vcis,
            lanes,
            host: OwnedCell::new(HostState {
                lanes: recv,
                conns: HashMap::new(),
                dead: HashSet::new(),
            }),
            kernel: kernel.clone(),
        })
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// The channel name as a cheaply clonable `Arc<str>` — the tag the
    /// typed trace events carry.
    pub fn name_tag(&self) -> Arc<str> {
        self.name.clone()
    }

    /// Count `bytes` of a rendezvous striped onto this channel
    /// (`rail/<name>/striped_bytes`).
    pub fn note_striped(&self, bytes: usize) {
        obs::counter_add(self.counts.striped_bytes, bytes as u64);
    }

    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    pub fn model(&self) -> &LinkModel {
        &self.model
    }

    /// The channel's weight when striping a transfer across several
    /// rails: its link's calibrated asymptotic bandwidth.
    pub fn stripe_weight(&self) -> f64 {
        self.model.asymptotic_bandwidth_mb_s()
    }

    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// The lane of `rank` on VCI `vci`: `slot(rank) · vcis + vci`.
    fn lane(&self, rank: usize, vci: usize) -> Result<usize, ChannelError> {
        let Ok(slot) = self.members.binary_search(&rank) else {
            return Err(ChannelError::NotMember {
                rank,
                channel: self.name.to_string(),
            });
        };
        if vci >= self.vcis {
            return Err(ChannelError::NoSuchVci {
                vci,
                vcis: self.vcis,
                channel: self.name.to_string(),
            });
        }
        Ok(slot * self.vcis + vci)
    }

    /// Number of VCI lanes this channel was built with.
    pub fn vcis(&self) -> usize {
        self.vcis
    }

    /// The fault plan attached to this channel's network, if any.
    pub fn fault(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// The reliable-delivery counters, summed over every lane, read
    /// through the channel's handles.
    pub fn counters(&self) -> FaultCounters {
        let (k, c) = (&self.kernel, &self.counts);
        FaultCounters {
            retransmits: k.counter(c.retransmits),
            drops: k.counter(c.drops),
            duplicates: k.counter(c.dedup_drops),
            deferrals: k.counter(c.deferrals),
            dead_pairs: k.counter(c.dead_pairs),
        }
    }

    /// The messages and payload bytes this channel put on the wire
    /// (its `net/{name}/*` counters).
    pub(crate) fn wire(&self) -> (u64, u64) {
        let (k, c) = (&self.kernel, &self.counts);
        (k.counter(c.net_messages), k.counter(c.net_bytes))
    }

    /// Whether the ordered pair `(from, to)` exhausted its retransmit
    /// budget (see [`ChannelError::LinkDead`]). A dead pair stays dead.
    /// Only the reliable sublayer declares pairs dead, so a channel
    /// without a fault plan answers without looking.
    pub fn is_dead_pair(&self, from: usize, to: usize) -> bool {
        self.fault.is_some() && self.host.with(|h| h.dead.contains(&(from, to)))
    }

    fn mark_dead(&self, from: usize, to: usize) {
        if self.host.with(|h| h.dead.insert((from, to))) {
            obs::counter_add(self.counts.dead_pairs, 1);
        }
    }

    /// Span/histogram label for this channel: its protocol's short name.
    fn label(&self) -> &'static str {
        self.protocol.name()
    }

    /// Account one wire injection of `bytes` payload bytes, under both
    /// the `chan/{name}/*` and the `net/{name}/*` counters.
    fn record_wire(&self, bytes: usize) {
        let c = &self.counts;
        obs::counter_add(c.messages, 1);
        obs::counter_add(c.bytes, bytes as u64);
        obs::counter_add(c.net_messages, 1);
        obs::counter_add(c.net_bytes, bytes as u64);
    }

    /// Count and trace the sender's `attempt`-th re-send of `seq` to `to`.
    fn note_retransmit(&self, to: usize, seq: u64, attempt: u32) {
        obs::counter_add(self.counts.retransmits, 1);
        obs::emit(|| Event::Retransmit {
            channel: self.name.clone(),
            to,
            seq,
            attempt,
        });
    }

    /// The view of this channel from `rank` (VCI lane 0).
    pub fn endpoint(self: &Arc<Self>, rank: usize) -> Result<Endpoint, ChannelError> {
        self.endpoint_vci(rank, 0)
    }

    /// The view of this channel from `rank` on VCI lane `vci`.
    pub fn endpoint_vci(
        self: &Arc<Self>,
        rank: usize,
        vci: usize,
    ) -> Result<Endpoint, ChannelError> {
        Ok(Endpoint {
            lane: self.lane(rank, vci)?,
            channel: self.clone(),
            rank,
            vci,
        })
    }

    /// The sender-side connection `(from, to, vci)`, created on first
    /// touch. Must be called from a simulated thread (the cursor's
    /// [`SimMutex`] registers on the caller's kernel). Creation charges
    /// no virtual time, so first-touch order cannot perturb results.
    fn conn(&self, from: usize, to: usize, vci: usize) -> SimMutex<ConnState> {
        self.host.with(|h| {
            h.conns
                .entry((from, to, vci))
                .or_insert_with(|| {
                    SimMutex::current(ConnState {
                        floor: VirtualTime::ZERO,
                        seq: 0,
                        msg_seq: 0,
                    })
                })
                .clone()
        })
    }

    /// Next in-order message previously released from `lane`'s reorder
    /// stash.
    fn take_ready(&self, lane: usize) -> Option<WireMessage> {
        self.host.with(|h| h.lanes[lane].ready.pop_front())
    }

    /// Receiver-side accept decision for a polled message: `Some` to
    /// deliver it now, `None` when it was discarded as a duplicate or
    /// stashed for later (out-of-order).
    fn accept(&self, lane: usize, msg: WireMessage) -> Option<WireMessage> {
        let (from, seq) = (msg.from, msg.seq);
        self.host.with(|h| {
            let st = &mut h.lanes[lane];
            let peer = st.peers.entry(from).or_default();
            let duplicate = match seq.cmp(&peer.expected) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Greater => peer.stash.insert(seq, msg).is_some(),
                std::cmp::Ordering::Equal => {
                    peer.expected += 1;
                    while let Some(m) = peer.stash.remove(&peer.expected) {
                        peer.expected += 1;
                        st.ready.push_back(m);
                    }
                    return Some(msg);
                }
            };
            if duplicate {
                self.note_dedup(from, seq);
            }
            None
        })
    }

    fn note_dedup(&self, from: usize, seq: u64) {
        obs::counter_add(self.counts.dedup_drops, 1);
        obs::emit(|| Event::DedupDrop {
            channel: self.name.clone(),
            from,
            seq,
        });
    }

    /// Test hook: post a raw wire message (arbitrary `seq`) straight to
    /// the incoming source of `to`'s lane `vci`, bypassing the
    /// sender-side sublayer — how the reorder/dedup unit tests forge
    /// duplicates and gaps.
    #[cfg(test)]
    pub(crate) fn post_raw(&self, to: usize, vci: usize, at: VirtualTime, msg: WireMessage) {
        self.lanes[self.lane(to, vci).expect("member lane")].post(at, msg);
    }
}

/// A rank's handle on a channel, pinned to one VCI lane.
#[derive(Clone)]
pub struct Endpoint {
    channel: Arc<Channel>,
    rank: usize,
    vci: usize,
    /// The lane `(rank, vci)` resolves to, indexing the channel's rows.
    lane: usize,
}

impl Endpoint {
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The VCI lane this endpoint is pinned to.
    pub fn vci(&self) -> usize {
        self.vci
    }

    pub fn channel(&self) -> &Arc<Channel> {
        &self.channel
    }

    /// `mad_begin_packing`: open an outgoing message to `remote`.
    pub fn begin_packing(&self, remote: usize) -> Result<PackingConnection, ChannelError> {
        let remote_lane = self.channel.lane(remote, self.vci)?;
        Ok(PackingConnection {
            span: obs::span_begin(SpanKind::Pack, self.channel.label()),
            endpoint: self.clone(),
            remote,
            remote_lane,
            blocks: Vec::new(),
            finished: false,
        })
    }

    /// `mad_begin_unpacking`: block until an in-order message is noticed
    /// on this rank's incoming side (duplicates are discarded, early
    /// messages stashed — see the reliable sublayer). Returns `None`
    /// once the source is closed and drained (session shutdown).
    pub fn begin_unpacking(&self) -> Option<UnpackingConnection> {
        Self::begin_unpacking_any(std::slice::from_ref(self)).map(|(_, conn)| conn)
    }

    /// `mad_begin_unpacking` over several endpoints of one rank — a
    /// polling thread serving a slice of its lanes: block until an
    /// in-order message is noticed on any of `eps`; returns its index
    /// and the open unpacking connection. Messages an earlier accept
    /// released from a reorder stash are served first, in slice order.
    /// Returns `None` once every endpoint's incoming side is closed and
    /// drained.
    pub fn begin_unpacking_any(eps: &[Endpoint]) -> Option<(usize, UnpackingConnection)> {
        loop {
            for (i, ep) in eps.iter().enumerate() {
                if let Some(m) = ep.channel.take_ready(ep.lane) {
                    return Some((i, ep.open_unpacking(m)));
                }
            }
            let (i, polled) = PollSource::poll_wait_any(eps.iter().map(Endpoint::source))?;
            let ep = &eps[i];
            // `None`: a duplicate dropped or an early message stashed.
            if let Some(m) = ep.channel.accept(ep.lane, polled.payload) {
                return Some((i, ep.open_unpacking(m)));
            }
        }
    }

    /// One non-blocking poll attempt (charges the protocol's poll cost).
    /// Returns `None` when nothing deliverable is pending — including
    /// when the one polled message was a duplicate or out of order.
    pub fn try_begin_unpacking(&self) -> Option<UnpackingConnection> {
        let message = match self.channel.take_ready(self.lane) {
            Some(m) => m,
            None => {
                let polled = self.source().try_poll()?;
                self.channel.accept(self.lane, polled.payload)?
            }
        };
        Some(self.open_unpacking(message))
    }

    /// Shared tail of `begin_unpacking`/`try_begin_unpacking`: observe
    /// the detection delay (now − wire arrival, the factorized-polling
    /// cycle the paper's Fig. 9 measures), open the unpack span, emit
    /// the typed event, then charge the receiver's fixed drain cost.
    fn open_unpacking(&self, message: WireMessage) -> UnpackingConnection {
        let channel = &self.channel;
        let detect = marcel::now().saturating_since(message.arrival);
        obs::observe_ns(channel.counts.poll_detect, detect.as_nanos());
        let span = obs::span_begin(SpanKind::Unpack, channel.label());
        obs::emit(|| Event::Unpack {
            channel: channel.name.clone(),
            from: message.from,
            seq: message.seq,
            bytes: message.total_len(),
        });
        marcel::advance(channel.model.recv_fixed);
        UnpackingConnection {
            endpoint: self.clone(),
            message,
            cursor: 0,
            finished: false,
            span,
        }
    }

    /// Register this endpoint in its rank's factorized polling loop
    /// without blocking (the polling thread exists). `begin_unpacking`
    /// attaches implicitly.
    pub fn attach_polling(&self) {
        self.source().attach();
    }

    /// Remove this endpoint from the polling loop (polling thread gone).
    pub fn detach_polling(&self) {
        self.source().detach();
    }

    /// Close this rank's incoming side: a blocked `begin_unpacking`
    /// returns `None`.
    pub fn close_incoming(&self) {
        self.source().close();
    }

    /// Number of queued (arrived or in-flight) incoming messages,
    /// including in-order messages already released from the reorder
    /// stash but not yet consumed.
    pub fn backlog(&self) -> usize {
        let ready = self.channel.host.with(|h| h.lanes[self.lane].ready.len());
        self.source().backlog() + ready
    }

    fn source(&self) -> &PollSource<WireMessage> {
        &self.channel.lanes[self.lane]
    }
}

/// An outgoing message being built (`mad_pack*` + `mad_end_packing`).
pub struct PackingConnection {
    endpoint: Endpoint,
    remote: usize,
    /// The lane of `remote` on the endpoint's VCI.
    remote_lane: usize,
    blocks: Vec<Block>,
    finished: bool,
    /// Pack span, open from `begin_packing` to `end_packing`.
    span: Option<ActiveSpan>,
}

impl PackingConnection {
    pub fn remote(&self) -> usize {
        self.remote
    }

    /// `mad_pack`: append `data` with the given mode pair.
    pub fn pack(&mut self, data: &[u8], send_mode: SendMode, recv_mode: ReceiveMode) {
        self.pack_bytes(Bytes::copy_from_slice(data), send_mode, recv_mode);
    }

    /// Zero-(host-)copy variant of [`PackingConnection::pack`] for
    /// callers that already own a [`Bytes`].
    pub fn pack_bytes(&mut self, data: Bytes, send_mode: SendMode, recv_mode: ReceiveMode) {
        let mut cpu = PACK_CALL_CPU;
        if send_mode == SendMode::Safer {
            // SAFER requires the library to copy synchronously so the
            // caller may reuse the buffer immediately.
            cpu += crate::cost_per_byte(
                self.endpoint.channel.model.eager_copy_per_byte_ns,
                data.len(),
            );
        }
        marcel::advance(cpu);
        self.blocks.push(Block {
            data,
            send_mode,
            recv_mode,
        });
    }

    /// `mad_end_packing`: transmit the message. Charges the sender's
    /// occupancy (including one `extra_segment` per pack beyond the
    /// first) and posts the message with its wire arrival time,
    /// preserving per-connection FIFO order.
    ///
    /// On a channel with a [`FaultPlan`] this is the sender half of the
    /// reliable sublayer: attempts the plan drops are retransmitted
    /// after an exponentially backed-off virtual-time timeout, attempts
    /// inside a finite link-down window wait the window out, and a lost
    /// acknowledgement forces a deliberate duplicate (exercising the
    /// receiver's dedup). Exhausting [`MAX_SEND_ATTEMPTS`] without one
    /// delivery declares the pair dead and returns
    /// [`ChannelError::LinkDead`]. Loop-back messages never touch the
    /// wire and bypass the plan.
    pub fn end_packing(mut self) -> Result<(), ChannelError> {
        self.finished = true;
        let mut span = self.span.take();
        let channel = &self.endpoint.channel;
        let model = &channel.model;
        let total: usize = self.blocks.iter().map(|b| b.data.len()).sum();
        let segments = self.blocks.len().max(1);
        let from = self.endpoint.rank;
        let to = self.remote;
        let vci = self.endpoint.vci;
        let blocks = std::mem::take(&mut self.blocks);
        let conn = channel.conn(from, to, vci);
        let mut state = conn.lock();
        marcel::advance(model.sender_occupancy(total, segments));
        let msg_seq = state.msg_seq;
        state.msg_seq += 1;

        // Fast path — no fault plan, or loop-back (which never touches
        // the wire): identical timing to the original unreliable
        // channel, one attempt, no extra kernel operations.
        let plan = if from == to {
            None
        } else {
            channel.fault.as_ref()
        };
        let Some(plan) = plan else {
            self.arrive(&mut state, marcel::now(), None, msg_seq, total, blocks);
            drop(state);
            if from != to {
                channel.record_wire(total);
            }
            obs::emit(|| Event::Pack {
                channel: channel.name.clone(),
                to,
                seq: msg_seq,
                bytes: total,
                segments,
            });
            obs::span_end(span.take());
            return Ok(());
        };

        // Reliable path. The connection guard is held across the whole
        // exchange (including virtual-time sleeps — SimMutex blocks
        // contenders in virtual time, so that is safe): the wire is a
        // serial resource and a sender does not interleave messages on
        // one connection mid-retransmit.
        let mut attempts: u32 = 0;
        let mut delivered = false;
        loop {
            let now = marcel::now();
            let wire_seq = state.seq;
            match plan.fate(wire_seq, total, now) {
                Fate::Defer(until) => {
                    // Link down but coming back: no attempt consumed,
                    // nothing occupies the wire; wait the window out.
                    obs::counter_add(channel.counts.deferrals, 1);
                    marcel::sleep_until(until);
                }
                Fate::Drop => {
                    state.seq += 1;
                    attempts += 1;
                    obs::counter_add(channel.counts.drops, 1);
                    if attempts >= MAX_SEND_ATTEMPTS {
                        if delivered {
                            obs::span_end(span.take());
                            return Ok(());
                        }
                        channel.mark_dead(from, to);
                        obs::span_end(span.take());
                        return Err(ChannelError::LinkDead {
                            channel: channel.name.to_string(),
                            from,
                            to,
                            attempts,
                        });
                    }
                    channel.note_retransmit(to, msg_seq, attempts);
                    marcel::sleep(rto_for(attempts));
                }
                Fate::Deliver => {
                    attempts += 1;
                    self.arrive(&mut state, now, Some(plan), msg_seq, total, blocks.clone());
                    delivered = true;
                    channel.record_wire(total);
                    obs::emit(|| Event::Pack {
                        channel: channel.name.clone(),
                        to,
                        seq: msg_seq,
                        bytes: total,
                        segments,
                    });
                    if plan.ack_lost(wire_seq, total) && attempts < MAX_SEND_ATTEMPTS {
                        // The delivery's acknowledgement vanished: the
                        // sender cannot tell and retransmits a
                        // duplicate after the timeout.
                        channel.note_retransmit(to, msg_seq, attempts);
                        marcel::sleep(rto_for(attempts));
                        continue;
                    }
                    obs::span_end(span.take());
                    return Ok(());
                }
            }
        }
    }

    /// One attempt that reaches the wire: consume a wire sequence
    /// number, compute the arrival of `total` bytes injected at `now`
    /// (link model, jitter, the fault plan's degradation delay), clamp
    /// it to the connection's FIFO floor and post the message to the
    /// remote lane.
    fn arrive(
        &self,
        state: &mut ConnState,
        now: VirtualTime,
        plan: Option<&FaultPlan>,
        msg_seq: u64,
        total: usize,
        blocks: Vec<Block>,
    ) {
        let channel = &self.endpoint.channel;
        let model = &channel.model;
        let mut arrival = model.arrival(now, total) + model.jitter_delay(state.seq, total);
        if let Some(plan) = plan {
            arrival += plan.extra_delay(now);
        }
        state.seq += 1;
        // The wire is a serial resource: this message cannot arrive
        // sooner than one full wire-serialization after the previous
        // message on the connection.
        let min_arrival = state.floor + (model.wire_serialization(total) + FIFO_EPSILON);
        if arrival < min_arrival {
            arrival = min_arrival;
        }
        state.floor = arrival;
        let message = WireMessage {
            from: self.endpoint.rank,
            seq: msg_seq,
            blocks,
            arrival,
        };
        channel.lanes[self.remote_lane].post(arrival, message);
    }
}

impl Drop for PackingConnection {
    fn drop(&mut self) {
        // The flag is the OS thread's, shared by every simulated thread
        // (fiber) on it: true here means this thread *or another one
        // suspended mid-unwind* is panicking. Never false while this one
        // unwinds, so the check cannot double-panic; at worst it stays
        // silent in a run that is already failing.
        if !self.finished && !std::thread::panicking() {
            panic!(
                "PackingConnection to rank {} dropped without mad_end_packing",
                self.remote
            );
        }
    }
}

/// An incoming message being consumed (`mad_unpack*` +
/// `mad_end_unpacking`).
pub struct UnpackingConnection {
    endpoint: Endpoint,
    message: WireMessage,
    cursor: usize,
    finished: bool,
    /// Unpack span, open from `begin_unpacking` to `end_unpacking`.
    span: Option<ActiveSpan>,
}

impl UnpackingConnection {
    /// Sending rank.
    pub fn from(&self) -> usize {
        self.message.from
    }

    /// Wire arrival time of the message.
    pub fn arrival(&self) -> VirtualTime {
        self.message.arrival
    }

    /// Total payload length of the message.
    pub fn total_len(&self) -> usize {
        self.message.total_len()
    }

    /// Remaining (not yet unpacked) blocks.
    pub fn remaining_blocks(&self) -> usize {
        self.message.blocks.len() - self.cursor
    }

    /// `mad_unpack` into a caller-provided buffer. The mode pair and
    /// length must match the corresponding `mad_pack` — Madeleine
    /// treats a mismatch as a protocol violation, and so do we.
    pub fn unpack(&mut self, buf: &mut [u8], send_mode: SendMode, recv_mode: ReceiveMode) {
        let block = self.take_block(send_mode, recv_mode);
        assert_eq!(
            buf.len(),
            block.data.len(),
            "unpack length {} does not match packed block length {}",
            buf.len(),
            block.data.len()
        );
        buf.copy_from_slice(&block.data);
    }

    /// `mad_unpack` returning the block's bytes without a host copy
    /// (used for the zero-copy rendezvous body).
    pub fn unpack_bytes(&mut self, send_mode: SendMode, recv_mode: ReceiveMode) -> Bytes {
        self.take_block(send_mode, recv_mode).data
    }

    fn take_block(&mut self, send_mode: SendMode, recv_mode: ReceiveMode) -> Block {
        assert!(
            self.cursor < self.message.blocks.len(),
            "unpack past the end of a {}-block message",
            self.message.blocks.len()
        );
        let block = self.message.blocks[self.cursor].clone();
        assert_eq!(
            (block.send_mode, block.recv_mode),
            (send_mode, recv_mode),
            "unpack modes must match the pack modes of block {}",
            self.cursor
        );
        self.cursor += 1;
        marcel::advance(
            PACK_CALL_CPU
                + crate::cost_per_byte(
                    self.endpoint.channel.model.recv_per_byte_ns,
                    block.data.len(),
                ),
        );
        block
    }

    /// `mad_end_unpacking`: every block must have been consumed.
    pub fn end_unpacking(mut self) {
        assert_eq!(
            self.cursor,
            self.message.blocks.len(),
            "end_unpacking with {} block(s) left",
            self.message.blocks.len() - self.cursor
        );
        self.finished = true;
        obs::span_end(self.span.take());
    }
}

impl Drop for UnpackingConnection {
    fn drop(&mut self) {
        // See `PackingConnection::drop` for what the flag means on fibers.
        if !self.finished && !std::thread::panicking() {
            panic!(
                "UnpackingConnection from rank {} dropped without mad_end_unpacking",
                self.message.from
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marcel::{CostModel, Kernel};

    fn forged(from: usize, seq: u64, tag: u8) -> WireMessage {
        WireMessage {
            from,
            seq,
            blocks: vec![Block {
                data: Bytes::from(vec![tag]),
                send_mode: SendMode::Cheaper,
                recv_mode: ReceiveMode::Cheaper,
            }],
            arrival: VirtualTime(1_000),
        }
    }

    fn unpack_one(ep: &Endpoint) -> u8 {
        let mut conn = ep.begin_unpacking().expect("source open");
        let mut b = [0u8; 1];
        conn.unpack(&mut b, SendMode::Cheaper, ReceiveMode::Cheaper);
        conn.end_unpacking();
        b[0]
    }

    fn channel(k: &Kernel, fault: Option<FaultPlan>) -> Arc<Channel> {
        Channel::new(
            k,
            "test",
            Protocol::Sisci,
            Protocol::Sisci.model(),
            fault,
            [0, 1],
            1,
        )
    }

    #[test]
    fn out_of_order_messages_release_in_seq_order() {
        let k = Kernel::new(CostModel::free());
        let ch = channel(&k, None);
        let rx = ch.endpoint(1).unwrap();
        let ch2 = ch.clone();
        let h = k.spawn("rx", move || {
            // Forge a gap: logical message 1 arrives before message 0.
            ch2.post_raw(1, 0, VirtualTime(1_000), forged(0, 1, b'B'));
            ch2.post_raw(1, 0, VirtualTime(2_000), forged(0, 0, b'A'));
            let first = unpack_one(&rx);
            let backlog_between = rx.backlog();
            let second = unpack_one(&rx);
            (first, second, backlog_between)
        });
        k.run().unwrap();
        // Message 1 was stashed, then released behind message 0 — and the
        // released-but-unconsumed message counts toward the backlog.
        assert_eq!(h.join_outcome().unwrap(), (b'A', b'B', 1));
        assert_eq!(ch.counters(), FaultCounters::default());
    }

    #[test]
    fn duplicate_of_delivered_message_is_discarded() {
        let k = Kernel::new(CostModel::free());
        let ch = channel(&k, None);
        let rx = ch.endpoint(1).unwrap();
        let ch2 = ch.clone();
        let h = k.spawn("rx", move || {
            ch2.post_raw(1, 0, VirtualTime(1_000), forged(0, 0, b'A'));
            ch2.post_raw(1, 0, VirtualTime(2_000), forged(0, 0, b'A')); // retransmit
            ch2.post_raw(1, 0, VirtualTime(3_000), forged(0, 1, b'B'));
            (unpack_one(&rx), unpack_one(&rx))
        });
        k.run().unwrap();
        assert_eq!(h.join_outcome().unwrap(), (b'A', b'B'));
        assert_eq!(ch.counters().duplicates, 1);
    }

    #[test]
    fn duplicate_of_stashed_message_is_counted_once() {
        let k = Kernel::new(CostModel::free());
        let ch = channel(&k, None);
        let rx = ch.endpoint(1).unwrap();
        let ch2 = ch.clone();
        let h = k.spawn("rx", move || {
            ch2.post_raw(1, 0, VirtualTime(1_000), forged(0, 1, b'B'));
            ch2.post_raw(1, 0, VirtualTime(2_000), forged(0, 1, b'B')); // dup in stash
            ch2.post_raw(1, 0, VirtualTime(3_000), forged(0, 0, b'A'));
            (unpack_one(&rx), unpack_one(&rx))
        });
        k.run().unwrap();
        assert_eq!(h.join_outcome().unwrap(), (b'A', b'B'));
        assert_eq!(ch.counters().duplicates, 1);
    }

    #[test]
    fn lane_resolution_returns_typed_errors() {
        let k = Kernel::new(CostModel::free());
        let ch = Channel::new(
            &k,
            "test",
            Protocol::Sisci,
            Protocol::Sisci.model(),
            None,
            [0, 2],
            2,
        );
        assert!(matches!(
            ch.endpoint_vci(0, 2),
            Err(ChannelError::NoSuchVci {
                vci: 2,
                vcis: 2,
                ..
            })
        ));
        assert!(matches!(
            ch.endpoint(1),
            Err(ChannelError::NotMember { rank: 1, .. })
        ));
        let tx = ch.endpoint_vci(0, 1).unwrap();
        assert!(matches!(
            tx.begin_packing(3),
            Err(ChannelError::NotMember { rank: 3, .. })
        ));
    }

    #[test]
    fn lanes_are_independent_rows() {
        let k = Kernel::new(CostModel::free());
        let ch = Channel::new(
            &k,
            "test",
            Protocol::Sisci,
            Protocol::Sisci.model(),
            None,
            [0, 1],
            2,
        );
        let rx0 = ch.endpoint_vci(1, 0).unwrap();
        let rx1 = ch.endpoint_vci(1, 1).unwrap();
        let ch2 = ch.clone();
        let h = k.spawn("rx", move || {
            // Sender 0's seq 0 on both lanes: each lane expects its own.
            ch2.post_raw(1, 0, VirtualTime(1_000), forged(0, 0, b'A'));
            ch2.post_raw(1, 1, VirtualTime(1_000), forged(0, 0, b'B'));
            ch2.post_raw(1, 1, VirtualTime(2_000), forged(0, 0, b'B')); // dup
            let got = (unpack_one(&rx0), unpack_one(&rx1));
            while rx1.backlog() > 0 {
                assert!(rx1.try_begin_unpacking().is_none(), "duplicate leaked");
            }
            got
        });
        k.run().unwrap();
        assert_eq!(h.join_outcome().unwrap(), (b'A', b'B'));
        assert_eq!(ch.counters().duplicates, 1);
        // Rank 1's two lanes (2 and 3) each expect sender 0's seq 1.
        let expected = ch.host.with(|h| {
            h.lanes
                .iter()
                .map(|st| st.peers.get(&0).map(|p| p.expected))
                .collect::<Vec<_>>()
        });
        assert_eq!(expected, [None, None, Some(1), Some(1)]);
    }

    #[test]
    fn exhausted_retransmits_declare_the_pair_dead() {
        let k = Kernel::new(CostModel::free());
        // Loss of 1.0: every attempt is dropped on the wire.
        let ch = channel(&k, Some(FaultPlan::new(7).with_loss(1.0)));
        let tx = ch.endpoint(0).unwrap();
        let h = k.spawn("tx", move || {
            let mut conn = tx.begin_packing(1).unwrap();
            conn.pack(&[9], SendMode::Cheaper, ReceiveMode::Cheaper);
            conn.end_packing()
        });
        k.run().unwrap();
        match h.join_outcome().unwrap() {
            Err(ChannelError::LinkDead {
                from, to, attempts, ..
            }) => {
                assert_eq!((from, to, attempts), (0, 1, MAX_SEND_ATTEMPTS));
            }
            other => panic!("expected LinkDead, got {other:?}"),
        }
        assert!(ch.is_dead_pair(0, 1));
        assert!(!ch.is_dead_pair(1, 0));
        let c = ch.counters();
        assert_eq!(c.drops, MAX_SEND_ATTEMPTS as u64);
        assert_eq!(c.dead_pairs, 1);
    }

    #[test]
    fn lost_acks_force_duplicates_the_receiver_dedups() {
        let k = Kernel::new(CostModel::free());
        // Every delivery's acknowledgement vanishes: the sender keeps
        // retransmitting until the attempt budget runs out, then
        // (having delivered at least once) reports success.
        let ch = channel(&k, Some(FaultPlan::new(3).with_ack_loss(1.0)));
        let tx = ch.endpoint(0).unwrap();
        let rx = ch.endpoint(1).unwrap();
        k.spawn("tx", move || {
            let mut conn = tx.begin_packing(1).unwrap();
            conn.pack(&[5], SendMode::Cheaper, ReceiveMode::Cheaper);
            conn.end_packing().unwrap();
        });
        let h = k.spawn("rx", move || {
            let first = unpack_one(&rx);
            // Let every duplicate arrive, then drain them: each poll
            // consumes one and the dedup layer discards it.
            marcel::advance(VirtualDuration::from_millis(1_000));
            while rx.backlog() > 0 {
                assert!(rx.try_begin_unpacking().is_none(), "duplicate leaked");
            }
            first
        });
        k.run().unwrap();
        assert_eq!(h.join_outcome().unwrap(), 5);
        let c = ch.counters();
        assert_eq!(c.duplicates, MAX_SEND_ATTEMPTS as u64 - 1);
        assert_eq!(c.retransmits, MAX_SEND_ATTEMPTS as u64 - 1);
        assert_eq!(c.dead_pairs, 0);
    }
}
