//! Communicators: the user-facing MPI interface (point-to-point part).
//!
//! A [`Communicator`] is a group of ranks plus a pair of context ids
//! (one for point-to-point traffic, one for the collective layer), bound
//! to the world table and the calling rank's index in it. All public rank
//! arguments and statuses are *communicator-local*: arguments become
//! world ranks here, and a [`Request`]'s wait (or a probe) turns a
//! status source back into a communicator rank.
//!
//! # One surface
//!
//! Point-to-point traffic goes through [`Endpoint`], obtained from
//! [`Communicator::endpoint`] (or [`Communicator::endpoint_on`] to pin a
//! VCI). One generic [`Endpoint::send`] takes any payload the
//! [`IntoPayload`] conversion accepts, and every call returns
//! `Result<_, CommError>` instead of panicking on bad ranks, short
//! buffers or mismatched lengths. The `Communicator` itself keeps only
//! the collectives (see [`crate::coll`]), communicator management and
//! the persistent `send_init` / `recv_init`. Every non-blocking call
//! returns one [`Request`] type, which [`crate::wait_all`] /
//! [`crate::wait_any`] accept and whose wait returns a
//! communicator-local status.

use std::sync::Arc;

use bytes::Bytes;

use crate::datatype::{from_bytes, to_bytes, Datatype, MpiScalar};
use crate::engine::{Engine, EngineError};
use crate::group::Group;
use crate::request::{self, Request};
use crate::types::{Envelope, MatchSpec, Status, Tag};
use crate::world::MpiWorld;
use marcel::OneShot;

/// Typed error for the point-to-point surface.
///
/// Marked `#[non_exhaustive]`: future protocol work may add variants, so
/// match with a `_` arm.
#[non_exhaustive]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommError {
    /// A rank argument is outside the communicator.
    RankOutOfRange { rank: usize, size: usize },
    /// A VCI index is outside the world's configured lane count.
    VciOutOfRange { vci: usize, vcis: usize },
    /// An exact-count typed receive got a different byte length.
    TypedLengthMismatch { want: usize, got: usize },
    /// A payload's byte length is not a whole number of elements.
    ElementMisaligned { len: usize, elem: usize },
    /// A datatype operation's user buffer is shorter than
    /// `datatype.extent() * count` bytes.
    BufferTooSmall { need: usize, got: usize },
    /// A protocol-level engine error surfaced through the API.
    Engine(EngineError),
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::RankOutOfRange { rank, size } => {
                write!(
                    f,
                    "rank {rank} out of range for communicator of size {size}"
                )
            }
            CommError::VciOutOfRange { vci, vcis } => {
                write!(
                    f,
                    "VCI {vci} out of range (world configured with {vcis} VCIs)"
                )
            }
            CommError::TypedLengthMismatch { want, got } => {
                write!(
                    f,
                    "typed receive length mismatch: want {want} bytes, got {got}"
                )
            }
            CommError::ElementMisaligned { len, elem } => {
                write!(
                    f,
                    "payload of {len} bytes is not a whole number of {elem}-byte elements"
                )
            }
            CommError::BufferTooSmall { need, got } => {
                write!(f, "user buffer of {got} bytes is too small: need {need}")
            }
            CommError::Engine(e) => write!(f, "engine error: {e}"),
        }
    }
}

impl std::error::Error for CommError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CommError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EngineError> for CommError {
    fn from(e: EngineError) -> Self {
        CommError::Engine(e)
    }
}

/// Anything an [`Endpoint`] can send: the one conversion point between
/// user data and the wire.
///
/// Implemented for [`Bytes`] (zero host copy), `&Bytes`, and any slice,
/// vector, or borrowed vector of an [`MpiScalar`] (including `u8`, so
/// `&[u8]` and `Vec<u8>` work unchanged).
pub trait IntoPayload {
    /// Convert into the wire representation.
    fn into_payload(self) -> Bytes;
}

impl IntoPayload for Bytes {
    fn into_payload(self) -> Bytes {
        self
    }
}

impl IntoPayload for &Bytes {
    fn into_payload(self) -> Bytes {
        self.clone()
    }
}

impl<T: MpiScalar> IntoPayload for &[T] {
    fn into_payload(self) -> Bytes {
        Bytes::from(to_bytes(self))
    }
}

impl<T: MpiScalar> IntoPayload for Vec<T> {
    fn into_payload(self) -> Bytes {
        Bytes::from(to_bytes(&self))
    }
}

impl<T: MpiScalar> IntoPayload for &Vec<T> {
    fn into_payload(self) -> Bytes {
        Bytes::from(to_bytes(self.as_slice()))
    }
}

impl<T: MpiScalar, const N: usize> IntoPayload for &[T; N] {
    fn into_payload(self) -> Bytes {
        Bytes::from(to_bytes(self.as_slice()))
    }
}

/// Anything an [`Endpoint`] can receive into: the typed counterpart of
/// [`IntoPayload`].
///
/// `Bytes` keeps the refcounted wire buffer (zero copy); `Vec<T>`
/// reinterprets it as scalars, failing with
/// [`CommError::ElementMisaligned`] when the byte length doesn't divide.
pub trait FromPayload: Sized {
    /// Convert from the wire representation.
    fn from_payload(data: Bytes) -> Result<Self, CommError>;
}

impl FromPayload for Bytes {
    fn from_payload(data: Bytes) -> Result<Self, CommError> {
        Ok(data)
    }
}

impl<T: MpiScalar> FromPayload for Vec<T> {
    fn from_payload(data: Bytes) -> Result<Self, CommError> {
        let elem = T::BASE.size();
        if !data.len().is_multiple_of(elem) {
            return Err(CommError::ElementMisaligned {
                len: data.len(),
                elem,
            });
        }
        Ok(from_bytes(&data))
    }
}

/// An MPI communicator.
#[derive(Clone)]
pub struct Communicator {
    world: Arc<MpiWorld>,
    /// This rank's index into the world's per-rank tables.
    world_rank: usize,
    group: Arc<Group>,
    /// Point-to-point context; collective traffic uses `context + 1`.
    context: u32,
    /// This rank's position in `group`.
    local: usize,
}

impl Communicator {
    /// `MPI_COMM_WORLD` of world rank `rank` (context ids 0/1).
    pub(crate) fn comm_world(world: Arc<MpiWorld>, rank: usize) -> Communicator {
        let group = world.group.clone();
        Communicator {
            world,
            world_rank: rank,
            group,
            context: 0,
            local: rank,
        }
    }

    pub fn rank(&self) -> usize {
        self.local
    }

    pub fn size(&self) -> usize {
        self.group.size()
    }

    pub fn group(&self) -> &Arc<Group> {
        &self.group
    }

    pub fn context(&self) -> u32 {
        self.context
    }

    pub(crate) fn world(&self) -> &MpiWorld {
        &self.world
    }

    pub(crate) fn world_rank(&self) -> usize {
        self.world_rank
    }

    /// This rank's matching engine.
    fn engine(&self) -> &Engine {
        &self.world.engines[self.world_rank]
    }

    pub(crate) fn coll_context(&self) -> u32 {
        self.context + 1
    }

    fn world_of(&self, local: usize) -> usize {
        self.group.world_rank(local)
    }

    // ------------------------------------------------------------------
    // Core byte-level operations (context-parameterized for reuse by the
    // collective layer).
    // ------------------------------------------------------------------

    /// A matching spec for a communicator-local source on `context`.
    fn spec(&self, src_local: Option<usize>, tag: Option<Tag>, context: u32) -> MatchSpec {
        MatchSpec {
            src: src_local.map(|l| self.world_of(l)),
            tag,
            context,
        }
    }

    /// The one send path, called by [`Endpoint`], `isend_lane`, the
    /// collective kernels' `Vgroup` and `reduce_scatter`. `lane` is the
    /// endpoint's VCI hint — `None` lets the device derive the lane from
    /// `(context, tag)`; devices without lanes ignore it entirely.
    pub(crate) fn send_ctx_lane(
        &self,
        data: Bytes,
        dst_local: usize,
        tag: Tag,
        context: u32,
        sync: bool,
        lane: Option<usize>,
    ) {
        let from = self.world_rank;
        let dst = self.world_of(dst_local);
        let env = Envelope {
            src: from,
            tag,
            context,
            len: data.len(),
        };
        self.world.send(from, dst, env, data, sync, lane);
    }

    /// The one non-blocking send worker (`isend`, `issend`, `sendrecv`,
    /// persistent sends): spawns the blocking protocol on a helper
    /// thread named `rank<r>-<suffix>`, as MPICH/Madeleine does
    /// (§4.2.3). Callers pass the seed's suffixes (`isend` / `issend` /
    /// `psend`) so traces and journals stay bit-identical.
    pub(crate) fn isend_lane(
        &self,
        data: Bytes,
        dst_local: usize,
        tag: Tag,
        sync: bool,
        lane: Option<usize>,
        suffix: &str,
    ) -> Request {
        let slot = OneShot::current();
        let comm = self.clone();
        let my_world = self.world_rank;
        let done = slot.clone();
        let len = data.len();
        marcel::spawn(format!("rank{my_world}-{suffix}"), move || {
            comm.send_ctx_lane(data, dst_local, tag, comm.context, sync, lane);
            let status = Status {
                source: my_world,
                tag,
                len,
            };
            request::complete(&done, None, status, None);
        });
        Request::new(slot, self.group.clone())
    }

    /// Post a point-to-point receive (`src_local` already checked).
    fn post_recv(&self, cap: usize, src_local: Option<usize>, tag: Option<Tag>) -> Request {
        let slot = OneShot::current();
        let spec = self.spec(src_local, tag, self.context);
        self.engine().post_recv(spec, cap, slot.clone());
        Request::new(slot, self.group.clone())
    }

    /// Probe, then receive exactly the probed message (helper used by
    /// the collective layer for unknown-size transfers).
    pub(crate) fn recv_probed_ctx(
        &self,
        src_local: Option<usize>,
        tag: Option<Tag>,
        context: u32,
    ) -> (Vec<u8>, Status) {
        let (st, handle) = self.engine().probe(self.spec(src_local, tag, context));
        // Receive the probed message by handle — the probe already
        // located it, so no second queue lookup happens.
        let exact = MatchSpec {
            src: Some(st.source),
            tag: Some(st.tag),
            context,
        };
        let slot = OneShot::current();
        self.engine()
            .post_recv_probed(handle, exact, st.len, slot.clone());
        Request::new(slot, self.group.clone()).wait_data()
    }

    // ------------------------------------------------------------------
    // Persistent requests (everything else lives on Endpoint).
    // ------------------------------------------------------------------

    /// `MPI_Send_init`: build a persistent send (see [`PersistentSend`]).
    pub fn send_init(&self, data: Vec<u8>, dst: usize, tag: Tag) -> PersistentSend {
        PersistentSend {
            comm: self.clone(),
            data: Bytes::from(data),
            dst,
            tag,
        }
    }

    /// `MPI_Recv_init`: build a persistent receive.
    pub fn recv_init(&self, cap: usize, src: Option<usize>, tag: Option<Tag>) -> PersistentRecv {
        PersistentRecv {
            comm: self.clone(),
            cap,
            src,
            tag,
        }
    }

    // ------------------------------------------------------------------
    // Endpoints — the point-to-point surface.
    // ------------------------------------------------------------------

    /// An [`Endpoint`] with no VCI pin: the device derives each
    /// message's lane from `(context, tag)`, so unrelated tags spread
    /// across lanes automatically.
    pub fn endpoint(&self) -> Endpoint {
        Endpoint {
            comm: self.clone(),
            vci: None,
        }
    }

    /// An [`Endpoint`] pinned to virtual communication interface `vci`:
    /// every send issued through it travels that lane regardless of tag.
    ///
    /// Ordering guarantee: messages from a pinned endpoint stay FIFO
    /// relative to other traffic *on the same lane*; traffic on other
    /// lanes of the same `(source, tag)` pair may overtake on the wire
    /// (matching order at the receiver is still arrival order).
    pub fn endpoint_on(&self, vci: usize) -> Result<Endpoint, CommError> {
        let vcis = self.engine().vcis();
        if vci >= vcis {
            return Err(CommError::VciOutOfRange { vci, vcis });
        }
        Ok(Endpoint {
            comm: self.clone(),
            vci: Some(vci),
        })
    }

    /// Bounds-check a communicator-local rank argument.
    fn check_rank(&self, rank: usize) -> Result<(), CommError> {
        let size = self.size();
        if rank >= size {
            return Err(CommError::RankOutOfRange { rank, size });
        }
        Ok(())
    }

    /// Bounds-check an optional (`None` = any) source rank.
    fn check_src(&self, src: Option<usize>) -> Result<(), CommError> {
        src.map_or(Ok(()), |s| self.check_rank(s))
    }

    // ------------------------------------------------------------------
    // Communicator management.
    // ------------------------------------------------------------------

    /// `MPI_Comm_dup`: same group, fresh contexts. Collective.
    pub fn dup(&self) -> Communicator {
        let base = if self.local == 0 {
            let base = self.world.alloc_contexts();
            self.coll_bcast_bytes(0, Some(base.to_le_bytes().to_vec()))
                .expect("rank 0 is always a valid root");
            base
        } else {
            let bytes = self
                .coll_bcast_bytes(0, None)
                .expect("rank 0 is always a valid root");
            u32::from_le_bytes(bytes.try_into().expect("context broadcast is 4 bytes"))
        };
        Communicator {
            context: base,
            ..self.clone()
        }
    }

    /// `MPI_Comm_split_type(MPI_COMM_TYPE_SHARED)`: one communicator
    /// per physical node, ordered by rank — the standard tool for
    /// hierarchical (node-aware) algorithms on SMP clusters.
    pub fn split_by_node(&self) -> Communicator {
        let node = self.world.rank_node[self.world_rank] as i32;
        self.split(node, self.local as i32)
            .expect("node color is never undefined")
    }

    /// `MPI_Comm_split`: partition by `color` (negative = undefined:
    /// the caller gets `None`), ordering each part by `(key, rank)`.
    /// Collective.
    pub fn split(&self, color: i32, key: i32) -> Option<Communicator> {
        // Gather (color, key) pairs to local root.
        let mine = [color, key];
        let gathered = self
            .coll_gather_bytes(0, to_bytes(&mine))
            .expect("rank 0 is always a valid root");
        // Root computes every part's (world-rank list, context base) and
        // scatters each member its own part.
        let assignments: Option<Vec<Vec<u8>>> = if self.local == 0 {
            let pairs: Vec<(i32, i32, usize)> = gathered
                .expect("root gathers")
                .iter()
                .enumerate()
                .map(|(local, bytes)| {
                    let v: Vec<i32> = from_bytes(bytes);
                    (v[0], v[1], local)
                })
                .collect();
            let mut colors: Vec<i32> = pairs.iter().map(|p| p.0).filter(|c| *c >= 0).collect();
            colors.sort_unstable();
            colors.dedup();
            let mut per_local: Vec<Vec<u8>> = vec![Vec::new(); self.size()];
            for color in colors {
                let mut members: Vec<(i32, usize)> = pairs
                    .iter()
                    .filter(|p| p.0 == color)
                    .map(|p| (p.1, p.2))
                    .collect();
                members.sort_unstable();
                let base = self.world.alloc_contexts();
                // Encode: context base + world ranks of the new group.
                let mut blob: Vec<i64> = vec![base as i64];
                blob.extend(members.iter().map(|(_, l)| self.world_of(*l) as i64));
                for (_, local) in &members {
                    per_local[*local] = to_bytes(&blob);
                }
            }
            Some(per_local)
        } else {
            None
        };
        let mine = self
            .coll_scatter_bytes(0, assignments)
            .expect("rank 0 is always a valid root");
        if mine.is_empty() {
            return None;
        }
        let blob: Vec<i64> = from_bytes(&mine);
        let context = blob[0] as u32;
        let ranks: Vec<usize> = blob[1..].iter().map(|r| *r as usize).collect();
        let group = Group::from_ranks(ranks);
        let local = group
            .local_rank(self.world_rank)
            .expect("split assignment must include self");
        Some(Communicator {
            world: self.world.clone(),
            world_rank: self.world_rank,
            group,
            context,
            local,
        })
    }
}

/// A point-to-point handle on a communicator, optionally pinned to one
/// VCI — the send/receive surface.
///
/// One generic [`Endpoint::send`] covers raw bytes, owned [`Bytes`] and
/// scalar slices alike: the payload type ([`IntoPayload`]) picks the
/// conversion, and every operation returns `Result<_, CommError>`
/// instead of panicking.
///
/// ```
/// # use mpich::{run_world, Placement, WorldConfig};
/// # use simnet::{Protocol, Topology};
/// run_world(
///     Topology::single_network(2, Protocol::Tcp),
///     Placement::OneRankPerNode,
///     WorldConfig::default(),
///     |comm| {
///         let ep = comm.endpoint();
///         if comm.rank() == 0 {
///             ep.send(&[1.0f64, 2.0, 3.0][..], 1, 7).unwrap();
///         } else {
///             let (v, st) = ep.recv::<Vec<f64>>(24, Some(0), Some(7)).unwrap();
///             assert_eq!((v, st.source), (vec![1.0, 2.0, 3.0], 0));
///         }
///     },
/// )
/// .unwrap();
/// ```
///
/// Cloning is cheap (an `Arc` bump); a rank may hold several endpoints
/// pinned to different VCIs to drive disjoint lanes from concurrent
/// threads.
#[derive(Clone)]
pub struct Endpoint {
    comm: Communicator,
    /// `Some(v)` pins every send to lane `v`; `None` derives the lane
    /// from `(context, tag)`.
    vci: Option<usize>,
}

impl Endpoint {
    /// The communicator this endpoint operates on.
    pub fn comm(&self) -> &Communicator {
        &self.comm
    }

    /// The pinned VCI, if any.
    pub fn vci(&self) -> Option<usize> {
        self.vci
    }

    /// Blocking send (`MPI_Send`). Completes locally in eager mode; in
    /// rendezvous mode it returns once the data is handed to the
    /// receiver's buffer.
    pub fn send<P: IntoPayload>(&self, data: P, dst: usize, tag: Tag) -> Result<(), CommError> {
        self.comm.check_rank(dst)?;
        self.comm.send_ctx_lane(
            data.into_payload(),
            dst,
            tag,
            self.comm.context,
            false,
            self.vci,
        );
        Ok(())
    }

    /// Synchronous send (`MPI_Ssend`): completes only once the matching
    /// receive is posted — always takes the rendezvous path.
    pub fn ssend<P: IntoPayload>(&self, data: P, dst: usize, tag: Tag) -> Result<(), CommError> {
        self.comm.check_rank(dst)?;
        self.comm.send_ctx_lane(
            data.into_payload(),
            dst,
            tag,
            self.comm.context,
            true,
            self.vci,
        );
        Ok(())
    }

    /// Non-blocking send (`MPI_Isend`): spawns a worker thread that runs
    /// the blocking protocol, as MPICH/Madeleine does (§4.2.3).
    pub fn isend<P: IntoPayload>(
        &self,
        data: P,
        dst: usize,
        tag: Tag,
    ) -> Result<Request, CommError> {
        self.comm.check_rank(dst)?;
        Ok(self
            .comm
            .isend_lane(data.into_payload(), dst, tag, false, self.vci, "isend"))
    }

    /// Non-blocking synchronous send (`MPI_Issend`).
    pub fn issend<P: IntoPayload>(
        &self,
        data: P,
        dst: usize,
        tag: Tag,
    ) -> Result<Request, CommError> {
        self.comm.check_rank(dst)?;
        Ok(self
            .comm
            .isend_lane(data.into_payload(), dst, tag, true, self.vci, "issend"))
    }

    /// Blocking receive (`MPI_Recv`) of up to `cap` bytes, converted to
    /// any [`FromPayload`] type (`Vec<u8>`, `Bytes`, `Vec<f64>`, …).
    /// `None` source or tag mean `MPI_ANY_SOURCE` / `MPI_ANY_TAG`.
    ///
    /// Matching is tag-driven and unaffected by the endpoint's VCI pin —
    /// the pin steers *outgoing* wire traffic only.
    pub fn recv<R: FromPayload>(
        &self,
        cap: usize,
        src: Option<usize>,
        tag: Option<Tag>,
    ) -> Result<(R, Status), CommError> {
        let (data, status) = self.irecv(cap, src, tag)?.wait_bytes();
        let data = data.expect("receive request completed without data");
        Ok((R::from_payload(data)?, status))
    }

    /// Receive exactly `count` scalars, failing with
    /// [`CommError::TypedLengthMismatch`] on a short or oversized
    /// message.
    pub fn recv_count<T: MpiScalar>(
        &self,
        count: usize,
        src: Option<usize>,
        tag: Option<Tag>,
    ) -> Result<(Vec<T>, Status), CommError> {
        let want = count * T::BASE.size();
        let (bytes, status) = self.recv::<Bytes>(want, src, tag)?;
        if bytes.len() != want {
            return Err(CommError::TypedLengthMismatch {
                want,
                got: bytes.len(),
            });
        }
        Ok((from_bytes(&bytes), status))
    }

    /// Non-blocking receive (`MPI_Irecv`); [`crate::wait_all`] and
    /// [`crate::wait_any`] accept the request like any other.
    pub fn irecv(
        &self,
        cap: usize,
        src: Option<usize>,
        tag: Option<Tag>,
    ) -> Result<Request, CommError> {
        self.comm.check_src(src)?;
        Ok(self.comm.post_recv(cap, src, tag))
    }

    /// `MPI_Sendrecv`: concurrent send and receive (deadlock-free even
    /// against itself).
    pub fn sendrecv<P: IntoPayload, R: FromPayload>(
        &self,
        data: P,
        dst: usize,
        send_tag: Tag,
        cap: usize,
        src: Option<usize>,
        recv_tag: Option<Tag>,
    ) -> Result<(R, Status), CommError> {
        self.comm.check_rank(dst)?;
        let recv = self.irecv(cap, src, recv_tag)?;
        let send =
            self.comm
                .isend_lane(data.into_payload(), dst, send_tag, false, self.vci, "isend");
        let (bytes, status) = recv.wait_bytes();
        send.wait_send();
        let bytes = bytes.expect("receive request completed without data");
        Ok((R::from_payload(bytes)?, status))
    }

    /// Send `count` instances of `datatype` from a raw user buffer,
    /// packing non-contiguous layouts first (the MPICH datatype engine).
    /// `buf` must span `datatype.extent() * count` bytes, else
    /// [`CommError::BufferTooSmall`].
    pub fn send_datatype(
        &self,
        buf: &[u8],
        datatype: &Datatype,
        count: usize,
        dst: usize,
        tag: Tag,
    ) -> Result<(), CommError> {
        check_buffer(buf.len(), datatype, count)?;
        let payload = if datatype.is_contiguous() {
            Bytes::copy_from_slice(&buf[..datatype.size() * count])
        } else {
            Bytes::from(datatype.pack(buf, count))
        };
        self.send(payload, dst, tag)
    }

    /// Receive `count` instances of `datatype` into a raw user buffer.
    /// A `buf` shorter than `datatype.extent() * count` bytes fails with
    /// [`CommError::BufferTooSmall`] before the receive is posted, so no
    /// message is consumed.
    pub fn recv_datatype(
        &self,
        buf: &mut [u8],
        datatype: &Datatype,
        count: usize,
        src: Option<usize>,
        tag: Option<Tag>,
    ) -> Result<Status, CommError> {
        check_buffer(buf.len(), datatype, count)?;
        let want = datatype.size() * count;
        let (bytes, status) = self.recv::<Bytes>(want, src, tag)?;
        if bytes.len() != want {
            return Err(CommError::TypedLengthMismatch {
                want,
                got: bytes.len(),
            });
        }
        datatype.unpack(buf, &bytes, count);
        Ok(status)
    }

    /// Blocking probe (`MPI_Probe`).
    pub fn probe(&self, src: Option<usize>, tag: Option<Tag>) -> Result<Status, CommError> {
        self.comm.check_src(src)?;
        let comm = &self.comm;
        let (status, _) = comm.engine().probe(comm.spec(src, tag, comm.context));
        Ok(request::localize(&comm.group, status))
    }

    /// Non-blocking probe (`MPI_Iprobe`).
    pub fn iprobe(
        &self,
        src: Option<usize>,
        tag: Option<Tag>,
    ) -> Result<Option<Status>, CommError> {
        self.comm.check_src(src)?;
        let comm = &self.comm;
        let spec = comm.spec(src, tag, comm.context);
        Ok(comm
            .engine()
            .iprobe(spec)
            .map(|(s, _)| request::localize(&comm.group, s)))
    }
}

/// A datatype operation's user buffer must span `count` extents.
fn check_buffer(got: usize, datatype: &Datatype, count: usize) -> Result<(), CommError> {
    let need = datatype.extent() * count;
    if got < need {
        return Err(CommError::BufferTooSmall { need, got });
    }
    Ok(())
}

/// A persistent send operation (`MPI_Send_init`): fix the message once,
/// `start` it any number of times (`MPI_Start`). Each start behaves
/// like an `isend` of the same buffer.
pub struct PersistentSend {
    comm: Communicator,
    data: Bytes,
    dst: usize,
    tag: Tag,
}

impl PersistentSend {
    /// Launch one round; complete with `Request::wait`/`wait_send`.
    pub fn start(&self) -> Request {
        self.comm
            .isend_lane(self.data.clone(), self.dst, self.tag, false, None, "psend")
    }
}

/// A persistent receive operation (`MPI_Recv_init`/`MPI_Start`).
pub struct PersistentRecv {
    comm: Communicator,
    cap: usize,
    src: Option<usize>,
    tag: Option<Tag>,
}

impl PersistentRecv {
    /// Post one round; complete with [`Request::wait_data`].
    pub fn start(&self) -> Request {
        self.comm.post_recv(self.cap, self.src, self.tag)
    }
}
