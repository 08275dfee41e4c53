//! The user-facing collective API and the dispatch into the algorithm
//! catalog.
//!
//! Two layers:
//!
//! * **typed generics** ([`Communicator::bcast`], [`Communicator::reduce`],
//!   …) — the public API: one generic method per collective over any
//!   [`MpiScalar`] (`u8` for raw bytes), returning [`CollError`]
//!   instead of panicking where an argument can be wrong;
//! * **`coll_*_bytes`** (crate-internal) — the byte-level engine entry
//!   points the typed layer and the communicator-management code share.
//!
//! Every dispatched operation opens a [`SpanKind::Coll`] span labelled
//! with the operation name and bumps a `coll.<op>.<algorithm>` counter,
//! so traces and the metrics registry show which catalog entry ran.
//! Neither affects virtual time.
//!
//! Algorithm selection must agree on every rank. All selection inputs
//! are rank-invariant (policy, topology, and — by MPI contract — the
//! reduction payload size), with one exception: only a bcast root knows
//! the payload size. Under `Adaptive` on a flat topology the root
//! therefore piggybacks an 8-byte length header on the first binomial
//! round (small payloads ride along in the same message; large ones
//! follow by scatter-gather), so non-roots learn the choice without an
//! extra synchronization.

use std::sync::Arc;

use bytes::Bytes;

use marcel::obs::{self, SpanKind};

use super::{
    binomial, hierarchical, prune_chain, rabenseifner, rdouble, ring, sg_bcast, CollAlgorithm,
    CollError, CollOp, CollPolicy, CommClusters, Vgroup, SG_BCAST_MIN_BYTES,
};
use crate::comm::Communicator;
use crate::datatype::{from_bytes, to_bytes, BaseType, MpiScalar};
use crate::op::ReduceOp;
use crate::types::Tag;

// The seed's tags, preserved so `Seed` policy reproduces its message
// stream bit for bit. The new algorithms use tags 10.. (see the kernel
// modules).
const T_BCAST: Tag = 2;
const T_REDUCE: Tag = 3;
const T_GATHER: Tag = 4;
const T_SCATTER: Tag = 5;
const T_ALLTOALL: Tag = 7;
const T_SCAN: Tag = 8;
const T_RSCAT: Tag = 9;
/// Length-header round of the Adaptive flat broadcast.
const T_BCAST_HDR: Tag = 20;

/// Bytes per reduction unit (pairs for loc ops).
fn reduce_unit(base: BaseType, op: ReduceOp) -> usize {
    if op.is_loc() {
        2 * base.size()
    } else {
        base.size()
    }
}

/// Reduction units in a payload; 0 when the length doesn't divide (the
/// selection layer then avoids block-splitting algorithms and the
/// elementwise `apply` reports the mismatch exactly as the seed did).
fn reducible_elems(len: usize, base: BaseType, op: ReduceOp) -> usize {
    let unit = reduce_unit(base, op);
    if len.is_multiple_of(unit) {
        len / unit
    } else {
        0
    }
}

impl Communicator {
    /// This communicator's slice of the topology's nested cluster
    /// structure, finest → coarsest. Never empty; the last entry is
    /// the classic per-communicator cluster view that algorithm
    /// selection keys on ([`super::CollEngine::select`]).
    ///
    /// Inner levels are pruned to the ones that still refine the
    /// picture inside this communicator (see [`super::refines`]), so
    /// on a single-tier topology (the paper's meta-cluster) the chain
    /// always has length 1 and the hierarchical kernels reproduce the
    /// historical two-level schedule byte for byte.
    ///
    /// The world communicator (by far the common case) returns the
    /// engine's precomputed chain: one shared allocation for all ranks
    /// and all calls, so peak memory per rank stays flat as the world
    /// grows. Sub-communicators compute their own slice.
    fn comm_chain(&self) -> Arc<Vec<CommClusters>> {
        let eng = &self.env().coll;
        if self.group().is_identity() && self.size() == eng.n_ranks() {
            return eng.world_chain();
        }
        let world: Vec<usize> = (0..self.size())
            .map(|local| self.group().world_rank(local))
            .collect();
        // Walk coarsest → finest so each level is judged against the
        // nearest *kept* coarser one.
        Arc::new(prune_chain(eng.levels().iter().rev().map(|level| {
            let ids: Vec<usize> = world.iter().map(|&w| level[w]).collect();
            CommClusters::from_ids(&ids)
        })))
    }

    fn coll_count(&self, op: CollOp, alg: CollAlgorithm) {
        obs::counter_add(op.counter_key(alg), 1);
    }

    // ------------------------------------------------------------------
    // Byte-level engine entry points (dispatch).
    // ------------------------------------------------------------------

    pub(crate) fn coll_bcast_bytes(
        &self,
        root: usize,
        data: Option<Vec<u8>>,
    ) -> Result<Vec<u8>, CollError> {
        let n = self.size();
        let me = self.rank();
        if root >= n {
            return Err(CollError::RootOutOfRange {
                op: "bcast",
                root,
                size: n,
            });
        }
        let data = if me == root {
            match data {
                Some(d) => Some(d),
                None => {
                    return Err(CollError::MissingRootData {
                        op: "bcast",
                        what: "data",
                    })
                }
            }
        } else {
            None
        };
        let chain = self.comm_chain();
        let clusters = chain.last().expect("chain is non-empty");
        let policy = self.env().coll.policy();
        let span = obs::span_begin(SpanKind::Coll, CollOp::Bcast.name());
        let result = if policy == CollPolicy::Adaptive && !clusters.hierarchy_pays() && n > 2 {
            // The only size-dependent choice a non-root can't mirror —
            // resolved by the root through the length header.
            self.adaptive_flat_bcast(root, data)
        } else {
            let payload = data.as_ref().map_or(0, Vec::len);
            let alg = self.env().coll.select(CollOp::Bcast, payload, 0, clusters);
            self.coll_count(CollOp::Bcast, alg);
            match alg {
                CollAlgorithm::Hierarchical => hierarchical::bcast(self, &chain, root, data),
                CollAlgorithm::ScatterGather => sg_bcast::bcast(&Vgroup::full(self), root, data),
                _ => binomial::bcast(&Vgroup::full(self), root, data, T_BCAST),
            }
        };
        obs::span_end(span);
        Ok(result)
    }

    /// The Adaptive flat broadcast: one binomial round carries
    /// `len ‖ payload` when the payload is small (the seed's pattern
    /// plus 8 bytes), or the bare 8-byte header when it is large —
    /// receivers then join the scatter-gather phase knowing the choice.
    fn adaptive_flat_bcast(&self, root: usize, data: Option<Vec<u8>>) -> Vec<u8> {
        let g = Vgroup::full(self);
        if self.rank() == root {
            let data = data.expect("validated by coll_bcast_bytes");
            let big = data.len() >= SG_BCAST_MIN_BYTES;
            self.coll_count(
                CollOp::Bcast,
                if big {
                    CollAlgorithm::ScatterGather
                } else {
                    CollAlgorithm::Binomial
                },
            );
            let mut framed = (data.len() as u64).to_le_bytes().to_vec();
            if big {
                binomial::bcast(&g, root, Some(framed), T_BCAST_HDR);
                sg_bcast::bcast(&g, root, Some(data))
            } else {
                framed.extend_from_slice(&data);
                binomial::bcast(&g, root, Some(framed), T_BCAST_HDR);
                data
            }
        } else {
            let framed = binomial::bcast(&g, root, None, T_BCAST_HDR);
            let len = u64::from_le_bytes(framed[..8].try_into().unwrap()) as usize;
            let big = len >= SG_BCAST_MIN_BYTES;
            self.coll_count(
                CollOp::Bcast,
                if big {
                    CollAlgorithm::ScatterGather
                } else {
                    CollAlgorithm::Binomial
                },
            );
            if big {
                sg_bcast::bcast(&g, root, None)
            } else {
                framed[8..].to_vec()
            }
        }
    }

    pub(crate) fn coll_reduce_bytes(
        &self,
        root: usize,
        contribution: Vec<u8>,
        base: BaseType,
        op: ReduceOp,
    ) -> Result<Option<Vec<u8>>, CollError> {
        let n = self.size();
        if root >= n {
            return Err(CollError::RootOutOfRange {
                op: "reduce",
                root,
                size: n,
            });
        }
        let chain = self.comm_chain();
        let clusters = chain.last().expect("chain is non-empty");
        let elems = reducible_elems(contribution.len(), base, op);
        let alg = self
            .env()
            .coll
            .select(CollOp::Reduce, contribution.len(), elems, clusters);
        let span = obs::span_begin(SpanKind::Coll, CollOp::Reduce.name());
        self.coll_count(CollOp::Reduce, alg);
        let result = match alg {
            CollAlgorithm::Hierarchical => {
                hierarchical::reduce(self, &chain, root, contribution, base, op)
            }
            _ => binomial::reduce(&Vgroup::full(self), root, contribution, base, op, T_REDUCE),
        };
        obs::span_end(span);
        Ok(result)
    }

    pub(crate) fn coll_allreduce_bytes(
        &self,
        contribution: Vec<u8>,
        base: BaseType,
        op: ReduceOp,
    ) -> Vec<u8> {
        let chain = self.comm_chain();
        let clusters = chain.last().expect("chain is non-empty");
        let elems = reducible_elems(contribution.len(), base, op);
        let alg = self
            .env()
            .coll
            .select(CollOp::Allreduce, contribution.len(), elems, clusters);
        let span = obs::span_begin(SpanKind::Coll, CollOp::Allreduce.name());
        self.coll_count(CollOp::Allreduce, alg);
        let result = match alg {
            CollAlgorithm::Hierarchical => {
                hierarchical::allreduce(self, &chain, contribution, base, op)
            }
            CollAlgorithm::RecursiveDoubling => {
                rdouble::allreduce(&Vgroup::full(self), contribution, base, op)
            }
            CollAlgorithm::Rabenseifner => {
                rabenseifner::allreduce(&Vgroup::full(self), contribution, base, op)
            }
            _ => {
                // The seed's reduce-to-zero + broadcast.
                let g = Vgroup::full(self);
                let reduced = binomial::reduce(&g, 0, contribution, base, op, T_REDUCE);
                binomial::bcast(&g, 0, reduced, T_BCAST)
            }
        };
        obs::span_end(span);
        result
    }

    pub(crate) fn coll_gather_bytes(
        &self,
        root: usize,
        data: Vec<u8>,
    ) -> Result<Option<Vec<Vec<u8>>>, CollError> {
        let n = self.size();
        if root >= n {
            return Err(CollError::RootOutOfRange {
                op: "gather",
                root,
                size: n,
            });
        }
        let span = obs::span_begin(SpanKind::Coll, CollOp::Gather.name());
        self.coll_count(CollOp::Gather, CollAlgorithm::Binomial);
        let result = binomial::gather(&Vgroup::full(self), root, data, T_GATHER);
        obs::span_end(span);
        Ok(result)
    }

    pub(crate) fn coll_scatter_bytes(
        &self,
        root: usize,
        parts: Option<Vec<Vec<u8>>>,
    ) -> Result<Vec<u8>, CollError> {
        let n = self.size();
        let me = self.rank();
        if root >= n {
            return Err(CollError::RootOutOfRange {
                op: "scatter",
                root,
                size: n,
            });
        }
        let parts = if me == root {
            match parts {
                Some(p) if p.len() == n => Some(p),
                Some(p) => {
                    return Err(CollError::WrongPartCount {
                        op: "scatter",
                        got: p.len(),
                        want: n,
                    })
                }
                None => {
                    return Err(CollError::MissingRootData {
                        op: "scatter",
                        what: "parts",
                    })
                }
            }
        } else {
            None
        };
        let span = obs::span_begin(SpanKind::Coll, CollOp::Scatter.name());
        self.coll_count(CollOp::Scatter, CollAlgorithm::Binomial);
        let result = binomial::scatter(&Vgroup::full(self), root, parts, T_SCATTER);
        obs::span_end(span);
        Ok(result)
    }

    pub(crate) fn coll_allgather_bytes(&self, data: Vec<u8>) -> Vec<Vec<u8>> {
        let chain = self.comm_chain();
        let clusters = chain.last().expect("chain is non-empty");
        // Topology-only selection: contributions may differ in size
        // across ranks (allgatherv semantics), so the choice must not
        // depend on the local payload.
        let alg = self.env().coll.select(CollOp::Allgather, 0, 0, clusters);
        let span = obs::span_begin(SpanKind::Coll, CollOp::Allgather.name());
        self.coll_count(CollOp::Allgather, alg);
        let result = match alg {
            CollAlgorithm::Hierarchical => hierarchical::allgather(self, &chain, data),
            CollAlgorithm::Ring => ring::allgather(&Vgroup::full(self), data, ring::T_RING),
            _ => binomial::allgather(&Vgroup::full(self), data, T_GATHER, T_BCAST),
        };
        obs::span_end(span);
        result
    }

    pub(crate) fn coll_alltoall_bytes(
        &self,
        parts: Vec<Vec<u8>>,
    ) -> Result<Vec<Vec<u8>>, CollError> {
        let n = self.size();
        if parts.len() != n {
            return Err(CollError::WrongPartCount {
                op: "alltoall",
                got: parts.len(),
                want: n,
            });
        }
        let span = obs::span_begin(SpanKind::Coll, CollOp::Alltoall.name());
        self.coll_count(CollOp::Alltoall, CollAlgorithm::Binomial);
        let result = binomial::alltoall(&Vgroup::full(self), parts, T_ALLTOALL);
        obs::span_end(span);
        Ok(result)
    }

    pub(crate) fn coll_scan_bytes(
        &self,
        contribution: Vec<u8>,
        base: BaseType,
        op: ReduceOp,
    ) -> Vec<u8> {
        let span = obs::span_begin(SpanKind::Coll, CollOp::Scan.name());
        self.coll_count(CollOp::Scan, CollAlgorithm::Binomial);
        let result = binomial::scan(&Vgroup::full(self), contribution, base, op, T_SCAN);
        obs::span_end(span);
        result
    }

    pub(crate) fn coll_exscan_bytes(
        &self,
        contribution: Vec<u8>,
        base: BaseType,
        op: ReduceOp,
    ) -> Option<Vec<u8>> {
        let span = obs::span_begin(SpanKind::Coll, CollOp::Exscan.name());
        self.coll_count(CollOp::Exscan, CollAlgorithm::Binomial);
        let result = binomial::exscan(&Vgroup::full(self), contribution, base, op, T_SCAN);
        obs::span_end(span);
        result
    }

    pub(crate) fn coll_reduce_scatter_bytes(
        &self,
        contribution: Vec<u8>,
        block_elems: usize,
        base: BaseType,
        op: ReduceOp,
    ) -> Result<Vec<u8>, CollError> {
        let n = self.size();
        let unit = reduce_unit(base, op);
        let want = n * block_elems * unit;
        if contribution.len() != want {
            return Err(CollError::LengthMismatch {
                op: "reduce_scatter",
                len: contribution.len(),
                want,
            });
        }
        let span = obs::span_begin(SpanKind::Coll, CollOp::ReduceScatter.name());
        // Reduce through the engine (two-level on the meta-cluster),
        // then the seed's block scatter from rank 0.
        let reduced = self
            .coll_reduce_bytes(0, contribution, base, op)
            .expect("rank 0 is always a valid root");
        let block_bytes = block_elems * unit;
        let ctx = self.coll_context();
        let result = if let Some(reduced) = reduced {
            let mut mine = Vec::new();
            for (dst, chunk) in reduced.chunks(block_bytes.max(1)).take(n).enumerate() {
                if dst == 0 {
                    mine = chunk.to_vec();
                } else {
                    self.send_ctx_lane(
                        Bytes::copy_from_slice(chunk),
                        dst,
                        T_RSCAT,
                        ctx,
                        false,
                        None,
                    );
                }
            }
            mine
        } else {
            let (bytes, _) = self.recv_probed_ctx(Some(0), Some(T_RSCAT), ctx);
            bytes
        };
        obs::span_end(span);
        Ok(result)
    }

    // ------------------------------------------------------------------
    // Typed generic API — the public surface.
    // ------------------------------------------------------------------

    /// `MPI_Barrier`: an empty reduce to rank 0 followed by a token
    /// broadcast, both dispatched through the engine (so the meta-
    /// cluster pays the slow link only at the leader level).
    pub fn barrier(&self) {
        let span = obs::span_begin(SpanKind::Coll, CollOp::Barrier.name());
        let token = self
            .coll_reduce_bytes(0, Vec::new(), BaseType::Byte, ReduceOp::Sum)
            .expect("rank 0 is always a valid root");
        let _ = self
            .coll_bcast_bytes(0, if self.rank() == 0 { token } else { None })
            .expect("rank 0 provides the token");
        obs::span_end(span);
    }

    /// `MPI_Bcast`. The root passes `Some(data)`; everyone receives the
    /// broadcast value.
    pub fn bcast<T: MpiScalar>(
        &self,
        root: usize,
        data: Option<Vec<T>>,
    ) -> Result<Vec<T>, CollError> {
        self.coll_bcast_bytes(root, data.map(|d| to_bytes(&d)))
            .map(|b| from_bytes(&b))
    }

    /// `MPI_Reduce`: the root gets `Some(result)`, everyone else `None`.
    pub fn reduce<T: MpiScalar>(
        &self,
        root: usize,
        contribution: &[T],
        op: ReduceOp,
    ) -> Result<Option<Vec<T>>, CollError> {
        self.coll_reduce_bytes(root, to_bytes(contribution), T::BASE, op)
            .map(|r| r.map(|b| from_bytes(&b)))
    }

    /// `MPI_Allreduce`.
    pub fn allreduce<T: MpiScalar>(&self, contribution: &[T], op: ReduceOp) -> Vec<T> {
        from_bytes(&self.coll_allreduce_bytes(to_bytes(contribution), T::BASE, op))
    }

    /// `MPI_Gather(v)`: the root gets every rank's contribution in rank
    /// order, everyone else `None`. Contributions may differ in length.
    pub fn gather<T: MpiScalar>(
        &self,
        root: usize,
        data: &[T],
    ) -> Result<Option<Vec<Vec<T>>>, CollError> {
        self.coll_gather_bytes(root, to_bytes(data))
            .map(|r| r.map(|parts| parts.iter().map(|p| from_bytes(p)).collect()))
    }

    /// `MPI_Scatter(v)`: the root provides one buffer per rank.
    pub fn scatter<T: MpiScalar>(
        &self,
        root: usize,
        parts: Option<Vec<Vec<T>>>,
    ) -> Result<Vec<T>, CollError> {
        self.coll_scatter_bytes(
            root,
            parts.map(|ps| ps.iter().map(|p| to_bytes(p)).collect()),
        )
        .map(|b| from_bytes(&b))
    }

    /// `MPI_Allgather(v)`: every rank gets every contribution, in rank
    /// order. Contributions may differ in length.
    pub fn allgather<T: MpiScalar>(&self, data: &[T]) -> Vec<Vec<T>> {
        self.coll_allgather_bytes(to_bytes(data))
            .iter()
            .map(|p| from_bytes(p))
            .collect()
    }

    /// `MPI_Alltoall(v)`: `parts[d]` goes to rank `d`; the result's
    /// entry `s` came from rank `s`.
    pub fn alltoall<T: MpiScalar>(&self, parts: Vec<Vec<T>>) -> Result<Vec<Vec<T>>, CollError> {
        self.coll_alltoall_bytes(parts.iter().map(|p| to_bytes(p)).collect())
            .map(|r| r.iter().map(|p| from_bytes(p)).collect())
    }

    /// `MPI_Scan`: inclusive prefix reduction.
    pub fn scan<T: MpiScalar>(&self, contribution: &[T], op: ReduceOp) -> Vec<T> {
        from_bytes(&self.coll_scan_bytes(to_bytes(contribution), T::BASE, op))
    }

    /// `MPI_Exscan`: exclusive prefix reduction — rank 0 gets `None`,
    /// rank r > 0 the reduction of ranks `0..r`.
    pub fn exscan<T: MpiScalar>(&self, contribution: &[T], op: ReduceOp) -> Option<Vec<T>> {
        self.coll_exscan_bytes(to_bytes(contribution), T::BASE, op)
            .map(|b| from_bytes(&b))
    }

    /// `MPI_Reduce_scatter_block`: reduce elementwise across ranks, then
    /// scatter equal blocks — rank r gets the r-th block. `contribution`
    /// must hold `size() * block_elems` elements.
    pub fn reduce_scatter<T: MpiScalar>(
        &self,
        contribution: &[T],
        block_elems: usize,
        op: ReduceOp,
    ) -> Result<Vec<T>, CollError> {
        self.coll_reduce_scatter_bytes(to_bytes(contribution), block_elems, T::BASE, op)
            .map(|b| from_bytes(&b))
    }
}
