//! A *virtual group*: an ordered subset of a communicator's ranks over
//! which the algorithm kernels run. Flat algorithms use the identity
//! group (all ranks); the hierarchical variants reuse the very same
//! kernels over cluster-member and leader subsets.

use bytes::Bytes;

use crate::comm::Communicator;
use crate::types::Tag;

/// Membership of a [`Vgroup`]: either every communicator rank (no
/// materialized list — the flat algorithms' hot path; building a
/// per-call `(0..n)` vector on every rank at once costs O(n²) peak
/// bytes across the world), or an explicit sorted subset.
enum Members<'a> {
    /// Virtual rank == communicator-local rank, `0..n`.
    Identity(usize),
    /// Communicator-local ranks, ascending.
    List(&'a [usize]),
}

/// An ordered rank subset bound to one communicator + context. All
/// algorithm kernels address peers by *virtual rank* (index into the
/// membership); the group translates to communicator-local ranks.
pub(crate) struct Vgroup<'a> {
    comm: &'a Communicator,
    members: Members<'a>,
    /// My virtual rank.
    me: usize,
    ctx: u32,
}

impl<'a> Vgroup<'a> {
    /// Build a group from the sorted member list. The calling rank must
    /// be a member.
    pub fn new(comm: &'a Communicator, members: &'a [usize]) -> Vgroup<'a> {
        debug_assert!(members.windows(2).all(|w| w[0] < w[1]));
        let me = members
            .binary_search(&comm.rank())
            .expect("caller must be a member of the virtual group");
        Vgroup {
            comm,
            members: Members::List(members),
            me,
            ctx: comm.coll_context(),
        }
    }

    /// The identity group over every communicator rank.
    pub fn full(comm: &'a Communicator) -> Vgroup<'a> {
        Vgroup {
            comm,
            members: Members::Identity(comm.size()),
            me: comm.rank(),
            ctx: comm.coll_context(),
        }
    }

    pub fn n(&self) -> usize {
        match self.members {
            Members::Identity(n) => n,
            Members::List(m) => m.len(),
        }
    }

    /// My virtual rank.
    pub fn me(&self) -> usize {
        self.me
    }

    /// Communicator-local rank of a virtual rank.
    fn local(&self, vrank: usize) -> usize {
        match self.members {
            Members::Identity(_) => vrank,
            Members::List(m) => m[vrank],
        }
    }

    /// Blocking send to a virtual rank.
    pub fn send(&self, vdst: usize, tag: Tag, data: Bytes) {
        self.comm
            .send_ctx_lane(data, self.local(vdst), tag, self.ctx, false, None);
    }

    /// Probed receive from a virtual rank (size learned from the probe,
    /// so senders never need to pre-announce lengths).
    pub fn recv(&self, vsrc: usize, tag: Tag) -> Vec<u8> {
        let (bytes, _) = self
            .comm
            .recv_probed_ctx(Some(self.local(vsrc)), Some(tag), self.ctx);
        bytes
    }

    /// Concurrent send + receive against (possibly different) peers —
    /// the deadlock-free pairwise-exchange primitive every symmetric
    /// algorithm round is built from. The send runs on a helper thread
    /// (the seed alltoall's pattern) while this thread does the probed
    /// receive.
    pub fn sendrecv(&self, vdst: usize, vsrc: usize, tag: Tag, data: Vec<u8>) -> Vec<u8> {
        let send = {
            let comm = self.comm.clone();
            let dst_local = self.local(vdst);
            let ctx = self.ctx;
            marcel::spawn(
                format!("rank{}-coll", self.comm.env().world_rank),
                move || {
                    comm.send_ctx_lane(Bytes::from(data), dst_local, tag, ctx, false, None);
                },
            )
        };
        let bytes = self.recv(vsrc, tag);
        send.join();
        bytes
    }

    /// Symmetric exchange with one peer.
    pub fn exchange(&self, vpeer: usize, tag: Tag, data: Vec<u8>) -> Vec<u8> {
        self.sendrecv(vpeer, vpeer, tag, data)
    }
}
