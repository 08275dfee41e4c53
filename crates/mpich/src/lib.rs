//! # mpich — the MPI stack of the MPICH/Madeleine reproduction
//!
//! Layered exactly like the paper's Figure 3:
//!
//! ```text
//! MPI API                  Communicator: send/recv/isend/collectives
//! Generic part             collectives, groups, contexts, datatypes
//! Generic ADI code         request queues (Engine), protocol selection
//! Device interface         one world table (MpiWorld), locality match
//!   ch_self                intra-process loop-back  } one delivery
//!   smp_plug               intra-node shared memory } function
//!   ch_mad                 ALL inter-node traffic, over Madeleine:
//!                          eager + rendezvous, split short packets,
//!                          per-channel polling threads, TERM shutdown
//!   ch_p4                  classical TCP device (Fig. 6 baseline)
//! ```
//!
//! Run a program with [`run_world`]:
//!
//! ```
//! use mpich::{run_world, Placement, WorldConfig, ReduceOp};
//! use simnet::Topology;
//!
//! let sums = run_world(
//!     Topology::meta_cluster(2), // SCI cluster + Myrinet cluster + TCP
//!     Placement::OneRankPerNode,
//!     WorldConfig::default(),
//!     |comm| {
//!         let me = comm.rank() as i64;
//!         comm.allreduce(&[me], ReduceOp::Sum)[0]
//!     },
//! )
//! .unwrap();
//! assert_eq!(sums, vec![6; 4]);
//! ```

pub mod adi;
pub mod cart;
pub mod coll;
pub mod comm;
pub mod datatype;
pub mod device;
pub mod engine;
pub mod group;
pub mod matching;
pub mod op;
pub mod request;
pub mod types;
pub mod vci;
pub mod world;

pub use adi::{AdiCosts, PolicyMode, ProtocolPolicy};
pub use cart::CartComm;
pub use coll::{CollAlgorithm, CollEngine, CollError, CollOp, CollPolicy, CommClusters};
pub use comm::{
    CommError, Communicator, Endpoint, FromPayload, IntoPayload, PersistentRecv, PersistentSend,
};
pub use datatype::{from_bytes, to_bytes, BaseType, Datatype, MpiScalar};
pub use device::{ChMadConfig, ChP4Costs, Packet};
pub use engine::EngineError;
pub use group::Group;
pub use marcel::{ExecPolicy, PollPolicy};
pub use matching::{PostedStore, UnexpectedStore};
pub use op::ReduceOp;
pub use request::{wait_all, wait_any, Request};
pub use types::{Envelope, MatchSpec, Status, Tag};
pub use vci::vci_for;
pub use world::{
    run_world, run_world_report, thread_metas, ConfigError, Placement, RemoteDeviceKind,
    StreamHook, WorldConfig, WorldConfigBuilder, WorldFailure, WorldReport,
};

/// Every label the stack writes into a trace event's `&'static str`
/// fields: span labels and `PacketSent`/`PacketDelivered` packet kinds.
/// The journal resolves a decoded label against this list, so one
/// outside it (a corrupt or foreign journal) is a decode error.
pub const TRACE_LABELS: &[&str] = &[
    // `simnet::Protocol` names: madeleine and ch_mad spans.
    "tcp",
    "sisci",
    "bip",
    // The setup span of a send with no rail, and the ADI post spans.
    "local",
    "adi",
    // `CollOp` names: collective spans.
    "barrier",
    "bcast",
    "reduce",
    "allreduce",
    "gather",
    "scatter",
    "allgather",
    "alltoall",
    "scan",
    "exscan",
    "reduce_scatter",
    // `Packet` kinds.
    "SHORT",
    "REQUEST",
    "SENDOK",
    "RNDV",
    "TERM",
    "FWD",
];

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::Protocol;

    #[test]
    fn trace_labels_list_every_emitted_label_once() {
        let env = Envelope {
            src: 0,
            tag: 0,
            context: 0,
            len: 0,
        };
        let packets = [
            Packet::Short { env },
            Packet::Request {
                env,
                sender_token: 0,
            },
            Packet::SendOk {
                sender_token: 0,
                sync_address: 0,
            },
            Packet::Rndv {
                env,
                sync_address: 0,
                offset: 0,
                total: 0,
            },
            Packet::Term,
            Packet::Fwd { final_dst: 0 },
        ];
        let ops = [
            CollOp::Barrier,
            CollOp::Bcast,
            CollOp::Reduce,
            CollOp::Allreduce,
            CollOp::Gather,
            CollOp::Scatter,
            CollOp::Allgather,
            CollOp::Alltoall,
            CollOp::Scan,
            CollOp::Exscan,
            CollOp::ReduceScatter,
        ];
        let mut emitted: Vec<&str> = Protocol::ALL.iter().map(|p| p.name()).collect();
        emitted.extend(["local", "adi"]);
        emitted.extend(ops.map(CollOp::name));
        emitted.extend(packets.iter().map(Packet::kind));
        for label in &emitted {
            let n = TRACE_LABELS.iter().filter(|l| *l == label).count();
            assert_eq!(n, 1, "{label:?} is listed {n} times");
        }
        assert_eq!(TRACE_LABELS.len(), emitted.len(), "an unused label");
    }
}
