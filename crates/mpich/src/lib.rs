//! # mpich — the MPI stack of the MPICH/Madeleine reproduction
//!
//! Layered exactly like the paper's Figure 3:
//!
//! ```text
//! MPI API                  Communicator: send/recv/isend/collectives
//! Generic part             collectives, groups, contexts, datatypes
//! Generic ADI code         request queues (Engine), protocol selection
//! Device interface         Device trait + locality dispatch (DeviceSet)
//!   ch_self                intra-process loop-back
//!   smp_plug               intra-node shared memory
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

pub use adi::{AdiCosts, Device, DeviceSet, Locality, PolicyMode, ProtocolPolicy};
pub use cart::CartComm;
pub use coll::{CollAlgorithm, CollEngine, CollError, CollOp, CollPolicy, CommClusters};
pub use comm::{
    CommError, CommRequest, Communicator, Endpoint, FromPayload, IntoPayload, MpiEnv,
    PersistentRecv, PersistentSend,
};
pub use datatype::{from_bytes, to_bytes, BaseType, Datatype, MpiScalar};
pub use device::{ChMad, ChMadConfig, ChP4, ChP4Costs, ChSelf, Packet, SmpPlug};
pub use engine::{Engine, EngineCapture, EngineError};
pub use group::Group;
pub use marcel::{ExecPolicy, PollPolicy};
pub use matching::{PostedStore, UnexpectedStore};
pub use op::ReduceOp;
pub use request::{wait_all, wait_any, Request};
pub use types::{Envelope, MatchSpec, Status, Tag};
pub use vci::vci_for;
pub use world::{
    run_world, run_world_report, thread_metas, ConfigError, Placement, RemoteDeviceKind,
    StreamHook, WorldCapture, WorldConfig, WorldConfigBuilder, WorldReport,
};
