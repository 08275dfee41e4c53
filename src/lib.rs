//! # mpich-madeleine — facade crate
//!
//! Re-exports the full MPICH/Madeleine reproduction (see the
//! [README](https://example.org/mpich-madeleine-rs) and `DESIGN.md`):
//!
//! * [`marcel`] — the deterministic virtual-time thread kernel;
//! * [`simnet`] — calibrated network models and cluster topologies;
//! * [`madeleine`] — the Madeleine II communication library;
//! * [`mpich`] — the MPI stack with the multi-protocol `ch_mad` device;
//! * [`baselines`] — models of the paper's comparator MPIs.
//!
//! The [`prelude`] pulls in everything a typical application needs:
//!
//! ```
//! use mpich_madeleine::prelude::*;
//!
//! let results = run_world(
//!     Topology::meta_cluster(2),
//!     Placement::OneRankPerNode,
//!     WorldConfig::default(),
//!     |comm| comm.allreduce(&[comm.rank() as i64], ReduceOp::Sum)[0],
//! )
//! .unwrap();
//! assert!(results.iter().all(|&s| s == 6));
//! ```

pub use baselines;
pub use madeleine;
pub use marcel;
pub use mpich;
pub use simnet;

/// Everything a typical simulated MPI application needs.
pub mod prelude {
    pub use marcel::{CostModel, Kernel, VirtualDuration, VirtualTime};
    pub use mpich::{
        run_world, run_world_report, BaseType, CartComm, ChMadConfig, Communicator, Datatype,
        Placement, ReduceOp, RemoteDeviceKind, Request, Status, WorldConfig, WorldReport,
    };
    pub use simnet::{NodeId, Protocol, Topology};
}
