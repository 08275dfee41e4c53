//! The devices plugged under the ADI: `ch_self` (intra-process) and
//! `smp_plug` (intra-node), one delivery function in `local`;
//! `ch_mad` (multi-protocol inter-node — the paper's contribution) and
//! `ch_p4` (classical TCP baseline).

pub mod ch_mad;
pub mod ch_p4;
pub(crate) mod local;
pub mod packet;

pub(crate) use ch_mad::ChMad;
pub use ch_mad::ChMadConfig;
pub(crate) use ch_p4::ChP4;
pub use ch_p4::ChP4Costs;
pub use packet::Packet;
