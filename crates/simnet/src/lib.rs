//! # simnet — network substrate models for the MPICH/Madeleine reproduction
//!
//! The original system runs over three 2001-era networks (TCP on
//! Fast-Ethernet, SISCI on Dolphin SCI, BIP on Myrinet/LANai 4.3). This
//! crate replaces the physical NICs and kernel stacks with *parametric
//! link models* ([`LinkModel`]) calibrated against the paper's Table 1,
//! plus the cluster [`Topology`] description (nodes, SMP width, which
//! networks connect which node subsets).
//!
//! The crate is deliberately pure data + arithmetic: actual message
//! movement (poll sources, channels, timestamps) lives in the
//! `madeleine` crate, which charges the costs computed here to the
//! virtual clocks of the `marcel` kernel.

pub mod fault;
pub mod model;
pub mod protocol;
pub mod rng;
pub mod topology;

pub use fault::{Fate, FaultPlan};
pub use model::{Jitter, LinkModel};
pub use protocol::{elect_switch_point, Protocol};
pub use topology::{Network, NetworkId, Node, NodeId, NodeModel, Topology, TopologyError};
