//! # bench — experiment harnesses for the MPICH/Madeleine reproduction
//!
//! One binary per table/figure of the paper's evaluation (§5):
//!
//! | binary   | reproduces | what it runs |
//! |----------|------------|--------------|
//! | `table1` | Table 1    | raw Madeleine latency + 8 MB bandwidth over TCP, BIP, SISCI |
//! | `table2` | Table 2    | ch_mad 0 B/4 B latency + 8 MB bandwidth over the three networks |
//! | `fig6`   | Figure 6   | TCP: ch_mad vs ch_p4 vs raw Madeleine (time + bandwidth) |
//! | `fig7`   | Figure 7   | SCI: ch_mad vs ScaMPI vs SCI-MPICH vs raw Madeleine |
//! | `fig8`   | Figure 8   | Myrinet: ch_mad vs MPI-GM vs MPICH-PM vs raw Madeleine |
//! | `fig9`   | Figure 9   | SCI alone vs SCI + TCP polling thread |
//! | `multirail` | "Fig 10" (extension) | multi-rail striping: SCI+BIP dual rail vs each rail alone |
//! | `degraded` | robustness (extension) | dual-rail striping with a lossy or hard-down Myrinet rail |
//! | `overhead` | §5.2–5.4 | packing-vs-handling decomposition of the ch_mad gap, from span measurements |
//! | `trace`  | Figure 4   | typed event timeline of one ping-pong; `--chrome` writes Perfetto JSON |
//! | `all`    | everything | runs the nine experiments back to back |
//!
//! The design-choice ablations of DESIGN.md §5 are a `#[test]`
//! (`tests/devices.rs`), and [`alloc`] is the counting allocator the
//! host-cost bins and tests install.

pub mod alloc;
pub mod experiments;
pub mod pingpong;
pub mod report;

pub use pingpong::{
    bandwidth_mb_s, bandwidth_sizes, fig9_topology, latency_sizes, mpi_pingpong,
    mpi_pingpong_counters, mpi_pingpong_metrics, mpi_pingpong_session, multirail_topology,
    raw_madeleine_pingpong, raw_madeleine_pingpong_metrics, Series,
};
pub use report::{Anchor, NamedSeries, Report};
