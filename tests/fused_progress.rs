//! Fused-progress properties: one polling thread per rank (the polling
//! loop over a slice of every (channel, VCI) endpoint of the rank)
//! instead of one thread per endpoint.
//!
//! * MPI-level results are identical to the unfused, paper-faithful
//!   model — fusing changes thread structure (and hence interleavings
//!   and exact timings), never semantics.
//! * A fused world is deterministic: repeated runs agree bit for bit,
//!   results and virtual end times.
//! * Fused progress composes with multi-VCI lanes — the combination an
//!   8k-rank world runs on.

use mpich::{run_world, Placement, ReduceOp, WorldConfig};
use simnet::Topology;

/// Tagged ring traffic, a rotating-root bcast, and an allreduce: a
/// digest that depends on every delivered payload but not on host
/// interleavings. Returns the digest plus the rank's virtual end time.
fn workload(comm: &mpich::Communicator) -> (u64, u64) {
    let me = comm.rank();
    let n = comm.size();
    let ep = comm.endpoint();
    let right = (me + 1) % n;
    let left = (me + n - 1) % n;
    let mut digest = 0u64;
    for tag in 0..3i32 {
        ep.send(&[me as u8, tag as u8, 7], right, tag).unwrap();
    }
    for tag in 0..3i32 {
        let (data, st) = ep.recv::<Vec<u8>>(8, Some(left), Some(tag)).unwrap();
        assert_eq!(data, vec![left as u8, tag as u8, 7]);
        digest = digest
            .wrapping_mul(31)
            .wrapping_add(st.tag as u64 ^ data[0] as u64);
    }
    let root_payload = comm
        .bcast(1, if me == 1 { Some(vec![3u8, 5, 8]) } else { None })
        .unwrap();
    digest = digest.wrapping_mul(31) + root_payload[2] as u64;
    digest =
        digest.wrapping_add(comm.allreduce(&[me as i64 + 1], ReduceOp::Sum)[0] as u64 * n as u64);
    (digest, marcel::now().0)
}

fn run(topology: Topology, config: WorldConfig) -> Vec<(u64, u64)> {
    run_world(topology, Placement::OneRankPerNode, config, workload).unwrap()
}

/// Fused progress must deliver exactly the unfused MPI results on a
/// multi-protocol topology (two fast islands + TCP interconnect, so
/// each rank polls several channels). End times legitimately differ —
/// only the semantic digests are compared.
#[test]
fn fused_matches_unfused_results() {
    let unfused = run(Topology::meta_cluster(3), WorldConfig::default());
    let fused = run(
        Topology::meta_cluster(3),
        WorldConfig::builder().fused_progress(true).build(),
    );
    let digests = |v: &[(u64, u64)]| v.iter().map(|(d, _)| *d).collect::<Vec<_>>();
    assert_eq!(digests(&unfused), digests(&fused));
}

/// A fused world replays bit-identically: results *and* end times.
#[test]
fn fused_world_is_deterministic() {
    let config = || WorldConfig::builder().fused_progress(true).build();
    let a = run(Topology::meta_cluster(3), config());
    let b = run(Topology::meta_cluster(3), config());
    assert_eq!(a, b);
}

/// The 8k-rank configuration in miniature: fused progress + multi-VCI
/// lanes on a fat-tree, both at once.
#[test]
fn fused_composes_with_vcis() {
    let config = || WorldConfig::builder().vcis(2).fused_progress(true).build();
    let a = run(Topology::fat_tree(4), config());
    let b = run(Topology::fat_tree(4), config());
    assert_eq!(a, b, "fused + vcis must be deterministic");
    // And semantically equal to the classic model.
    let classic = run(Topology::fat_tree(4), WorldConfig::default());
    let digests = |v: &[(u64, u64)]| v.iter().map(|(d, _)| *d).collect::<Vec<_>>();
    assert_eq!(digests(&a), digests(&classic));
}
