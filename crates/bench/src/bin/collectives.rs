//! Extension benchmark: collective operations across the heterogeneous
//! meta-cluster (the application-level view the paper's introduction
//! motivates but never measures). For each collective and payload size,
//! reports the virtual completion time on the 6-node meta-cluster vs a
//! 6-node pure-SCI cluster — the price of spanning slow links.
//!
//! A second report (`coll_policy`) prices the collective algorithm
//! engine: the same operations on the meta-cluster under the default
//! `Seed` policy (the seed's binomial trees, byte-identical to the
//! historical numbers) vs `Adaptive` (two-level hierarchical
//! collectives, recursive-doubling / Rabenseifner allreduce, ring
//! allgather, scatter-gather bcast). The behaviour manifest pins every
//! row, and the bin asserts that `Adaptive` is strictly faster than
//! `Seed` for every operation at every payload of 256 KiB and up.
//! Virtual time is deterministic, so strict inequality cannot flake.
//!
//! `cargo run --release -p bench --bin collectives [-- <iters>]`

use bench::Report;
use marcel::VirtualDuration;
use mpich::{run_world, CollPolicy, Placement, ReduceOp, WorldConfig};
use simnet::{Protocol, Topology};

type CollFn = fn(&mpich::Communicator, usize) -> ();

fn run_collective(
    topology: Topology,
    config: WorldConfig,
    f: CollFn,
    size: usize,
    iters: usize,
) -> VirtualDuration {
    let results = run_world(topology, Placement::OneRankPerNode, config, move |comm| {
        f(comm, size); // warm-up
        comm.barrier();
        let t0 = marcel::now();
        for _ in 0..iters {
            f(comm, size);
        }
        comm.barrier();
        (marcel::now() - t0) / iters as u64
    })
    .expect("collective world completes");
    // The slowest rank's view bounds the operation.
    results.into_iter().max().unwrap()
}

fn bcast(comm: &mpich::Communicator, size: usize) {
    let data = (comm.rank() == 0).then(|| vec![0u8; size]);
    comm.bcast(0, data).unwrap();
}

fn allreduce(comm: &mpich::Communicator, size: usize) {
    let elems = (size / 8).max(1);
    comm.allreduce(&vec![0i64; elems], ReduceOp::Sum);
}

fn alltoall(comm: &mpich::Communicator, size: usize) {
    let parts = vec![vec![0u8; size / comm.size().max(1)]; comm.size()];
    comm.alltoall(parts).unwrap();
}

fn allgather(comm: &mpich::Communicator, size: usize) {
    comm.allgather(&vec![0u8; size / comm.size().max(1)]);
}

fn main() {
    let iters: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(2);
    let sizes = [64usize, 1024, 16 * 1024, 256 * 1024, 1 << 20];
    let mut r = Report::new(
        "collectives",
        "Collectives on the 6-node meta-cluster vs a pure SCI cluster (extension)",
    );
    for (name, f) in [
        ("bcast", bcast as CollFn),
        ("allreduce", allreduce as CollFn),
        ("alltoall", alltoall as CollFn),
    ] {
        let meta: bench::Series = sizes
            .iter()
            .map(|&s| {
                (
                    s,
                    run_collective(
                        Topology::meta_cluster(3),
                        WorldConfig::default(),
                        f,
                        s,
                        iters,
                    ),
                )
            })
            .collect();
        let sci: bench::Series = sizes
            .iter()
            .map(|&s| {
                (
                    s,
                    run_collective(
                        Topology::single_network(6, Protocol::Sisci),
                        WorldConfig::default(),
                        f,
                        s,
                        iters,
                    ),
                )
            })
            .collect();
        r.add_series(format!("{name}/meta"), &meta);
        r.add_series(format!("{name}/sci"), &sci);
        let ratio = meta.last().unwrap().1.as_secs_f64() / sci.last().unwrap().1.as_secs_f64();
        r.add_anchor(bench::Anchor::new(
            format!("{name} 1MB: meta-cluster / pure-SCI time ratio"),
            // The SCI/TCP bandwidth gap is 7.4x, but the tree
            // algorithms overlap several transfers, landing around 5x.
            5.0,
            ratio,
            "x",
        ));
    }
    r.print_time_table();
    r.print_anchors();
    if let Ok(p) = r.write_json() {
        println!("\n[json] {}", p.display());
    }

    // ------------------------------------------------------------------
    // The algorithm engine: Seed vs Adaptive on the meta-cluster.
    // ------------------------------------------------------------------
    let mut p = Report::new(
        "coll_policy",
        "Seed binomial vs the Adaptive algorithm engine on the 6-node meta-cluster (extension)",
    );
    // Expected 1MB speedups: a binomial bcast on this topology is
    // already bounded by a single slow-link crossing, so hierarchy can
    // only shave the duplicate crossing (~1x); allreduce and allgather
    // cross the slow link on several tree rounds that the two-level
    // algorithms collapse to one per direction (~2x).
    for (name, f, expected) in [
        ("bcast", bcast as CollFn, 1.0),
        ("allreduce", allreduce as CollFn, 2.0),
        ("allgather", allgather as CollFn, 2.0),
    ] {
        let [seed, adaptive] = [
            ("seed", CollPolicy::Seed),
            ("adaptive", CollPolicy::Adaptive),
        ]
        .map(|(pname, policy)| {
            let series: bench::Series = sizes
                .iter()
                .map(|&s| {
                    let config = WorldConfig::builder().coll(policy).build();
                    (
                        s,
                        run_collective(Topology::meta_cluster(3), config, f, s, iters),
                    )
                })
                .collect();
            p.add_series(format!("{name}/{pname}"), &series);
            series
        });
        let at_1mb = |s: &bench::Series| s.last().unwrap().1.as_secs_f64();
        p.add_anchor(bench::Anchor::new(
            format!("{name} 1MB: seed / adaptive speedup"),
            expected,
            at_1mb(&seed) / at_1mb(&adaptive),
            "x",
        ));
        for (&(size, s), &(_, a)) in seed.iter().zip(&adaptive) {
            assert!(
                size < 256 * 1024 || a < s,
                "{name} @ {size} B: adaptive ({a}) is not strictly faster than seed ({s})"
            );
        }
    }
    p.print_time_table();
    p.print_anchors();
    if let Ok(path) = p.write_json() {
        println!("\n[json] {}", path.display());
    }
}
