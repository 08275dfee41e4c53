//! 1-D Jacobi heat diffusion across a heterogeneous cluster of clusters —
//! the workload class the paper's introduction motivates: a single MPI
//! application spanning an SCI cluster and a Myrinet cluster joined by
//! Fast-Ethernet, with every halo exchange riding the fastest network
//! available between its two ranks.
//!
//! ```sh
//! cargo run --example heterogeneous_cluster
//! ```

use mpich::{run_world_report, Placement, ReduceOp, WorldConfig};
use simnet::{NodeId, Topology};

const CELLS_PER_RANK: usize = 4096;
const ITERATIONS: usize = 50;

fn main() {
    let topology = Topology::meta_cluster(2); // 4 nodes
                                              // Show which network each neighbouring pair will use.
    println!("halo links (rank pair -> network):");
    for a in 0..3usize {
        let b = a + 1;
        let best = topology
            .best_network_between(NodeId(a), NodeId(b))
            .expect("meta-cluster is fully connected");
        println!("  ranks {a}-{b}: {}", topology.network(best).model.name);
    }

    let report = run_world_report(
        topology,
        Placement::OneRankPerNode,
        WorldConfig::default(),
        |comm| {
            let me = comm.rank();
            let n = comm.size();
            // Local strip of the rod, hot at the global left end.
            let mut cells = vec![0.0f64; CELLS_PER_RANK + 2]; // +2 halo
            if me == 0 {
                cells[0] = 100.0; // boundary condition
            }
            let mut residual = f64::INFINITY;
            for _ in 0..ITERATIONS {
                // Halo exchange with neighbours (fastest shared network,
                // chosen by ch_mad per pair).
                if me + 1 < n {
                    let (incoming, _): (Vec<f64>, _) = comm
                        .endpoint()
                        .sendrecv(
                            &[cells[CELLS_PER_RANK]],
                            me + 1,
                            1,
                            8,
                            Some(me + 1),
                            Some(2),
                        )
                        .unwrap();
                    cells[CELLS_PER_RANK + 1] = incoming[0];
                }
                if me > 0 {
                    let (incoming, _): (Vec<f64>, _) = comm
                        .endpoint()
                        .sendrecv(&[cells[1]], me - 1, 2, 8, Some(me - 1), Some(1))
                        .unwrap();
                    cells[0] = incoming[0];
                }
                // Jacobi sweep; model the FLOP cost in virtual time too.
                let mut next = cells.clone();
                let mut local_delta: f64 = 0.0;
                for i in 1..=CELLS_PER_RANK {
                    next[i] = 0.5 * (cells[i - 1] + cells[i + 1]);
                    local_delta = local_delta.max((next[i] - cells[i]).abs());
                }
                // ~3 flops/cell at ~100 MFLOPS on a PII-450.
                marcel::advance(marcel::VirtualDuration::from_nanos(
                    (CELLS_PER_RANK * 3) as u64 * 10,
                ));
                cells = next;
                // Global convergence check: an allreduce spanning both
                // clusters every iteration.
                residual = comm.allreduce(&[local_delta], ReduceOp::Max)[0];
            }
            let heat: f64 = cells[1..=CELLS_PER_RANK].iter().sum();
            (me, heat, residual)
        },
    )
    .expect("jacobi world runs");

    println!("\nrank  local-heat  final-residual");
    for (me, heat, residual) in &report.results {
        println!("{me:>4}  {heat:>10.4}  {residual:>14.6}");
    }
    let residuals: Vec<f64> = report.results.iter().map(|(_, _, r)| *r).collect();
    assert!(
        residuals.windows(2).all(|w| w[0] == w[1]),
        "allreduce agreement"
    );
    println!(
        "\n{} Jacobi iterations across 2 clusters took {:.3} ms of virtual time",
        ITERATIONS,
        report.kernel.end_time().as_secs_f64() * 1e3
    );
}
