//! Collective operations across topologies, sizes, roots and devices,
//! checked against sequential references.

use mpich::{run_world, Placement, ReduceOp, WorldConfig};
use simnet::{Protocol, Topology};

fn world<T: Send + 'static>(
    n: usize,
    f: impl Fn(&mpich::Communicator) -> T + Send + Sync + 'static,
) -> Vec<T> {
    run_world(
        Topology::single_network(n, Protocol::Bip),
        Placement::OneRankPerNode,
        WorldConfig::default(),
        f,
    )
    .expect("world completes")
}

/// Run over the heterogeneous meta-cluster with SMP placement: ranks
/// communicate through ch_self, smp_plug AND ch_mad at once.
fn hetero_world<T: Send + 'static>(
    f: impl Fn(&mpich::Communicator) -> T + Send + Sync + 'static,
) -> Vec<T> {
    run_world(
        Topology::meta_cluster(2),
        Placement::OneRankPerCpu, // 8 ranks on 4 dual-CPU nodes
        WorldConfig::default(),
        f,
    )
    .expect("hetero world completes")
}

#[test]
fn barrier_synchronizes_clocks() {
    let results = world(5, |comm| {
        // Rank r computes r ms, then everyone meets at the barrier.
        marcel::advance(marcel::VirtualDuration::from_millis(comm.rank() as u64));
        comm.barrier();
        marcel::now()
    });
    // Nobody can leave the barrier before the slowest rank (4 ms) got in.
    for t in &results {
        assert!(
            t.as_secs_f64() >= 0.004,
            "a rank left the barrier at {t}, before the slowest arrival"
        );
    }
}

#[test]
fn bcast_from_every_root() {
    for root in 0..4 {
        let results = world(4, move |comm| {
            let data = (comm.rank() == root).then(|| vec![root as u8; 100]);
            comm.bcast::<u8>(root, data).unwrap()
        });
        for r in results {
            assert_eq!(r, vec![root as u8; 100]);
        }
    }
}

#[test]
fn bcast_non_power_of_two_and_large() {
    let results = world(7, |comm| {
        let payload: Option<Vec<u8>> =
            (comm.rank() == 3).then(|| (0..100_000).map(|i| (i % 251) as u8).collect());
        comm.bcast::<u8>(3, payload).unwrap()
    });
    assert_eq!(results.len(), 7);
    for r in &results {
        assert_eq!(r.len(), 100_000);
        assert!(r.iter().enumerate().all(|(i, &b)| b == (i % 251) as u8));
    }
}

#[test]
fn reduce_sum_matches_reference() {
    let results = world(6, |comm| {
        let me = comm.rank() as i64;
        let contribution = vec![me, me * me, 1];
        comm.reduce(2, &contribution, ReduceOp::Sum).unwrap()
    });
    for (rank, r) in results.iter().enumerate() {
        if rank == 2 {
            // sum 0..=5 = 15; sum of squares = 55; count = 6.
            assert_eq!(r.as_deref(), Some(&[15i64, 55, 6][..]));
        } else {
            assert!(r.is_none());
        }
    }
}

#[test]
fn allreduce_all_ops() {
    let results = world(4, |comm| {
        let me = comm.rank() as i64 + 1; // 1..=4
        (
            comm.allreduce(&[me], ReduceOp::Sum)[0],
            comm.allreduce(&[me], ReduceOp::Prod)[0],
            comm.allreduce(&[me], ReduceOp::Min)[0],
            comm.allreduce(&[me], ReduceOp::Max)[0],
            comm.allreduce(&[me % 2], ReduceOp::Land)[0],
            comm.allreduce(&[me % 2], ReduceOp::Lor)[0],
        )
    });
    for r in results {
        assert_eq!(r, (10, 24, 1, 4, 0, 1));
    }
}

#[test]
fn allreduce_maxloc_finds_owner() {
    let results = world(5, |comm| {
        let me = comm.rank() as i64;
        // Value peaks at rank 3.
        let value = if me == 3 { 100 } else { me };
        comm.allreduce(&[value, me], ReduceOp::MaxLoc)
    });
    for r in results {
        assert_eq!(r, vec![100, 3]);
    }
}

#[test]
fn gather_variable_sizes() {
    let results = world(4, |comm| {
        let me = comm.rank();
        let data = vec![me as u8; me + 1]; // rank r contributes r+1 bytes
        comm.gather(0, &data).unwrap()
    });
    let gathered = results[0].as_ref().expect("root has the parts");
    for (r, part) in gathered.iter().enumerate() {
        assert_eq!(part, &vec![r as u8; r + 1]);
    }
    assert!(results[1].is_none());
}

#[test]
fn scatter_distributes_parts() {
    let results = world(4, |comm| {
        let parts = (comm.rank() == 1).then(|| {
            (0..4)
                .map(|d| vec![d as u8; d * 10 + 1])
                .collect::<Vec<_>>()
        });
        comm.scatter::<u8>(1, parts).unwrap()
    });
    for (r, part) in results.iter().enumerate() {
        assert_eq!(part, &vec![r as u8; r * 10 + 1]);
    }
}

#[test]
fn allgather_everyone_sees_everything() {
    let results = world(5, |comm| {
        let me = comm.rank() as u64;
        comm.allgather(&[me * 7])
    });
    for r in results {
        assert_eq!(r, vec![vec![0], vec![7], vec![14], vec![21], vec![28]]);
    }
}

#[test]
fn alltoall_transposes() {
    let n = 4;
    let results = world(n, move |comm| {
        let me = comm.rank();
        // parts[d] = [me, d]
        let parts: Vec<Vec<u8>> = (0..n).map(|d| vec![me as u8, d as u8]).collect();
        comm.alltoall::<u8>(parts).unwrap()
    });
    for (me, got) in results.iter().enumerate() {
        for (src, part) in got.iter().enumerate() {
            assert_eq!(part, &vec![src as u8, me as u8], "rank {me} from {src}");
        }
    }
}

#[test]
fn scan_prefix_sums() {
    let results = world(6, |comm| {
        let me = comm.rank() as i64 + 1;
        comm.scan(&[me], ReduceOp::Sum)[0]
    });
    assert_eq!(results, vec![1, 3, 6, 10, 15, 21]);
}

#[test]
fn collectives_on_heterogeneous_smp_world() {
    // 8 ranks across ch_self/smp_plug/ch_mad simultaneously.
    let results = hetero_world(|comm| {
        let me = comm.rank() as i64;
        let sum = comm.allreduce(&[me], ReduceOp::Sum)[0];
        let gathered = comm.allgather(&[me * me]);
        let flat: Vec<i64> = gathered.into_iter().map(|v| v[0]).collect();
        (sum, flat)
    });
    for (sum, squares) in results {
        assert_eq!(sum, 28); // 0+..+7
        assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
    }
}

#[test]
fn dup_isolates_contexts() {
    let results = world(3, |comm| {
        let ep = comm.endpoint();
        let dup = comm.dup();
        if comm.rank() == 0 {
            // Same (src, tag) on both communicators: contexts must keep
            // them apart.
            ep.send(&[1u8], 1, 5).unwrap();
            dup.endpoint().send(&[2u8], 1, 5).unwrap();
            0
        } else if comm.rank() == 1 {
            // Receive from the dup FIRST.
            let (from_dup, _) = dup.endpoint().recv::<Vec<u8>>(8, Some(0), Some(5)).unwrap();
            let (from_orig, _) = ep.recv::<Vec<u8>>(8, Some(0), Some(5)).unwrap();
            (from_dup[0] * 10 + from_orig[0]) as usize
        } else {
            0
        }
    });
    assert_eq!(results[1], 21);
}

#[test]
fn split_builds_disjoint_communicators() {
    let results = world(6, |comm| {
        let me = comm.rank();
        let color = (me % 2) as i32; // evens / odds
        let sub = comm.split(color, me as i32).expect("defined color");
        let sub_sum = sub.allreduce(&[me as i64], ReduceOp::Sum)[0];
        (sub.rank(), sub.size(), sub_sum)
    });
    // Evens {0,2,4}: sum 6; odds {1,3,5}: sum 9.
    for (me, (sub_rank, sub_size, sum)) in results.iter().enumerate() {
        assert_eq!(*sub_size, 3);
        assert_eq!(*sub_rank, me / 2);
        assert_eq!(*sum, if me % 2 == 0 { 6 } else { 9 });
    }
}

#[test]
fn split_undefined_color_returns_none() {
    let results = world(4, |comm| {
        let color = if comm.rank() == 0 { -1 } else { 0 };
        match comm.split(color, 0) {
            None => (true, 0),
            Some(sub) => (false, sub.size()),
        }
    });
    assert_eq!(results[0], (true, 0));
    for r in &results[1..] {
        assert_eq!(*r, (false, 3));
    }
}

#[test]
fn split_by_key_reorders() {
    let results = world(4, |comm| {
        let me = comm.rank();
        // Reverse order via descending keys.
        let sub = comm.split(0, -(me as i32)).unwrap();
        sub.rank()
    });
    assert_eq!(results, vec![3, 2, 1, 0]);
}

#[test]
fn nested_split_of_dup() {
    let results = hetero_world(|comm| {
        let dup = comm.dup();
        let half = dup
            .split((comm.rank() / 4) as i32, comm.rank() as i32)
            .unwrap();
        let sum = half.allreduce(&[comm.rank() as i64], ReduceOp::Sum)[0];
        (half.size(), sum)
    });
    for (me, (size, sum)) in results.iter().enumerate() {
        assert_eq!(*size, 4);
        assert_eq!(*sum, if me < 4 { 6 } else { 22 });
    }
}

#[test]
fn reduce_float_deterministic_across_runs() {
    let run = || {
        world(5, |comm| {
            let me = comm.rank();
            let xs: Vec<f64> = (0..64).map(|i| ((me * 64 + i) as f64).sin()).collect();
            comm.allreduce(&xs, ReduceOp::Sum)
        })
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same tree, same order, bit-identical floats");
}

#[test]
fn collectives_over_ch_p4() {
    let results = run_world(
        Topology::single_network(4, Protocol::Tcp),
        Placement::OneRankPerNode,
        WorldConfig::ch_p4(),
        |comm| comm.allreduce(&[comm.rank() as i64 + 1], ReduceOp::Prod)[0],
    )
    .unwrap();
    assert_eq!(results, vec![24; 4]);
}

#[test]
fn single_rank_world_collectives_are_trivial() {
    let results = run_world(
        Topology::single_network(2, Protocol::Tcp),
        Placement::OneRankPerNode,
        WorldConfig::default(),
        |comm| {
            // Split into singleton communicators, then run collectives
            // inside one rank.
            let solo = comm.split(comm.rank() as i32, 0).unwrap();
            assert_eq!(solo.size(), 1);
            solo.barrier();
            let b = solo.bcast::<u8>(0, Some(vec![5])).unwrap();
            let r = solo.allreduce(&[41i64], ReduceOp::Sum);
            let g = solo.allgather(&[7u8]);
            (b, r[0], g.len())
        },
    )
    .unwrap();
    for (b, r, g) in results {
        assert_eq!((b, r, g), (vec![5], 41, 1));
    }
}

#[test]
fn split_by_node_groups_smp_ranks() {
    let results = hetero_world(|comm| {
        let node_comm = comm.split_by_node();
        // 4 dual-CPU nodes -> every node communicator has 2 ranks.
        let local_sum = node_comm.allreduce(&[comm.rank() as i64], ReduceOp::Sum)[0];
        (node_comm.size(), node_comm.rank(), local_sum)
    });
    for (world_rank, (size, local, sum)) in results.iter().enumerate() {
        assert_eq!(*size, 2);
        assert_eq!(*local, world_rank % 2);
        let node_base = (world_rank / 2 * 2) as i64;
        assert_eq!(*sum, node_base * 2 + 1);
    }
}

#[test]
fn hierarchical_allreduce_via_node_split() {
    // Reduce within each node over smp_plug, then across node leaders
    // over ch_mad, then broadcast back — the classic two-level pattern.
    let results = hetero_world(|comm| {
        let node_comm = comm.split_by_node();
        let node_total = node_comm
            .reduce(0, &[comm.rank() as i64], ReduceOp::Sum)
            .unwrap();
        let leaders = comm.split(
            if node_comm.rank() == 0 { 0 } else { -1 },
            comm.rank() as i32,
        );
        let global = match (&node_total, &leaders) {
            (Some(t), Some(lc)) => Some(lc.allreduce(t, ReduceOp::Sum)[0]),
            _ => None,
        };
        node_comm.bcast::<i64>(0, global.map(|g| vec![g])).unwrap()[0]
    });
    assert_eq!(results, vec![28; 8]); // 0+..+7
}
