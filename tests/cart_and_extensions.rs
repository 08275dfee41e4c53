//! Cartesian topologies, the extended collectives (exscan,
//! reduce_scatter), and their interaction with the heterogeneous
//! cluster.

use mpich::{run_world, CartComm, Placement, ReduceOp, WorldConfig};
use simnet::{Protocol, Topology};

fn world<T: Send + 'static>(
    n: usize,
    f: impl Fn(&mpich::Communicator) -> T + Send + Sync + 'static,
) -> Vec<T> {
    run_world(
        Topology::single_network(n, Protocol::Sisci),
        Placement::OneRankPerNode,
        WorldConfig::default(),
        f,
    )
    .expect("world completes")
}

#[test]
fn cart_coords_round_trip() {
    let results = world(6, |comm| {
        let cart = CartComm::create(comm, &[2, 3], &[false, true]);
        let coords = cart.my_coords();
        let back = cart
            .rank_of(&coords.iter().map(|&c| c as isize).collect::<Vec<_>>())
            .unwrap();
        (coords, back)
    });
    for (rank, (coords, back)) in results.iter().enumerate() {
        assert_eq!(*back, rank);
        assert_eq!(coords[0], rank / 3);
        assert_eq!(coords[1], rank % 3);
    }
}

#[test]
fn cart_shift_boundaries_and_wrap() {
    let results = world(6, |comm| {
        let cart = CartComm::create(comm, &[2, 3], &[false, true]);
        (cart.shift(0, 1), cart.shift(1, 1))
    });
    // Rank 0 = (0,0): row shift: src None (no row -1), dst (1,0)=3.
    assert_eq!(results[0].0, (None, Some(3)));
    // Column shift is periodic: src (0,2)=2, dst (0,1)=1.
    assert_eq!(results[0].1, (Some(2), Some(1)));
    // Rank 5 = (1,2): row shift: src (0,2)=2, dst None.
    assert_eq!(results[5].0, (Some(2), None));
    // Column wrap: src (1,1)=4, dst (1,0)=3.
    assert_eq!(results[5].1, (Some(4), Some(3)));
}

#[test]
fn cart_halo_exchange_2d() {
    // A 2x3 periodic grid: everyone sendrecvs with the +1 column
    // neighbour; values must rotate within a row.
    let results = world(6, |comm| {
        let cart = CartComm::create(comm, &[2, 3], &[true, true]);
        let (src, dst) = cart.shift(1, 1);
        let (data, _) = comm
            .endpoint()
            .sendrecv::<_, Vec<u8>>(
                &[comm.rank() as u8],
                dst.unwrap(),
                0,
                8,
                Some(src.unwrap()),
                Some(0),
            )
            .unwrap();
        data[0] as usize
    });
    // Rank r=(i,j) receives from (i, j-1 mod 3).
    assert_eq!(results, vec![2, 0, 1, 5, 3, 4]);
}

#[test]
fn exscan_prefaccording_to_spec() {
    let results = world(5, |comm| {
        let me = comm.rank() as i64 + 1;
        comm.exscan(&[me], ReduceOp::Sum)
    });
    assert_eq!(results[0], None);
    assert_eq!(results[1], Some(vec![1]));
    assert_eq!(results[2], Some(vec![3]));
    assert_eq!(results[3], Some(vec![6]));
    assert_eq!(results[4], Some(vec![10]));
}

#[test]
fn reduce_scatter_distributes_blocks() {
    let n = 4;
    let results = world(n, move |comm| {
        let me = comm.rank() as i64;
        // Contribution: element (r*2 + k) gets value me + 1 so the
        // reduction per element is sum(1..=n) = 10.
        let contribution: Vec<i64> = (0..n * 2).map(|i| (me + 1) * (i as i64 + 1)).collect();
        comm.reduce_scatter(&contribution, 2, ReduceOp::Sum)
            .unwrap()
    });
    // Sum over ranks of (me+1) = 10; element i of the reduction is
    // 10 * (i + 1). Rank r gets elements 2r, 2r+1.
    for (r, block) in results.iter().enumerate() {
        let base = 2 * r as i64;
        assert_eq!(block, &vec![10 * (base + 1), 10 * (base + 2)]);
    }
}

#[test]
fn balanced_dims_cover_meta_cluster() {
    // 2D decomposition of the 6-node meta-cluster with a halo exchange
    // across heterogeneous links.
    let results = run_world(
        Topology::meta_cluster(3),
        Placement::OneRankPerNode,
        WorldConfig::default(),
        |comm| {
            let dims = CartComm::balanced_dims(comm.size(), 2);
            let cart = CartComm::create(comm, &dims, &[true, true]);
            let (src, dst) = cart.shift(0, 1);
            let (data, _) = comm
                .endpoint()
                .sendrecv::<_, Vec<u8>>(
                    &mpich::to_bytes(&[comm.rank() as i64]),
                    dst.unwrap(),
                    0,
                    16,
                    Some(src.unwrap()),
                    Some(0),
                )
                .unwrap();
            mpich::from_bytes::<i64>(&data)[0]
        },
    )
    .unwrap();
    // Everyone received from a distinct neighbour.
    let mut seen = results.clone();
    seen.sort_unstable();
    assert_eq!(seen, (0..6).map(|r| r as i64).collect::<Vec<_>>());
}

#[test]
fn exscan_and_scan_agree() {
    let results = world(6, |comm| {
        let me = [comm.rank() as i64 * 3 + 1];
        let inclusive = comm.scan(&me, ReduceOp::Sum)[0];
        let exclusive = comm.exscan(&me, ReduceOp::Sum).map(|v| v[0]);
        (inclusive, exclusive)
    });
    for (r, (incl, excl)) in results.iter().enumerate() {
        let mine = r as i64 * 3 + 1;
        match excl {
            None => assert_eq!(r, 0),
            Some(e) => assert_eq!(e + mine, *incl),
        }
    }
}
