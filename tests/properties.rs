//! Property-based tests (proptest) over the core data structures and
//! protocol invariants.

use bytes::Bytes;
use madeleine::{ReceiveMode, SendMode, Session};
use marcel::{CostModel, Kernel};
use mpich::{BaseType, Datatype, ReduceOp};
use proptest::prelude::*;
use simnet::Protocol;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Datatype layout engine
// ---------------------------------------------------------------------

/// A random (bounded) datatype tree.
fn arb_datatype() -> impl Strategy<Value = Arc<Datatype>> {
    let base = prop_oneof![
        Just(Datatype::base(BaseType::Byte)),
        Just(Datatype::base(BaseType::Int32)),
        Just(Datatype::base(BaseType::Float64)),
    ];
    base.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (1usize..4, inner.clone()).prop_map(|(count, t)| Datatype::contiguous(count, t)),
            (1usize..3, 1usize..3, 0isize..4, inner.clone()).prop_map(
                |(count, blocklen, gap, t)| {
                    // stride >= blocklen keeps displacements non-negative.
                    Datatype::vector(count, blocklen, blocklen as isize + gap, t)
                }
            ),
            (1usize..3, 0isize..3, inner.clone()).prop_map(|(count, gap, t)| {
                let stride = (t.extent() as isize + gap * 2).max(1);
                Datatype::hvector(count, 1, stride, t)
            }),
            (
                proptest::collection::vec((1usize..3, 0isize..5), 1..3),
                inner
            )
                .prop_map(|(mut blocks, t)| {
                    // Make displacements non-overlapping and ascending.
                    let mut cursor = 0isize;
                    for (len, displ) in blocks.iter_mut() {
                        *displ += cursor;
                        cursor = *displ + *len as isize;
                    }
                    Datatype::indexed(blocks, t)
                }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn datatype_pack_unpack_roundtrip(dt in arb_datatype(), count in 1usize..4) {
        let extent = dt.extent();
        let total = extent * count;
        let src: Vec<u8> = (0..total).map(|i| (i % 251) as u8).collect();
        let packed = dt.pack(&src, count);
        prop_assert_eq!(packed.len(), dt.size() * count);
        let mut dst = vec![0xAAu8; total];
        let used = dt.unpack(&mut dst, &packed, count);
        prop_assert_eq!(used, packed.len());
        // Re-packing the unpacked buffer must reproduce the packed form.
        prop_assert_eq!(dt.pack(&dst, count), packed);
    }

    #[test]
    fn datatype_size_never_exceeds_extent(dt in arb_datatype()) {
        prop_assert!(dt.size() <= dt.extent().max(1), "size {} extent {}", dt.size(), dt.extent());
    }

    #[test]
    fn datatype_walk_is_disjoint_and_in_bounds(dt in arb_datatype()) {
        let extent = dt.extent();
        let mut covered = vec![false; extent];
        let mut ok = true;
        dt.walk(0, &mut |off, len| {
            #[allow(clippy::needless_range_loop)]
            for i in off..off + len {
                if i >= extent || covered[i] {
                    ok = false;
                } else {
                    covered[i] = true;
                }
            }
        });
        prop_assert!(ok, "overlapping or out-of-bounds byte runs");
        prop_assert_eq!(covered.iter().filter(|c| **c).count(), dt.size());
    }

    #[test]
    fn scalar_bytes_roundtrip(xs in proptest::collection::vec(any::<f64>(), 0..64)) {
        let bytes = mpich::to_bytes(&xs);
        let back: Vec<f64> = mpich::from_bytes(&bytes);
        prop_assert_eq!(xs.len(), back.len());
        for (a, b) in xs.iter().zip(&back) {
            prop_assert!(a == b || (a.is_nan() && b.is_nan()));
        }
    }
}

// ---------------------------------------------------------------------
// Reduction operators
// ---------------------------------------------------------------------

fn fold_ints(op: ReduceOp, chunks: &[Vec<i64>]) -> Vec<i64> {
    let mut acc = mpich::to_bytes(&chunks[0]);
    for c in &chunks[1..] {
        mpich::op::apply(BaseType::Int64, op, &mut acc, &mpich::to_bytes(c));
    }
    mpich::from_bytes(&acc)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn integer_ops_are_commutative(
        a in proptest::collection::vec(any::<i64>(), 4),
        b in proptest::collection::vec(any::<i64>(), 4),
    ) {
        for op in [ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Min, ReduceOp::Max,
                   ReduceOp::Band, ReduceOp::Bor, ReduceOp::Land, ReduceOp::Lor] {
            let ab = fold_ints(op, &[a.clone(), b.clone()]);
            let ba = fold_ints(op, &[b.clone(), a.clone()]);
            prop_assert_eq!(ab, ba, "op {:?} not commutative", op);
        }
    }

    #[test]
    fn integer_ops_are_associative(
        a in proptest::collection::vec(any::<i64>(), 3),
        b in proptest::collection::vec(any::<i64>(), 3),
        c in proptest::collection::vec(any::<i64>(), 3),
    ) {
        for op in [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max, ReduceOp::Band, ReduceOp::Bor] {
            let left = fold_ints(op, &[fold_ints(op, &[a.clone(), b.clone()]), c.clone()]);
            let right = fold_ints(op, &[a.clone(), fold_ints(op, &[b.clone(), c.clone()])]);
            prop_assert_eq!(left, right, "op {:?} not associative", op);
        }
    }

    #[test]
    fn minloc_picks_global_argmin(vals in proptest::collection::vec(-1000i64..1000, 2..8)) {
        let pairs: Vec<Vec<i64>> = vals.iter().enumerate()
            .map(|(i, v)| vec![*v, i as i64])
            .collect();
        let folded = fold_ints(ReduceOp::MinLoc, &pairs);
        let min = *vals.iter().min().unwrap();
        let argmin = vals.iter().position(|v| *v == min).unwrap() as i64;
        prop_assert_eq!(folded, vec![min, argmin]);
    }
}

// ---------------------------------------------------------------------
// Madeleine channel invariants
// ---------------------------------------------------------------------

// Arbitrary per-sender message schedules; the receiver must observe
// each sender's messages in order, whatever the interleaving.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn channel_fifo_per_connection(
        lens_a in proptest::collection::vec(0usize..50_000, 1..8),
        lens_b in proptest::collection::vec(0usize..50_000, 1..8),
    ) {
        let kernel = Kernel::new(CostModel::calibrated());
        let session = Session::single_network(&kernel, 3, Protocol::Bip);
        let channel = session.channels()[0].clone();
        let spawn_sender = |rank: usize, lens: Vec<usize>| {
            let ep = channel.endpoint(rank).expect("member rank");
            kernel.spawn(format!("sender{rank}"), move || {
                for (i, len) in lens.iter().enumerate() {
                    let mut payload = vec![rank as u8; len + 2];
                    payload[0] = i as u8;
                    payload[1] = rank as u8;
                    let mut conn = ep.begin_packing(2).expect("member rank");
                    conn.pack_bytes(Bytes::from(payload), SendMode::Cheaper, ReceiveMode::Cheaper);
                    conn.end_packing().expect("fault-free send");
                }
            });
        };
        spawn_sender(0, lens_a.clone());
        spawn_sender(1, lens_b.clone());
        let total = lens_a.len() + lens_b.len();
        let rx = channel.endpoint(2).expect("member rank");
        let h = kernel.spawn("receiver", move || {
            let mut next = [0u8; 2];
            for _ in 0..total {
                let mut conn = rx.begin_unpacking().expect("open");
                let data = conn.unpack_bytes(SendMode::Cheaper, ReceiveMode::Cheaper);
                conn.end_unpacking();
                let (seq, sender) = (data[0], data[1] as usize);
                // Per-sender sequence numbers must arrive in order.
                if seq != next[sender] {
                    return false;
                }
                next[sender] += 1;
            }
            true
        });
        kernel.run().expect("fifo world");
        prop_assert!(h.join_outcome().unwrap(), "per-connection FIFO violated");
    }

    #[test]
    fn mixed_mode_blocks_roundtrip(
        blocks in proptest::collection::vec((0usize..4_000, any::<bool>(), any::<bool>()), 1..6),
    ) {
        // Random sequences of (len, express?, safer?) blocks survive a
        // pack/unpack cycle bit-exactly.
        let kernel = Kernel::new(CostModel::calibrated());
        let session = Session::single_network(&kernel, 2, Protocol::Tcp);
        let channel = session.channels()[0].clone();
        let tx = channel.endpoint(0).expect("member rank");
        let rx = channel.endpoint(1).expect("member rank");
        let blocks_tx = blocks.clone();
        kernel.spawn("sender", move || {
            let mut conn = tx.begin_packing(1).expect("member rank");
            for (i, (len, express, safer)) in blocks_tx.iter().enumerate() {
                let payload: Vec<u8> = (0..*len).map(|j| ((i * 37 + j) % 256) as u8).collect();
                let send = if *safer { SendMode::Safer } else { SendMode::Cheaper };
                let recv = if *express { ReceiveMode::Express } else { ReceiveMode::Cheaper };
                conn.pack(&payload, send, recv);
            }
            conn.end_packing().expect("fault-free send");
        });
        let blocks_rx = blocks.clone();
        let h = kernel.spawn("receiver", move || {
            let mut conn = rx.begin_unpacking().expect("open");
            let mut ok = true;
            for (i, (len, express, safer)) in blocks_rx.iter().enumerate() {
                let send = if *safer { SendMode::Safer } else { SendMode::Cheaper };
                let recv = if *express { ReceiveMode::Express } else { ReceiveMode::Cheaper };
                let data = conn.unpack_bytes(send, recv);
                ok &= data.len() == *len;
                ok &= data.iter().enumerate().all(|(j, &b)| b == ((i * 37 + j) % 256) as u8);
            }
            conn.end_unpacking();
            ok
        });
        kernel.run().expect("mixed-mode world");
        prop_assert!(h.join_outcome().unwrap());
    }
}

// ---------------------------------------------------------------------
// MPI-level property: protocol threshold invariance
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // The transfer mode (eager vs rendezvous, any switch point) must
    // never change delivered bytes.
    #[test]
    fn delivered_bytes_independent_of_switch_point(
        len in 0usize..40_000,
        switch in 1usize..32_768,
    ) {
        use mpich::{run_world, ChMadConfig, Placement, RemoteDeviceKind, WorldConfig};
        use simnet::Topology;
        let cfg = WorldConfig::builder().remote(RemoteDeviceKind::ChMad(ChMadConfig {
                switch_point_override: Some(switch),
                ..ChMadConfig::default()
            })).build();
        let results = run_world(
            Topology::single_network(2, Protocol::Sisci),
            Placement::OneRankPerNode,
            cfg,
            move |comm| {
                let ep = comm.endpoint();
                if comm.rank() == 0 {
                    let payload: Vec<u8> = (0..len).map(|i| (i % 253) as u8).collect();
                    ep.send(&payload, 1, 0).unwrap();
                    true
                } else {
                    let (data, status) = ep.recv::<Vec<u8>>(len, Some(0), Some(0)).unwrap();
                    status.len == len
                        && data.len() == len
                        && data.iter().enumerate().all(|(i, &b)| b == (i % 253) as u8)
                }
            },
        ).expect("world completes");
        prop_assert!(results[1]);
    }

    // Neither the protocol policy (elected / per-network / striped) nor
    // the rail count may change delivered bytes or per-connection
    // ordering: run the same tagged message sequence over a dual-rail
    // SCI+BIP pair under every policy mode.
    #[test]
    fn delivery_independent_of_protocol_policy(
        lens in proptest::collection::vec(0usize..40_000, 1..5),
        mode in prop_oneof![
            Just(mpich::PolicyMode::Elected),
            Just(mpich::PolicyMode::PerNetwork),
            Just(mpich::PolicyMode::Striped),
        ],
    ) {
        use mpich::{run_world, ChMadConfig, Placement, RemoteDeviceKind, WorldConfig};
        use simnet::Topology;
        let cfg = WorldConfig::builder().remote(RemoteDeviceKind::ChMad(ChMadConfig {
                policy: mode,
                ..ChMadConfig::default()
            })).build();
        let mut topology = Topology::new();
        let a = topology.add_node("a", 2);
        let b = topology.add_node("b", 2);
        topology.add_network(Protocol::Sisci, [a, b]);
        topology.add_network(Protocol::Bip, [a, b]);
        let lens_in = lens.clone();
        let results = run_world(
            topology,
            Placement::OneRankPerNode,
            cfg,
            move |comm| {
                let ep = comm.endpoint();
                if comm.rank() == 0 {
                    for (seq, &len) in lens_in.iter().enumerate() {
                        let payload: Vec<u8> =
                            (0..len).map(|i| ((i + seq) % 251) as u8).collect();
                        ep.send(&payload, 1, seq as i32).unwrap();
                    }
                    true
                } else {
                    // Messages must arrive in send order with their
                    // bytes intact, whatever policy carried them.
                    lens_in.iter().enumerate().all(|(seq, &len)| {
                        let (data, status) = ep.recv::<Vec<u8>>(len, Some(0), None).unwrap();
                        status.tag == seq as i32
                            && data.len() == len
                            && data
                                .iter()
                                .enumerate()
                                .all(|(i, &v)| v == ((i + seq) % 251) as u8)
                    })
                }
            },
        ).expect("world completes");
        prop_assert!(results[1], "policy {:?} corrupted delivery", mode);
    }
}
