//! Counted regression gate for the send path's allocator traffic: what
//! a message costs must not depend on how many ranks the world has.
//!
//! Both figures are counts from a counting global allocator, so they
//! are exact for a fixed workload. The storm world's and the fused
//! scale world's allocation counts are pinned exactly: any allocation
//! added to or removed from the message or polling path moves them.
//! The byte ceiling sits between the measured 7.6 KB and the 234 KB
//! from when every packet ran a breadth-first search over the
//! topology. A striped 4 MiB rendezvous must not copy
//! its body: the receiver re-joins the spans in place. One `#[test]`:
//! the counters are process-wide.

use bytes::Bytes;
use mpich::{
    run_world, ChMadConfig, Placement, PolicyMode, ReduceOp, RemoteDeviceKind, WorldConfig,
};
use simnet::{Protocol, Topology};

#[global_allocator]
static GLOBAL: bench::alloc::CountingAlloc = bench::alloc::CountingAlloc;

/// (allocation calls, bytes requested) made while `f` ran.
fn counted(f: impl FnOnce()) -> (u64, u64) {
    let before = (bench::alloc::allocs(), bench::alloc::alloc_bytes());
    f();
    (
        bench::alloc::allocs() - before.0,
        bench::alloc::alloc_bytes() - before.1,
    )
}

/// The benchmark's `scale_allreduce` rep: a fresh 1024-rank fat-tree
/// world, two allreduces and a barrier under fused progress.
fn scale_world() {
    let sums = run_world(
        Topology::fat_tree(16),
        Placement::OneRankPerNode,
        WorldConfig::builder().fused_progress(true).build(),
        |comm| {
            let me = comm.rank() as i64;
            let sum = comm.allreduce(&[me + 1], ReduceOp::Sum)[0];
            let max = comm.allreduce(&[me], ReduceOp::Max)[0];
            comm.barrier();
            (sum, max)
        },
    )
    .expect("scale world failed");
    assert!(sums.iter().all(|&r| r == (1024 * 1025 / 2, 1023)));
}

const STORM_RANKS: usize = 8;
const STORM_ROUNDS: usize = 16;

/// The benchmark's `storm_small` rep: every rank bursts 16 B messages
/// to every peer, then drains them in reverse order.
fn storm_world() {
    run_world(
        Topology::single_network(STORM_RANKS, Protocol::Sisci),
        Placement::OneRankPerNode,
        WorldConfig::default(),
        |comm| {
            let (me, n) = (comm.rank(), comm.size());
            let payload = [me as u8; 16];
            for round in 0..STORM_ROUNDS {
                for step in 1..n {
                    comm.endpoint()
                        .send(&payload[..], (me + step) % n, round as i32)
                        .unwrap();
                }
            }
            for round in (0..STORM_ROUNDS).rev() {
                for step in (1..n).rev() {
                    let src = (me + n - step) % n;
                    let (data, _) = comm
                        .endpoint()
                        .recv::<bytes::Bytes>(16, Some(src), Some(round as i32))
                        .unwrap();
                    assert_eq!(data[..], [src as u8; 16]);
                }
            }
        },
    )
    .expect("storm world failed");
}

const STRIPED_BYTES: usize = 4 << 20;
const STRIPED_ROUND_TRIPS: usize = 4;

/// The benchmark's striped `rails_pingpong` pair: one SCI and one BIP
/// rail between two nodes, rendezvous DATA split across both, ping-
/// ponging `payload`. Returns whether every receive on each rank handed
/// back a `Bytes` pointing into the sender's buffer.
fn striped_world(payload: Bytes) -> Vec<bool> {
    let mut t = Topology::new();
    let (a, b) = (t.add_node("a", 1), t.add_node("b", 1));
    t.add_network(Protocol::Sisci, [a, b]);
    t.add_network(Protocol::Bip, [a, b]);
    let striped = ChMadConfig {
        policy: PolicyMode::Striped,
        ..ChMadConfig::default()
    };
    let config = WorldConfig::builder()
        .remote(RemoteDeviceKind::ChMad(striped))
        .build();
    run_world(t, Placement::OneRankPerNode, config, move |comm| {
        let (ep, me) = (comm.endpoint(), comm.rank());
        let mut in_place = true;
        for _ in 0..STRIPED_ROUND_TRIPS {
            if me == 0 {
                ep.send(&payload, 1, 0).unwrap();
            }
            let (got, _) = ep
                .recv::<Bytes>(STRIPED_BYTES, Some(1 - me), Some(0))
                .unwrap();
            assert_eq!(got, payload);
            in_place &= got.as_ptr() == payload.as_ptr();
            if me == 1 {
                ep.send(&payload, 0, 0).unwrap();
            }
        }
        in_place
    })
    .expect("striped world failed")
}

#[test]
fn per_message_allocations_do_not_grow_with_the_world() {
    let (allocs, _) = counted(storm_world);
    let messages = (STORM_RANKS * (STORM_RANKS - 1) * STORM_ROUNDS) as f64;
    let per_message = allocs as f64 / messages;
    // 7.64 per message, and no warm-up run: nothing process-wide is
    // allocated lazily. It was 7 266 while the scheduler kept a
    // 704-bucket timer wheel; 7 272 while each madeleine channel grew
    // two `(rank, vci)` hash maps entry by entry (now lane-indexed rows
    // built at their final size) and held its link model in an `Arc`;
    // 7 974 while every unexpected arrival was
    // filed in an arrival-order map and three ordered side-indexes
    // besides its exact-key bucket; 8 047 while each of the world's 16
    // threads kept its result in an `Arc` slot of its own, and its
    // metrics registry sat behind one more `Arc`; 8 030 while every
    // rank's shutdown barrier `format!`-ed its collective counter key;
    // 7 999 while each rank had its own `Arc`-held MPI environment, each
    // engine its own `Arc`, three devices a cloned vector of them, and
    // the devices, their table, the collective engine and the context
    // allocator an `Arc` each (one world table holds them all now);
    // 6 846 while the metrics registry copied every name into one of
    // three string-keyed B-trees on its first touch (names are
    // registered once now, into hash indexes sized for a small world,
    // over slots bumped by handle).
    assert_eq!(
        allocs, 6_824,
        "{per_message:.2} allocations per 16 B message (whole world / messages)"
    );

    let (scale_allocs, bytes) = counted(scale_world);
    // Stable run to run. It was 102 949 while the scheduler kept a
    // 704-bucket timer wheel; 115 229 while each fused poller built a
    // wait-any endpoint set (two vectors besides its endpoints) and
    // every blocking wait allocated a fresh registration vector (the
    // thread's own vector is refilled in place now); 101 565 while each
    // rank's two queue gauges were copied into a string-keyed B-tree on
    // first touch.
    assert_eq!(
        scale_allocs, 99_721,
        "allocations of a fresh fused 1024-rank world"
    );
    let per_collective = bytes as f64 / (3.0 * 1024.0);
    assert!(
        per_collective < 10_000.0,
        "{per_collective:.0} B allocated per rank-collective of a 1024-rank world"
    );

    let payload: Bytes = (0..STRIPED_BYTES).map(|i| (i % 251) as u8).collect();
    let mut in_place = Vec::new();
    let (_, bytes) = counted(|| in_place = striped_world(payload.clone()));
    let per_striped = bytes as f64 / (2 * STRIPED_ROUND_TRIPS) as f64;
    // Well over 4 MiB while every striped message was copied into a
    // fresh assembly buffer.
    assert!(
        per_striped < 64.0 * 1024.0,
        "{per_striped:.0} B allocated per striped 4 MiB message"
    );
    assert_eq!(
        in_place,
        vec![true, true],
        "each receiver's Bytes points into the sender's buffer"
    );
    println!(
        "storm {per_message:.2} allocs/message, scale {per_collective:.0} B/rank-collective, \
         striped {per_striped:.0} B/message"
    );
}
