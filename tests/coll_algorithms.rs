//! Algorithm-engine equivalence suite: every entry of the collective
//! algorithm catalog (hierarchical, recursive-doubling, Rabenseifner,
//! ring, scatter-gather) must produce byte-identical results to the
//! seed binomial implementation across communicator sizes, roots,
//! payload sizes and topologies.
//!
//! Reductions use operator/type combinations whose exact value is
//! independent of fold order (wrapping integer arithmetic, min/max,
//! bitwise, loc pairs) — the algorithms fold contributions in canonical
//! rank order but associate them differently, which only floating-point
//! addition can observe. Float reproducibility is covered separately:
//! each algorithm is deterministic run to run (same tree, same bits).
#![recursion_limit = "256"]

use mpich::{run_world, CollAlgorithm, CollError, CollPolicy, Placement, ReduceOp, WorldConfig};
use proptest::prelude::*;
use simnet::{Protocol, Topology};

/// Every policy whose results must agree with `Seed` byte for byte.
/// `Fixed` entries force each catalog algorithm even at sizes Adaptive
/// would not pick it, so small proptest payloads still cover the
/// large-message kernels.
const CHALLENGERS: [CollPolicy; 7] = [
    CollPolicy::Adaptive,
    CollPolicy::Fixed(CollAlgorithm::Binomial),
    CollPolicy::Fixed(CollAlgorithm::Hierarchical),
    CollPolicy::Fixed(CollAlgorithm::RecursiveDoubling),
    CollPolicy::Fixed(CollAlgorithm::Rabenseifner),
    CollPolicy::Fixed(CollAlgorithm::Ring),
    CollPolicy::Fixed(CollAlgorithm::ScatterGather),
];

fn cfg(policy: CollPolicy) -> WorldConfig {
    WorldConfig::builder().coll(policy).build()
}

/// A flat fast network: every rank in one cluster, hierarchy never pays.
fn flat(n: usize) -> Topology {
    Topology::single_network(n, Protocol::Bip)
}

/// Two fast islands (SCI and BIP) joined only by slow TCP — the
/// meta-cluster shape at any rank count. Islands of a single node get
/// no fast network and become singleton clusters, so odd sizes also
/// exercise the leader logic with a one-member cluster.
fn split(n: usize) -> Topology {
    let mut t = Topology::new();
    let nodes: Vec<_> = (0..n).map(|i| t.add_node(format!("n{i}"), 1)).collect();
    let half = n.div_ceil(2);
    if half >= 2 {
        t.add_network(Protocol::Sisci, nodes[..half].iter().copied());
    }
    if n - half >= 2 {
        t.add_network(Protocol::Bip, nodes[half..].iter().copied());
    }
    t.add_network(Protocol::Tcp, nodes.iter().copied());
    t
}

fn topologies(n: usize) -> [(&'static str, Topology); 2] {
    [("flat", flat(n)), ("split", split(n))]
}

/// Deterministic per-(seed, rank, element) test value.
fn pattern(seed: u64, rank: usize, i: usize) -> i64 {
    (seed
        ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (i as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)) as i64
}

const EXACT_OPS: [ReduceOp; 6] = [
    ReduceOp::Sum,
    ReduceOp::Prod,
    ReduceOp::Min,
    ReduceOp::Max,
    ReduceOp::Band,
    ReduceOp::Bor,
];

fn arb_exact_op() -> proptest::BoxedStrategy<ReduceOp> {
    (0usize..EXACT_OPS.len()).prop_map(|i| EXACT_OPS[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn allreduce_matches_seed_on_every_algorithm(
        n in 2usize..8,
        elems in 1usize..24,
        seed in any::<u64>(),
        op in arb_exact_op(),
    ) {
        let run = |topo: Topology, policy| {
            run_world(topo, Placement::OneRankPerNode, cfg(policy), move |comm| {
                let vals: Vec<i64> =
                    (0..elems).map(|i| pattern(seed, comm.rank(), i)).collect();
                comm.allreduce(&vals, op)
            })
            .expect("world completes")
        };
        for (tname, topo) in topologies(n) {
            let reference = run(topo.clone(), CollPolicy::Seed);
            for policy in CHALLENGERS {
                let got = run(topo.clone(), policy);
                prop_assert_eq!(
                    &got, &reference,
                    "allreduce {:?} diverged from Seed on {} (n={}, op={:?})",
                    policy, tname, n, op
                );
            }
        }
    }

    #[test]
    fn bcast_matches_seed_on_every_algorithm(
        n in 2usize..8,
        root_pick in 0usize..64,
        len_pick in 0usize..360,
        seed in any::<u64>(),
    ) {
        let root = root_pick % n;
        // Mostly small payloads; the tail of the range maps to one
        // large enough to cross the Adaptive scatter-gather threshold.
        let len = if len_pick >= 300 { 200_000 } else { len_pick };
        let run = |topo: Topology, policy| {
            run_world(topo, Placement::OneRankPerNode, cfg(policy), move |comm| {
                let data = (comm.rank() == root)
                    .then(|| (0..len).map(|i| pattern(seed, root, i) as u8).collect());
                comm.bcast::<u8>(root, data).expect("valid root")
            })
            .expect("world completes")
        };
        for (tname, topo) in topologies(n) {
            let reference = run(topo.clone(), CollPolicy::Seed);
            for r in &reference {
                prop_assert_eq!(r.len(), len);
            }
            for policy in CHALLENGERS {
                let got = run(topo.clone(), policy);
                prop_assert_eq!(
                    &got, &reference,
                    "bcast {:?} diverged from Seed on {} (n={}, root={}, len={})",
                    policy, tname, n, root, len
                );
            }
        }
    }

    #[test]
    fn allgather_matches_seed_on_every_algorithm(
        n in 2usize..8,
        seed in any::<u64>(),
        base_len in 0usize..40,
    ) {
        // Variable contribution sizes (allgatherv semantics): rank r
        // contributes base_len + 3r bytes.
        let run = |topo: Topology, policy| {
            run_world(topo, Placement::OneRankPerNode, cfg(policy), move |comm| {
                let me = comm.rank();
                let data: Vec<u8> = (0..base_len + 3 * me)
                    .map(|i| pattern(seed, me, i) as u8)
                    .collect();
                comm.allgather(&data)
            })
            .expect("world completes")
        };
        for (tname, topo) in topologies(n) {
            let reference = run(topo.clone(), CollPolicy::Seed);
            for policy in CHALLENGERS {
                let got = run(topo.clone(), policy);
                prop_assert_eq!(
                    &got, &reference,
                    "allgather {:?} diverged from Seed on {} (n={})",
                    policy, tname, n
                );
            }
        }
    }

    #[test]
    fn reduce_matches_seed_on_every_algorithm(
        n in 2usize..8,
        root_pick in 0usize..64,
        elems in 1usize..16,
        seed in any::<u64>(),
        op in arb_exact_op(),
    ) {
        let root = root_pick % n;
        let run = |topo: Topology, policy| {
            run_world(topo, Placement::OneRankPerNode, cfg(policy), move |comm| {
                let vals: Vec<i64> =
                    (0..elems).map(|i| pattern(seed, comm.rank(), i)).collect();
                comm.reduce(root, &vals, op).expect("valid root")
            })
            .expect("world completes")
        };
        for (tname, topo) in topologies(n) {
            let reference = run(topo.clone(), CollPolicy::Seed);
            for (rank, r) in reference.iter().enumerate() {
                prop_assert_eq!(r.is_some(), rank == root);
            }
            for policy in CHALLENGERS {
                let got = run(topo.clone(), policy);
                prop_assert_eq!(
                    &got, &reference,
                    "reduce {:?} diverged from Seed on {} (n={}, root={}, op={:?})",
                    policy, tname, n, root, op
                );
            }
        }
    }

    #[test]
    fn binomial_only_ops_are_policy_invariant(
        n in 2usize..7,
        seed in any::<u64>(),
    ) {
        // scatter / gather / alltoall / scan / exscan / reduce_scatter
        // have no catalog variants: every policy must reproduce the
        // seed's results exactly (they dispatch to the same kernels).
        let run = |topo: Topology, policy| {
            run_world(topo, Placement::OneRankPerNode, cfg(policy), move |comm| {
                let me = comm.rank();
                let nn = comm.size();
                let mine: Vec<i64> = (0..4).map(|i| pattern(seed, me, i)).collect();
                let scan = comm.scan(&mine, ReduceOp::Sum);
                let exscan = comm.exscan(&mine, ReduceOp::Max);
                let parts: Vec<Vec<i64>> =
                    (0..nn).map(|d| vec![pattern(seed, me, d)]).collect();
                let a2a = comm.alltoall(parts).expect("one part per rank");
                let gathered = comm.gather(0, &mine).expect("valid root");
                let scattered = comm
                    .scatter(
                        0,
                        (me == 0).then(|| {
                            (0..nn).map(|d| vec![pattern(seed, 99, d)]).collect()
                        }),
                    )
                    .expect("valid root and shape");
                let rs = comm
                    .reduce_scatter(
                        &(0..2 * nn).map(|i| pattern(seed, me, i)).collect::<Vec<_>>(),
                        2,
                        ReduceOp::Sum,
                    )
                    .expect("length divides");
                (scan, exscan, a2a, gathered, scattered, rs)
            })
            .expect("world completes")
        };
        for (tname, topo) in topologies(n) {
            let reference = run(topo.clone(), CollPolicy::Seed);
            for policy in [
                CollPolicy::Adaptive,
                CollPolicy::Fixed(CollAlgorithm::Hierarchical),
                CollPolicy::Fixed(CollAlgorithm::Ring),
            ] {
                let got = run(topo.clone(), policy);
                prop_assert_eq!(
                    &got, &reference,
                    "{:?} diverged from Seed on {} (n={})",
                    policy, tname, n
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Large payloads: the sizes Adaptive actually re-routes.
// ---------------------------------------------------------------------

/// At ≥ 256 KB Adaptive picks Rabenseifner (flat allreduce), ring
/// (allgather), scatter-gather (flat bcast) and the hierarchical
/// variants on the meta-cluster — all must agree with Seed bitwise.
#[test]
fn large_payload_adaptive_matches_seed() {
    for topo in [flat(6), Topology::meta_cluster(3)] {
        let run = |policy| {
            run_world(
                topo.clone(),
                Placement::OneRankPerNode,
                cfg(policy),
                |comm| {
                    let me = comm.rank();
                    let vals: Vec<i64> = (0..32 * 1024).map(|i| pattern(7, me, i)).collect();
                    let ar = comm.allreduce(&vals, ReduceOp::Sum);
                    let bytes: Vec<u8> = (0..256 * 1024).map(|i| pattern(9, me, i) as u8).collect();
                    let ag = comm.allgather(&bytes[..64 * 1024]);
                    let bc = comm
                        .bcast::<u8>(2, (me == 2).then(|| bytes.clone()))
                        .expect("valid root");
                    (ar, ag, bc)
                },
            )
            .expect("world completes")
        };
        let seed = run(CollPolicy::Seed);
        let adaptive = run(CollPolicy::Adaptive);
        assert_eq!(seed, adaptive, "large-payload Adaptive diverged from Seed");
    }
}

/// MinLoc/MaxLoc consume (value, location) pairs whose unit is two base
/// elements — the block-splitting algorithms must never split a pair.
#[test]
fn loc_ops_match_across_algorithms() {
    let run = |policy| {
        run_world(split(6), Placement::OneRankPerNode, cfg(policy), |comm| {
            let me = comm.rank() as i64;
            // 8 (value, location) pairs; ties on value resolve to the
            // lowest location on every algorithm.
            let pairs: Vec<i64> = (0..8).flat_map(|i| [((me * 7 + i) % 5), me]).collect();
            (
                comm.allreduce(&pairs, ReduceOp::MinLoc),
                comm.allreduce(&pairs, ReduceOp::MaxLoc),
            )
        })
        .expect("world completes")
    };
    let reference = run(CollPolicy::Seed);
    for policy in CHALLENGERS {
        assert_eq!(run(policy), reference, "{policy:?} diverged on loc ops");
    }
}

/// Floating-point allreduce is not required to match Seed bitwise
/// (association differs), but every algorithm must be deterministic:
/// identical runs give identical bits, and all ranks agree.
#[test]
fn float_allreduce_is_deterministic_per_algorithm() {
    for policy in CHALLENGERS {
        let run = || {
            run_world(split(6), Placement::OneRankPerNode, cfg(policy), |comm| {
                let me = comm.rank();
                let xs: Vec<f64> = (0..4096).map(|i| ((me * 4096 + i) as f64).sin()).collect();
                comm.allreduce(&xs, ReduceOp::Sum)
            })
            .expect("world completes")
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "{policy:?} float allreduce not run-to-run stable");
        for r in &a[1..] {
            assert_eq!(r, &a[0], "{policy:?} ranks disagree on the float sum");
        }
    }
}

// ---------------------------------------------------------------------
// The engine really runs what it selected (metrics registry evidence).
// ---------------------------------------------------------------------

#[test]
fn adaptive_runs_hierarchical_on_the_meta_cluster() {
    let kernel = mpich::run_world_report(
        Topology::meta_cluster(3),
        Placement::OneRankPerNode,
        cfg(CollPolicy::Adaptive),
        |comm| comm.allreduce(&[comm.rank() as i64], ReduceOp::Sum),
    )
    .expect("world completes")
    .kernel;
    let snap = kernel.metrics_snapshot();
    assert_eq!(
        snap.counter("coll.allreduce.hierarchical"),
        6,
        "all six ranks must dispatch the hierarchical allreduce"
    );
    assert_eq!(snap.counter("coll.allreduce.binomial"), 0);
}

#[test]
fn fixed_policy_forces_the_requested_algorithm() {
    let kernel = mpich::run_world_report(
        flat(4),
        Placement::OneRankPerNode,
        cfg(CollPolicy::Fixed(CollAlgorithm::Rabenseifner)),
        |comm| {
            let vals: Vec<i64> = (0..8).map(|i| pattern(3, comm.rank(), i)).collect();
            comm.allreduce(&vals, ReduceOp::Sum)
        },
    )
    .expect("world completes")
    .kernel;
    let snap = kernel.metrics_snapshot();
    assert_eq!(snap.counter("coll.allreduce.rabenseifner"), 4);
}

#[test]
fn seed_policy_never_leaves_binomial() {
    let kernel = mpich::run_world_report(
        Topology::meta_cluster(2),
        Placement::OneRankPerCpu,
        WorldConfig::default(),
        |comm| {
            comm.allreduce(&[comm.rank() as i64], ReduceOp::Sum);
            comm.allgather(&[comm.rank() as u64]);
        },
    )
    .expect("world completes")
    .kernel;
    let snap = kernel.metrics_snapshot();
    for name in snap.counters.keys().filter(|k| k.starts_with("coll.")) {
        assert!(
            name.ends_with(".binomial"),
            "Seed policy dispatched a non-binomial algorithm: {name}"
        );
    }
}

// ---------------------------------------------------------------------
// Typed API error paths (the non-panicking surface).
// ---------------------------------------------------------------------

#[test]
fn typed_api_reports_errors_instead_of_panicking() {
    let results = run_world(
        flat(2),
        Placement::OneRankPerNode,
        WorldConfig::default(),
        |comm| {
            // Root out of range: every rank errs before communicating.
            let bad_root = comm.bcast::<u8>(9, Some(vec![1]));
            // The remaining cases run on a singleton communicator so a
            // local error cannot strand a peer mid-collective.
            let solo = comm.split(comm.rank() as i32, 0).expect("defined color");
            let missing = solo.bcast::<u8>(0, None);
            let wrong_count = solo.scatter::<u8>(0, Some(vec![vec![1], vec![2]]));
            let bad_parts = solo.alltoall::<u8>(vec![]);
            let bad_len = solo.reduce_scatter::<i64>(&[1, 2, 3], 2, ReduceOp::Sum);
            (bad_root, missing, wrong_count, bad_parts, bad_len)
        },
    )
    .expect("world completes");
    for (bad_root, missing, wrong_count, bad_parts, bad_len) in results {
        assert_eq!(
            bad_root,
            Err(CollError::RootOutOfRange {
                op: "bcast",
                root: 9,
                size: 2
            })
        );
        assert_eq!(
            missing,
            Err(CollError::MissingRootData {
                op: "bcast",
                what: "data"
            })
        );
        assert_eq!(
            wrong_count,
            Err(CollError::WrongPartCount {
                op: "scatter",
                got: 2,
                want: 1
            })
        );
        assert_eq!(
            bad_parts,
            Err(CollError::WrongPartCount {
                op: "alltoall",
                got: 0,
                want: 1
            })
        );
        assert_eq!(
            bad_len,
            Err(CollError::LengthMismatch {
                op: "reduce_scatter",
                len: 24,
                want: 16
            })
        );
    }
}

// ---------------------------------------------------------------------
// Multi-level hierarchy: datacenter topologies with nested cluster
// tiers (fat-tree rails inside pods, dragonfly routers inside groups).
// ---------------------------------------------------------------------

/// Policies that exercise the multi-level hierarchical kernels.
const HIER_POLICIES: [CollPolicy; 2] = [
    CollPolicy::Adaptive,
    CollPolicy::Fixed(CollAlgorithm::Hierarchical),
];

/// All four hierarchical operations on one topology, compared against
/// the Seed binomial reference. The allgather uses rank-dependent
/// contribution sizes so the blob encoding is exercised through every
/// tier.
fn check_multi_level(topo: Topology, root: usize) {
    type Out = (Vec<u8>, Option<Vec<i64>>, Vec<i64>, Vec<Vec<u8>>);
    let run = |policy| -> Vec<Out> {
        run_world(
            topo.clone(),
            Placement::OneRankPerNode,
            cfg(policy),
            move |comm| {
                let me = comm.rank();
                let b = comm
                    .bcast::<u8>(root, (me == root).then(|| vec![7, 8, 9]))
                    .expect("valid root");
                let vals: Vec<i64> = (0..5).map(|i| pattern(11, me, i)).collect();
                let r = comm.reduce(root, &vals, ReduceOp::Max).expect("valid root");
                let ar = comm.allreduce(&vals, ReduceOp::Sum);
                let mine: Vec<u8> = (0..2 + me % 3).map(|i| pattern(13, me, i) as u8).collect();
                let ag = comm.allgather(&mine);
                (b, r, ar, ag)
            },
        )
        .expect("world completes")
    };
    let reference = run(CollPolicy::Seed);
    for policy in HIER_POLICIES {
        let got = run(policy);
        assert_eq!(got, reference, "{policy:?} diverged from Seed");
    }
}

/// fat_tree(4): 16 hosts in 4 pods of 2 rails × 2 hosts — the chain
/// is [rails, pods], so the hierarchical kernels recurse three levels
/// deep (rail → pod → world).
#[test]
fn multi_level_collectives_match_seed_on_a_fat_tree() {
    check_multi_level(Topology::fat_tree(4), 5);
}

/// dragonfly(2, 2, 1): 3 groups of 2 routers × 2 hosts — the chain is
/// [routers, groups].
#[test]
fn multi_level_collectives_match_seed_on_a_dragonfly() {
    check_multi_level(Topology::dragonfly(2, 2, 1), 0);
}

/// The Adaptive policy actually dispatches the hierarchical kernels on
/// a fat tree (pods are the selection-level clusters), and every rank
/// agrees.
#[test]
fn adaptive_runs_hierarchical_on_a_fat_tree() {
    let kernel = mpich::run_world_report(
        Topology::fat_tree(4),
        Placement::OneRankPerNode,
        cfg(CollPolicy::Adaptive),
        |comm| comm.allreduce(&[comm.rank() as i64], ReduceOp::Sum),
    )
    .expect("world completes")
    .kernel;
    let snap = kernel.metrics_snapshot();
    assert_eq!(
        snap.counter("coll.allreduce.hierarchical"),
        16,
        "all sixteen ranks must dispatch the hierarchical allreduce"
    );
    assert_eq!(snap.counter("coll.allreduce.binomial"), 0);
}
