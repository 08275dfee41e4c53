//! VCI (virtual communication interface) properties.
//!
//! * `vcis = 1` is bit-identical to the pre-VCI stack: same results and
//!   the same per-rank virtual end times as the default configuration.
//! * FIFO per matching pair holds at every lane count, under random
//!   `(context, tag)` mixes and under survivable loss plans — each
//!   `(source, context, tag)` stream rides one lane end to end, so
//!   per-stream order survives even though lanes race each other.
//! * A probe pins the shard it matched in: the follow-up receive gets
//!   exactly the probed message even while other lanes deliver
//!   concurrently (the probe-then-recv race fix).
//! * Lanes compose with the rest of the stack: on the meta-cluster, a
//!   striped two-rail pair (clean and lossy) and a forwarding chain,
//!   two and four lanes deliver what one lane delivers and replay
//!   identically.
//! * The endpoint surface returns typed errors instead of panicking.

use mpich::{
    run_world, BaseType, ChMadConfig, CommError, Datatype, Placement, PolicyMode, ReduceOp,
    RemoteDeviceKind, WorldConfig, WorldConfigBuilder,
};
use proptest::prelude::*;
use simnet::{FaultPlan, NetworkId, Protocol, Topology};

/// Tags whose `(context 0, tag) → vci` images are distinct at
/// `vcis = 4` and split two/two at `vcis = 2` (see `mpich::vci_for`).
const SPREAD_TAGS: [i32; 4] = [0, 1, 2, 6];

fn vci_config(vcis: usize) -> WorldConfig {
    WorldConfig::builder().vcis(vcis).build()
}

/// A deterministic mixed workload: tagged p2p streams, a probe, and a
/// collective. Returns a digest plus the rank's virtual end time.
fn mixed_workload(comm: &mpich::Communicator) -> (u64, u64) {
    let me = comm.rank();
    let n = comm.size();
    let ep = comm.endpoint();
    let mut digest = 0u64;
    if me == 0 {
        for (s, &tag) in SPREAD_TAGS.iter().enumerate() {
            for i in 0..4u8 {
                ep.send(&[s as u8, i, 7], 1, tag).unwrap();
            }
        }
    } else if me == 1 {
        for (s, &tag) in SPREAD_TAGS.iter().enumerate() {
            for i in 0..4u8 {
                let (data, st) = ep.recv::<Vec<u8>>(8, Some(0), Some(tag)).unwrap();
                assert_eq!(data, vec![s as u8, i, 7]);
                digest = digest
                    .wrapping_mul(31)
                    .wrapping_add(st.tag as u64 ^ data[1] as u64);
            }
        }
    }
    digest =
        digest.wrapping_add(comm.allreduce(&[me as i64 + 1], ReduceOp::Sum)[0] as u64 * n as u64);
    (digest, marcel::now().0)
}

/// `vcis = 1` (explicitly configured) reproduces the
/// default configuration bit for bit — results *and* virtual end
/// times.
#[test]
fn vcis_one_is_bit_identical_to_default() {
    let run = |config: WorldConfig| {
        run_world(
            Topology::single_network(2, Protocol::Tcp),
            Placement::OneRankPerNode,
            config,
            mixed_workload,
        )
        .unwrap()
    };
    let base = run(WorldConfig::default());
    let vci1 = run(vci_config(1));
    assert_eq!(base, vci1, "vcis=1 must be bit-identical to the default");
}

/// The same fixed workload at a fixed lane count is deterministic
/// across repeated runs (results and end times).
#[test]
fn multi_vci_runs_are_deterministic() {
    for vcis in [2usize, 4] {
        let run = || {
            run_world(
                Topology::single_network(2, Protocol::Tcp),
                Placement::OneRankPerNode,
                vci_config(vcis),
                mixed_workload,
            )
            .unwrap()
        };
        assert_eq!(run(), run(), "vcis={vcis} must replay identically");
    }
}

/// Results (though not timings) agree between one lane and many.
#[test]
fn results_agree_across_lane_counts() {
    let digests = |vcis: usize| {
        run_world(
            Topology::single_network(2, Protocol::Tcp),
            Placement::OneRankPerNode,
            vci_config(vcis),
            |comm| mixed_workload(comm).0,
        )
        .unwrap()
    };
    let one = digests(1);
    assert_eq!(one, digests(2));
    assert_eq!(one, digests(4));
}

/// Two dual-CPU nodes joined by an SCI and a BIP rail; `bip_plan`
/// faults the BIP one.
fn two_rails(bip_plan: Option<FaultPlan>) -> Topology {
    let mut t = Topology::new();
    let a = t.add_node("a", 2);
    let b = t.add_node("b", 2);
    t.add_network(Protocol::Sisci, [a, b]);
    let bip = t.add_network(Protocol::Bip, [a, b]);
    if let Some(plan) = bip_plan {
        t.set_fault(bip, plan);
    }
    t
}

/// The `tests/forwarding.rs` chain, a —SCI— b —BIP— c: rank 1 is the
/// gateway between ranks 0 and 2.
fn chain() -> Topology {
    let mut t = Topology::new();
    let a = t.add_node("a", 1);
    let b = t.add_node("b", 1);
    let c = t.add_node("c", 1);
    t.add_network(Protocol::Sisci, [a, b]);
    t.add_network(Protocol::Bip, [b, c]);
    t
}

fn striped() -> WorldConfigBuilder {
    WorldConfig::builder().remote(RemoteDeviceKind::ChMad(ChMadConfig {
        policy: PolicyMode::Striped,
        ..ChMadConfig::default()
    }))
}

/// Ring exchange on lane-spreading tags — one size below every rail's
/// switch point, one between BIP's and SCI's, one between SCI's and
/// TCP's, one past them all (the ≥ 64 KiB transfer a striped pair
/// splits) — then an allreduce over what arrived. Returns a digest of
/// the received bytes plus the rank's virtual end time.
fn ring_workload(comm: &mpich::Communicator) -> (u64, u64) {
    const SIZES: [usize; 4] = [512, 7 * 1024 + 512, 12 * 1024, 96 * 1024];
    let (me, n) = (comm.rank(), comm.size());
    let (next, prev) = ((me + 1) % n, (me + n - 1) % n);
    let ep = comm.endpoint();
    let byte = |src: usize, i: usize, k: usize| (src * 31 + i * 17 + k) as u8;
    let sends: Vec<_> = SIZES
        .iter()
        .zip(SPREAD_TAGS)
        .enumerate()
        .map(|(i, (&len, tag))| {
            let data: Vec<u8> = (0..len).map(|k| byte(me, i, k)).collect();
            ep.isend(data, next, tag).unwrap()
        })
        .collect();
    let mut digest = 0u64;
    for (i, (&len, tag)) in SIZES.iter().zip(SPREAD_TAGS).enumerate() {
        let (data, st) = ep.recv::<Vec<u8>>(len, Some(prev), Some(tag)).unwrap();
        assert_eq!((st.source, st.len), (prev, len));
        assert!(data.iter().enumerate().all(|(k, &b)| b == byte(prev, i, k)));
        digest = data
            .iter()
            .fold(digest, |d, &b| d.wrapping_mul(31) ^ b as u64);
    }
    for s in sends {
        s.wait();
    }
    digest ^= comm.allreduce(&[digest], ReduceOp::Max)[0].rotate_left(me as u32);
    (digest, marcel::now().0)
}

/// Lanes across the network shapes the 2-rank TCP tests above never
/// reach: three protocols behind one elected switch point, striped
/// rendezvous over two rails, a lossy rail under that striping, and
/// gateway forwarding. At 2 and 4 lanes every rank must compute what it
/// computes on one lane (timings legitimately differ), and two runs at
/// one lane count must agree on every rank's end time too.
#[test]
fn lanes_compose_with_rails_forwarding_and_faults() {
    type Shape = (&'static str, fn() -> Topology, fn() -> WorldConfigBuilder);
    let shapes: [Shape; 4] = [
        (
            "meta-cluster",
            || Topology::meta_cluster(2),
            WorldConfig::builder,
        ),
        ("striped two-rail", || two_rails(None), striped),
        (
            "lossy striped two-rail",
            || two_rails(Some(FaultPlan::new(0xBAD_CAB1E).with_loss(0.2))),
            striped,
        ),
        ("forwarding chain", chain, || {
            WorldConfig::builder().forwarding(true)
        }),
    ];
    for (name, topology, config) in shapes {
        let run = |vcis: usize| {
            run_world(
                topology(),
                Placement::OneRankPerNode,
                config().vcis(vcis).build(),
                ring_workload,
            )
            .unwrap_or_else(|e| panic!("{name} at vcis={vcis}: {e}"))
        };
        let digests = |ranks: &[(u64, u64)]| ranks.iter().map(|r| r.0).collect::<Vec<_>>();
        let one = run(1);
        for vcis in [2, 4] {
            let laned = run(vcis);
            assert_eq!(
                digests(&laned),
                digests(&one),
                "{name}: vcis={vcis} changed what a rank received"
            );
            assert_eq!(laned, run(vcis), "{name}: vcis={vcis} must replay");
        }
    }
}

/// The FIFO-per-pair workload: rank 0 interleaves `per_stream[s]`
/// sequenced messages round-robin across the streams' tags; rank 1
/// drains stream by stream and asserts exact arrival order per tag.
fn fifo_exchange(
    vcis: usize,
    tags: Vec<i32>,
    per_stream: Vec<u8>,
    payload: usize,
    plan: Option<FaultPlan>,
) {
    let mut topology = Topology::single_network(2, Protocol::Tcp);
    if let Some(plan) = plan {
        topology.set_fault(NetworkId(0), plan);
    }
    let tags2 = tags.clone();
    let counts2 = per_stream.clone();
    run_world(
        topology,
        Placement::OneRankPerNode,
        vci_config(vcis),
        move |comm| {
            let ep = comm.endpoint();
            if comm.rank() == 0 {
                let mut next = vec![0u8; tags2.len()];
                loop {
                    let mut sent_any = false;
                    for (s, &tag) in tags2.iter().enumerate() {
                        if next[s] < counts2[s] {
                            let mut data = vec![0u8; payload.max(2)];
                            data[0] = s as u8;
                            data[1] = next[s];
                            ep.send(data, 1, tag).unwrap();
                            next[s] += 1;
                            sent_any = true;
                        }
                    }
                    if !sent_any {
                        break;
                    }
                }
            } else {
                for (s, &tag) in tags2.iter().enumerate() {
                    for i in 0..counts2[s] {
                        let (data, _) = ep
                            .recv::<Vec<u8>>(payload.max(2), Some(0), Some(tag))
                            .unwrap();
                        assert_eq!(
                            (data[0], data[1]),
                            (s as u8, i),
                            "stream {s} (tag {tag}) out of FIFO order at vcis={vcis}"
                        );
                    }
                }
            }
        },
    )
    .unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// FIFO per matching pair under random tag mixes at 1, 2 and 4
    /// lanes. Tags collide across shards freely — order must hold per
    /// stream regardless of how the hash buckets them.
    #[test]
    fn fifo_per_pair_random_tag_mix(
        vcis in prop_oneof![Just(1usize), Just(2), Just(4)],
        raw_tags in proptest::collection::vec(-4i32..96, 1..6),
        per_stream in proptest::collection::vec(1u8..6, 1..6),
        payload in prop_oneof![Just(2usize), Just(64), Just(600)],
    ) {
        let mut tags = raw_tags.clone();
        tags.sort_unstable();
        tags.dedup();
        let n = tags.len().min(per_stream.len());
        fifo_exchange(vcis, tags[..n].to_vec(), per_stream[..n].to_vec(), payload, None);
    }

    /// The same FIFO contract under survivable random loss: per-lane
    /// sequence numbers, dedup and retransmission must preserve order
    /// within every lane.
    #[test]
    fn fifo_per_pair_survives_loss(
        seed in 0u64..1_000,
        loss_milli in 10u64..150,
        per_stream in proptest::collection::vec(1u8..5, 2..5),
    ) {
        let tags: Vec<i32> = SPREAD_TAGS[..per_stream.len().min(4)].to_vec();
        let n = tags.len();
        let plan = FaultPlan::new(seed).with_loss(loss_milli as f64 / 1000.0);
        fifo_exchange(4, tags, per_stream[..n].to_vec(), 64, Some(plan));
    }
}

/// The probe-then-recv race fix: a wildcard-source gather of
/// rank-dependent sizes runs through `probe_handle` → pinned receive
/// while three other lanes deliver concurrently. Before the pin, the
/// follow-up receive could match a *different* shard's message that
/// arrived between probe and post.
#[test]
fn probed_receive_is_pinned_under_cross_lane_traffic() {
    let results = run_world(
        Topology::single_network(4, Protocol::Tcp),
        Placement::OneRankPerNode,
        vci_config(4),
        |comm| {
            let me = comm.rank();
            let ep = comm.endpoint();
            // Cross-lane noise: everyone floods rank 0 on spread tags
            // while the gather's probed receives run.
            let noise: Vec<_> = if me != 0 {
                SPREAD_TAGS
                    .iter()
                    .map(|&t| ep.isend(vec![me as u8; 32], 0, 100 + t).unwrap())
                    .collect()
            } else {
                Vec::new()
            };
            // Rank-dependent sizes force the unknown-size (probed)
            // receive path inside the collective layer.
            let mine = vec![me as u8; 8 * (me + 1)];
            let gathered = comm.gather(0, &mine).unwrap();
            if me == 0 {
                let parts = gathered.expect("root gathers");
                for (r, part) in parts.iter().enumerate() {
                    assert_eq!(part.len(), 8 * (r + 1), "rank {r} part length");
                    assert!(part.iter().all(|&b| b == r as u8), "rank {r} part bytes");
                }
                for &t in &SPREAD_TAGS {
                    for _ in 1..comm.size() {
                        let (_, st) = ep.recv::<Vec<u8>>(32, None, Some(100 + t)).unwrap();
                        assert!(st.source > 0);
                    }
                }
            }
            for h in noise {
                let _ = h.wait();
            }
            me
        },
    )
    .unwrap();
    assert_eq!(results, vec![0, 1, 2, 3]);
}

/// Typed errors on the endpoint surface, and knob validation in the
/// builder: no panics on user mistakes.
#[test]
fn endpoint_and_builder_report_typed_errors() {
    // Builder validation happens before any world exists.
    assert!(matches!(
        WorldConfig::builder().vcis(0).try_build(),
        Err(mpich::ConfigError::ZeroVcis)
    ));
    assert!(WorldConfig::builder().vcis(2).try_build().is_ok());

    run_world(
        Topology::single_network(2, Protocol::Tcp),
        Placement::OneRankPerNode,
        vci_config(2),
        |comm| {
            let ep = comm.endpoint();
            assert!(matches!(
                comm.endpoint_on(7),
                Err(CommError::VciOutOfRange { vci: 7, vcis: 2 })
            ));
            assert!(comm.endpoint_on(1).is_ok());
            assert!(matches!(
                ep.send(&[1u8, 2], 5, 0),
                Err(CommError::RankOutOfRange { rank: 5, size: 2 })
            ));
            assert!(matches!(
                ep.recv::<Vec<u8>>(8, Some(9), None),
                Err(CommError::RankOutOfRange { rank: 9, size: 2 })
            ));
            assert!(matches!(
                ep.probe(Some(9), None),
                Err(CommError::RankOutOfRange { rank: 9, size: 2 })
            ));
            assert!(matches!(
                ep.iprobe(Some(9), None),
                Err(CommError::RankOutOfRange { rank: 9, size: 2 })
            ));
            assert!(matches!(
                ep.irecv(8, Some(9), None),
                Err(CommError::RankOutOfRange { rank: 9, size: 2 })
            ));
            assert!(matches!(
                ep.sendrecv::<_, Vec<u8>>(&[1u8], 5, 0, 8, None, None),
                Err(CommError::RankOutOfRange { rank: 5, size: 2 })
            ));
            assert!(matches!(
                ep.sendrecv::<_, Vec<u8>>(&[1u8], 1, 0, 8, Some(9), None),
                Err(CommError::RankOutOfRange { rank: 9, size: 2 })
            ));
            // Two i32s, 8 bytes apart: extent 12, packed size 8. A user
            // buffer shorter than `extent * count` is an error, not a
            // panic — and a failed receive consumes no message.
            let strided = Datatype::vector(2, 1, 2, Datatype::base(BaseType::Int32));
            let int = Datatype::base(BaseType::Int32);
            if comm.rank() == 0 {
                assert_eq!(
                    ep.send_datatype(&[0u8; 11], &strided, 1, 1, 7),
                    Err(CommError::BufferTooSmall { need: 12, got: 11 })
                );
                assert_eq!(
                    ep.send_datatype(&[0u8; 8], &int, 3, 1, 7),
                    Err(CommError::BufferTooSmall { need: 12, got: 8 })
                );
                let matrix = mpich::to_bytes(&[1i32, 9, 2]);
                ep.send_datatype(&matrix, &strided, 1, 1, 7).unwrap();
            } else {
                assert_eq!(
                    ep.recv_datatype(&mut [0u8; 11], &strided, 1, Some(0), Some(7)),
                    Err(CommError::BufferTooSmall { need: 12, got: 11 })
                );
                let mut full = [0u8; 12];
                ep.recv_datatype(&mut full, &strided, 1, Some(0), Some(7))
                    .unwrap();
                assert_eq!(mpich::from_bytes::<i32>(&full), vec![1, 0, 2]);
            }
            // A 3-byte message is not a whole number of i64s.
            if comm.rank() == 0 {
                ep.send(&[1u8, 2, 3], 1, 5).unwrap();
                ep.send(&[1u8, 2, 3], 1, 6).unwrap();
            } else {
                assert!(matches!(
                    ep.recv::<Vec<i64>>(8, Some(0), Some(5)),
                    Err(CommError::ElementMisaligned { len: 3, elem: 8 })
                ));
                assert!(matches!(
                    ep.recv_count::<u8>(4, Some(0), Some(6)),
                    Err(CommError::TypedLengthMismatch { want: 4, got: 3 })
                ));
            }
        },
    )
    .unwrap();
}
