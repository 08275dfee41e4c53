//! Device dispatch and multi-protocol behaviour observed through
//! virtual time: the paper's core claim is that one `ch_mad` device
//! serves every network at near-native speed, with locality devices
//! (`ch_self`, `smp_plug`) below it.

use mpich::{run_world, ChMadConfig, Placement, PolicyMode, RemoteDeviceKind, WorldConfig};
use simnet::{NodeId, Protocol, Topology};

/// One-way time of a single 4 KB exchange between two given ranks of a
/// world (measured at the sender as half the round trip).
fn pair_oneway(
    topology: Topology,
    placement: Placement,
    a: usize,
    b: usize,
    bytes: usize,
) -> marcel::VirtualDuration {
    let results = run_world(topology, placement, WorldConfig::default(), move |comm| {
        let ep = comm.endpoint();
        if comm.rank() == a {
            let payload = vec![7u8; bytes];
            ep.send(&payload, b, 0).unwrap();
            ep.recv::<Vec<u8>>(bytes, Some(b), Some(0)).unwrap();
            let t0 = marcel::now();
            ep.send(&payload, b, 0).unwrap();
            ep.recv::<Vec<u8>>(bytes, Some(b), Some(0)).unwrap();
            Some((marcel::now() - t0) / 2)
        } else if comm.rank() == b {
            for _ in 0..2 {
                let (d, _) = ep.recv::<Vec<u8>>(bytes, Some(a), Some(0)).unwrap();
                ep.send(&d, a, 0).unwrap();
            }
            None
        } else {
            None
        }
    })
    .unwrap();
    results.into_iter().flatten().next().unwrap()
}

#[test]
fn locality_hierarchy_self_smp_remote() {
    // Meta-cluster, one rank per CPU: ranks 0,1 share node 0 (SCI
    // cluster); rank 2 is on node 1 (SCI); rank 4 on node 2 (Myrinet).
    let topo = || Topology::meta_cluster(2);
    let n = 4096;
    let self_t = pair_oneway(topo(), Placement::OneRankPerCpu, 0, 0, n);
    let smp_t = pair_oneway(topo(), Placement::OneRankPerCpu, 0, 1, n);
    let sci_t = pair_oneway(topo(), Placement::OneRankPerCpu, 0, 2, n);
    let tcp_t = pair_oneway(topo(), Placement::OneRankPerCpu, 0, 4, n);
    assert!(self_t < smp_t, "loop-back {self_t} < shared memory {smp_t}");
    assert!(
        smp_t < tcp_t,
        "shared memory {smp_t} < cross-cluster TCP {tcp_t}"
    );
    assert!(sci_t < tcp_t, "SCI {sci_t} < cross-cluster TCP {tcp_t}");
}

#[test]
fn ch_mad_picks_the_fastest_shared_network() {
    // Two nodes connected by BOTH SCI and TCP: traffic must ride SCI.
    let mut both = Topology::new();
    let a = both.add_node("a", 1);
    let b = both.add_node("b", 1);
    both.add_network(Protocol::Sisci, [a, b]);
    both.add_network(Protocol::Tcp, [a, b]);

    let t_both = pair_oneway(both, Placement::OneRankPerNode, 0, 1, 16);
    let t_tcp = pair_oneway(
        Topology::single_network(2, Protocol::Tcp),
        Placement::OneRankPerNode,
        0,
        1,
        16,
    );
    // Riding SCI (even with the TCP polling thread attached) is far
    // below the TCP time.
    assert!(
        t_both.as_micros_f64() < t_tcp.as_micros_f64() / 3.0,
        "SCI+TCP pair took {t_both}, TCP-only {t_tcp}"
    );
}

#[test]
fn no_distinction_between_intra_and_inter_cluster_links() {
    // The paper's §4.1 point: the cluster-interconnect (TCP) and the
    // cluster-internal network are both just channels; a TCP pair works
    // even when both ends also have faster cluster networks.
    let t = Topology::meta_cluster(2);
    // Ranks 0 (SCI cluster) and 2 (Myrinet cluster) share only TCP.
    let cross = pair_oneway(t, Placement::OneRankPerNode, 0, 2, 1024);
    let tcp_only = pair_oneway(
        Topology::single_network(2, Protocol::Tcp),
        Placement::OneRankPerNode,
        0,
        1,
        1024,
    );
    // Same protocol path, so times are within a polling cycle of each
    // other (the meta-cluster ranks poll more channels).
    let delta = (cross.as_micros_f64() - tcp_only.as_micros_f64()).abs();
    assert!(
        delta < 10.0,
        "cross-cluster {cross} vs plain TCP {tcp_only}"
    );
}

#[test]
fn disconnected_topology_is_rejected_up_front() {
    let mut t = Topology::new();
    let a = t.add_node("a", 1);
    let b = t.add_node("b", 1);
    let c = t.add_node("c", 1);
    t.add_network(Protocol::Sisci, [a, b]);
    t.add_network(Protocol::Bip, [b, c]);
    let result = std::panic::catch_unwind(|| {
        run_world(
            t,
            Placement::OneRankPerNode,
            WorldConfig::default(),
            |_comm| (),
        )
        .unwrap()
    });
    assert!(
        result.is_err(),
        "gateway-requiring topology must be refused"
    );
}

/// One-way 7.5 KB exchange between the Myrinet pair of a hybrid
/// SCI+Myrinet+TCP configuration, under the given ch_mad config.
fn hybrid_bip_pair_oneway(cfg: ChMadConfig) -> marcel::VirtualDuration {
    let mut t = Topology::new();
    let nodes: Vec<NodeId> = (0..4).map(|i| t.add_node(format!("n{i}"), 1)).collect();
    t.add_network(Protocol::Sisci, [nodes[0], nodes[1]]);
    t.add_network(Protocol::Bip, [nodes[2], nodes[3]]);
    t.add_network(Protocol::Tcp, nodes.clone());
    let world = WorldConfig::builder()
        .remote(RemoteDeviceKind::ChMad(cfg))
        .build();
    // 7.5 KB sits between BIP's own 7 KB switch point and the elected
    // 8 KB one, so the policy mode decides the transfer mode.
    let n = 7_680;
    let results = run_world(t, Placement::OneRankPerNode, world, move |comm| {
        let ep = comm.endpoint();
        if comm.rank() == 2 {
            let payload = vec![7u8; n];
            ep.send(&payload, 3, 0).unwrap();
            ep.recv::<Vec<u8>>(n, Some(3), Some(0)).unwrap();
            let t0 = marcel::now();
            ep.send(&payload, 3, 0).unwrap();
            ep.recv::<Vec<u8>>(n, Some(3), Some(0)).unwrap();
            Some((marcel::now() - t0) / 2)
        } else if comm.rank() == 3 {
            for _ in 0..2 {
                let (d, _) = ep.recv::<Vec<u8>>(n, Some(2), Some(0)).unwrap();
                ep.send(&d, 2, 0).unwrap();
            }
            None
        } else {
            None
        }
    })
    .unwrap();
    results.into_iter().flatten().next().unwrap()
}

#[test]
fn switch_point_election_is_visible_in_device() {
    // In Elected compatibility mode, the Myrinet pair must use SCI's
    // 8 KB switch point (§4.2.2), NOT Myrinet's 7 KB: the 7.5 KB
    // message goes eager (one message). Forcing BIP's native value
    // makes it rendezvous (3 messages).
    let elected = hybrid_bip_pair_oneway(ChMadConfig {
        policy: PolicyMode::Elected,
        ..ChMadConfig::default()
    });
    let forced = hybrid_bip_pair_oneway(ChMadConfig {
        policy: PolicyMode::Elected,
        switch_point_override: Some(Protocol::Bip.switch_point()),
        ..ChMadConfig::default()
    });
    assert_ne!(
        elected, forced,
        "election must change the 7.5KB transfer mode"
    );
    // In this model the rendezvous handshake is cheaper than the eager
    // copy it avoids at 7.5 KB (see examples/switch_point_tuning: the
    // true crossover sits near 2.6 KB on BIP), so the elected-eager
    // path is the *slower* one — the single elected switch point is a
    // compromise, exactly the ADI limitation §4.2.2 describes.
    assert!(
        elected > forced,
        "eager {elected} vs forced-rendezvous {forced}"
    );
}

#[test]
fn per_network_default_uses_the_channels_own_threshold() {
    // The default policy resolves the threshold per channel: the
    // Myrinet pair uses BIP's native 7 KB value, so 7.5 KB goes
    // rendezvous — identical to overriding with BIP's switch point,
    // and different from the Elected compromise.
    let default = hybrid_bip_pair_oneway(ChMadConfig::default());
    let bip_native = hybrid_bip_pair_oneway(ChMadConfig {
        switch_point_override: Some(Protocol::Bip.switch_point()),
        ..ChMadConfig::default()
    });
    let elected = hybrid_bip_pair_oneway(ChMadConfig {
        policy: PolicyMode::Elected,
        ..ChMadConfig::default()
    });
    assert_eq!(
        default, bip_native,
        "per-network must match BIP's own threshold"
    );
    assert!(
        elected > default,
        "elected eager {elected} vs per-network rendezvous {default}"
    );
}

#[test]
fn more_attached_channels_slow_detection() {
    // Generalization of Fig. 9: each extra polling thread adds its poll
    // cost to every detection. Extra TCP *adapters* (Madeleine supports
    // several networks of the same protocol) keep the traffic on SCI
    // while stacking polling threads.
    let lat = |extra_tcp_networks: usize| {
        let mut t = Topology::new();
        let a = t.add_node("a", 1);
        let b = t.add_node("b", 1);
        t.add_network(Protocol::Sisci, [a, b]);
        for _ in 0..extra_tcp_networks {
            t.add_network(Protocol::Tcp, [a, b]);
        }
        pair_oneway(t, Placement::OneRankPerNode, 0, 1, 16)
    };
    let sci = lat(0);
    let one_tcp = lat(1);
    let two_tcp = lat(2);
    assert!(sci < one_tcp, "{sci} < {one_tcp}");
    assert!(one_tcp < two_tcp, "{one_tcp} < {two_tcp}");
    // One detection per one-way trip; each TCP poller costs ~6us/poll.
    let p1 = one_tcp.as_micros_f64() - sci.as_micros_f64();
    let p2 = two_tcp.as_micros_f64() - one_tcp.as_micros_f64();
    assert!((4.0..9.0).contains(&p1), "first TCP polling penalty {p1}us");
    assert!(
        (4.0..9.0).contains(&p2),
        "second TCP polling penalty {p2}us"
    );
}

#[test]
fn ch_p4_vs_ch_mad_on_identical_topology() {
    let n = 256;
    let mad = pair_oneway(
        Topology::single_network(2, Protocol::Tcp),
        Placement::OneRankPerNode,
        0,
        1,
        n,
    );
    let results = run_world(
        Topology::single_network(2, Protocol::Tcp),
        Placement::OneRankPerNode,
        WorldConfig::ch_p4(),
        move |comm| {
            let ep = comm.endpoint();
            if comm.rank() == 0 {
                let payload = vec![1u8; n];
                ep.send(&payload, 1, 0).unwrap();
                ep.recv::<Vec<u8>>(n, Some(1), Some(0)).unwrap();
                let t0 = marcel::now();
                ep.send(&payload, 1, 0).unwrap();
                ep.recv::<Vec<u8>>(n, Some(1), Some(0)).unwrap();
                Some((marcel::now() - t0) / 2)
            } else {
                for _ in 0..2 {
                    let (d, _) = ep.recv::<Vec<u8>>(n, Some(0), Some(0)).unwrap();
                    ep.send(&d, 0, 0).unwrap();
                }
                None
            }
        },
    )
    .unwrap();
    let p4 = results.into_iter().flatten().next().unwrap();
    // Fig 6a: ch_mad wins at/below 256 B.
    assert!(mad < p4, "ch_mad {mad} must beat ch_p4 {p4} at {n}B");
}

#[test]
fn smp_ranks_and_remote_ranks_mix_in_one_recv() {
    // A rank posts ANY_SOURCE receives served by smp_plug AND ch_mad.
    let results = run_world(
        Topology::meta_cluster(2),
        Placement::OneRankPerCpu,
        WorldConfig::default(),
        |comm| {
            let ep = comm.endpoint();
            if comm.rank() == 0 {
                let mut sources = Vec::new();
                for _ in 0..2 {
                    let (_, status) = ep.recv::<Vec<u8>>(64, None, Some(9)).unwrap();
                    sources.push(status.source);
                }
                sources.sort_unstable();
                sources
            } else if comm.rank() == 1 || comm.rank() == 7 {
                // Rank 1 shares node 0 with rank 0 (smp_plug); rank 7
                // is in the Myrinet cluster (ch_mad over TCP).
                ep.send(&[comm.rank() as u8; 16], 0, 9).unwrap();
                Vec::new()
            } else {
                Vec::new()
            }
        },
    )
    .unwrap();
    assert_eq!(results[0], vec![1, 7]);
}

/// The design-choice ablations of DESIGN §5, in virtual time. Each row
/// runs one ping-pong size under two configurations and states how the
/// one-way time of the first must compare with the second.
#[test]
fn design_choice_ablations_hold() {
    use std::cmp::Ordering::{Greater, Less};
    let ch_mad = |set: &dyn Fn(&mut ChMadConfig)| {
        let mut cfg = ChMadConfig::default();
        set(&mut cfg);
        WorldConfig::builder()
            .remote(RemoteDeviceKind::ChMad(cfg))
            .build()
    };
    let policy = |mode: PolicyMode| ch_mad(&|c| c.policy = mode);
    let mut oracle = WorldConfig::default();
    oracle.cost_model = oracle.cost_model.with_oracle_polling();
    let sci = || Topology::single_network(2, Protocol::Sisci);
    let rows = [
        (
            "polling over SCI+TCP, 4 B: faithful vs oracle",
            bench::fig9_topology(true),
            4,
            2,
            WorldConfig::default(),
            oracle,
            Greater,
        ),
        (
            "SCI eager 4 B: padded inline buffer vs split short packets",
            sci(),
            4,
            2,
            ch_mad(&|c| c.split_short = false),
            ch_mad(&|c| c.split_short = true),
            Greater,
        ),
        (
            "SCI 1 MiB: rendezvous vs eager-always",
            sci(),
            1 << 20,
            1,
            ch_mad(&|c| c.rendezvous = true),
            ch_mad(&|c| c.rendezvous = false),
            Less,
        ),
        // 7.5 KB sits between BIP's ideal threshold (7 KB) and the
        // elected SCI one (8 KB): per-network already switches BIP to
        // rendezvous where the elected threshold still forces eager.
        (
            "SCI+BIP 7.5 KB: elected vs per-network",
            bench::multirail_topology(),
            7_680,
            1,
            policy(PolicyMode::Elected),
            policy(PolicyMode::PerNetwork),
            Greater,
        ),
        // For 8 MiB the two rails together beat any single-rail policy.
        (
            "SCI+BIP 8 MiB: per-network vs striped",
            bench::multirail_topology(),
            8 << 20,
            1,
            policy(PolicyMode::PerNetwork),
            policy(PolicyMode::Striped),
            Greater,
        ),
    ];
    for (what, topology, bytes, iters, a, b, expected) in rows {
        let a = bench::mpi_pingpong(topology.clone(), a, &[bytes], iters)[0].1;
        let b = bench::mpi_pingpong(topology, b, &[bytes], iters)[0].1;
        println!(
            "{what}: {:.3} vs {:.3} us",
            a.as_micros_f64(),
            b.as_micros_f64()
        );
        assert_eq!(a.cmp(&b), expected, "{what}: {a} vs {b}");
    }
}
