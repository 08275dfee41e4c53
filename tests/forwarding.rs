//! The gateway-forwarding extension (the paper's §6 future work):
//! messages crossing heterogeneous networks through gateway nodes, with
//! chunked rendezvous pipelining to preserve bandwidth.

use mpich::{run_world, ChMadConfig, Placement, ReduceOp, RemoteDeviceKind, WorldConfig};
use simnet::{NodeId, Protocol, Topology};

/// a —SCI— b —BIP— c : ranks 0, 1, 2; rank 1 is the gateway.
fn chain() -> Topology {
    let mut t = Topology::new();
    let a = t.add_node("a", 1);
    let b = t.add_node("b", 1);
    let c = t.add_node("c", 1);
    t.add_network(Protocol::Sisci, [a, b]);
    t.add_network(Protocol::Bip, [b, c]);
    t
}

/// Four nodes in a line over three different networks: two gateways.
fn long_chain() -> Topology {
    let mut t = Topology::new();
    let n: Vec<NodeId> = (0..4).map(|i| t.add_node(format!("n{i}"), 1)).collect();
    t.add_network(Protocol::Sisci, [n[0], n[1]]);
    t.add_network(Protocol::Tcp, [n[1], n[2]]);
    t.add_network(Protocol::Bip, [n[2], n[3]]);
    t
}

#[test]
fn eager_message_crosses_one_gateway() {
    let results = run_world(
        chain(),
        Placement::OneRankPerNode,
        WorldConfig::with_forwarding(),
        |comm| {
            let ep = comm.endpoint();
            if comm.rank() == 0 {
                ep.send(&[1u8, 2, 3, 4], 2, 7).unwrap();
                Vec::new()
            } else if comm.rank() == 2 {
                let (data, status) = ep.recv::<Vec<u8>>(16, Some(0), Some(7)).unwrap();
                assert_eq!(status.source, 0);
                data
            } else {
                Vec::new() // the gateway rank just runs MPI_Init/Finalize
            }
        },
    )
    .unwrap();
    assert_eq!(results[2], vec![1, 2, 3, 4]);
}

#[test]
fn rendezvous_crosses_one_gateway() {
    let n = 500_000; // far past the elected 8KB switch point
    let results = run_world(
        chain(),
        Placement::OneRankPerNode,
        WorldConfig::with_forwarding(),
        move |comm| {
            let ep = comm.endpoint();
            if comm.rank() == 0 {
                let payload: Vec<u8> = (0..n).map(|i| (i % 241) as u8).collect();
                ep.send(&payload, 2, 0).unwrap();
                true
            } else if comm.rank() == 2 {
                let (data, status) = ep.recv::<Vec<u8>>(n, Some(0), Some(0)).unwrap();
                status.len == n && data.iter().enumerate().all(|(i, &b)| b == (i % 241) as u8)
            } else {
                true
            }
        },
    )
    .unwrap();
    assert!(results[2]);
}

#[test]
fn two_gateways_and_reverse_direction() {
    let results = run_world(
        long_chain(),
        Placement::OneRankPerNode,
        WorldConfig::with_forwarding(),
        |comm| {
            let ep = comm.endpoint();
            if comm.rank() == 0 {
                ep.send(&[7u8; 100], 3, 1).unwrap();
                let (data, _) = ep.recv::<Vec<u8>>(64, Some(3), Some(2)).unwrap();
                data
            } else if comm.rank() == 3 {
                let (data, _) = ep.recv::<Vec<u8>>(128, Some(0), Some(1)).unwrap();
                assert_eq!(data, vec![7; 100]);
                ep.send(&[9u8; 50], 0, 2).unwrap();
                Vec::new()
            } else {
                Vec::new()
            }
        },
    )
    .unwrap();
    assert_eq!(results[0], vec![9; 50]);
}

#[test]
fn forwarded_messages_preserve_pair_fifo() {
    let results = run_world(
        chain(),
        Placement::OneRankPerNode,
        WorldConfig::with_forwarding(),
        |comm| {
            let ep = comm.endpoint();
            if comm.rank() == 0 {
                for i in 0..12u8 {
                    // Mix sizes so eager and (chunked) rendezvous
                    // forwarded messages interleave.
                    let size = if i % 4 == 0 { 20_000 } else { 16 };
                    let mut data = vec![0u8; size];
                    data[0] = i;
                    ep.send(&data, 2, 5).unwrap();
                }
                Vec::new()
            } else if comm.rank() == 2 {
                (0..12)
                    .map(|_| ep.recv::<Vec<u8>>(32_768, Some(0), Some(5)).unwrap().0[0])
                    .collect()
            } else {
                Vec::new()
            }
        },
    )
    .unwrap();
    assert_eq!(results[2], (0..12u8).collect::<Vec<_>>());
}

#[test]
fn collectives_span_the_gateway() {
    let results = run_world(
        long_chain(),
        Placement::OneRankPerNode,
        WorldConfig::with_forwarding(),
        |comm| {
            let me = comm.rank() as i64;
            let sum = comm.allreduce(&[me], ReduceOp::Sum)[0];
            let all = comm.allgather(&[me * 2]);
            (sum, all.len())
        },
    )
    .unwrap();
    for (sum, n) in results {
        assert_eq!(sum, 6);
        assert_eq!(n, 4);
    }
}

/// One-way time for an `n`-byte transfer from rank 0 to rank 2 across
/// the gateway, with the given chunk size.
fn forwarded_oneway(n: usize, chunk: usize) -> marcel::VirtualDuration {
    let cfg = WorldConfig::builder()
        .remote(RemoteDeviceKind::ChMad(ChMadConfig {
            forwarding: true,
            fwd_chunk: chunk,
            ..ChMadConfig::default()
        }))
        .build();
    let results = run_world(chain(), Placement::OneRankPerNode, cfg, move |comm| {
        let ep = comm.endpoint();
        if comm.rank() == 0 {
            let payload = vec![3u8; n];
            ep.send(&payload, 2, 0).unwrap();
            ep.recv::<Vec<u8>>(1, Some(2), Some(1)).unwrap();
            None
        } else if comm.rank() == 2 {
            let t0 = marcel::now();
            ep.recv::<Vec<u8>>(n, Some(0), Some(0)).unwrap();
            let elapsed = marcel::now() - t0;
            ep.send(&[1u8], 0, 1).unwrap();
            Some(elapsed)
        } else {
            None
        }
    })
    .unwrap();
    results.into_iter().flatten().next().unwrap()
}

#[test]
fn chunking_pipelines_the_gateway() {
    // 4 MB across SCI -> gateway -> BIP. Store-and-forward (no chunking)
    // serializes the two hops; 128KB chunks let them overlap, cutting
    // the time by roughly the faster hop's share.
    let n = 4 << 20;
    let store_forward = forwarded_oneway(n, usize::MAX);
    let pipelined = forwarded_oneway(n, 128 * 1024);
    let ratio = pipelined.as_secs_f64() / store_forward.as_secs_f64();
    assert!(
        ratio < 0.75,
        "chunking should pipeline: pipelined {pipelined} vs store-and-forward {store_forward} (ratio {ratio:.2})"
    );
    // And pipelined time approaches the slower hop (SCI at ~82.6 MB/s
    // for 4MB = ~48ms) rather than the sum (~48 + 33 ms).
    let slower_hop_ms = 4.0 / 82.6 * 1e3;
    let measured_ms = pipelined.as_secs_f64() * 1e3;
    assert!(
        measured_ms < slower_hop_ms * 1.35,
        "pipelined {measured_ms:.1}ms vs slower hop {slower_hop_ms:.1}ms"
    );
}

#[test]
fn forwarded_latency_is_roughly_the_sum_of_hops() {
    let via_gateway = forwarded_oneway(16, usize::MAX);
    // Direct SCI and BIP latencies are ~16.4us and ~19.1us through the
    // full MPI stack; a relayed message pays both links plus the gateway
    // software, so expect ~1.2-2.5x the sum of the two raw links.
    let us = via_gateway.as_micros_f64();
    assert!(us > 20.0, "two hops cannot beat one: {us}us");
    assert!(us < 70.0, "gateway overhead out of control: {us}us");
}

#[test]
fn direct_pairs_ignore_forwarding_machinery() {
    // With forwarding enabled, directly connected pairs must behave
    // exactly as without it.
    let t = || Topology::single_network(2, Protocol::Sisci);
    let run = |cfg: WorldConfig| {
        run_world(t(), Placement::OneRankPerNode, cfg, |comm| {
            let ep = comm.endpoint();
            if comm.rank() == 0 {
                ep.send(&[0u8; 64], 1, 0).unwrap();
                ep.recv::<Vec<u8>>(64, Some(1), Some(0)).unwrap();
                Some(marcel::now())
            } else {
                let (d, _) = ep.recv::<Vec<u8>>(64, Some(0), Some(0)).unwrap();
                ep.send(&d, 1 - 1, 0).unwrap();
                None
            }
        })
        .unwrap()
        .into_iter()
        .flatten()
        .next()
        .unwrap()
    };
    assert_eq!(
        run(WorldConfig::default()),
        run(WorldConfig::with_forwarding())
    );
}
