//! Forwarding-extension benchmark (the paper's §6 future work,
//! implemented here): latency and bandwidth across a gateway node
//! joining an SCI cluster to a Myrinet cluster, with and without
//! chunked pipelining.
//!
//! `cargo run --release -p bench --bin forwarding [-- <iters>]`

use bench::{bandwidth_mb_s, Report};
use marcel::VirtualDuration;
use mpich::{run_world, ChMadConfig, Placement, RemoteDeviceKind, WorldConfig};
use simnet::{Protocol, Topology};

fn chain() -> Topology {
    let mut t = Topology::new();
    let a = t.add_node("a", 1);
    let b = t.add_node("b", 1);
    let c = t.add_node("c", 1);
    t.add_network(Protocol::Sisci, [a, b]);
    t.add_network(Protocol::Bip, [b, c]);
    t
}

/// Ping-pong between the chain's endpoints (through the gateway).
fn forwarded_pingpong(chunk: usize, sizes: &[usize], iters: usize) -> bench::Series {
    let cfg = WorldConfig::builder()
        .remote(RemoteDeviceKind::ChMad(ChMadConfig {
            forwarding: true,
            fwd_chunk: chunk,
            ..ChMadConfig::default()
        }))
        .build();
    let sizes: Vec<usize> = sizes.to_vec();
    let results = run_world(chain(), Placement::OneRankPerNode, cfg, move |comm| {
        if comm.rank() == 0 {
            let mut out = bench::Series::new();
            for &n in &sizes {
                let data = vec![0u8; n];
                comm.endpoint().send(&data, 2, 0).unwrap();
                comm.endpoint()
                    .recv::<Vec<u8>>(n, Some(2), Some(0))
                    .unwrap();
                let t0 = marcel::now();
                for _ in 0..iters {
                    comm.endpoint().send(&data, 2, 0).unwrap();
                    comm.endpoint()
                        .recv::<Vec<u8>>(n, Some(2), Some(0))
                        .unwrap();
                }
                out.push((n, (marcel::now() - t0) / (2 * iters as u64)));
            }
            Some(out)
        } else if comm.rank() == 2 {
            for &n in &sizes {
                for _ in 0..iters + 1 {
                    let (d, _) = comm
                        .endpoint()
                        .recv::<Vec<u8>>(n, Some(0), Some(0))
                        .unwrap();
                    comm.endpoint().send(&d, 0, 0).unwrap();
                }
            }
            None
        } else {
            None
        }
    })
    .expect("forwarding world completes");
    results.into_iter().flatten().next().unwrap()
}

fn main() {
    let iters: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(3);
    let sizes: Vec<usize> = (0..=22).map(|p| 1usize << p).collect();
    let mut r = Report::new(
        "forwarding",
        "SCI -> gateway -> Myrinet: store-and-forward vs chunked pipelining (extension)",
    );
    let pipelined = forwarded_pingpong(128 * 1024, &sizes, iters);
    let store_fwd = forwarded_pingpong(usize::MAX, &sizes, iters);
    let direct_sci = bench::mpi_pingpong(
        Topology::single_network(2, Protocol::Sisci),
        WorldConfig::default(),
        &sizes,
        iters,
    );
    r.add_series("fwd_chunked_128K", &pipelined);
    r.add_series("fwd_store_and_forward", &store_fwd);
    r.add_series("direct_SCI (lower bound)", &direct_sci);
    let four_mb = 4 << 20;
    let at = |series: &bench::Series, n: usize| {
        series
            .iter()
            .find(|(sz, _)| *sz == n)
            .map(|(_, d)| *d)
            .unwrap_or(VirtualDuration::ZERO)
    };
    r.add_anchor(bench::Anchor::new(
        "4MB gateway bandwidth, chunked (target: ~slower hop, 82.6)",
        78.0,
        bandwidth_mb_s(four_mb, at(&pipelined, four_mb)),
        "MB",
    ));
    r.add_anchor(bench::Anchor::new(
        "4MB gateway bandwidth, store-and-forward (~harmonic mean/2-ish)",
        49.0,
        bandwidth_mb_s(four_mb, at(&store_fwd, four_mb)),
        "MB",
    ));
    r.add_anchor(bench::Anchor::new(
        "16B latency through the gateway (sum of hops + relay)",
        42.0,
        at(&pipelined, 16).as_micros_f64(),
        "us",
    ));
    r.emit(true, true);
}
