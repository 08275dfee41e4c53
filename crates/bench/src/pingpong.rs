//! Ping-pong harnesses (the paper's mpptest methodology): one-way time
//! is half the round trip, averaged over several iterations after a
//! warm-up round.

use bytes::Bytes;
use madeleine::{ReceiveMode, SendMode, Session};
use marcel::{CostModel, Kernel, MetricsSnapshot, VirtualDuration};
use mpich::{run_world, run_world_report, Placement, WorldConfig};
use simnet::{Protocol, Topology};

/// A measured series: (message size, one-way time).
pub type Series = Vec<(usize, VirtualDuration)>;

/// One-way bandwidth in MB/s (1 MB = 2^20 bytes, as in the paper).
pub fn bandwidth_mb_s(size: usize, oneway: VirtualDuration) -> f64 {
    if oneway.is_zero() {
        return f64::INFINITY;
    }
    size as f64 / (1 << 20) as f64 / oneway.as_secs_f64()
}

/// Ping-pong through the full MPI stack between ranks 0 and 1 of a
/// 2-node world.
pub fn mpi_pingpong(
    topology: Topology,
    config: WorldConfig,
    sizes: &[usize],
    iters: usize,
) -> Series {
    mpi_pingpong_session(topology, config, sizes, iters).0
}

/// Like [`mpi_pingpong`], additionally returning the finished Madeleine
/// session itself — callers that want the per-channel reliability
/// breakdown ([`Session::counters`]) rather than the
/// aggregate totals read it off after the run.
pub fn mpi_pingpong_session(
    topology: Topology,
    config: WorldConfig,
    sizes: &[usize],
    iters: usize,
) -> (Series, std::sync::Arc<Session>) {
    let sizes: Vec<usize> = sizes.to_vec();
    let report = run_world_report(topology, Placement::OneRankPerNode, config, move |comm| {
        assert!(comm.size() >= 2, "ping-pong needs two ranks");
        if comm.rank() == 0 {
            let mut out = Series::new();
            for &n in &sizes {
                let data = vec![0u8; n];
                comm.endpoint().send(&data, 1, 0).unwrap();
                comm.endpoint()
                    .recv::<Vec<u8>>(n, Some(1), Some(0))
                    .unwrap();
                let t0 = marcel::now();
                for _ in 0..iters {
                    comm.endpoint().send(&data, 1, 0).unwrap();
                    let (back, _) = comm
                        .endpoint()
                        .recv::<Vec<u8>>(n, Some(1), Some(0))
                        .unwrap();
                    assert_eq!(back.len(), n);
                }
                out.push((n, (marcel::now() - t0) / (2 * iters as u64)));
            }
            Some(out)
        } else if comm.rank() == 1 {
            for &n in &sizes {
                for _ in 0..iters + 1 {
                    let (data, _) = comm
                        .endpoint()
                        .recv::<Vec<u8>>(n, Some(0), Some(0))
                        .unwrap();
                    comm.endpoint().send(&data, 0, 0).unwrap();
                }
            }
            None
        } else {
            None
        }
    })
    .expect("ping-pong world failed");
    let series = report
        .results
        .into_iter()
        .flatten()
        .next()
        .expect("rank 0 produced the series");
    (series, report.session)
}

/// Like [`mpi_pingpong`], additionally returning the metrics-registry
/// snapshot covering the *measured* iterations only: rank 0 resets the
/// registry after each size's warm-up exchange and snapshots it right
/// after its timed loop, before the Finalize barrier — so span
/// histograms (`span/pack/...`, `span/handle/...`) are not polluted by
/// warm-up first-message effects or shutdown traffic. With several
/// sizes the snapshot covers only the last size's iterations; the
/// overhead bench calls this with a single size.
pub fn mpi_pingpong_metrics(
    topology: Topology,
    config: WorldConfig,
    sizes: &[usize],
    iters: usize,
) -> (Series, MetricsSnapshot) {
    let sizes: Vec<usize> = sizes.to_vec();
    let results = run_world(topology, Placement::OneRankPerNode, config, move |comm| {
        assert!(comm.size() >= 2, "ping-pong needs two ranks");
        if comm.rank() == 0 {
            let mut out = Series::new();
            for &n in &sizes {
                let data = vec![0u8; n];
                comm.endpoint().send(&data, 1, 0).unwrap();
                comm.endpoint()
                    .recv::<Vec<u8>>(n, Some(1), Some(0))
                    .unwrap();
                marcel::obs::reset_metrics();
                let t0 = marcel::now();
                for _ in 0..iters {
                    comm.endpoint().send(&data, 1, 0).unwrap();
                    let (back, _) = comm
                        .endpoint()
                        .recv::<Vec<u8>>(n, Some(1), Some(0))
                        .unwrap();
                    assert_eq!(back.len(), n);
                }
                out.push((n, (marcel::now() - t0) / (2 * iters as u64)));
            }
            let snap = marcel::obs::metrics_snapshot().unwrap_or_default();
            // Release rank 1 only after the snapshot: its Finalize
            // traffic must not leak into the measured histograms.
            comm.endpoint().send(&[0u8], 1, 1).unwrap();
            Some((out, snap))
        } else if comm.rank() == 1 {
            for &n in &sizes {
                for _ in 0..iters + 1 {
                    let (data, _) = comm
                        .endpoint()
                        .recv::<Vec<u8>>(n, Some(0), Some(0))
                        .unwrap();
                    comm.endpoint().send(&data, 0, 0).unwrap();
                }
            }
            comm.endpoint()
                .recv::<Vec<u8>>(1, Some(0), Some(1))
                .unwrap();
            None
        } else {
            None
        }
    })
    .expect("ping-pong world failed");
    results
        .into_iter()
        .flatten()
        .next()
        .expect("rank 0 produced the series")
}

/// Ping-pong on the raw Madeleine interface (one packing operation per
/// message — the paper's Table 1 methodology).
pub fn raw_madeleine_pingpong(protocol: Protocol, sizes: &[usize], iters: usize) -> Series {
    raw_madeleine_pingpong_metrics(protocol, sizes, iters).0
}

/// Like [`raw_madeleine_pingpong`], additionally returning the
/// metrics-registry snapshot covering the measured iterations (reset
/// after each size's warm-up, snapshot right after rank 0's timed
/// loop). Used as the baseline of the §5 overhead decomposition: its
/// `span/pack/...` and `span/unpack/...` histograms are the cost of
/// one bare Madeleine packing/unpacking operation, without any MPI
/// layer on top.
pub fn raw_madeleine_pingpong_metrics(
    protocol: Protocol,
    sizes: &[usize],
    iters: usize,
) -> (Series, MetricsSnapshot) {
    let kernel = Kernel::new(CostModel::calibrated());
    let session = Session::single_network(&kernel, 2, protocol);
    let channel = session.channels()[0].clone();
    let e0 = channel.endpoint(0).expect("rank 0 is a member");
    let e1 = channel.endpoint(1).expect("rank 1 is a member");
    let sizes0: Vec<usize> = sizes.to_vec();
    let h = kernel.spawn("rank0", move || {
        let exchange = |payload: &Bytes, n: usize| {
            let mut conn = e0.begin_packing(1).expect("rank 1 is a member");
            conn.pack_bytes(payload.clone(), SendMode::Cheaper, ReceiveMode::Cheaper);
            conn.end_packing().expect("fault-free send");
            let mut conn = e0.begin_unpacking().expect("open channel");
            let back = conn.unpack_bytes(SendMode::Cheaper, ReceiveMode::Cheaper);
            conn.end_unpacking();
            assert_eq!(back.len(), n);
        };
        let mut out = Series::new();
        for &n in &sizes0 {
            let payload = Bytes::from(vec![0u8; n]);
            exchange(&payload, n); // warm-up
            marcel::obs::reset_metrics();
            let t0 = marcel::now();
            for _ in 0..iters {
                exchange(&payload, n);
            }
            out.push((n, (marcel::now() - t0) / (2 * iters as u64)));
        }
        let snap = marcel::obs::metrics_snapshot().unwrap_or_default();
        (out, snap)
    });
    let sizes1: Vec<usize> = sizes.to_vec();
    kernel.spawn("rank1", move || {
        for &n in &sizes1 {
            for _ in 0..iters + 1 {
                let mut conn = e1.begin_unpacking().expect("open channel");
                let data = conn.unpack_bytes(SendMode::Cheaper, ReceiveMode::Cheaper);
                conn.end_unpacking();
                assert_eq!(data.len(), n);
                let mut conn = e1.begin_packing(0).expect("rank 0 is a member");
                conn.pack_bytes(data, SendMode::Cheaper, ReceiveMode::Cheaper);
                conn.end_packing().expect("fault-free send");
            }
        }
    });
    kernel.run().expect("raw madeleine ping-pong failed");
    h.join_outcome().expect("rank0 series")
}

/// The topology of the multi-protocol impact experiment (Fig. 9): two
/// nodes connected by SCI, optionally *also* by TCP. All measured
/// traffic rides SCI; the TCP channel's only effect is its polling
/// thread.
pub fn fig9_topology(with_tcp: bool) -> Topology {
    let mut t = Topology::new();
    let a = t.add_node("a", 2);
    let b = t.add_node("b", 2);
    t.add_network(Protocol::Sisci, [a, b]);
    if with_tcp {
        t.add_network(Protocol::Tcp, [a, b]);
    }
    t
}

/// The topology of the multi-rail striping experiment ("Fig. 10", an
/// extension beyond the paper): two nodes connected by BOTH SCI and
/// Myrinet. With the striped policy, rendezvous DATA splits across the
/// two rails; otherwise all traffic rides the faster one (BIP).
pub fn multirail_topology() -> Topology {
    let mut t = Topology::new();
    let a = t.add_node("a", 2);
    let b = t.add_node("b", 2);
    t.add_network(Protocol::Sisci, [a, b]);
    t.add_network(Protocol::Bip, [a, b]);
    t
}

/// The paper's standard sweep for transfer-time plots (1 B – 1 KB).
pub fn latency_sizes() -> Vec<usize> {
    let mut v = vec![1usize, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];
    v.dedup();
    v
}

/// The paper's standard sweep for bandwidth plots (1 B – 1 MB).
pub fn bandwidth_sizes() -> Vec<usize> {
    (0..=20).map(|p| 1usize << p).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_sweeps() {
        assert_eq!(latency_sizes().first(), Some(&1));
        assert_eq!(latency_sizes().last(), Some(&1024));
        assert_eq!(bandwidth_sizes().last(), Some(&(1 << 20)));
    }

    #[test]
    fn bandwidth_math() {
        // 1 MB in 0.1 s -> 10 MB/s.
        let bw = bandwidth_mb_s(1 << 20, VirtualDuration::from_secs_f64(0.1));
        assert!((bw - 10.0).abs() < 1e-9);
    }

    #[test]
    fn fig9_topologies_validate() {
        fig9_topology(false).validate().unwrap();
        fig9_topology(true).validate().unwrap();
        assert_eq!(fig9_topology(true).protocols().len(), 2);
    }

    #[test]
    fn multirail_topology_validates() {
        multirail_topology().validate().unwrap();
        assert_eq!(multirail_topology().protocols().len(), 2);
    }
}
