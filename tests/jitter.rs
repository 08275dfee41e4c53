//! Robustness under deterministic link jitter (failure injection):
//! every MPI semantic must survive arbitrary arrival-time perturbation,
//! and the simulation must stay reproducible.

use mpich::{run_world, run_world_report, Placement, ReduceOp, WorldConfig};
use simnet::{Protocol, Topology};

/// 2-node SCI topology whose link stretches arrivals by up to
/// `amplitude_ns` (pseudo-random, seeded).
fn jittery(n: usize, amplitude_ns: u64, seed: u64) -> Topology {
    let mut t = Topology::new();
    let nodes: Vec<_> = (0..n).map(|i| t.add_node(format!("n{i}"), 1)).collect();
    t.add_network_with_model(
        Protocol::Sisci,
        Protocol::Sisci.model().with_jitter(amplitude_ns, seed),
        nodes,
    );
    t
}

#[test]
fn pair_fifo_survives_heavy_jitter() {
    // Jitter far larger than message spacing: without the FIFO floor,
    // later messages would overtake earlier ones.
    let results = run_world(
        jittery(2, 200_000, 7),
        Placement::OneRankPerNode,
        WorldConfig::default(),
        |comm| {
            let ep = comm.endpoint();
            if comm.rank() == 0 {
                for i in 0..30u8 {
                    ep.send(&[i], 1, 0).unwrap();
                }
                Vec::new()
            } else {
                (0..30)
                    .map(|_| ep.recv::<Vec<u8>>(8, Some(0), Some(0)).unwrap().0[0])
                    .collect()
            }
        },
    )
    .unwrap();
    assert_eq!(results[1], (0..30u8).collect::<Vec<_>>());
}

#[test]
fn collectives_survive_jitter() {
    for seed in [1u64, 2, 3] {
        let results = run_world(
            jittery(5, 50_000, seed),
            Placement::OneRankPerNode,
            WorldConfig::default(),
            |comm| {
                let me = comm.rank() as i64;
                let sum = comm.allreduce(&[me], ReduceOp::Sum)[0];
                let all = comm.allgather(&[me * me]);
                let scan = comm.scan(&[1i64], ReduceOp::Sum)[0];
                (sum, all.len(), scan)
            },
        )
        .unwrap();
        for (r, (sum, n, scan)) in results.iter().enumerate() {
            assert_eq!(*sum, 10);
            assert_eq!(*n, 5);
            assert_eq!(*scan, r as i64 + 1);
        }
    }
}

#[test]
fn rendezvous_handshake_survives_jitter() {
    let n = 300_000;
    let results = run_world(
        jittery(2, 100_000, 11),
        Placement::OneRankPerNode,
        WorldConfig::default(),
        move |comm| {
            let ep = comm.endpoint();
            if comm.rank() == 0 {
                let payload: Vec<u8> = (0..n).map(|i| (i % 239) as u8).collect();
                ep.send(&payload, 1, 0).unwrap();
                true
            } else {
                let (data, _) = ep.recv::<Vec<u8>>(n, Some(0), Some(0)).unwrap();
                data.iter().enumerate().all(|(i, &b)| b == (i % 239) as u8)
            }
        },
    )
    .unwrap();
    assert!(results[1]);
}

#[test]
fn jittered_runs_are_still_deterministic() {
    let run = || {
        let report = run_world_report(
            jittery(4, 80_000, 99),
            Placement::OneRankPerNode,
            WorldConfig::default(),
            |comm| {
                let mut acc = 0i64;
                for round in 0..5 {
                    let v = comm.allreduce(&[comm.rank() as i64 + round], ReduceOp::Max)[0];
                    acc = acc * 31 + v;
                }
                acc
            },
        )
        .unwrap();
        (report.results, report.kernel.end_time())
    };
    assert_eq!(run(), run());
}

#[test]
fn jitter_actually_changes_timing() {
    let time = |amplitude: u64| {
        let kernel = run_world_report(
            jittery(2, amplitude, 5),
            Placement::OneRankPerNode,
            WorldConfig::default(),
            |comm| {
                let ep = comm.endpoint();
                if comm.rank() == 0 {
                    ep.send(&[1u8; 64], 1, 0).unwrap();
                    ep.recv::<Vec<u8>>(64, Some(1), Some(0)).unwrap();
                } else {
                    let (d, _) = ep.recv::<Vec<u8>>(64, Some(0), Some(0)).unwrap();
                    ep.send(&d, 0, 0).unwrap();
                }
            },
        )
        .unwrap()
        .kernel;
        kernel.end_time()
    };
    assert!(time(100_000) > time(0), "jitter must be observable");
}
