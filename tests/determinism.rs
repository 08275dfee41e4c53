//! Determinism of the whole stack: the virtual-time kernel commits
//! events in (time, thread) order, so identical programs must yield
//! bit-identical results, virtual end times, and traces — including
//! under randomized (but seeded) traffic.

use mpich::{run_world_report, Placement, ReduceOp, WorldConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::{Protocol, Topology};

fn stress_run(seed: u64) -> (Vec<u64>, marcel::VirtualTime) {
    let report = run_world_report(
        Topology::meta_cluster(2),
        Placement::OneRankPerCpu, // 8 ranks
        WorldConfig::default(),
        move |comm| {
            let me = comm.rank();
            let n = comm.size();
            let mut rng = StdRng::seed_from_u64(seed ^ (me as u64) << 32);
            let mut checksum = 0u64;
            // Every rank sends `rounds` messages to pseudo-random peers
            // and receives exactly the messages addressed to it. The
            // schedule is agreed upon by regenerating every rank's RNG.
            let rounds = 12usize;
            let mut plans: Vec<Vec<(usize, usize)>> = Vec::new(); // per rank: (dst, len)
            for r in 0..n {
                let mut rr = StdRng::seed_from_u64(seed ^ (r as u64) << 32);
                plans.push(
                    (0..rounds)
                        .map(|_| {
                            let dst = rr.gen_range(0..n);
                            let len = rr.gen_range(0..20_000);
                            (dst, len)
                        })
                        .collect(),
                );
            }
            // Post receives for everything addressed to me.
            let mut recvs = Vec::new();
            for (src, plan) in plans.iter().enumerate() {
                for (round, (dst, len)) in plan.iter().enumerate() {
                    if *dst == me {
                        recvs.push(
                            comm.endpoint()
                                .irecv(*len, Some(src), Some(round as i32))
                                .unwrap(),
                        );
                    }
                }
            }
            // Fire my sends (isend so rounds overlap).
            let mut sends = Vec::new();
            for (round, (dst, len)) in plans[me].iter().enumerate() {
                let payload: Vec<u8> = (0..*len).map(|_| rng.gen()).collect();
                sends.push(comm.endpoint().isend(payload, *dst, round as i32).unwrap());
            }
            for (_, status) in mpich::wait_all(recvs) {
                checksum = checksum
                    .wrapping_mul(31)
                    .wrapping_add(status.len as u64)
                    .wrapping_add(status.tag as u64);
            }
            for s in sends {
                s.wait_send();
            }
            // Fold in a collective so the checksum covers everyone.
            comm.allreduce(&[checksum], ReduceOp::Sum)[0]
        },
    )
    .expect("stress world completes");
    (report.results, report.kernel.end_time())
}

#[test]
fn randomized_traffic_is_deterministic() {
    let (r1, t1) = stress_run(0xfeed);
    let (r2, t2) = stress_run(0xfeed);
    assert_eq!(r1, r2, "results must be identical across runs");
    assert_eq!(t1, t2, "virtual end time must be identical across runs");
    // All ranks agreed on the global checksum via the allreduce.
    assert!(r1.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn different_seeds_change_the_schedule() {
    let (r1, _) = stress_run(1);
    let (r2, _) = stress_run(2);
    assert_ne!(r1[0], r2[0], "different traffic should change the checksum");
}

#[test]
fn kernel_trace_is_reproducible_for_a_world() {
    let run = || {
        let kernel = run_world_report(
            Topology::single_network(3, Protocol::Sisci),
            Placement::OneRankPerNode,
            WorldConfig::default(),
            |comm| {
                let x = comm.rank() as i64;
                comm.allreduce(&[x], ReduceOp::Max)
            },
        )
        .unwrap()
        .kernel;
        kernel.end_time()
    };
    assert_eq!(run(), run());
}

#[test]
fn pingpong_time_is_independent_of_unrelated_history() {
    // A steady-state property: the k-th and (k+5)-th ping-pong of the
    // same size cost the same (no hidden drift in the simulation).
    let results = run_world_report(
        Topology::single_network(2, Protocol::Bip),
        Placement::OneRankPerNode,
        WorldConfig::default(),
        |comm| {
            let ep = comm.endpoint();
            if comm.rank() == 0 {
                let mut times = Vec::new();
                for _ in 0..8 {
                    let t0 = marcel::now();
                    ep.send(&[0u8; 64], 1, 0).unwrap();
                    ep.recv::<Vec<u8>>(64, Some(1), Some(0)).unwrap();
                    times.push((marcel::now() - t0).as_nanos());
                }
                times
            } else {
                for _ in 0..8 {
                    let (d, _) = ep.recv::<Vec<u8>>(64, Some(0), Some(0)).unwrap();
                    ep.send(&d, 0, 0).unwrap();
                }
                Vec::new()
            }
        },
    )
    .unwrap()
    .results;
    let times = &results[0];
    // Skip the first (cold floors); the rest must be identical.
    assert!(
        times[1..].windows(2).all(|w| w[0] == w[1]),
        "steady-state ping-pongs drifted: {times:?}"
    );
}

#[test]
fn world_trace_capture() {
    let cfg = WorldConfig::builder().trace(true).build();
    let kernel = run_world_report(
        Topology::single_network(2, Protocol::Bip),
        Placement::OneRankPerNode,
        cfg,
        |comm| {
            let ep = comm.endpoint();
            if comm.rank() == 0 {
                ep.send(&[1u8], 1, 0).unwrap();
            } else {
                ep.recv::<Vec<u8>>(8, Some(0), Some(0)).unwrap();
            }
        },
    )
    .unwrap()
    .kernel;
    let trace = kernel.take_trace();
    assert!(!trace.is_empty(), "trace must record events");
    // Spawns of both rank mains and their pollers are recorded.
    let spawns = trace.iter().filter(|e| e.what == "spawn").count();
    assert!(
        spawns >= 4,
        "expected rank mains + pollers, got {spawns} spawns"
    );
    // Events are recorded in a deterministic order: re-run matches.
    let rerun = {
        let cfg = WorldConfig::builder().trace(true).build();
        let kernel = run_world_report(
            Topology::single_network(2, Protocol::Bip),
            Placement::OneRankPerNode,
            cfg,
            |comm| {
                let ep = comm.endpoint();
                if comm.rank() == 0 {
                    ep.send(&[1u8], 1, 0).unwrap();
                } else {
                    ep.recv::<Vec<u8>>(8, Some(0), Some(0)).unwrap();
                }
            },
        )
        .unwrap()
        .kernel;
        kernel.take_trace()
    };
    assert_eq!(trace, rerun);
}
