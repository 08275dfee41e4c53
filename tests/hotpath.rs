//! End-to-end tests for the hot-path PR: idle-channel poll parking at
//! the MPI level (the paper's §3.3 / Figure 9 scenario), parking under
//! fault injection, and parking determinism.
//!
//! The engine-level matching-store equivalence lives in
//! `tests/matching_equivalence.rs`; the kernel-level parking unit tests
//! live in `crates/marcel/src/poll.rs`.

use bench::pingpong::fig9_topology;
use marcel::{CostModel, VirtualDuration, VirtualTime};
use mpich::{run_world, run_world_report, Placement, PollPolicy, WorldConfig};
use simnet::{FaultPlan, Protocol, Topology};

/// Steady-state SCI one-way ping-pong latency: 32 warm-up exchanges
/// (plenty for `Parking` to park an idle TCP channel after
/// `PARK_AFTER = 8` empty detections), then a timed 16-exchange window.
/// Virtual time, so the result is exact and deterministic.
fn steady_sci_oneway(with_tcp: bool, poll: PollPolicy) -> VirtualDuration {
    steady_sci_oneway_in(with_tcp, WorldConfig::builder().poll(poll).build())
}

fn steady_sci_oneway_in(with_tcp: bool, config: WorldConfig) -> VirtualDuration {
    let results = run_world(
        fig9_topology(with_tcp),
        Placement::OneRankPerNode,
        config,
        |comm| {
            let ep = comm.endpoint();
            const WARM: usize = 32;
            const ITERS: u64 = 16;
            if comm.rank() == 0 {
                let data = vec![0u8; 4];
                for _ in 0..WARM {
                    ep.send(&data, 1, 0).unwrap();
                    ep.recv::<Vec<u8>>(4, Some(1), Some(0)).unwrap();
                }
                let t0 = marcel::now();
                for _ in 0..ITERS {
                    ep.send(&data, 1, 0).unwrap();
                    ep.recv::<Vec<u8>>(4, Some(1), Some(0)).unwrap();
                }
                Some((marcel::now() - t0) / (2 * ITERS))
            } else if comm.rank() == 1 {
                for _ in 0..WARM + ITERS as usize {
                    let (data, _) = ep.recv::<Vec<u8>>(4, Some(0), Some(0)).unwrap();
                    ep.send(&data, 0, 0).unwrap();
                }
                None
            } else {
                None
            }
        },
    )
    .expect("fig9 world failed");
    results
        .into_iter()
        .flatten()
        .next()
        .expect("rank 0 measured")
}

/// The §3.3 headline: under `Seed`, opening an idle TCP channel taxes
/// every SCI detection; under `Parking` the steady-state SCI latency
/// with an idle TCP channel equals the SCI-only latency exactly.
#[test]
fn parking_removes_idle_tcp_tax_at_mpi_level() {
    let seed_alone = steady_sci_oneway(false, PollPolicy::Seed);
    let seed_taxed = steady_sci_oneway(true, PollPolicy::Seed);
    assert!(
        seed_taxed > seed_alone,
        "seed: idle TCP should tax SCI latency ({seed_taxed:?} vs {seed_alone:?})"
    );

    let park_alone = steady_sci_oneway(false, PollPolicy::Parking);
    let park_taxed = steady_sci_oneway(true, PollPolicy::Parking);
    assert_eq!(
        park_taxed, park_alone,
        "parking: steady-state SCI latency must not see the idle TCP channel"
    );
    // Parking never penalizes the busy channel itself.
    assert_eq!(park_alone, seed_alone);
}

/// Deterministic payload of message `i` from rank `src`.
fn payload(src: usize, i: usize, n: usize) -> Vec<u8> {
    (0..n)
        .map(|k| {
            (src as u8)
                .wrapping_mul(31)
                .wrapping_add((i as u8).wrapping_mul(17))
                .wrapping_add(k as u8)
        })
        .collect()
}

/// Sizes straddling the eager→rendezvous switch points of both rails.
const SIZES: [usize; 5] = [1, 512, 7 * 1024, 9 * 1024, 40 * 1024];
const TAG: i32 = 7;

/// Two nodes joined by SCI and Myrinet rails, both lossy with a down
/// window on SCI — the `tests/faults.rs` scenario, here run under
/// `Parking`: retransmission-driven revival of a quiet channel must
/// re-arm its poll source, not deliver into a parked one.
#[test]
fn faulted_transfers_survive_under_parking() {
    let mut t = Topology::new();
    let a = t.add_node("a", 2);
    let b = t.add_node("b", 2);
    let plan = FaultPlan::new(0xF00D)
        .with_loss(0.2)
        .with_down(VirtualTime(300_000), VirtualTime(900_000));
    let sci = t.add_network(Protocol::Sisci, [a, b]);
    let bip = t.add_network(Protocol::Bip, [a, b]);
    let mut sci_plan = plan.clone();
    sci_plan.seed ^= 0x5C1_5C1;
    t.set_fault(sci, sci_plan);
    t.set_fault(bip, plan);

    let got = run_world(
        t,
        Placement::OneRankPerNode,
        WorldConfig::builder().poll(PollPolicy::Parking).build(),
        move |comm| {
            let ep = comm.endpoint();
            let me = comm.rank();
            let peer = 1 - me;
            let mut got = Vec::new();
            if me == 0 {
                for (i, &n) in SIZES.iter().enumerate() {
                    ep.send(payload(me, i, n), peer, TAG).unwrap();
                }
            }
            for &n in &SIZES {
                got.push(ep.recv::<Vec<u8>>(n, Some(peer), Some(TAG)).unwrap().0);
            }
            if me == 1 {
                for (i, &n) in SIZES.iter().enumerate() {
                    ep.send(payload(me, i, n), peer, TAG).unwrap();
                }
            }
            got
        },
    )
    .expect("faulted parking world failed to complete");

    for (rank, received) in got.iter().enumerate() {
        let from = 1 - rank;
        let want: Vec<Vec<u8>> = SIZES
            .iter()
            .enumerate()
            .map(|(i, &n)| payload(from, i, n))
            .collect();
        assert_eq!(received, &want, "rank {rank} payload mismatch");
    }
}

/// Parking is a deterministic policy: two identical runs produce
/// identical virtual-time results.
#[test]
fn parking_worlds_are_deterministic() {
    let a = steady_sci_oneway(true, PollPolicy::Parking);
    let b = steady_sci_oneway(true, PollPolicy::Parking);
    assert_eq!(a, b);
}

/// The cost model is the one home of the polling policy: a world built
/// from a parking cost model runs parking, with no second knob that
/// silently puts `Seed` back.
#[test]
fn cost_model_parking_reaches_the_kernel() {
    let config = || {
        WorldConfig::builder()
            .cost_model(CostModel::calibrated().with_parking())
            .build()
    };
    let report = run_world_report(
        fig9_topology(true),
        Placement::OneRankPerNode,
        config(),
        |_| (),
    )
    .expect("fig9 world failed");
    assert_eq!(report.kernel.cost().poll_policy, PollPolicy::Parking);
    assert_eq!(
        steady_sci_oneway_in(true, config()),
        steady_sci_oneway(true, PollPolicy::Parking)
    );
}
