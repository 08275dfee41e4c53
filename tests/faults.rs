//! Fault-injection tests: the robustness extension end to end.
//!
//! The paper assumes perfectly reliable networks; these tests exercise
//! the reproduction's reliability sublayer (madeleine retransmit/dedup)
//! and ch_mad's dynamic rail failover under deterministic, seeded
//! fault plans. The master seed comes from the `FAULT_SEED` environment
//! variable (CI runs the suite under several seeds); unset, a fixed
//! default keeps local runs reproducible.

use marcel::VirtualTime;
use mpich::{
    run_world, run_world_report, ChMadConfig, Placement, PolicyMode, RemoteDeviceKind, WorldConfig,
};
use proptest::prelude::*;
use simnet::{FaultPlan, Protocol, Topology};

/// Master seed: `FAULT_SEED` env var, or a fixed default.
fn fault_seed() -> u64 {
    std::env::var("FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xF00D)
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

/// Two nodes joined by BOTH an SCI rail and a Myrinet rail, each rail
/// carrying its own (decorrelated) copy of `plan` when given.
fn multirail(plan: Option<FaultPlan>) -> Topology {
    let mut t = Topology::new();
    let a = t.add_node("a", 2);
    let b = t.add_node("b", 2);
    let sci = t.add_network(Protocol::Sisci, [a, b]);
    let bip = t.add_network(Protocol::Bip, [a, b]);
    if let Some(plan) = plan {
        let mut sci_plan = plan.clone();
        sci_plan.seed ^= 0x5C1_5C1;
        t.set_fault(sci, sci_plan);
        t.set_fault(bip, plan);
    }
    t
}

/// Sizes straddling the eager→rendezvous switch points of both rails
/// (BIP 7 KB, SCI 8 KB).
const SIZES: [usize; 5] = [1, 512, 7 * 1024, 9 * 1024, 40 * 1024];
const TAG: i32 = 7;

/// Exchange `SIZES` in both directions on the same (sender, tag) stream
/// and return each rank's received payload sequence. Rank 0 sends
/// first; rank 1 receives first — blocking rendezvous sends in both
/// directions at once would deadlock by design, faults or not.
fn run_transfers(topology: Topology) -> Vec<Vec<Vec<u8>>> {
    run_world(
        topology,
        Placement::OneRankPerNode,
        WorldConfig::default(),
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
    .expect("faulted world failed to complete")
}

fn expected_from(src: usize) -> Vec<Vec<u8>> {
    SIZES
        .iter()
        .enumerate()
        .map(|(i, &n)| payload(src, i, n))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The liveness + integrity property of the reliability sublayer:
    /// under ANY survivable plan (loss < 1, finite down windows) every
    /// transfer completes, and payloads arrive intact in per-(sender,
    /// tag) order — exactly the fault-free sequence.
    #[test]
    fn survivable_plans_preserve_payload_and_order(
        loss_pm in 0u64..600,       // per-mille: loss in [0, 0.6)
        ack_loss_pm in 0u64..300,   // per-mille: ack loss in [0, 0.3)
        down_start in 50_000u64..2_000_000,
        down_len in 10_000u64..500_000,
        salt in 0u64..u64::MAX,
    ) {
        let plan = FaultPlan::new(fault_seed() ^ salt)
            .with_loss(loss_pm as f64 / 1000.0)
            .with_ack_loss(ack_loss_pm as f64 / 1000.0)
            .with_down(VirtualTime(down_start), VirtualTime(down_start + down_len));
        prop_assert!(plan.is_survivable());
        let got = run_transfers(multirail(Some(plan)));
        prop_assert_eq!(&got[0], &expected_from(1), "rank 0's received stream");
        prop_assert_eq!(&got[1], &expected_from(0), "rank 1's received stream");
    }
}

/// Two dual-CPU nodes joined by an SCI rail and a Myrinet rail that
/// goes hard down for good at 2 ms (a hard-down window ignores the
/// plan's seed: every attempt inside it drops).
fn bip_dies_at_2ms() -> Topology {
    let mut t = Topology::new();
    let a = t.add_node("a", 2);
    let b = t.add_node("b", 2);
    t.add_network(Protocol::Sisci, [a, b]);
    t.add_network_with_fault(
        Protocol::Bip,
        FaultPlan::new(fault_seed()).link_down_from(VirtualTime(2_000_000)),
        [a, b],
    );
    t
}

/// A world whose `ch_mad` stripes rendezvous DATA across rails.
fn striped() -> mpich::WorldConfigBuilder {
    WorldConfig::builder().remote(RemoteDeviceKind::ChMad(ChMadConfig {
        policy: PolicyMode::Striped,
        ..ChMadConfig::default()
    }))
}

/// One rail of a dual-rail link goes hard down mid-stream: the first
/// striped rendezvous uses both rails, then the Myrinet rail dies and
/// the second transfer must detect the dead pair (retransmits
/// exhausted), fail over, and complete on SCI alone.
#[test]
fn rail_hard_down_mid_stream_fails_over() {
    let t = bip_dies_at_2ms();
    let config = striped().build();
    const N: usize = 4 << 20;
    const MSGS: usize = 2;
    let report = run_world_report(t, Placement::OneRankPerNode, config, move |comm| {
        let ep = comm.endpoint();
        if comm.rank() == 0 {
            for i in 0..MSGS {
                ep.send(payload(0, i, N), 1, i as i32).unwrap();
            }
            true
        } else {
            (0..MSGS).all(|i| {
                ep.recv::<Vec<u8>>(N, Some(0), Some(i as i32)).unwrap().0 == payload(0, i, N)
            })
        }
    })
    .expect("failover world failed to complete");
    assert_eq!(
        report.results,
        vec![true, true],
        "payloads survived the failover"
    );
    let counters = report.session.counters();
    assert!(
        counters.failovers >= 1,
        "expected at least one rail failover, got {}",
        counters.failovers
    );
    let c = counters.faults;
    assert!(c.dead_pairs >= 1, "BIP pair should be declared dead: {c:?}");
    assert!(
        c.drops >= madeleine::MAX_SEND_ATTEMPTS as u64,
        "every attempt on the dead rail drops: {c:?}"
    );
    assert!(
        c.retransmits >= madeleine::MAX_SEND_ATTEMPTS as u64 - 1,
        "the dead rail is retried to exhaustion: {c:?}"
    );
}

/// Bit-identical replay: the same seed gives the same results, the same
/// virtual end time, and the same fault counters — the whole point of
/// plan-as-pure-data fault injection.
#[test]
fn faulted_runs_are_seed_deterministic() {
    let run = || {
        let plan = FaultPlan::new(fault_seed())
            .with_loss(0.25)
            .with_ack_loss(0.25)
            .with_down(VirtualTime(100_000), VirtualTime(400_000));
        let sizes: Vec<usize> = SIZES.to_vec();
        let report = run_world_report(
            multirail(Some(plan)),
            Placement::OneRankPerNode,
            WorldConfig::default(),
            move |comm| {
                let ep = comm.endpoint();
                let me = comm.rank();
                let peer = 1 - me;
                if me == 0 {
                    for (i, &n) in sizes.iter().enumerate() {
                        ep.send(payload(me, i, n), peer, TAG).unwrap();
                    }
                    Vec::new()
                } else {
                    sizes
                        .iter()
                        .map(|&n| ep.recv::<Vec<u8>>(n, Some(peer), Some(TAG)).unwrap().0)
                        .collect()
                }
            },
        )
        .expect("deterministic faulted world failed");
        (
            report.results,
            report.kernel.end_time(),
            report.session.counters(),
        )
    };
    assert_eq!(run(), run());
}

/// The session's live-rail view after a rail death, and the failover
/// record that led to it. The Myrinet rail of a striped SCI+BIP link
/// goes hard down while rank 0 streams to rank 2 (DATA one way,
/// OK_TO_SEND the other): the rails resolved for that rank pair lose
/// exactly the dead rail, every other pair across the same two nodes
/// keeps both, and the `RailFailover` events are pinned, virtual times
/// included, to what the per-packet topology search recorded before
/// peer resolution moved into the session's tables.
#[test]
fn dead_rail_leaves_the_live_rails_of_exactly_its_pair() {
    let t = bip_dies_at_2ms();
    let config = striped().trace(true).build();
    const N: usize = 4 << 20;
    // Ranks 0, 1 on node a; 2, 3 on node b.
    let report = run_world_report(
        t,
        Placement::OneRankPerCpu,
        config,
        move |comm| match comm.rank() {
            0 => (0..2).for_each(|i| comm.endpoint().send(payload(0, i, N), 2, i as i32).unwrap()),
            2 => (0..2).for_each(|i| {
                assert_eq!(
                    comm.endpoint()
                        .recv::<Vec<u8>>(N, Some(0), Some(i as i32))
                        .unwrap()
                        .0,
                    payload(0, i, N)
                );
            }),
            _ => {}
        },
    )
    .expect("failover world failed to complete");
    let session = &report.session;
    let names = |rails: madeleine::Rails| rails.map(|c| c.name().to_string()).collect::<Vec<_>>();
    assert_eq!(names(session.channels_between(0, 2)), ["bip#1", "sisci#0"]);
    assert_eq!(names(session.live_channels_between(0, 2)), ["sisci#0"]);
    assert_eq!(names(session.live_channels_between(2, 0)), ["sisci#0"]);
    for (x, y) in [(0, 3), (3, 0), (1, 2), (2, 1), (1, 3), (3, 1)] {
        assert_eq!(
            names(session.live_channels_between(x, y)),
            ["bip#1", "sisci#0"],
            "pair ({x}, {y}) never lost a rail"
        );
    }
    let failovers: Vec<(u64, String)> = report
        .kernel
        .take_trace()
        .into_iter()
        .filter(|e| matches!(e.what, marcel::obs::Event::RailFailover { .. }))
        .map(|e| (e.time.0, e.what.to_string()))
        .collect();
    let expected = [
        (142_045_868, "rail failover #2->#0: bip#1 -> sisci#0"),
        (151_366_960, "rail failover #0->#2: bip#1 -> sisci#0"),
    ];
    assert_eq!(failovers.len(), expected.len(), "{failovers:?}");
    for ((time, what), (want_time, want_what)) in failovers.iter().zip(expected) {
        assert_eq!((*time, what.as_str()), (want_time, want_what));
    }
    let metrics = report.kernel.metrics_snapshot();
    let counters = session.counters();
    assert_eq!(counters.failovers, 2);
    // The counts are pinned too: a hard-down window drops every
    // attempt whatever the plan's seed, so they hold for any
    // `FAULT_SEED`. BIP's two directions each burn the 30-attempt
    // budget (one drop per attempt, a retransmit before every attempt
    // but the first) and die.
    assert_eq!(
        counters.faults,
        madeleine::FaultCounters {
            retransmits: 58,
            drops: 60,
            duplicates: 0,
            deferrals: 0,
            dead_pairs: 2,
        }
    );
    assert_eq!(counters.rndv_reissues, 1);
    assert_eq!(
        (counters.wire_messages, counters.wire_bytes),
        (7 + 4, 5_887_774 + 2_501_149)
    );
    let wire: Vec<(String, u64, u64)> = session
        .channels()
        .iter()
        .map(|c| {
            let name = c.name();
            let count = |what: &str| metrics.counter(&format!("net/{name}/{what}"));
            (name.to_string(), count("messages"), count("bytes"))
        })
        .collect();
    assert_eq!(
        wire,
        [
            ("sisci#0".to_string(), 7, 5_887_774),
            ("bip#1".to_string(), 4, 2_501_149),
        ]
    );
}
