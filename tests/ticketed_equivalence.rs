//! Seed ↔ Ticketed equivalence: `ExecPolicy` is an inert label since
//! simulated threads became fibers — both values run one hand-off —
//! and these tests keep it that way. They run the same worlds under
//! `ExecPolicy::Seed` and `ExecPolicy::Ticketed` and assert that
//! everything observable from inside the simulation is bit-identical:
//! per-rank results, the virtual end time, the full kernel trace (event
//! for event, ticket for ticket), the metrics snapshot, and the
//! exported Chrome JSON bytes — across random world seeds and under
//! active fault plans (loss + down windows + degraded rails), where
//! retransmission timers give the scheduler far more interleaving
//! opportunities than a clean run. Each pair is also a replay check:
//! two runs of one world must agree on all of it.
//!
//! The committer-fallback test marks commits through the test-only
//! hook and asserts the marked run still reproduces the Seed run
//! exactly.

use bytes::Bytes;
use marcel::{
    chrome_trace_json, CostModel, ExecPolicy, Kernel, MetricsSnapshot, TraceEvent, VirtualDuration,
    VirtualTime,
};
use mpich::{run_world_report, thread_metas, Placement, ReduceOp, WorldConfig};
use proptest::prelude::*;
use simnet::{FaultPlan, Protocol, Topology};

/// Everything observable from inside the simulation after a world run.
#[derive(PartialEq, Debug)]
struct Artifacts {
    results: Vec<u64>,
    end: VirtualTime,
    trace: Vec<TraceEvent>,
    metrics: MetricsSnapshot,
    chrome: String,
}

/// A 4-rank ring exchange with seed-dependent payload sizes straddling
/// the eager→rendezvous switch, finished with an allreduce, over an
/// optionally faulted SCI network.
fn world_run(exec: ExecPolicy, world_seed: u64, fault: Option<FaultPlan>) -> Artifacts {
    world_run_on(exec, world_seed, fault, false)
}

/// [`world_run`], with `xcheck` arming the kernel's per-decision
/// cross-check — which asserts ready heap == linear scan at *every*
/// scheduling decision.
fn world_run_on(
    exec: ExecPolicy,
    world_seed: u64,
    fault: Option<FaultPlan>,
    xcheck: bool,
) -> Artifacts {
    let mut t = Topology::new();
    let a = t.add_node("a", 2);
    let b = t.add_node("b", 2);
    match fault {
        Some(plan) => {
            t.add_network_with_fault(Protocol::Sisci, plan, [a, b]);
        }
        None => {
            t.add_network(Protocol::Sisci, [a, b]);
        }
    }
    let mut cost_model = CostModel::calibrated();
    cost_model.exec_seed = world_seed;
    if xcheck {
        cost_model = cost_model.with_sched_xcheck();
    }
    let config = WorldConfig::builder()
        .cost_model(cost_model)
        .trace(true)
        .exec(exec)
        .build();
    let report = run_world_report(t, Placement::OneRankPerCpu, config, move |comm| {
        let ep = comm.endpoint();
        let me = comm.rank();
        let n = comm.size();
        let mut checksum = 0u64;
        for round in 0..3u64 {
            // Message size is a pure function of (world_seed, sender,
            // round): 1 B .. ~12 KB, both sides of SCI's 8 KB switch.
            let size = |src: usize| {
                (simnet::rng::message_hash(world_seed, round, src) % 12_000 + 1) as usize
            };
            let payload = vec![me as u8 ^ round as u8; size(me)];
            let dst = (me + 1) % n;
            let src = (me + n - 1) % n;
            let send = ep.isend(payload, dst, round as i32).unwrap();
            let (data, status) = ep
                .recv::<Bytes>(size(src), Some(src), Some(round as i32))
                .unwrap();
            send.wait_send();
            checksum = checksum
                .wrapping_mul(31)
                .wrapping_add(status.len as u64)
                .wrapping_add(data.iter().map(|&b| b as u64).sum::<u64>());
            // Fold in the ticketed dispatch identity of this moment:
            // equal across policies iff the schedules are equal.
            checksum ^= marcel::dispatch_seed();
        }
        comm.allreduce(&[checksum], ReduceOp::Sum)[0]
    })
    .expect("world completes under every exec policy");
    let kernel = report.kernel;
    let trace = kernel.take_trace();
    let chrome = chrome_trace_json(&trace, &thread_metas(&kernel, &report.session));
    Artifacts {
        results: report.results,
        end: kernel.end_time(),
        trace,
        metrics: kernel.metrics_snapshot(),
        chrome,
    }
}

/// A survivable fault plan derived from the case seed: moderate loss,
/// one finite down window, a degraded-bandwidth stretch.
fn plan_from(seed: u64) -> FaultPlan {
    let start = 100_000 + simnet::rng::message_hash(seed, 1, 0) % 1_000_000;
    FaultPlan::new(seed)
        .with_loss((simnet::rng::message_hash(seed, 0, 0) % 400) as f64 / 1000.0)
        .with_down(VirtualTime(start), VirtualTime(start + 200_000))
}

fn assert_equivalent(world_seed: u64, fault: Option<FaultPlan>) {
    let seed_run = world_run(ExecPolicy::Seed, world_seed, fault.clone());
    assert!(!seed_run.trace.is_empty(), "trace must be recorded");
    let t = world_run(ExecPolicy::Ticketed { workers: 2 }, world_seed, fault);
    assert_eq!(t.results, seed_run.results, "results diverged");
    assert_eq!(t.end, seed_run.end, "end time diverged");
    assert_eq!(t.trace, seed_run.trace, "trace diverged");
    assert_eq!(t.metrics, seed_run.metrics, "metrics diverged");
    assert_eq!(t.chrome, seed_run.chrome, "chrome export diverged");
    assert_eq!(
        t.metrics.counter("exec/fallback"),
        0,
        "no commit is marked fallback unless a test asks for it"
    );
}

#[test]
fn clean_world_is_bit_identical_across_policies() {
    assert_equivalent(0xC0FFEE, None);
}

/// Index ↔ scan equivalence (the test names keep the index's old name,
/// the wheel): a run with the in-kernel cross-check armed panics on the
/// first decision where the ready heap's peek differs from the linear
/// scan, so completing at all is the assertion — and the check itself
/// must be invisible: same trace (event for event, ticket for ticket),
/// results, end time and metrics as the plain run.
fn assert_wheel_matches_scan(world_seed: u64, fault: Option<FaultPlan>) {
    let exec = ExecPolicy::Ticketed { workers: 2 };
    let wheel = world_run(exec, world_seed, fault.clone());
    assert!(!wheel.trace.is_empty(), "trace must be recorded");
    let xcheck = world_run_on(exec, world_seed, fault, true);
    assert!(xcheck == wheel, "cross-checked wheel diverged");
}

#[test]
fn wheel_matches_scan_on_a_clean_world() {
    assert_wheel_matches_scan(0xBEEF, None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random world seeds, no faults: seeds change payload sizes (and
    /// so protocol choices and schedules), never the Seed ↔ Ticketed
    /// equivalence.
    #[test]
    fn random_worlds_are_bit_identical(world_seed in 0u64..u64::MAX) {
        assert_equivalent(world_seed, None);
    }

    /// Random survivable fault plans: retransmit timers, down windows
    /// and loss streams stress the scheduler's timed-wait paths, the
    /// hardest case for the hand-off.
    #[test]
    fn faulted_worlds_are_bit_identical(case_seed in 0u64..u64::MAX) {
        let plan = plan_from(case_seed);
        prop_assume!(plan.is_survivable());
        assert_equivalent(case_seed, Some(plan));
    }

    /// Random world seeds: the ready heap must agree with the linear scan
    /// at every decision whatever the payload-size-driven schedule
    /// looks like.
    #[test]
    fn wheel_matches_scan_on_random_worlds(world_seed in 0u64..u64::MAX) {
        assert_wheel_matches_scan(world_seed, None);
    }

    /// Random survivable fault plans under the ready heap: sleep/timeout
    /// wake paths (retransmit timers, down windows) are where an
    /// indexed ready structure could drift from the scan — the
    /// cross-check run asserts every decision.
    #[test]
    fn wheel_matches_scan_on_faulted_worlds(case_seed in 0u64..u64::MAX) {
        let plan = plan_from(case_seed);
        prop_assume!(plan.is_survivable());
        assert_wheel_matches_scan(case_seed, Some(plan));
    }
}

/// Forced committer fallback: the marked commits must still reproduce
/// the Seed schedule exactly (same trace, same end time), with every
/// one of them counted.
#[test]
fn committer_fallback_reproduces_the_seed_schedule() {
    let run = |exec: ExecPolicy, forced: u32| {
        let mut cost = CostModel::calibrated();
        cost.exec_policy = exec;
        let kernel = Kernel::new(cost);
        kernel.enable_trace();
        kernel.force_commit_fallback(forced);
        // Initial count 1 primes the release/acquire ring.
        let sem = std::sync::Arc::new(marcel::Semaphore::new(&kernel, 1));
        for i in 0..4 {
            let sem = sem.clone();
            kernel.spawn(format!("worker{i}"), move || {
                for _ in 0..8 {
                    marcel::advance(VirtualDuration::from_nanos(70 * (i as u64 + 1)));
                    sem.release();
                    sem.acquire();
                }
            });
        }
        kernel.run().expect("world completes");
        (
            kernel.take_trace(),
            kernel.end_time(),
            kernel.metrics_snapshot().counter("exec/fallback"),
        )
    };
    let (seed_trace, seed_end, seed_falls) = run(ExecPolicy::Seed, 0);
    assert_eq!(seed_falls, 0);
    let (t_trace, t_end, t_falls) = run(ExecPolicy::Ticketed { workers: 4 }, 5);
    assert_eq!(t_falls, 5, "every forced fallback is counted");
    assert_eq!(
        t_trace, seed_trace,
        "fallback must replay the Seed schedule"
    );
    assert_eq!(t_end, seed_end);
}
