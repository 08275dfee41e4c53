//! Ready heap ↔ linear scan: a world run with the kernel's per-decision
//! cross-check armed (`CostModel::with_sched_xcheck`) panics on the
//! first scheduling decision where the ready heap's peek differs from
//! an O(threads) scan, so completing at all is the assertion — and the
//! check itself must be invisible: the same per-rank results, virtual
//! end time, full kernel trace (event for event, ticket for ticket),
//! metrics snapshot and exported Chrome JSON bytes as the plain run.
//! Random world seeds and active fault plans (loss + down windows),
//! whose retransmission timers stress the timed-wait paths, drive it.
//!
//! The planted-fallback test marks commits through the test-only hook
//! and asserts the marked run still reproduces the unmarked schedule.

use bytes::Bytes;
use marcel::{
    chrome_trace_json, CostModel, Kernel, MetricsSnapshot, TraceEvent, VirtualDuration, VirtualTime,
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
/// optionally faulted SCI network; `xcheck` arms the kernel's
/// per-decision heap ↔ scan cross-check.
fn world_run(world_seed: u64, fault: Option<FaultPlan>, xcheck: bool) -> Artifacts {
    let mut t = Topology::new();
    let a = t.add_node("a", 2);
    let b = t.add_node("b", 2);
    match fault {
        Some(plan) => t.add_network_with_fault(Protocol::Sisci, plan, [a, b]),
        None => t.add_network(Protocol::Sisci, [a, b]),
    };
    let mut cost_model = CostModel::calibrated();
    if xcheck {
        cost_model = cost_model.with_sched_xcheck();
    }
    let config = WorldConfig::builder()
        .cost_model(cost_model)
        .trace(true)
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
            // Fold in the dispatch ticket of this moment: equal across
            // runs iff the schedules are equal.
            checksum ^= marcel::dispatch_ticket();
        }
        comm.allreduce(&[checksum], ReduceOp::Sum)[0]
    })
    .expect("world completes");
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

fn assert_heap_matches_scan(world_seed: u64, fault: Option<FaultPlan>) {
    let heap = world_run(world_seed, fault.clone(), false);
    assert!(!heap.trace.is_empty(), "trace must be recorded");
    assert_eq!(
        heap.metrics.counter("exec/fallback"),
        0,
        "no commit is marked fallback unless a test asks for it"
    );
    let xcheck = world_run(world_seed, fault, true);
    assert!(xcheck == heap, "cross-checked heap diverged");
}

#[test]
fn heap_matches_scan_on_a_clean_world() {
    assert_heap_matches_scan(0xBEEF, None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random world seeds: the ready heap must agree with the linear scan
    /// at every decision whatever the payload-size-driven schedule
    /// looks like.
    #[test]
    fn heap_matches_scan_on_random_worlds(world_seed in 0u64..u64::MAX) {
        assert_heap_matches_scan(world_seed, None);
    }

    /// Random survivable fault plans: sleep/timeout wake paths
    /// (retransmit timers, down windows) are where an indexed ready
    /// structure could drift from the scan — the cross-check run
    /// asserts every decision.
    #[test]
    fn heap_matches_scan_on_faulted_worlds(case_seed in 0u64..u64::MAX) {
        let plan = plan_from(case_seed);
        prop_assume!(plan.is_survivable());
        assert_heap_matches_scan(case_seed, Some(plan));
    }
}

/// Forced committer fallback: the marked commits must still reproduce
/// the unmarked schedule exactly (same trace, same end time), with every
/// one of them counted.
#[test]
fn forced_fallback_reproduces_the_unforced_schedule() {
    let run = |forced: u32| {
        let kernel = Kernel::new(CostModel::calibrated());
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
    let (plain_trace, plain_end, plain_falls) = run(0);
    assert_eq!(plain_falls, 0);
    let (trace, end, falls) = run(5);
    assert_eq!(falls, 5, "every forced fallback is counted");
    assert_eq!(
        trace, plain_trace,
        "fallback must replay the unforced schedule"
    );
    assert_eq!(end, plain_end);
}
