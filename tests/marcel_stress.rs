//! Stress and property tests of the marcel kernel itself: scheduling
//! order, poll-source semantics and synchronization primitives under
//! randomized (seeded) workloads, the lifetime rules of the fibers
//! simulated threads run on, and the rule that a world belongs to one
//! OS thread.

use marcel::{
    CostModel, Decision, EventSink, Kernel, OneShot, PollSource, ProcId, Semaphore, SimError,
    SimMutex, SpanKind, TraceEvent, VirtualDuration, VirtualTime,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

#[test]
fn many_threads_preserve_virtual_time_order() {
    // 40 threads with staggered advances: a shared log must come out in
    // non-decreasing virtual time.
    let k = Kernel::new(CostModel::calibrated());
    let log = Arc::new(Mutex::new(Vec::new()));
    for i in 0..40u64 {
        let log = log.clone();
        k.spawn(format!("t{i}"), move || {
            let mut rng = StdRng::seed_from_u64(i);
            for _ in 0..20 {
                marcel::advance(VirtualDuration::from_nanos(rng.gen_range(10..5_000)));
                log.lock().unwrap().push(marcel::now());
            }
        });
    }
    k.run().unwrap();
    let log = log.lock().unwrap();
    assert_eq!(log.len(), 800);
    assert!(log.windows(2).all(|w| w[0] <= w[1]), "log out of order");
}

#[test]
fn semaphore_counting_invariant_under_stress() {
    // A semaphore-guarded pool of 3 permits: at most 3 holders at once,
    // checked with a real counter.
    let k = Kernel::new(CostModel::calibrated());
    let sem = Semaphore::new(&k, 3);
    let active = Arc::new(Mutex::new((0i32, 0i32))); // (current, max)
    for i in 0..12u64 {
        let sem = sem.clone();
        let active = active.clone();
        k.spawn(format!("w{i}"), move || {
            let mut rng = StdRng::seed_from_u64(i * 7 + 1);
            for _ in 0..10 {
                sem.acquire();
                {
                    let mut a = active.lock().unwrap();
                    a.0 += 1;
                    a.1 = a.1.max(a.0);
                }
                marcel::advance(VirtualDuration::from_nanos(rng.gen_range(100..2_000)));
                active.lock().unwrap().0 -= 1;
                sem.release();
            }
        });
    }
    k.run().unwrap();
    let (current, max) = *active.lock().unwrap();
    assert_eq!(current, 0);
    assert!(max <= 3, "semaphore admitted {max} concurrent holders");
    assert!(max > 1, "stress should actually contend");
}

#[test]
fn mutex_critical_sections_never_overlap_in_virtual_time() {
    let k = Kernel::new(CostModel::calibrated());
    let m = SimMutex::new(&k, ());
    let spans = Arc::new(Mutex::new(Vec::new()));
    for i in 0..8u64 {
        let m = m.clone();
        let spans = spans.clone();
        k.spawn(format!("t{i}"), move || {
            for _ in 0..6 {
                let g = m.lock();
                let start = marcel::now();
                marcel::advance(VirtualDuration::from_micros(3 + i));
                let end = marcel::now();
                drop(g);
                spans.lock().unwrap().push((start, end));
            }
        });
    }
    k.run().unwrap();
    let mut spans = spans.lock().unwrap().clone();
    spans.sort();
    for w in spans.windows(2) {
        assert!(w[0].1 <= w[1].0, "critical sections overlap: {w:?}");
    }
}

/// One `/proc/self/status` field, in KiB.
fn proc_status_kib(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find(|l| l.starts_with(field))
        .expect("field present");
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

/// Number of memory mappings of this process.
fn mappings() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("procfs")
        .lines()
        .count()
}

/// A producer/consumer handshake with a worker spawned inside the
/// simulation: its trace and end time are the "standalone result" the
/// concurrency and nesting tests compare against.
fn handshake() -> (Vec<TraceEvent>, VirtualTime) {
    let k = Kernel::new(CostModel::calibrated());
    k.enable_trace();
    let sem = Semaphore::new(&k, 0);
    let tx = sem.clone();
    k.spawn("producer", move || {
        for _ in 0..50 {
            marcel::advance(VirtualDuration::from_micros(7));
            tx.release();
        }
    });
    k.spawn("consumer", move || {
        let helper = marcel::spawn("helper", || marcel::sleep(VirtualDuration::from_micros(40)));
        for _ in 0..50 {
            sem.acquire();
            marcel::advance(VirtualDuration::from_micros(2));
        }
        helper.join();
    });
    k.run().unwrap();
    (k.take_trace(), k.end_time())
}

#[test]
fn fiber_frames_release_what_they_captured() {
    // (a) The fiber entry drops closure, result and kernel handle before
    // its final switch: nothing a thread captured outlives `run()`.
    let k = Kernel::new(CostModel::calibrated());
    let token = Arc::new(());
    let (root_weak, child_weak) = (Arc::downgrade(&token), Arc::downgrade(&token));
    let result = k.spawn("root", move || {
        let for_child = token.clone();
        let child = marcel::spawn("child", move || {
            marcel::advance(VirtualDuration::from_micros(3));
            drop(for_child);
        });
        marcel::advance(VirtualDuration::from_micros(1));
        child.join();
        token
    });
    k.run().unwrap();
    assert_eq!(root_weak.strong_count(), 1, "only the result slot holds it");
    drop(result);
    assert!(child_weak.upgrade().is_none());
}

#[test]
fn sequential_kernels_leave_rss_flat() {
    // (a) 2 000 kernels of 8 threads each, one after another on this OS
    // thread. A leaked stack alone would keep >= one touched page per
    // thread resident: 64 MiB over the run. Each kernel also leaves
    // state behind in its primitives' slots — a mutex holding a one-shot
    // that was put but never taken, and a second mutex holding the first
    // and a 16 KiB buffer — which would leak the kernel, 32 MiB over the
    // run, if a handle inside a slot kept its kernel alive.
    let one = || {
        let k = Kernel::new(CostModel::calibrated());
        let sem = Semaphore::new(&k, 0);
        let untaken = OneShot::<u64>::new(&k);
        let holder = SimMutex::new(&k, vec![untaken.clone()]);
        let outer = SimMutex::new(&k, None);
        for i in 0..8u64 {
            let sem = sem.clone();
            let (untaken, holder, outer) = (untaken.clone(), holder.clone(), outer.clone());
            k.spawn(format!("t{i}"), move || {
                marcel::advance(VirtualDuration::from_nanos(100 + i));
                if i == 7 {
                    untaken.put(i);
                    *outer.lock() = Some((holder, vec![0u8; 16 << 10]));
                    (0..7).for_each(|_| sem.release());
                } else {
                    sem.acquire();
                }
            });
        }
        k.run().unwrap();
        assert!(outer.read_quiesced(Option::is_some));
    };
    (0..200).for_each(|_| one());
    let before = proc_status_kib("VmRSS:");
    (0..2000).for_each(|_| one());
    let grown = proc_status_kib("VmRSS:").saturating_sub(before);
    assert!(
        grown < 16 * 1024,
        "VmRSS grew {grown} KiB over 2000 kernels"
    );
}

#[test]
fn failed_runs_unmap_their_fibers_and_leave_the_os_thread_usable() {
    // (b) Deadlocked and aborted kernels abandon suspended fibers; their
    // stacks (two mappings each) must be gone when `run()` returns.
    let failing = |panic: bool| {
        let k = Kernel::new(CostModel::calibrated());
        let never = Semaphore::new(&k, 0);
        for i in 0..8 {
            let never = never.clone();
            k.spawn(format!("stuck{i}"), move || {
                marcel::advance(VirtualDuration::from_micros(1));
                never.acquire();
            });
        }
        if panic {
            k.spawn("boom", || {
                marcel::advance(VirtualDuration::from_micros(5));
                panic!("intentional");
            });
        }
        k.run()
    };
    assert!(matches!(failing(false), Err(SimError::Deadlock(_))));
    assert!(matches!(failing(true), Err(SimError::ThreadPanicked(_))));
    let before = mappings();
    for round in 0..100 {
        assert!(failing(round % 2 == 0).is_err());
    }
    let grown = mappings().saturating_sub(before);
    assert!(
        grown < 100,
        "{grown} mappings left behind by 800 abandoned fibers"
    );
    // A fresh kernel runs on the same OS thread afterwards.
    assert!(!std::thread::panicking());
    assert!(!marcel::in_simulation());
    let (trace, _) = handshake();
    assert!(!trace.is_empty());
}

#[test]
fn panic_inside_a_critical_section_is_reported_not_fatal() {
    // (c) The panicking thread's guard is dropped *during unwinding*:
    // the release is a kernel operation (10 us here) that moves the
    // holder's clock from 60 to 70 us, past `early`'s wake-up at 65, so
    // it switches fibers while the OS thread's panic count is raised.
    // The unwinding fiber must be resumed, finish unwinding and abort
    // the run — without a double panic taking the process down.
    let mut cost = CostModel::free();
    cost.sem_op = VirtualDuration::from_micros(10);
    let k = Kernel::new(cost);
    let m = SimMutex::new(&k, 0u32);
    let (m_holder, m_waiter) = (m.clone(), m.clone());
    let early_saw = Arc::new(Mutex::new(None));
    let seen = early_saw.clone();
    k.spawn("holder", move || {
        let mut g = m_holder.lock();
        *g += 1;
        marcel::advance(VirtualDuration::from_micros(50));
        panic!("died holding the lock");
    });
    k.spawn("waiter", move || {
        marcel::advance(VirtualDuration::from_micros(1));
        *m_waiter.lock() += 1;
    });
    k.spawn("early", move || {
        marcel::sleep(VirtualDuration::from_micros(65));
        *seen.lock().unwrap() = Some(std::thread::panicking());
        marcel::advance(VirtualDuration::from_micros(100));
    });
    match k.run() {
        Err(SimError::ThreadPanicked(msg)) => assert!(msg.contains("died holding the lock")),
        other => panic!("expected the holder's panic, got {other:?}"),
    }
    // `early` ran inside the holder's unwinding, where the per-OS-thread
    // panic flag is a superset of "this simulated thread is unwinding".
    assert_eq!(*early_saw.lock().unwrap(), Some(true));
    assert!(!std::thread::panicking(), "panic count is balanced again");
    assert_eq!(m.read_quiesced(|v| *v), 1);
}

#[test]
fn concurrent_kernels_on_two_os_threads_match_standalone() {
    // (d) Fibers of different kernels never mix: each kernel's fibers
    // live on the OS thread that runs it.
    let alone = handshake();
    let start = std::sync::Barrier::new(2);
    let (a, b) = std::thread::scope(|s| {
        let run = || {
            start.wait();
            (0..20).map(|_| handshake()).collect::<Vec<_>>()
        };
        let (a, b) = (s.spawn(run), s.spawn(run));
        (a.join().unwrap(), b.join().unwrap())
    });
    assert!(a.iter().chain(&b).all(|r| *r == alone));
}

#[test]
fn nested_kernel_run_restores_the_outer_identity() {
    // (d) `Kernel::run` from inside a simulated thread: the inner kernel
    // gives its standalone result and the outer thread carries on as
    // itself afterwards.
    let alone = handshake();
    let k = Kernel::new(CostModel::calibrated());
    let h = k.spawn("outer", move || {
        marcel::advance(VirtualDuration::from_micros(5));
        let inner = handshake();
        assert!(marcel::in_simulation());
        assert_eq!(marcel::name(), "outer");
        marcel::advance(VirtualDuration::from_micros(5));
        (inner, marcel::now())
    });
    k.spawn("bystander", || {
        marcel::advance(VirtualDuration::from_micros(7))
    });
    k.run().unwrap();
    let (inner, outer_now) = h.join_outcome().unwrap();
    assert_eq!(inner, alone);
    assert_eq!(outer_now, VirtualTime(10_000));
}

/// The message `f` panics with.
fn panic_message(f: impl FnOnce()) -> String {
    let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("must panic");
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => p
            .downcast::<&str>()
            .map_or_else(|_| "?".into(), |s| s.to_string()),
    }
}

#[test]
fn a_world_used_from_another_os_thread_panics_naming_its_owner() {
    // (e) Handles may travel between OS threads; the world they point
    // at may not. Every use from a stranger must fail before it touches
    // anything, and the owner's world must be as it was.
    let k = Kernel::new(CostModel::calibrated());
    let sem = Semaphore::new(&k, 1);
    let m = SimMutex::new(&k, 7u32);
    let owner = format!("{:?}", std::thread::current().id());
    let (k2, sem2, m2) = (k.clone(), sem.clone(), m.clone());
    let messages = std::thread::spawn(move || {
        vec![
            panic_message(|| drop(k2.metrics_snapshot())),
            panic_message(|| drop(k2.spawn("stray", || ()))),
            panic_message(|| {
                sem2.count();
            }),
            panic_message(|| {
                m2.read_quiesced(|v| *v);
            }),
        ]
    })
    .join()
    .expect("the stranger's panics are caught");
    for msg in &messages {
        assert!(
            msg.contains(&format!("owned by OS thread {owner}")),
            "{msg}"
        );
    }
    let h = k.spawn("owner", move || {
        sem.acquire();
        *m.lock()
    });
    k.run().unwrap();
    assert_eq!(h.join_outcome(), Some(7));
    assert_eq!(k.thread_names().len(), 1, "the stray spawn left no thread");
}

#[test]
fn an_event_sink_that_re_enters_the_kernel_panics_instead_of_deadlocking() {
    // (e) A sink runs inside the kernel operation that drained into it.
    // Calling back into the kernel must fail the borrow check loudly.
    struct ReEnter(Option<Kernel>);
    impl EventSink for ReEnter {
        fn events(&mut self, _: &[TraceEvent]) {
            // Only the first drain calls back in: the panicking thread
            // still drains its exit through this sink.
            if let Some(k) = self.0.take() {
                k.trace_len();
            }
        }
        fn decisions(&mut self, _: &[Decision]) {}
    }
    let k = Kernel::new(CostModel::calibrated());
    k.enable_trace();
    k.spawn("spanner", || {
        marcel::advance(VirtualDuration::from_micros(1));
        marcel::obs::span_end(marcel::obs::span_begin(SpanKind::Pack, "sink"));
    });
    k.set_event_sink(Box::new(ReEnter(Some(k.clone()))), 1);
    match k.run() {
        Err(SimError::ThreadPanicked(msg)) => assert!(msg.contains("re-entered"), "{msg}"),
        other => panic!("expected the borrow check to fire, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Messages posted with arbitrary (future) arrival times are always
    /// delivered in (arrival, post-order) order, regardless of the
    /// posting order.
    #[test]
    fn poll_source_orders_by_arrival(arrivals in proptest::collection::vec(0u64..1_000_000, 1..20)) {
        let k = Kernel::new(CostModel::free());
        let src = PollSource::<usize>::new(&k, ProcId(0), VirtualDuration::from_nanos(10));
        let tx = src.clone();
        let arrivals_tx = arrivals.clone();
        k.spawn("poster", move || {
            for (i, a) in arrivals_tx.iter().enumerate() {
                tx.post(VirtualTime(*a), i);
            }
        });
        let n = arrivals.len();
        let arrivals_rx = arrivals.clone();
        let h = k.spawn("poller", move || {
            let mut ok = true;
            let mut last = VirtualTime::ZERO;
            for _ in 0..n {
                let m = src.poll_wait().unwrap();
                ok &= m.arrival >= last;
                // The payload index must match the sort order.
                last = m.arrival;
                ok &= m.arrival == VirtualTime(arrivals_rx[m.payload]);
            }
            ok
        });
        k.run().unwrap();
        prop_assert!(h.join_outcome().unwrap());
    }

    /// End time is invariant to spawn *declaration* interleavings that
    /// do not change per-thread work (determinism of the dispatch rule).
    #[test]
    fn end_time_deterministic(durations in proptest::collection::vec(1u64..10_000, 1..10)) {
        let run = |ds: &[u64]| {
            let k = Kernel::new(CostModel::calibrated());
            for (i, d) in ds.iter().enumerate() {
                let d = *d;
                k.spawn(format!("t{i}"), move || {
                    marcel::advance(VirtualDuration::from_nanos(d));
                });
            }
            k.run().unwrap();
            k.end_time()
        };
        prop_assert_eq!(run(&durations), run(&durations));
    }
}
