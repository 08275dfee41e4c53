//! Simulated thread operations: spawn, join, advance, yield, sleep.
//!
//! Functions in this module operate on the *current* simulated thread via
//! a thread-local identity, mirroring how Marcel (and `std::thread`)
//! expose ambient operations. Every simulated thread of a kernel runs as
//! a fiber on one OS thread, so the identity travels with the fiber: a
//! kernel operation takes it out of the thread-local for its duration
//! (`with_current`), and any context switch happens inside one — each
//! fiber resumes holding its own, a starting fiber is handed its own by
//! the context that switched to it.

use std::any::Any;
use std::cell::Cell;
use std::marker::PhantomData;
use std::mem::ManuallyDrop;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Weak};

use crate::fiber::Context;
use crate::kernel::{Shared, TState, ThreadSlot, Tid};
use crate::time::{VirtualDuration, VirtualTime};

type Identity = (Arc<Shared>, Tid);

/// An identity as the thread-local keeps it: without drop glue, so the
/// thread-local needs no destructor registration and checking it out
/// and back is two plain moves. It is only ever set while a simulated
/// thread runs on this OS thread, which cannot end meanwhile, so
/// nothing is left in it to drop when the OS thread exits.
type Held = (ManuallyDrop<Arc<Shared>>, Tid);

thread_local! {
    /// The simulated thread executing user code on this OS thread.
    /// `None` outside a simulation — and while that thread is inside a
    /// kernel operation, which holds the identity itself.
    static CURRENT: Cell<Option<Held>> = const { Cell::new(None) };
}

/// Replace the ambient identity, returning the old one.
pub(crate) fn set_current(identity: Option<Identity>) -> Option<Identity> {
    let held = identity.map(|(shared, me)| (ManuallyDrop::new(shared), me));
    CURRENT
        .replace(held)
        .map(|(shared, me)| (ManuallyDrop::into_inner(shared), me))
}

/// Run one kernel operation as the current simulated thread: `f` borrows
/// its kernel and id — no reference count is touched — and may switch
/// fibers; `None` outside a simulated thread.
///
/// `f` must not re-enter the ambient API (`now`, `obs::emit`, ...): the
/// identity is checked out while it runs, so a re-entering call finds
/// none.
#[inline]
pub(crate) fn try_with_current<R>(f: impl FnOnce(&Arc<Shared>, Tid) -> R) -> Option<R> {
    /// Puts the identity back when the operation ends — or unwinds, so a
    /// destructor further up can still perform kernel operations.
    struct CheckedOut(Option<Held>);
    impl Drop for CheckedOut {
        #[inline]
        fn drop(&mut self) {
            CURRENT.set(self.0.take());
        }
    }
    let identity = CheckedOut(CURRENT.take());
    let (shared, me) = identity.0.as_ref()?;
    Some(f(shared, *me))
}

/// [`try_with_current`] for operations that only exist inside a
/// simulation.
///
/// Panics when called from outside a simulated thread.
#[inline]
pub(crate) fn with_current<R>(f: impl FnOnce(&Arc<Shared>, Tid) -> R) -> R {
    try_with_current(f).expect("marcel operation outside a simulated thread")
}

/// True when the calling code runs on a simulated thread.
pub fn in_simulation() -> bool {
    try_with_current(|_, _| ()).is_some()
}

/// Handle to a spawned simulated thread. Joining from inside the
/// simulation blocks in *virtual* time until the target finishes.
///
/// The result waits in the target's slot in the scheduler, and the
/// handle holds its kernel weakly, like the [`crate::sync`] primitives.
/// Dropping the handle drops a result already there; a thread that
/// finishes after its handle was dropped leaves its result to the
/// kernel, which drops it with itself.
pub struct JoinHandle<T> {
    tid: Tid,
    shared: Weak<Shared>,
    _result: PhantomData<fn() -> T>,
}

impl<T: Send + 'static> JoinHandle<T> {
    /// Simulated thread id of the target.
    pub fn tid(&self) -> usize {
        self.tid.0
    }

    /// Block the *current simulated thread* until the target finishes and
    /// return its result. Must be called from inside the simulation.
    pub fn join(self) -> T {
        let result = with_current(|shared, me| {
            assert!(
                std::ptr::eq(Arc::as_ptr(shared), self.shared.as_ptr()),
                "thread joined from another kernel"
            );
            let mut sched = shared.enter(me);
            let done = matches!(sched.threads[self.tid.0].state, TState::Done);
            if done {
                let end = sched.threads[self.tid.0].vtime;
                let slot = &mut sched.threads[me.0];
                if end > slot.vtime {
                    slot.vtime = end;
                }
                shared.reschedule(&mut sched, me);
            } else {
                sched.threads[self.tid.0].joiners.push(me);
                shared.block(&mut sched, me, TState::BlockedJoin(self.tid));
            }
            sched.threads[self.tid.0].result.take()
        });
        downcast(result.expect("joined thread finished without a result"))
    }

    /// Retrieve the result *after* `Kernel::run` returned, from outside
    /// the simulation. Returns `None` when the thread never completed
    /// (deadlock/abort), or when its kernel is gone.
    pub fn join_outcome(self) -> Option<T> {
        let shared = self.shared.upgrade()?;
        let result = shared.state.borrow().threads[self.tid.0].result.take();
        result.map(downcast)
    }
}

fn downcast<T: 'static>(result: Box<dyn Any + Send>) -> T {
    *result
        .downcast()
        .expect("thread result of the handle's type")
}

impl<T> Drop for JoinHandle<T> {
    fn drop(&mut self) {
        // Never panics: off the kernel's OS thread, or inside one of its
        // operations, the result is left to the kernel instead.
        let Some(shared) = self.shared.upgrade() else {
            return;
        };
        let result = shared
            .state
            .try_borrow()
            .and_then(|mut sched| sched.threads[self.tid.0].result.take());
        drop(result);
    }
}

/// Internal spawn shared by `Kernel::spawn` and [`spawn`]. The thread
/// costs a table entry until its first dispatch gives it a stack.
pub(crate) fn spawn_inner<T, F>(
    shared: &Arc<Shared>,
    name: String,
    start: VirtualTime,
    f: F,
) -> JoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let mut sched = shared.state.borrow();
    let tid = Tid(sched.threads.len());
    let body = move || match catch_unwind(AssertUnwindSafe(f)) {
        Ok(v) => Ok(Box::new(v) as Box<dyn Any + Send>),
        Err(payload) => Err(panic_to_string(payload.as_ref(), tid)),
    };
    sched.threads.push(ThreadSlot {
        name,
        vtime: start,
        state: TState::Ready,
        joiners: Vec::new(),
        wake_payload: None,
        poll_set: Vec::new(),
        woke_source: None,
        body: Some(Box::new(body)),
        result: None,
        stack: None,
        context: Context::default(),
        ticket: 0,
    });
    sched.live += 1;
    // The child is born Ready, due at its start clock.
    sched.ready.upsert(tid.0, start.0);
    sched.record(tid, || crate::obs::Event::Spawn);
    JoinHandle {
        tid,
        shared: Arc::downgrade(shared),
        _result: PhantomData,
    }
}

/// What every fiber starts in (see [`crate::fiber::Entry`]): take the
/// thread's body, run it, exit. Its frame is never unwound, so it keeps
/// nothing alive across the final switch — the body (user closure) is
/// consumed by the call, its result and the kernel handle by
/// [`Shared::thread_exit`].
pub(crate) fn fiber_main() -> ! {
    let body = with_current(|shared, me| {
        shared.state.borrow().threads[me.0]
            .body
            .take()
            .expect("a thread starts once")
    });
    let outcome = body();
    let (shared, me) = set_current(None).expect("a running fiber owns its identity");
    Shared::thread_exit(shared, me, outcome)
}

fn panic_to_string(payload: &(dyn std::any::Any + Send), tid: Tid) -> String {
    let msg = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    };
    format!("thread #{}: {msg}", tid.0)
}

/// Spawn a simulated thread from inside the simulation. The parent is
/// charged the spawn cost; the child starts at the parent's (charged)
/// clock, modelling Marcel's cheap user-level thread creation.
pub fn spawn<T, F>(name: impl Into<String>, f: F) -> JoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    with_current(|shared, me| {
        let start = {
            let mut sched = shared.enter(me);
            let spawn_cost = shared.cost.spawn;
            let slot = &mut sched.threads[me.0];
            slot.vtime += spawn_cost;
            slot.vtime
        };
        let handle = spawn_inner(shared, name.into(), start, f);
        // The child is now Ready; re-evaluate scheduling (the child has the
        // same vtime but a larger tid, so the parent keeps running — the
        // reschedule keeps the invariant that every kernel op re-dispatches).
        let mut sched = shared.enter(me);
        shared.reschedule(&mut sched, me);
        handle
    })
}

/// Current thread's virtual clock.
pub fn now() -> VirtualTime {
    with_current(|shared, me| shared.enter(me).threads[me.0].vtime)
}

/// Charge `d` of computation/occupancy to the current thread's clock.
pub fn advance(d: VirtualDuration) {
    with_current(|shared, me| {
        let mut sched = shared.enter(me);
        sched.threads[me.0].vtime += d;
        shared.reschedule(&mut sched, me);
    })
}

/// Yield the processor (charges the yield cost).
pub fn yield_now() {
    with_current(|shared, me| {
        let mut sched = shared.enter(me);
        let c = shared.cost.yield_op;
        sched.threads[me.0].vtime += c;
        shared.reschedule(&mut sched, me);
    })
}

/// Sleep for `d` of virtual time.
pub fn sleep(d: VirtualDuration) {
    with_current(|shared, me| {
        let mut sched = shared.enter(me);
        let wake = sched.threads[me.0].vtime + d;
        shared.block(&mut sched, me, TState::Sleeping(wake));
    })
}

/// Sleep until the absolute virtual time `t` (no-op if already past).
pub fn sleep_until(t: VirtualTime) {
    with_current(|shared, me| {
        let mut sched = shared.enter(me);
        if sched.threads[me.0].vtime >= t {
            shared.reschedule(&mut sched, me);
            return;
        }
        shared.block(&mut sched, me, TState::Sleeping(t));
    })
}

/// Name of the current simulated thread (for diagnostics).
pub fn name() -> String {
    with_current(|shared, me| shared.enter(me).threads[me.0].name.clone())
}

/// Ticket of the scheduling decision that committed the current thread
/// to run — monotonically increasing across the whole kernel, so two
/// observations from different threads are totally ordered by it.
pub fn dispatch_ticket() -> u64 {
    with_current(|shared, me| shared.enter(me).threads[me.0].ticket)
}

/// Escape hatch used by higher layers to attribute an externally computed
/// absolute timestamp (e.g. "this receive completed at wire time T") to
/// the current thread: sets the clock to `max(now, t)`.
pub fn advance_to(t: VirtualTime) {
    with_current(|shared, me| {
        let mut sched = shared.enter(me);
        if t > sched.threads[me.0].vtime {
            sched.threads[me.0].vtime = t;
        }
        shared.reschedule(&mut sched, me);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::kernel::Kernel;

    #[test]
    fn join_synchronizes_clocks() {
        let k = Kernel::new(CostModel::free());
        let h = k.spawn("parent", || {
            let child = spawn("child", || {
                advance(VirtualDuration::from_micros(42));
            });
            child.join();
            now()
        });
        k.run().unwrap();
        // Parent joined a child that finished at 42us, so its clock must
        // be at least 42us.
        assert!(h.join_outcome().unwrap() >= VirtualTime(42_000));
    }

    #[test]
    fn join_after_completion_takes_max_clock() {
        let k = Kernel::new(CostModel::free());
        let h = k.spawn("parent", || {
            let child = spawn("child", || advance(VirtualDuration::from_micros(5)));
            advance(VirtualDuration::from_micros(100));
            child.join();
            now()
        });
        k.run().unwrap();
        // Parent was already past the child's end; join must not move the
        // parent's clock backwards.
        assert_eq!(h.join_outcome().unwrap(), VirtualTime(100_000));
    }

    #[test]
    fn spawn_charges_parent() {
        let mut cost = CostModel::free();
        cost.spawn = VirtualDuration::from_micros(3);
        let k = Kernel::new(cost);
        let h = k.spawn("parent", || {
            let c = spawn("child", || {});
            let t = now();
            c.join();
            t
        });
        k.run().unwrap();
        assert_eq!(h.join_outcome().unwrap(), VirtualTime(3_000));
    }

    #[test]
    fn child_starts_at_parent_clock() {
        let k = Kernel::new(CostModel::free());
        let h = k.spawn("parent", || {
            advance(VirtualDuration::from_micros(10));
            let c = spawn("child", now);
            c.join()
        });
        k.run().unwrap();
        assert_eq!(h.join_outcome().unwrap(), VirtualTime(10_000));
    }

    #[test]
    fn sleep_until_past_time_is_noop() {
        let k = Kernel::new(CostModel::free());
        let h = k.spawn("t", || {
            advance(VirtualDuration::from_micros(50));
            sleep_until(VirtualTime(10_000));
            now()
        });
        k.run().unwrap();
        assert_eq!(h.join_outcome().unwrap(), VirtualTime(50_000));
    }

    #[test]
    fn advance_to_moves_forward_only() {
        let k = Kernel::new(CostModel::free());
        let h = k.spawn("t", || {
            advance(VirtualDuration::from_micros(20));
            advance_to(VirtualTime(5_000));
            let a = now();
            advance_to(VirtualTime(60_000));
            (a, now())
        });
        k.run().unwrap();
        let (a, b) = h.join_outcome().unwrap();
        assert_eq!(a, VirtualTime(20_000));
        assert_eq!(b, VirtualTime(60_000));
    }

    #[test]
    fn nested_spawns() {
        let k = Kernel::new(CostModel::calibrated());
        let h = k.spawn("root", || {
            let mut handles = Vec::new();
            for i in 0..4 {
                handles.push(spawn(format!("w{i}"), move || {
                    advance(VirtualDuration::from_micros(i * 10));
                    i
                }));
            }
            handles.into_iter().map(|h| h.join()).sum::<u64>()
        });
        k.run().unwrap();
        assert_eq!(h.join_outcome().unwrap(), 6);
    }

    #[test]
    fn dispatch_ticket_is_deterministic() {
        fn run() -> Vec<u64> {
            let k = Kernel::new(CostModel::free());
            let h = k.spawn("t", || {
                let mut out = Vec::new();
                for _ in 0..3 {
                    advance(VirtualDuration::from_micros(1));
                    out.push(dispatch_ticket());
                }
                out
            });
            k.run().unwrap();
            h.join_outcome().unwrap()
        }
        let a = run();
        assert_eq!(a, run(), "tickets must replay identically");
        assert!(a[0] < a[1] && a[1] < a[2]);
    }

    #[test]
    fn twenty_thousand_threads_spawn_and_join() {
        // A thread costs a table entry until it first runs and its stack
        // is recycled when it ends, so this maps two stacks, not 20 000.
        let k = Kernel::new(CostModel::free());
        let h = k.spawn("root", || {
            let hs: Vec<_> = (0..20_000u64)
                .map(|i| spawn(format!("w{i}"), move || i))
                .collect();
            hs.into_iter().map(|h| h.join()).sum::<u64>()
        });
        k.run().unwrap();
        assert_eq!(h.join_outcome().unwrap(), 19_999 * 20_000 / 2);
    }

    #[test]
    fn panics_are_reported() {
        let k = Kernel::new(CostModel::free());
        k.spawn("boom", || panic!("fiber boom"));
        let err = k.run().unwrap_err();
        assert!(format!("{err:?}").contains("fiber boom"));
    }

    #[test]
    fn in_simulation_flag() {
        assert!(!in_simulation());
        let k = Kernel::new(CostModel::free());
        let h = k.spawn("t", in_simulation);
        k.run().unwrap();
        assert!(h.join_outcome().unwrap());
    }
}
