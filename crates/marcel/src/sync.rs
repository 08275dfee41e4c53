//! Simulated synchronization primitives: semaphores, mutexes, condition
//! variables, one-shot slots, blocking FIFO queues and barriers.
//!
//! These block in *virtual* time through the kernel, and charge the cost
//! model's `sem_op`/`wake`/`ctx_switch` costs — which is where the paper's
//! "message handling" overhead (§5.2: ≈7 µs over raw Madeleine) comes
//! from: the `ch_mad` rendezvous and eager paths go through exactly these
//! primitives.
//!
//! # Ownership
//!
//! Every primitive is a [`Semaphore`] plus some state: a mutex's data, a
//! one-shot's value, a queue's buffer, a condvar's waiter count, a
//! barrier's arrivals. That state lives in the semaphore's slot in the
//! kernel's scheduler and is touched only inside one of the semaphore's
//! operations — a P, a V, or a host-side access that charges nothing —
//! while it borrows the scheduler. That borrow is no lock either: the
//! scheduler is an [`OwnedCell`](crate::OwnedCell) of the OS thread the
//! kernel runs on, and using a primitive from any other OS thread
//! panics, naming the owner. A mutex guard carries the data out of the
//! slot when the acquire completes and puts it back in the step that
//! releases it.
//!
//! Handles hold their kernel weakly: state that holds a primitive of its
//! own kernel forms no reference cycle, and is dropped with the kernel.
//! Operations reach the kernel through the calling simulated thread;
//! only host-side accesses upgrade the handle.

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::{Arc, Weak};

use crate::kernel::{Kernel, SemId, SemState, Shared, TState, Tid};
use crate::thread::with_current;
use crate::time::VirtualDuration;

/// A primitive's state, as its semaphore's slot holds it.
type Payload = Option<Box<dyn Any + Send>>;

/// The slot's state, as the primitive's own type.
fn state<T: 'static>(slot: &mut Payload) -> &mut T {
    slot.as_deref_mut()
        .and_then(|s| s.downcast_mut())
        .expect("primitive state missing from its slot (a guard holds it)")
}

/// Move the slot's value out, as the primitive's own type.
fn unbox<T: 'static>(slot: Payload) -> Box<T> {
    slot.expect("semaphore granted with an empty slot")
        .downcast()
        .expect("primitive state of the wrong type")
}

/// Guards take their data out of its `Option` only in `drop`.
const HELD: &str = "a guard holds its data until it drops";

/// `Box<T>` as a slot value. Primitives whose guards put a box back on
/// drop keep this as a function pointer, taken where `T: Send + 'static`
/// is known: a `Drop` impl cannot carry that bound.
fn erase<T: Send + 'static>(data: Box<T>) -> Box<dyn Any + Send> {
    data
}

/// A counting semaphore with FIFO waiter wake-up (deterministic).
///
/// Cloning produces another handle to the *same* semaphore.
#[derive(Clone)]
pub struct Semaphore {
    shared: Weak<Shared>,
    id: SemId,
}

impl Semaphore {
    /// Create a semaphore on `kernel` with the given initial count.
    pub fn new(kernel: &Kernel, initial: u64) -> Self {
        Self::holding(Some(kernel), initial, None)
    }

    /// Create a semaphore on the *current* simulated thread's kernel.
    pub fn current(initial: u64) -> Self {
        Self::holding(None, initial, None)
    }

    /// A semaphore on `kernel` (`None`: the current simulated thread's)
    /// whose slot holds `payload`.
    fn holding(kernel: Option<&Kernel>, initial: u64, payload: Payload) -> Self {
        let register = |shared: &Arc<Shared>| {
            let mut sched = shared.state.borrow();
            let id = SemId(sched.sems.len());
            sched.sems.push(SemState {
                count: initial,
                waiters: VecDeque::new(),
                payload,
            });
            Semaphore {
                shared: Arc::downgrade(shared),
                id,
            }
        };
        match kernel {
            Some(kernel) => register(&kernel.shared),
            None => with_current(|shared, _| register(shared)),
        }
    }

    /// Every operation enters the kernel here, as the calling simulated
    /// thread — which must run on this semaphore's kernel: another
    /// kernel would resolve the id to a stranger's slot.
    fn op<R>(&self, f: impl FnOnce(&Arc<Shared>, Tid) -> R) -> R {
        with_current(|shared, me| {
            assert!(
                std::ptr::eq(Arc::as_ptr(shared), self.shared.as_ptr()),
                "semaphore used across kernels"
            );
            f(shared, me)
        })
    }

    /// P operation: decrement, blocking in virtual time while the count
    /// is zero.
    pub fn acquire(&self) {
        self.acquire_with(|_| ())
    }

    /// [`Semaphore::acquire`], then `f` on the slot in the critical
    /// section that resumes the caller.
    pub(crate) fn acquire_with<R>(&self, f: impl FnOnce(&mut Payload) -> R) -> R {
        self.op(|shared, me| {
            let mut sched = shared.enter(me);
            let op = shared.cost.sem_op;
            sched.threads[me.0].vtime += op;
            let sem = &mut sched.sems[self.id.0];
            if sem.count > 0 {
                sem.count -= 1;
                shared.reschedule(&mut sched, me);
            } else {
                sem.waiters.push_back(me);
                sched.record(me, || crate::obs::Event::SemBlock { sem: self.id.0 });
                shared.block(&mut sched, me, TState::BlockedSem(self.id));
            }
            f(&mut sched.sems[self.id.0].payload)
        })
    }

    /// P operation with a virtual-time deadline: blocks until a release
    /// grants the count or `timeout` elapses, whichever comes first.
    /// Returns `true` when the count was taken, `false` on timeout.
    ///
    /// Grant vs. timeout is decided deterministically by the kernel: a
    /// release marks the popped waiter with a wake payload, while a
    /// deadline wake-up removes the waiter from the semaphore queue
    /// inside the scheduler commit, so the two outcomes can never both
    /// happen.
    pub fn acquire_timeout(&self, timeout: VirtualDuration) -> bool {
        self.acquire_timeout_with(timeout, |_| ()).is_some()
    }

    /// [`Semaphore::acquire_timeout`], running `f` on the slot only when
    /// the count was taken.
    pub(crate) fn acquire_timeout_with<R>(
        &self,
        timeout: VirtualDuration,
        f: impl FnOnce(&mut Payload) -> R,
    ) -> Option<R> {
        self.op(|shared, me| {
            let mut sched = shared.enter(me);
            let op = shared.cost.sem_op;
            sched.threads[me.0].vtime += op;
            let sem = &mut sched.sems[self.id.0];
            let granted = if sem.count > 0 {
                sem.count -= 1;
                shared.reschedule(&mut sched, me);
                true
            } else {
                let deadline = sched.threads[me.0].vtime + timeout;
                sched.sems[self.id.0].waiters.push_back(me);
                sched.record(me, || crate::obs::Event::SemBlockTimeout {
                    sem: self.id.0,
                    deadline,
                });
                shared.block(&mut sched, me, TState::BlockedSemTimeout(self.id, deadline));
                // Resumed: a release left a grant marker; a timeout did not.
                sched.threads[me.0].wake_payload.take().is_some()
            };
            granted.then(|| f(&mut sched.sems[self.id.0].payload))
        })
    }

    /// Non-blocking P: returns whether the count was successfully taken.
    pub fn try_acquire(&self) -> bool {
        self.try_acquire_with(|_| ()).is_some()
    }

    /// [`Semaphore::try_acquire`], running `f` on the slot only when the
    /// count was taken.
    pub(crate) fn try_acquire_with<R>(&self, f: impl FnOnce(&mut Payload) -> R) -> Option<R> {
        self.op(|shared, me| {
            let mut sched = shared.enter(me);
            let op = shared.cost.sem_op;
            sched.threads[me.0].vtime += op;
            let sem = &mut sched.sems[self.id.0];
            let got = sem.count > 0;
            if got {
                sem.count -= 1;
            }
            shared.reschedule(&mut sched, me);
            got.then(|| f(&mut sched.sems[self.id.0].payload))
        })
    }

    /// V operation: wake the longest-blocked waiter (handoff semantics)
    /// or increment the count.
    pub fn release(&self) {
        self.release_with(|_| ())
    }

    /// `f` on the slot, then [`Semaphore::release`], in one critical
    /// section. Whatever `f` moves out of the slot it returns, to be
    /// dropped once the scheduler's borrow has ended.
    pub(crate) fn release_with<R>(&self, f: impl FnOnce(&mut Payload) -> R) -> R {
        self.op(|shared, me| {
            let mut sched = shared.enter(me);
            let out = f(&mut sched.sems[self.id.0].payload);
            let cost = &shared.cost;
            let (op, wake, ctx) = (cost.sem_op, cost.wake, cost.ctx_switch);
            sched.threads[me.0].vtime += op;
            let releaser_clock = sched.threads[me.0].vtime;
            let sem = &mut sched.sems[self.id.0];
            if let Some(w) = sem.waiters.pop_front() {
                // The woken thread becomes runnable after the cross-thread
                // wake latency plus a context switch to it.
                let at = releaser_clock + wake + ctx;
                // A timed waiter needs a grant marker so it can tell this
                // wake-up apart from its own deadline firing.
                if matches!(sched.threads[w.0].state, TState::BlockedSemTimeout(_, _)) {
                    sched.threads[w.0].wake_payload = Some(Box::new(()));
                }
                Shared::make_ready(&mut sched, w, at);
                sched.record(me, || crate::obs::Event::SemWake {
                    sem: self.id.0,
                    woken: w.0,
                });
            } else {
                sem.count += 1;
            }
            shared.reschedule(&mut sched, me);
            out
        })
    }

    /// Current count (diagnostics only; racy in the usual semaphore way).
    pub fn count(&self) -> u64 {
        self.host(|sem| sem.count)
    }

    /// Host-side access to the semaphore, outside any P or V: no charge
    /// and no scheduling decision, so virtual time cannot see it. Works
    /// with or without a simulated caller, which is why it — alone —
    /// upgrades the handle. `f` runs inside the scheduler's borrow and
    /// must not enter the kernel.
    pub(crate) fn host<R>(&self, f: impl FnOnce(&mut SemState) -> R) -> R {
        let shared = self
            .shared
            .upgrade()
            .expect("primitive used after its kernel was dropped");
        let mut sched = shared.state.borrow();
        f(&mut sched.sems[self.id.0])
    }
}

/// A mutual-exclusion lock protecting `T`, blocking in virtual time.
///
/// Exclusivity is enforced by a binary [`Semaphore`], so holding the
/// guard across kernel operations (advance, sends, ...) is safe: a
/// contending simulated thread blocks in the kernel. The data sits in
/// the semaphore's slot while the lock is free and in the guard while it
/// is held.
pub struct SimMutex<T> {
    sem: Semaphore,
    erase: fn(Box<T>) -> Box<dyn Any + Send>,
}

impl<T> Clone for SimMutex<T> {
    fn clone(&self) -> Self {
        SimMutex {
            sem: self.sem.clone(),
            erase: self.erase,
        }
    }
}

impl<T: Send + 'static> SimMutex<T> {
    pub fn new(kernel: &Kernel, value: T) -> Self {
        Self::on(Some(kernel), value)
    }

    /// Create on the current simulated thread's kernel.
    pub fn current(value: T) -> Self {
        Self::on(None, value)
    }

    fn on(kernel: Option<&Kernel>, value: T) -> Self {
        SimMutex {
            sem: Semaphore::holding(kernel, 1, Some(Box::new(value))),
            erase: erase::<T>,
        }
    }

    /// Acquire the lock, blocking in virtual time.
    pub fn lock(&self) -> SimMutexGuard<'_, T> {
        let data = unbox(self.sem.acquire_with(Option::take));
        SimMutexGuard {
            data: Some(data),
            mutex: self,
        }
    }

    /// Host-side read of the protected data while the simulation is
    /// quiescent (before [`Kernel::run`] or after it returned). State
    /// capture for the durable journal goes through here: it bypasses
    /// the virtual-time semaphore — which would require a simulated
    /// calling thread — and reads the slot in a borrow of the scheduler,
    /// so it can never advance virtual time or perturb a replay. `f`
    /// must not enter the kernel.
    pub fn read_quiesced<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        self.sem.host(|sem| f(state(&mut sem.payload)))
    }
}

/// Guard returned by [`SimMutex::lock`]; it holds the data until dropped.
pub struct SimMutexGuard<'a, T> {
    data: Option<Box<T>>,
    mutex: &'a SimMutex<T>,
}

impl<T> std::ops::Deref for SimMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.data.as_deref().expect(HELD)
    }
}

impl<T> std::ops::DerefMut for SimMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.data.as_deref_mut().expect(HELD)
    }
}

impl<T> Drop for SimMutexGuard<'_, T> {
    fn drop(&mut self) {
        let data = self.data.take().map(self.mutex.erase);
        self.mutex.sem.release_with(|slot| *slot = data);
    }
}

/// A condition variable for use with [`SimMutex`]. Its semaphore's slot
/// holds the number of waiters.
#[derive(Clone)]
pub struct SimCondvar {
    sem: Semaphore,
}

impl SimCondvar {
    pub fn new(kernel: &Kernel) -> Self {
        Self::on(Some(kernel))
    }

    pub fn current() -> Self {
        Self::on(None)
    }

    fn on(kernel: Option<&Kernel>) -> Self {
        SimCondvar {
            sem: Semaphore::holding(kernel, 0, Some(Box::new(0usize))),
        }
    }

    fn waiting(&self) -> usize {
        self.sem.host(|sem| *state::<usize>(&mut sem.payload))
    }

    /// Atomically release the mutex and wait for a notification, then
    /// re-acquire. As with any condvar, re-check the predicate in a loop.
    pub fn wait<'a, T: Send + 'static>(
        &self,
        mutex: &'a SimMutex<T>,
        guard: SimMutexGuard<'a, T>,
    ) -> SimMutexGuard<'a, T> {
        self.sem.host(|sem| *state::<usize>(&mut sem.payload) += 1);
        drop(guard);
        self.sem.acquire_with(|slot| *state::<usize>(slot) -= 1);
        mutex.lock()
    }

    /// Wake one waiter (FIFO).
    pub fn notify_one(&self) {
        if self.waiting() > 0 {
            self.sem.release();
        }
    }

    /// Wake every current waiter.
    pub fn notify_all(&self) {
        for _ in 0..self.waiting() {
            self.sem.release();
        }
    }
}

/// Single-producer single-consumer one-shot value slot. `put` wakes a
/// blocked `take`. Used for rendezvous-style completions. The value
/// waits in the semaphore's slot.
pub struct OneShot<T> {
    sem: Semaphore,
    _value: PhantomData<fn() -> T>,
}

impl<T> Clone for OneShot<T> {
    fn clone(&self) -> Self {
        OneShot {
            sem: self.sem.clone(),
            _value: PhantomData,
        }
    }
}

impl<T: Send + 'static> OneShot<T> {
    pub fn new(kernel: &Kernel) -> Self {
        Self::on(Some(kernel))
    }

    pub fn current() -> Self {
        Self::on(None)
    }

    fn on(kernel: Option<&Kernel>) -> Self {
        OneShot {
            sem: Semaphore::holding(kernel, 0, None),
            _value: PhantomData,
        }
    }

    /// Deposit the value and wake the taker. Panics if called twice.
    pub fn put(&self, value: T) {
        let value: Box<dyn Any + Send> = Box::new(value);
        let prev = self.sem.release_with(|slot| slot.replace(value));
        assert!(prev.is_none(), "OneShot::put called twice");
    }

    /// Block until the value is deposited and take it.
    pub fn take(&self) -> T {
        *unbox(self.sem.acquire_with(Option::take))
    }

    /// Block until the value is deposited or `timeout` virtual time
    /// elapses. Returns `None` on timeout (the slot stays armed: a later
    /// `put` can still complete a subsequent `take`/`wait_timeout`).
    pub fn wait_timeout(&self, timeout: VirtualDuration) -> Option<T> {
        self.sem
            .acquire_timeout_with(timeout, Option::take)
            .map(|v| *unbox(v))
    }

    /// Non-blocking take.
    pub fn try_take(&self) -> Option<T> {
        self.sem.try_acquire_with(Option::take).map(|v| *unbox(v))
    }
}

/// Unbounded blocking FIFO queue (virtual-time blocking pop). The buffer
/// lives in the semaphore's slot.
pub struct Queue<T> {
    sem: Semaphore,
    _item: PhantomData<fn() -> T>,
}

impl<T> Clone for Queue<T> {
    fn clone(&self) -> Self {
        Queue {
            sem: self.sem.clone(),
            _item: PhantomData,
        }
    }
}

impl<T: Send + 'static> Queue<T> {
    pub fn new(kernel: &Kernel) -> Self {
        Self::on(Some(kernel))
    }

    pub fn current() -> Self {
        Self::on(None)
    }

    fn on(kernel: Option<&Kernel>) -> Self {
        Queue {
            sem: Semaphore::holding(kernel, 0, Some(Box::new(VecDeque::<T>::new()))),
            _item: PhantomData,
        }
    }

    pub fn push(&self, value: T) {
        self.sem
            .release_with(|buf| state::<VecDeque<T>>(buf).push_back(value));
    }

    /// Block until an element is available.
    pub fn pop(&self) -> T {
        self.sem
            .acquire_with(|buf| state::<VecDeque<T>>(buf).pop_front())
            .expect("queue semaphore out of sync")
    }

    pub fn try_pop(&self) -> Option<T> {
        self.sem
            .try_acquire_with(|buf| state::<VecDeque<T>>(buf).pop_front())
            .map(|v| v.expect("queue semaphore out of sync"))
    }

    pub fn len(&self) -> usize {
        self.sem
            .host(|sem| state::<VecDeque<T>>(&mut sem.payload).len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A reusable cyclic barrier for a fixed party count, blocking in
/// virtual time. The generation counter makes it safe to reuse
/// immediately (no thundering-herd double release). Arrivals are
/// counted in the semaphore's slot.
#[derive(Clone)]
pub struct SimBarrier {
    sem: Semaphore,
    parties: usize,
}

struct BarrierState {
    waiting: usize,
    generation: u64,
}

impl SimBarrier {
    pub fn new(kernel: &Kernel, parties: usize) -> Self {
        Self::on(Some(kernel), parties)
    }

    pub fn current(parties: usize) -> Self {
        Self::on(None, parties)
    }

    fn on(kernel: Option<&Kernel>, parties: usize) -> Self {
        assert!(parties > 0, "a barrier needs at least one party");
        let state = BarrierState {
            waiting: 0,
            generation: 0,
        };
        SimBarrier {
            sem: Semaphore::holding(kernel, 0, Some(Box::new(state))),
            parties,
        }
    }

    /// Wait for all parties. Returns true on the "leader" (the last
    /// thread to arrive), mirroring `std::sync::Barrier`.
    pub fn wait(&self) -> bool {
        let is_leader = self.sem.host(|sem| {
            let st = state::<BarrierState>(&mut sem.payload);
            st.waiting += 1;
            if st.waiting == self.parties {
                st.waiting = 0;
                st.generation += 1;
                true
            } else {
                false
            }
        });
        if is_leader {
            for _ in 0..self.parties - 1 {
                self.sem.release();
            }
            true
        } else {
            self.sem.acquire();
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::kernel::{Kernel, SimError};
    use crate::thread::{advance, now, spawn};
    use crate::time::{VirtualDuration, VirtualTime};
    use std::sync::Mutex;

    #[test]
    fn semaphore_blocks_until_release() {
        let k = Kernel::new(CostModel::free());
        let sem = Semaphore::new(&k, 0);
        let s2 = sem.clone();
        let waiter = k.spawn("waiter", move || {
            s2.acquire();
            now()
        });
        k.spawn("releaser", move || {
            advance(VirtualDuration::from_micros(25));
            sem.release();
        });
        k.run().unwrap();
        // With a free cost model the waiter resumes exactly at the
        // releaser's clock.
        assert_eq!(waiter.join_outcome().unwrap(), VirtualTime(25_000));
    }

    #[test]
    fn semaphore_wake_charges_costs() {
        let mut cost = CostModel::free();
        cost.sem_op = VirtualDuration::from_nanos(100);
        cost.wake = VirtualDuration::from_nanos(700);
        cost.ctx_switch = VirtualDuration::from_nanos(200);
        let k = Kernel::new(cost);
        let sem = Semaphore::new(&k, 0);
        let s2 = sem.clone();
        let waiter = k.spawn("waiter", move || {
            s2.acquire(); // +100ns on block entry
            now()
        });
        k.spawn("releaser", move || {
            advance(VirtualDuration::from_micros(10));
            sem.release(); // releaser at 10_100 after sem_op
        });
        k.run().unwrap();
        // wake at releaser(10_100) + wake(700) + ctx(200) = 11_000.
        assert_eq!(waiter.join_outcome().unwrap(), VirtualTime(11_000));
    }

    #[test]
    fn semaphore_fifo_order() {
        let k = Kernel::new(CostModel::free());
        let sem = Semaphore::new(&k, 0);
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..3 {
            let sem = sem.clone();
            let order = order.clone();
            k.spawn(format!("w{i}"), move || {
                // Stagger block times so FIFO order is w0, w1, w2.
                advance(VirtualDuration::from_micros(i as u64));
                sem.acquire();
                order.lock().unwrap().push(i);
            });
        }
        k.spawn("rel", move || {
            advance(VirtualDuration::from_micros(100));
            for _ in 0..3 {
                sem.release();
                advance(VirtualDuration::from_micros(10));
            }
        });
        k.run().unwrap();
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn try_acquire() {
        let k = Kernel::new(CostModel::free());
        let sem = Semaphore::new(&k, 1);
        let h = k.spawn("t", move || {
            let a = sem.try_acquire();
            let b = sem.try_acquire();
            sem.release();
            let c = sem.try_acquire();
            (a, b, c)
        });
        k.run().unwrap();
        assert_eq!(h.join_outcome().unwrap(), (true, false, true));
    }

    #[test]
    fn acquire_timeout_expires_at_deadline() {
        let k = Kernel::new(CostModel::free());
        let sem = Semaphore::new(&k, 0);
        let h = k.spawn("waiter", move || {
            let got = sem.acquire_timeout(VirtualDuration::from_micros(40));
            (got, now())
        });
        k.run().unwrap();
        let (got, t) = h.join_outcome().unwrap();
        assert!(!got, "nobody released: must time out");
        assert_eq!(t, VirtualTime(40_000));
    }

    #[test]
    fn acquire_timeout_granted_before_deadline() {
        let k = Kernel::new(CostModel::free());
        let sem = Semaphore::new(&k, 0);
        let s2 = sem.clone();
        let h = k.spawn("waiter", move || {
            let got = s2.acquire_timeout(VirtualDuration::from_micros(500));
            (got, now())
        });
        k.spawn("releaser", move || {
            advance(VirtualDuration::from_micros(20));
            sem.release();
        });
        k.run().unwrap();
        let (got, t) = h.join_outcome().unwrap();
        assert!(got, "release arrived well before the deadline");
        assert_eq!(t, VirtualTime(20_000));
    }

    #[test]
    fn acquire_timeout_with_available_count_is_immediate() {
        let k = Kernel::new(CostModel::free());
        let sem = Semaphore::new(&k, 1);
        let h = k.spawn("t", move || {
            let a = sem.acquire_timeout(VirtualDuration::from_micros(10));
            let b = sem.acquire_timeout(VirtualDuration::from_micros(10));
            (a, b, now())
        });
        k.run().unwrap();
        let (a, b, t) = h.join_outcome().unwrap();
        assert!(a && !b);
        assert_eq!(t, VirtualTime(10_000), "only the second wait sleeps");
    }

    #[test]
    fn timed_out_waiter_does_not_steal_later_release() {
        // w1 times out at 10us; w2 waits forever. The release at 50us
        // must go to w2, not to the long-gone w1.
        let k = Kernel::new(CostModel::free());
        let sem = Semaphore::new(&k, 0);
        let (s1, s2) = (sem.clone(), sem.clone());
        let h1 = k.spawn("w1", move || {
            s1.acquire_timeout(VirtualDuration::from_micros(10))
        });
        let h2 = k.spawn("w2", move || {
            advance(VirtualDuration::from_micros(1));
            s2.acquire();
            now()
        });
        k.spawn("rel", move || {
            advance(VirtualDuration::from_micros(50));
            sem.release();
        });
        k.run().unwrap();
        assert!(!h1.join_outcome().unwrap());
        assert_eq!(h2.join_outcome().unwrap(), VirtualTime(50_000));
    }

    #[test]
    fn oneshot_wait_timeout_then_put_still_delivers() {
        let k = Kernel::new(CostModel::free());
        let slot = OneShot::<u64>::new(&k);
        let s2 = slot.clone();
        let h = k.spawn("taker", move || {
            let first = s2.wait_timeout(VirtualDuration::from_micros(5));
            let second = s2.wait_timeout(VirtualDuration::from_micros(100));
            (first, second)
        });
        k.spawn("putter", move || {
            advance(VirtualDuration::from_micros(30));
            slot.put(7);
        });
        k.run().unwrap();
        assert_eq!(h.join_outcome().unwrap(), (None, Some(7)));
    }

    #[test]
    fn mutex_exclusion_and_virtual_blocking() {
        let k = Kernel::new(CostModel::free());
        let m = SimMutex::new(&k, 0u64);
        let m2 = m.clone();
        let h1 = k.spawn("a", move || {
            let mut g = m2.lock();
            advance(VirtualDuration::from_micros(50));
            *g += 1;
            drop(g);
            now()
        });
        let m3 = m.clone();
        let h2 = k.spawn("b", move || {
            advance(VirtualDuration::from_micros(1)); // a locks first
            let mut g = m3.lock();
            *g += 1;
            drop(g);
            now()
        });
        k.run().unwrap();
        let ta = h1.join_outcome().unwrap();
        let tb = h2.join_outcome().unwrap();
        assert_eq!(ta, VirtualTime(50_000));
        // b had to wait for a's 50us critical section.
        assert!(tb >= ta, "b finished at {tb}, a at {ta}");
    }

    #[test]
    fn condvar_notify_one() {
        let k = Kernel::new(CostModel::free());
        let m = SimMutex::new(&k, false);
        let cv = SimCondvar::new(&k);
        let (m2, cv2) = (m.clone(), cv.clone());
        let h = k.spawn("waiter", move || {
            let mut g = m2.lock();
            while !*g {
                g = cv2.wait(&m2, g);
            }
            now()
        });
        k.spawn("setter", move || {
            advance(VirtualDuration::from_micros(33));
            *m.lock() = true;
            cv.notify_one();
        });
        k.run().unwrap();
        assert!(h.join_outcome().unwrap() >= VirtualTime(33_000));
    }

    #[test]
    fn condvar_notify_all_wakes_everyone() {
        let k = Kernel::new(CostModel::calibrated());
        let m = SimMutex::new(&k, false);
        let cv = SimCondvar::new(&k);
        let done = Arc::new(Mutex::new(0));
        for i in 0..4 {
            let (m, cv, done) = (m.clone(), cv.clone(), done.clone());
            k.spawn(format!("w{i}"), move || {
                let mut g = m.lock();
                while !*g {
                    g = cv.wait(&m, g);
                }
                drop(g);
                *done.lock().unwrap() += 1;
            });
        }
        k.spawn("setter", move || {
            advance(VirtualDuration::from_micros(10));
            *m.lock() = true;
            cv.notify_all();
        });
        k.run().unwrap();
        assert_eq!(*done.lock().unwrap(), 4);
    }

    #[test]
    fn oneshot_round_trip() {
        let k = Kernel::new(CostModel::free());
        let slot = OneShot::<u64>::new(&k);
        let s2 = slot.clone();
        let h = k.spawn("taker", move || s2.take());
        k.spawn("putter", move || {
            advance(VirtualDuration::from_micros(5));
            slot.put(99);
        });
        k.run().unwrap();
        assert_eq!(h.join_outcome().unwrap(), 99);
    }

    #[test]
    fn queue_fifo_across_threads() {
        let k = Kernel::new(CostModel::free());
        let q = Queue::<u32>::new(&k);
        let q2 = q.clone();
        let h = k.spawn("consumer", move || {
            (0..5).map(|_| q2.pop()).collect::<Vec<_>>()
        });
        k.spawn("producer", move || {
            for i in 0..5 {
                advance(VirtualDuration::from_micros(2));
                q.push(i);
            }
        });
        k.run().unwrap();
        assert_eq!(h.join_outcome().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn queue_try_pop() {
        let k = Kernel::new(CostModel::free());
        let q = Queue::<u32>::new(&k);
        let h = k.spawn("t", move || {
            let empty = q.try_pop();
            q.push(7);
            let full = q.try_pop();
            (empty, full)
        });
        k.run().unwrap();
        assert_eq!(h.join_outcome().unwrap(), (None, Some(7)));
    }

    #[test]
    fn spawn_inside_then_synchronize() {
        let k = Kernel::new(CostModel::calibrated());
        let h = k.spawn("main", || {
            let q = Queue::<u64>::current();
            let q2 = q.clone();
            let w = spawn("worker", move || {
                advance(VirtualDuration::from_micros(12));
                q2.push(1);
            });
            let v = q.pop();
            w.join();
            v
        });
        k.run().unwrap();
        assert_eq!(h.join_outcome().unwrap(), 1);
    }

    #[test]
    fn barrier_releases_all_parties_together() {
        let k = Kernel::new(CostModel::free());
        let b = SimBarrier::new(&k, 3);
        let times = Arc::new(Mutex::new(Vec::new()));
        for i in 0..3u64 {
            let b = b.clone();
            let times = times.clone();
            k.spawn(format!("p{i}"), move || {
                advance(VirtualDuration::from_micros(i * 50));
                b.wait();
                times.lock().unwrap().push(now());
            });
        }
        k.run().unwrap();
        let times = times.lock().unwrap().clone();
        assert_eq!(times.len(), 3);
        // Nobody leaves before the slowest arrival at 100us.
        for t in &times {
            assert!(t.as_micros_f64() >= 100.0, "left early at {t}");
        }
    }

    #[test]
    fn barrier_is_reusable() {
        let k = Kernel::new(CostModel::free());
        let b = SimBarrier::new(&k, 2);
        let counter = Arc::new(Mutex::new(0u32));
        for i in 0..2 {
            let b = b.clone();
            let counter = counter.clone();
            k.spawn(format!("p{i}"), move || {
                for _ in 0..5 {
                    if b.wait() {
                        *counter.lock().unwrap() += 1;
                    }
                }
            });
        }
        k.run().unwrap();
        // Exactly one leader per round.
        assert_eq!(*counter.lock().unwrap(), 5);
    }

    #[test]
    fn primitive_used_across_kernels_is_rejected() {
        // An id from kernel A must not index kernel B's slots.
        let a = Kernel::new(CostModel::free());
        let slot = OneShot::<u64>::new(&a);
        let b = Kernel::new(CostModel::free());
        b.spawn("stranger", move || slot.put(7));
        match b.run() {
            Err(SimError::ThreadPanicked(msg)) => {
                assert!(msg.contains("used across kernels"), "{msg}")
            }
            other => panic!("expected a cross-kernel panic, got {other:?}"),
        }
    }
}
