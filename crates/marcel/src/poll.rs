//! Poll sources: the Marcel/Madeleine polling integration.
//!
//! A [`PollSource`] models one pollable communication endpoint (one
//! Madeleine channel's incoming side on one process). A *polling thread*
//! blocks in [`PollSource::poll_wait`]; senders [`PollSource::post`]
//! messages with an absolute *arrival* virtual time computed by the
//! network model.
//!
//! # Detection-delay model
//!
//! Marcel factorizes the poll requests of all channels of a process into
//! one polling loop (paper §3.3). One loop iteration therefore costs the
//! *sum* of the per-protocol poll costs of every channel currently being
//! serviced. The kernel models the observable consequence: a message
//! arriving at `a` is noticed at
//!
//! ```text
//! max(a, waiter clock) + Σ poll_cost(attached sources of the process)
//! ```
//!
//! Attaching a second channel (e.g. TCP, whose poll is an expensive
//! `select`) therefore slows *every* detection on the first channel
//! (e.g. SCI) — precisely the effect the paper measures in Figure 9. The
//! `CostModel::poll_cycle_scale` knob turns this into an ablation.

use std::marker::PhantomData;
use std::sync::Arc;

use crate::kernel::{Kernel, ProcId, Shared, SourceId, SourceState, TState};
use crate::thread::with_current;
use crate::time::{VirtualDuration, VirtualTime};

/// A message received from a poll source: the wire arrival time and the
/// payload.
#[derive(Debug, PartialEq, Eq)]
pub struct Polled<T> {
    pub arrival: VirtualTime,
    pub payload: T,
}

/// Typed pollable message source. Clone to share between the posting and
/// polling sides.
pub struct PollSource<T> {
    shared: Arc<Shared>,
    id: SourceId,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for PollSource<T> {
    fn clone(&self) -> Self {
        PollSource {
            shared: self.shared.clone(),
            id: self.id,
            _marker: PhantomData,
        }
    }
}

impl<T: Send + 'static> PollSource<T> {
    /// Create a source belonging to process `proc` whose single poll
    /// attempt costs `poll_cost` (protocol-dependent: cheap for SCI,
    /// expensive for TCP's `select`).
    pub fn new(kernel: &Kernel, proc: ProcId, poll_cost: VirtualDuration) -> Self {
        Self::lanes(kernel, proc, poll_cost, 1)
            .next()
            .expect("a group of one lane")
    }

    /// Create `n` sources of process `proc` back to back as one slot
    /// group — e.g. the VCI lanes of one channel. The group bills one
    /// `poll_cost` per cycle while any lane is armed, instead of one per
    /// lane: a channel's poll checks all of its lanes at one cost.
    /// Parking stays per lane, so the group's cost leaves the cycle only
    /// once every lane is parked (see `SourceState::slot`). Every lane
    /// is registered before the first is returned.
    pub fn lanes(
        kernel: &Kernel,
        proc: ProcId,
        poll_cost: VirtualDuration,
        n: usize,
    ) -> impl ExactSizeIterator<Item = Self> {
        let shared = kernel.shared.clone();
        let first = {
            let mut guard = shared.state.borrow();
            let sched = &mut *guard;
            let first = sched.sources.len();
            // Keep the per-process source index current (creation
            // order = id order, matching the old full-table sweeps).
            let p = proc.0 as usize;
            if p >= sched.proc_sources.len() {
                sched.proc_sources.resize_with(p + 1, Vec::new);
            }
            for id in first..first + n {
                sched.sources.push(SourceState {
                    proc,
                    poll_cost,
                    queue: Default::default(),
                    waiter: None,
                    attached: false,
                    closed: false,
                    empty_polls: 0,
                    parked: false,
                    slot: first,
                });
                sched.proc_sources[p].push(id);
            }
            first
        };
        (first..first + n).map(move |id| PollSource {
            shared: shared.clone(),
            id: SourceId(id),
            _marker: PhantomData,
        })
    }

    /// Register this source in its process's polling cycle without
    /// blocking. `poll_wait` attaches implicitly; an explicit attach lets
    /// a benchmark model "a polling thread exists for this channel" even
    /// before its first wait.
    pub fn attach(&self) {
        let mut sched = self.shared.state.borrow();
        let s = &mut sched.sources[self.id.0];
        s.attached = true;
        // An explicit (re)attach models a polling thread arriving: the
        // source starts armed regardless of its idle history.
        s.parked = false;
        s.empty_polls = 0;
    }

    /// Remove this source from its process's polling cycle (the polling
    /// thread exited).
    pub fn detach(&self) {
        self.shared.state.borrow().sources[self.id.0].attached = false;
    }

    /// Post a message that arrives on the wire at absolute virtual time
    /// `arrival`. Must be called from a simulated thread. Messages are
    /// delivered in `(arrival, post order)` order.
    pub fn post(&self, arrival: VirtualTime, payload: T) {
        with_current(|shared, me| {
            debug_assert!(
                Arc::ptr_eq(shared, &self.shared),
                "source used across kernels"
            );
            let mut sched = shared.enter(me);
            assert!(
                !sched.sources[self.id.0].closed,
                "post on closed poll source #{}",
                self.id.0
            );
            // The first post aimed at a parked source re-arms it *before* the
            // detection cycle is computed: the re-armed channel's own poll is
            // what will find the message, so it rejoins the loop immediately.
            if shared.cost.poll_policy == crate::cost::PollPolicy::Parking {
                let s = &mut sched.sources[self.id.0];
                s.parked = false;
                s.empty_polls = 0;
            }
            let seq = sched.post_seq;
            sched.post_seq += 1;
            // Insert sorted by (arrival, seq): scan from the back, since
            // arrivals are mostly monotone.
            {
                let queue = &mut sched.sources[self.id.0].queue;
                let pos = queue
                    .iter()
                    .rposition(|(a, s, _)| (*a, *s) <= (arrival, seq))
                    .map(|p| p + 1)
                    .unwrap_or(0);
                queue.insert(pos, (arrival, seq, Box::new(payload)));
            }
            if let Some(w) = sched.sources[self.id.0].waiter.take() {
                // A set-waiter is registered on several sources; the first
                // wake wins and the sibling registrations must be forgotten
                // before the thread can run (a second post would otherwise
                // wake an already-ready thread and lose its payload).
                Shared::clear_poll_set(&mut sched, w);
                let proc = sched.sources[self.id.0].proc;
                let cycle = shared
                    .cost
                    .scaled_cycle(Shared::polling_cycle(&sched, proc));
                let (head_arrival, _, head) = sched.sources[self.id.0]
                    .queue
                    .pop_front()
                    .expect("just inserted");
                let blocked_at = sched.threads[w.0].vtime;
                let notice = std::cmp::max(head_arrival, blocked_at) + cycle;
                sched.threads[w.0].wake_payload = Some(Box::new(Polled {
                    arrival: head_arrival,
                    payload: *head.downcast::<T>().expect("poll source type confusion"),
                }));
                sched.threads[w.0].woke_source = Some(self.id.0);
                Shared::make_ready(&mut sched, w, notice);
                sched.record(me, || crate::obs::Event::PollWake { source: self.id.0 });
                shared.note_detection(&mut sched, proc, self.id);
            }
            shared.reschedule(&mut sched, me);
        })
    }

    /// Block until a message is noticed by the polling loop; returns
    /// `None` once the source is closed and drained. The caller's clock
    /// advances to the notice time.
    pub fn poll_wait(&self) -> Option<Polled<T>> {
        with_current(|shared, me| {
            let mut sched = shared.enter(me);
            sched.sources[self.id.0].attached = true;
            let proc = sched.sources[self.id.0].proc;
            if let Some((arrival, _, payload)) = sched.sources[self.id.0].queue.pop_front() {
                let cycle = shared
                    .cost
                    .scaled_cycle(Shared::polling_cycle(&sched, proc));
                let slot = &mut sched.threads[me.0];
                let notice = std::cmp::max(arrival, slot.vtime) + cycle;
                slot.vtime = notice;
                sched.record(me, || crate::obs::Event::PollQueued { source: self.id.0 });
                shared.note_detection(&mut sched, proc, self.id);
                shared.reschedule(&mut sched, me);
                return Some(Polled {
                    arrival,
                    payload: *payload.downcast::<T>().expect("poll source type confusion"),
                });
            }
            if sched.sources[self.id.0].closed {
                shared.reschedule(&mut sched, me);
                return None;
            }
            assert!(
                sched.sources[self.id.0].waiter.is_none(),
                "two threads poll-waiting on source #{}",
                self.id.0
            );
            sched.sources[self.id.0].waiter = Some(me);
            shared.block(&mut sched, me, TState::BlockedPoll(self.id));
            // Woken either by a post (payload present) or by close (absent).
            sched.record(me, || crate::obs::Event::PollWaited { source: self.id.0 });
            let payload = sched.threads[me.0].wake_payload.take();
            drop(sched);
            payload.map(|p| {
                *p.downcast::<Polled<T>>()
                    .expect("poll source type confusion")
            })
        })
    }

    /// One explicit poll attempt: charges this source's own poll cost and
    /// returns a message only if one had arrived by the (charged) clock.
    pub fn try_poll(&self) -> Option<Polled<T>> {
        with_current(|shared, me| {
            let mut sched = shared.enter(me);
            let cost = sched.sources[self.id.0].poll_cost;
            if shared.cost.poll_policy == crate::cost::PollPolicy::Parking {
                // An explicit poll is this channel's own thread doing work:
                // it is evidently not idle, so re-arm it.
                let s = &mut sched.sources[self.id.0];
                s.parked = false;
                s.empty_polls = 0;
            }
            sched.threads[me.0].vtime += cost;
            let now = sched.threads[me.0].vtime;
            let due = sched.sources[self.id.0]
                .queue
                .front()
                .is_some_and(|(a, _, _)| *a <= now);
            let result = if due {
                let (arrival, _, payload) = sched.sources[self.id.0].queue.pop_front().unwrap();
                Some(Polled {
                    arrival,
                    payload: *payload.downcast::<T>().expect("poll source type confusion"),
                })
            } else {
                None
            };
            shared.reschedule(&mut sched, me);
            result
        })
    }

    /// Close the source: the blocked poller (if any) wakes with `None`,
    /// and future `poll_wait`s return `None` once the queue drains.
    pub fn close(&self) {
        with_current(|shared, me| {
            let mut sched = shared.enter(me);
            sched.sources[self.id.0].closed = true;
            if let Some(w) = sched.sources[self.id.0].waiter.take() {
                Shared::clear_poll_set(&mut sched, w);
                sched.threads[w.0].woke_source = Some(self.id.0);
                let at = sched.threads[me.0].vtime + shared.cost.wake;
                Shared::make_ready(&mut sched, w, at);
            }
            shared.reschedule(&mut sched, me);
        })
    }

    /// Number of queued (arrived or in-flight) messages.
    pub fn backlog(&self) -> usize {
        self.shared.state.borrow().sources[self.id.0].queue.len()
    }
}

/// A wait-any group over several poll sources of one process: one
/// polling thread services every member, instead of one thread per
/// source. This is the fused-progress model large worlds need — an
/// 8k-rank fat-tree world has three channels per rank, and a thread
/// per (channel, vci) source exhausts the process's mapping budget.
///
/// The detection-delay model is unchanged: members stay attached, so a
/// notice still pays the full factorized polling cycle of the process.
/// Delivery picks the earliest `(arrival, post order)` message across
/// members, which is exactly the order a per-source-thread world's
/// polling loop would notice them in.
pub struct PollSet<T> {
    shared: Arc<Shared>,
    ids: Vec<SourceId>,
    _marker: PhantomData<fn() -> T>,
}

impl<T: Send + 'static> PollSet<T> {
    /// Group `sources` (all of the same kernel; typically the same
    /// process, so they share one polling cycle).
    pub fn new(sources: &[PollSource<T>]) -> Self {
        assert!(!sources.is_empty(), "PollSet needs at least one source");
        let shared = sources[0].shared.clone();
        assert!(
            sources.iter().all(|s| Arc::ptr_eq(&s.shared, &shared)),
            "PollSet members must belong to one kernel"
        );
        PollSet {
            shared,
            ids: sources.iter().map(|s| s.id).collect(),
            _marker: PhantomData,
        }
    }

    /// Block until any member notices a message; returns the member
    /// index and the message. Returns `None` once every member is
    /// closed and drained. The caller's clock advances to the notice
    /// time, exactly as in [`PollSource::poll_wait`].
    pub fn wait(&self) -> Option<(usize, Polled<T>)> {
        with_current(|shared, me| {
            debug_assert!(
                Arc::ptr_eq(shared, &self.shared),
                "poll set used across kernels"
            );
            loop {
                let mut sched = shared.enter(me);
                for &id in &self.ids {
                    sched.sources[id.0].attached = true;
                }
                // Earliest queued message across members (same key a
                // single source orders its own queue by).
                let next = self
                    .ids
                    .iter()
                    .enumerate()
                    .filter_map(|(i, id)| {
                        let (a, s, _) = sched.sources[id.0].queue.front()?;
                        Some((*a, *s, i))
                    })
                    .min();
                if let Some((_, _, idx)) = next {
                    let id = self.ids[idx];
                    let proc = sched.sources[id.0].proc;
                    let (arrival, _, payload) =
                        sched.sources[id.0].queue.pop_front().expect("just seen");
                    let cycle = shared
                        .cost
                        .scaled_cycle(Shared::polling_cycle(&sched, proc));
                    let slot = &mut sched.threads[me.0];
                    let notice = std::cmp::max(arrival, slot.vtime) + cycle;
                    slot.vtime = notice;
                    sched.record(me, || crate::obs::Event::PollQueued { source: id.0 });
                    shared.note_detection(&mut sched, proc, id);
                    shared.reschedule(&mut sched, me);
                    return Some((
                        idx,
                        Polled {
                            arrival,
                            payload: *payload.downcast::<T>().expect("poll source type confusion"),
                        },
                    ));
                }
                if self.ids.iter().all(|id| sched.sources[id.0].closed) {
                    shared.reschedule(&mut sched, me);
                    return None;
                }
                // Register as the waiter of every open member; the first
                // post (or close) wins and clears the rest (see
                // `Shared::clear_poll_set`).
                let mut registered = Vec::with_capacity(self.ids.len());
                for &id in &self.ids {
                    let s = &mut sched.sources[id.0];
                    if s.closed {
                        continue;
                    }
                    assert!(
                        s.waiter.is_none(),
                        "two threads poll-waiting on source #{}",
                        id.0
                    );
                    s.waiter = Some(me);
                    registered.push(id);
                }
                let lead = registered[0];
                sched.threads[me.0].poll_set = registered;
                sched.threads[me.0].woke_source = None;
                shared.block(&mut sched, me, TState::BlockedPoll(lead));
                sched.record(me, || crate::obs::Event::PollWaited { source: lead.0 });
                let woke = sched.threads[me.0].woke_source.take();
                let payload = sched.threads[me.0].wake_payload.take();
                drop(sched);
                match payload {
                    Some(p) => {
                        let idx = self
                            .ids
                            .iter()
                            .position(|id| Some(id.0) == woke)
                            .expect("woken by a member source");
                        return Some((
                            idx,
                            *p.downcast::<Polled<T>>()
                                .expect("poll source type confusion"),
                        ));
                    }
                    // A member closed: re-evaluate (other members may still
                    // be open, or everything is drained now).
                    None => continue,
                }
            }
        })
    }

    /// Member count.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::kernel::Kernel;
    use crate::thread::{advance, now};
    use crate::time::{VirtualDuration, VirtualTime};

    fn us(n: u64) -> VirtualDuration {
        VirtualDuration::from_micros(n)
    }

    #[test]
    fn message_noticed_one_cycle_after_arrival() {
        let k = Kernel::new(CostModel::free());
        let src = PollSource::<u32>::new(&k, ProcId(0), us(2));
        let rx = src.clone();
        let h = k.spawn("poller", move || {
            let m = rx.poll_wait().unwrap();
            (m.arrival, m.payload, now())
        });
        k.spawn("sender", move || {
            advance(us(10));
            // Arrives 5us after the send clock.
            src.post(now() + us(5), 7);
        });
        k.run().unwrap();
        let (arrival, payload, noticed) = h.join_outcome().unwrap();
        assert_eq!(payload, 7);
        assert_eq!(arrival, VirtualTime(15_000));
        // Noticed = arrival + own poll cost (only source in the proc).
        assert_eq!(noticed, VirtualTime(17_000));
    }

    #[test]
    fn second_attached_source_slows_detection() {
        // The Figure 9 mechanism: attaching a TCP-like source (expensive
        // poll) to the same process delays SCI-like detections by the
        // TCP poll cost.
        fn detection(with_tcp: bool) -> VirtualTime {
            let k = Kernel::new(CostModel::free());
            let sci = PollSource::<u32>::new(&k, ProcId(0), us(1));
            if with_tcp {
                let tcp = PollSource::<u32>::new(&k, ProcId(0), us(6));
                tcp.attach();
            }
            let rx = sci.clone();
            let h = k.spawn("poller", move || {
                rx.poll_wait().unwrap();
                now()
            });
            k.spawn("sender", move || {
                sci.post(VirtualTime(10_000), 1);
            });
            k.run().unwrap();
            h.join_outcome().unwrap()
        }
        assert_eq!(detection(false), VirtualTime(11_000));
        assert_eq!(detection(true), VirtualTime(17_000));
    }

    #[test]
    fn sources_in_other_processes_do_not_interfere() {
        let k = Kernel::new(CostModel::free());
        let sci = PollSource::<u32>::new(&k, ProcId(0), us(1));
        let other = PollSource::<u32>::new(&k, ProcId(1), us(50));
        other.attach();
        let rx = sci.clone();
        let h = k.spawn("poller", move || {
            rx.poll_wait().unwrap();
            now()
        });
        k.spawn("sender", move || sci.post(VirtualTime(10_000), 1));
        k.run().unwrap();
        assert_eq!(h.join_outcome().unwrap(), VirtualTime(11_000));
    }

    #[test]
    fn oracle_polling_ablation_removes_cycle() {
        let k = Kernel::new(CostModel::free().with_oracle_polling());
        let src = PollSource::<u32>::new(&k, ProcId(0), us(4));
        let rx = src.clone();
        let h = k.spawn("poller", move || {
            rx.poll_wait().unwrap();
            now()
        });
        k.spawn("sender", move || src.post(VirtualTime(10_000), 1));
        k.run().unwrap();
        assert_eq!(h.join_outcome().unwrap(), VirtualTime(10_000));
    }

    #[test]
    fn delivery_order_is_by_arrival_then_post_order() {
        let k = Kernel::new(CostModel::free());
        let src = PollSource::<&'static str>::new(&k, ProcId(0), VirtualDuration::ZERO);
        let rx = src.clone();
        let h = k.spawn("poller", move || {
            // Wait until everything is posted.
            advance(us(100));
            (0..3)
                .map(|_| rx.poll_wait().unwrap().payload)
                .collect::<Vec<_>>()
        });
        k.spawn("sender", move || {
            src.post(VirtualTime(30_000), "late");
            src.post(VirtualTime(10_000), "early");
            src.post(VirtualTime(10_000), "early2");
        });
        k.run().unwrap();
        assert_eq!(h.join_outcome().unwrap(), vec!["early", "early2", "late"]);
    }

    #[test]
    fn poll_wait_with_queued_message_does_not_block() {
        let k = Kernel::new(CostModel::free());
        let src = PollSource::<u32>::new(&k, ProcId(0), us(1));
        let h = k.spawn("t", move || {
            src.post(VirtualTime(5_000), 42);
            advance(us(20));
            let m = src.poll_wait().unwrap();
            (m.payload, now())
        });
        k.run().unwrap();
        let (v, t) = h.join_outcome().unwrap();
        assert_eq!(v, 42);
        // Already arrived; notice = now + cycle.
        assert_eq!(t, VirtualTime(21_000));
    }

    #[test]
    fn close_wakes_poller_with_none() {
        let k = Kernel::new(CostModel::free());
        let src = PollSource::<u32>::new(&k, ProcId(0), us(1));
        let rx = src.clone();
        let h = k.spawn("poller", move || rx.poll_wait().is_none());
        k.spawn("closer", move || {
            advance(us(5));
            src.close();
        });
        k.run().unwrap();
        assert!(h.join_outcome().unwrap());
    }

    #[test]
    fn try_poll_charges_cost_and_respects_arrival() {
        let k = Kernel::new(CostModel::free());
        let src = PollSource::<u32>::new(&k, ProcId(0), us(2));
        let h = k.spawn("t", move || {
            src.post(VirtualTime(9_000), 5);
            // First attempt at clock 2us: nothing arrived yet.
            let a = src.try_poll().is_none();
            advance(us(10)); // clock 12us
            let b = src.try_poll().map(|p| p.payload);
            (a, b, now())
        });
        k.run().unwrap();
        let (a, b, t) = h.join_outcome().unwrap();
        assert!(a);
        assert_eq!(b, Some(5));
        assert_eq!(t, VirtualTime(14_000)); // 2 + 10 + 2
    }

    #[test]
    fn parking_removes_idle_channel_tax() {
        // The §3.3 scenario behind Figure 9: an idle TCP channel
        // (expensive select) attached next to a busy SCI channel. Under
        // Seed it taxes every SCI detection forever; under Parking it is
        // parked after `park_after` empty detections and SCI latency
        // returns to its TCP-free value.
        fn detection_delays(with_tcp: bool, parking: bool) -> Vec<VirtualDuration> {
            let cost = if parking {
                CostModel::free().with_parking()
            } else {
                CostModel::free()
            };
            let k = Kernel::new(cost);
            let sci = PollSource::<u32>::new(&k, ProcId(0), us(1));
            if with_tcp {
                let tcp = PollSource::<u32>::new(&k, ProcId(0), us(6));
                tcp.attach();
            }
            let rx = sci.clone();
            let h = k.spawn("poller", move || {
                (0..10)
                    .map(|_| {
                        let m = rx.poll_wait().unwrap();
                        now() - m.arrival
                    })
                    .collect::<Vec<_>>()
            });
            k.spawn("sender", move || {
                for i in 0..10u32 {
                    advance(us(100));
                    sci.post(now(), i);
                }
            });
            k.run().unwrap();
            h.join_outcome().unwrap()
        }
        // Seed: 7us on every detection, forever.
        assert_eq!(detection_delays(true, false), vec![us(7); 10]);
        // Parking (park_after = 8): eight taxed detections, then the TCP
        // source parks and detection delay matches the SCI-only world.
        let parked = detection_delays(true, true);
        assert_eq!(&parked[..8], &vec![us(7); 8][..]);
        assert_eq!(&parked[8..], &vec![us(1); 2][..]);
        assert_eq!(parked[9], detection_delays(false, false)[9]);
    }

    #[test]
    fn parked_source_rearms_on_post() {
        // After the TCP source parks, traffic aimed at it re-arms it:
        // the message is detected (paying the full re-armed cycle) and
        // subsequent SCI detections are taxed again.
        let k = Kernel::new(CostModel::free().with_parking());
        let sci = PollSource::<u32>::new(&k, ProcId(0), us(1));
        let tcp = PollSource::<u32>::new(&k, ProcId(0), us(6));
        tcp.attach();
        let (sci_rx, tcp_rx) = (sci.clone(), tcp.clone());
        let h = k.spawn("poller", move || {
            let mut delays = Vec::new();
            for _ in 0..9 {
                let m = sci_rx.poll_wait().unwrap();
                delays.push(now() - m.arrival);
            }
            let m = tcp_rx.poll_wait().unwrap();
            delays.push(now() - m.arrival);
            let m = sci_rx.poll_wait().unwrap();
            delays.push(now() - m.arrival);
            delays
        });
        k.spawn("sender", move || {
            for i in 0..9u32 {
                advance(us(100));
                sci.post(now(), i);
            }
            advance(us(100));
            tcp.post(now(), 99);
            advance(us(100));
            sci.post(now(), 9);
        });
        k.run().unwrap();
        let delays = h.join_outcome().unwrap();
        // 8 taxed detections park the TCP source; the 9th is SCI-only.
        assert_eq!(&delays[..8], &vec![us(7); 8][..]);
        assert_eq!(delays[8], us(1));
        // The TCP post re-arms it: its own detection and the following
        // SCI detection both pay the full two-channel cycle again.
        assert_eq!(delays[9], us(7));
        assert_eq!(delays[10], us(7));
    }

    #[test]
    fn inflight_traffic_keeps_source_armed() {
        // A source with a message still in flight (posted, not yet
        // arrived) is not idle: it must not park, or the in-flight
        // message would be detected late.
        let k = Kernel::new(CostModel::free().with_parking());
        let sci = PollSource::<u32>::new(&k, ProcId(0), us(1));
        let tcp = PollSource::<u32>::new(&k, ProcId(0), us(6));
        tcp.attach();
        let (sci_rx, tcp_rx) = (sci.clone(), tcp.clone());
        let h = k.spawn("poller", move || {
            for _ in 0..10 {
                sci_rx.poll_wait().unwrap();
            }
            let m = tcp_rx.poll_wait().unwrap();
            now() - m.arrival
        });
        k.spawn("sender", move || {
            // Far-future TCP message is in flight the whole time.
            tcp.post(VirtualTime(2_000_000), 99);
            for i in 0..10u32 {
                advance(us(100));
                sci.post(now(), i);
            }
        });
        k.run().unwrap();
        // TCP never parked (queue non-empty), so its detection pays the
        // normal two-channel cycle, not a late re-arm penalty.
        assert_eq!(h.join_outcome().unwrap(), us(7));
    }

    #[test]
    fn slot_group_bills_once_and_parks_only_as_a_whole() {
        // Three lanes of one group (2us each) next to an ungrouped 1us
        // source: the group bills its poll cost once per cycle. With one
        // lane kept armed by in-flight traffic, parking the other two
        // leaves the group's cost in the cycle; once all three park, it
        // drops out.
        fn detection_delays(parking: bool, inflight_lane: bool) -> Vec<VirtualDuration> {
            let cost = if parking {
                CostModel::free().with_parking()
            } else {
                CostModel::free()
            };
            let k = Kernel::new(cost);
            let sci = PollSource::<u32>::new(&k, ProcId(0), us(1));
            let lanes: Vec<_> = PollSource::<u32>::lanes(&k, ProcId(0), us(2), 3).collect();
            for lane in &lanes {
                lane.attach();
            }
            let rx = sci.clone();
            let h = k.spawn("poller", move || {
                (0..10)
                    .map(|_| {
                        let m = rx.poll_wait().unwrap();
                        now() - m.arrival
                    })
                    .collect::<Vec<_>>()
            });
            k.spawn("sender", move || {
                if inflight_lane {
                    lanes[2].post(VirtualTime(2_000_000), 99);
                }
                for i in 0..10u32 {
                    advance(us(100));
                    sci.post(now(), i);
                }
            });
            k.run().unwrap();
            h.join_outcome().unwrap()
        }
        // Seed: 1us + one 2us group slot, never 1 + 3 * 2.
        assert_eq!(detection_delays(false, false), vec![us(3); 10]);
        // Parking (park_after = 8), every lane idle: the whole group
        // parks after eight detections.
        let parked = detection_delays(true, false);
        assert_eq!(&parked[..8], &vec![us(3); 8][..]);
        assert_eq!(&parked[8..], &vec![us(1); 2][..]);
        // Lanes 0 and 1 park, lane 2 stays armed: still one slot billed.
        assert_eq!(detection_delays(true, true), vec![us(3); 10]);
    }

    #[test]
    fn poll_set_waits_on_any_member() {
        let k = Kernel::new(CostModel::free());
        let a = PollSource::<u32>::new(&k, ProcId(0), us(1));
        let b = PollSource::<u32>::new(&k, ProcId(0), us(1));
        let (pa, pb) = (a.clone(), b.clone());
        let h = k.spawn("poller", move || {
            let set = PollSet::new(&[pa, pb]);
            let first = set.wait().unwrap();
            let second = set.wait().unwrap();
            ((first.0, first.1.payload), (second.0, second.1.payload))
        });
        k.spawn("sender", move || {
            advance(us(10));
            b.post(now(), 20);
            advance(us(10));
            a.post(now(), 10);
        });
        k.run().unwrap();
        let (first, second) = h.join_outcome().unwrap();
        assert_eq!(first, (1, 20));
        assert_eq!(second, (0, 10));
    }

    #[test]
    fn poll_set_delivers_earliest_arrival_across_members() {
        // Both messages are queued before the waiter looks: the set must
        // pick the earlier arrival even though it sits on the second
        // member.
        let k = Kernel::new(CostModel::free());
        let a = PollSource::<&'static str>::new(&k, ProcId(0), us(1));
        let b = PollSource::<&'static str>::new(&k, ProcId(0), us(1));
        let h = k.spawn("t", move || {
            a.post(VirtualTime(30_000), "late");
            b.post(VirtualTime(10_000), "early");
            advance(us(100));
            let set = PollSet::new(&[a, b]);
            let first = set.wait().unwrap();
            let second = set.wait().unwrap();
            ((first.0, first.1.payload), (second.0, second.1.payload))
        });
        k.run().unwrap();
        let (first, second) = h.join_outcome().unwrap();
        assert_eq!(first, (1, "early"));
        assert_eq!(second, (0, "late"));
    }

    #[test]
    fn poll_set_survives_racing_posts_to_both_members() {
        // Two posts land on different members while the set-waiter is
        // blocked. The first post wins the wake; the second must not
        // double-wake the thread, and its message must survive for the
        // next wait.
        let k = Kernel::new(CostModel::free());
        let a = PollSource::<u32>::new(&k, ProcId(0), us(1));
        let b = PollSource::<u32>::new(&k, ProcId(0), us(1));
        let (pa, pb) = (a.clone(), b.clone());
        let h = k.spawn("poller", move || {
            let set = PollSet::new(&[pa, pb]);
            let mut got = vec![set.wait().unwrap().1.payload];
            advance(us(100)); // let both posts land before looking again
            got.push(set.wait().unwrap().1.payload);
            got.sort_unstable();
            got
        });
        k.spawn("sender-a", move || {
            advance(us(10));
            a.post(now(), 1);
        });
        k.spawn("sender-b", move || {
            advance(us(10));
            b.post(now(), 2);
        });
        k.run().unwrap();
        assert_eq!(h.join_outcome().unwrap(), vec![1, 2]);
    }

    #[test]
    fn poll_set_outlives_closed_members() {
        let k = Kernel::new(CostModel::free());
        let a = PollSource::<u32>::new(&k, ProcId(0), us(1));
        let b = PollSource::<u32>::new(&k, ProcId(0), us(1));
        let (pa, pb) = (a.clone(), b.clone());
        let h = k.spawn("poller", move || {
            let set = PollSet::new(&[pa, pb]);
            // Close of `a` must not end the set while `b` is open.
            let m = set.wait().unwrap();
            assert_eq!((m.0, m.1.payload), (1, 9));
            // All members closed and drained: the set ends.
            set.wait().is_none()
        });
        k.spawn("driver", move || {
            advance(us(5));
            a.close();
            advance(us(5));
            b.post(now(), 9);
            advance(us(5));
            b.close();
        });
        k.run().unwrap();
        assert!(h.join_outcome().unwrap());
    }

    #[test]
    fn poll_set_detection_pays_the_process_cycle() {
        // A set wait still pays the factorized polling cycle of every
        // attached source of the process, like a single-source wait.
        let k = Kernel::new(CostModel::free());
        let a = PollSource::<u32>::new(&k, ProcId(0), us(1));
        let b = PollSource::<u32>::new(&k, ProcId(0), us(6));
        let (pa, pb) = (a.clone(), b.clone());
        let h = k.spawn("poller", move || {
            let set = PollSet::new(&[pa, pb]);
            set.wait().unwrap();
            now()
        });
        k.spawn("sender", move || a.post(VirtualTime(10_000), 1));
        k.run().unwrap();
        // Both members are attached by the wait: notice = arrival + 7us.
        assert_eq!(h.join_outcome().unwrap(), VirtualTime(17_000));
    }

    #[test]
    fn detached_source_leaves_cycle() {
        let k = Kernel::new(CostModel::free());
        let sci = PollSource::<u32>::new(&k, ProcId(0), us(1));
        let tcp = PollSource::<u32>::new(&k, ProcId(0), us(6));
        tcp.attach();
        tcp.detach();
        let rx = sci.clone();
        let h = k.spawn("poller", move || {
            rx.poll_wait().unwrap();
            now()
        });
        k.spawn("sender", move || sci.post(VirtualTime(10_000), 1));
        k.run().unwrap();
        assert_eq!(h.join_outcome().unwrap(), VirtualTime(11_000));
    }
}
