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
    /// advances to the notice time. The one-member case of
    /// [`PollSource::poll_wait_any`].
    pub fn poll_wait(&self) -> Option<Polled<T>> {
        Self::poll_wait_any(std::iter::once(self)).map(|(_, polled)| polled)
    }

    /// Block until any of `sources` (one process's, on the current
    /// kernel) notices a message; returns the member index and the
    /// message, or `None` once every member is closed and drained. One
    /// polling thread can serve several channels this way (fused
    /// progress). Delivery picks the earliest `(arrival, post order)`
    /// message across members, the order a thread per source would
    /// notice them in; every member stays attached, so a notice still
    /// pays the process's full polling cycle.
    pub fn poll_wait_any<'a, I>(sources: I) -> Option<(usize, Polled<T>)>
    where
        I: IntoIterator<Item = &'a Self>,
        I::IntoIter: Clone,
    {
        let sources = sources.into_iter();
        let many = sources.clone().nth(1).is_some();
        with_current(|shared, me| {
            let mut sched = shared.enter(me);
            loop {
                // Earliest queued message across members (the key each
                // source orders its own queue by).
                let mut next = None;
                for (i, src) in sources.clone().enumerate() {
                    debug_assert!(
                        Arc::ptr_eq(shared, &src.shared),
                        "source used across kernels"
                    );
                    let s = &mut sched.sources[src.id.0];
                    s.attached = true;
                    if let Some(&(a, seq, _)) = s.queue.front() {
                        if next.is_none_or(|(na, nseq, _, _)| (a, seq) < (na, nseq)) {
                            next = Some((a, seq, i, src.id));
                        }
                    }
                }
                if let Some((_, _, idx, id)) = next {
                    let proc = sched.sources[id.0].proc;
                    let (arrival, _, payload) =
                        sched.sources[id.0].queue.pop_front().expect("just seen");
                    let cycle = shared
                        .cost
                        .scaled_cycle(Shared::polling_cycle(&sched, proc));
                    let slot = &mut sched.threads[me.0];
                    slot.vtime = std::cmp::max(arrival, slot.vtime) + cycle;
                    sched.record(me, || crate::obs::Event::PollQueued { source: id.0 });
                    shared.note_detection(&mut sched, proc, id);
                    shared.reschedule(&mut sched, me);
                    let payload = *payload.downcast::<T>().expect("poll source type confusion");
                    return Some((idx, Polled { arrival, payload }));
                }
                if sources.clone().all(|s| sched.sources[s.id.0].closed) {
                    shared.reschedule(&mut sched, me);
                    return None;
                }
                // Wait on every open member. With several, the first post
                // (or close) wins and forgets the sibling registrations
                // (`Shared::clear_poll_set`); a lone member has none.
                let mut lead = None;
                for src in sources.clone() {
                    let s = &mut sched.sources[src.id.0];
                    if s.closed {
                        continue;
                    }
                    assert!(
                        s.waiter.is_none(),
                        "two threads poll-waiting on source #{}",
                        src.id.0
                    );
                    s.waiter = Some(me);
                    lead.get_or_insert(src.id);
                    if many {
                        sched.threads[me.0].poll_set.push(src.id);
                    }
                }
                let lead = lead.expect("an open member");
                shared.block(&mut sched, me, TState::BlockedPoll(lead));
                sched.record(me, || crate::obs::Event::PollWaited { source: lead.0 });
                let woke = sched.threads[me.0].woke_source.take();
                if let Some(polled) = sched.threads[me.0].wake_payload.take() {
                    drop(sched);
                    let idx = sources
                        .clone()
                        .position(|s| Some(s.id.0) == woke)
                        .expect("woken by a member source");
                    let polled = *polled
                        .downcast::<Polled<T>>()
                        .expect("poll source type confusion");
                    return Some((idx, polled));
                }
                // Woken by a close. A closed member takes no more posts,
                // so once every member is closed all are drained; else
                // wait on the open ones.
                if sources.clone().all(|s| sched.sources[s.id.0].closed) {
                    return None;
                }
            }
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
        // The woken poller returns without another scheduling decision.
        assert_eq!(k.capture().next_ticket, 5);
    }

    #[test]
    fn close_wake_of_a_multi_member_wait_ends_it_at_once() {
        // Both members close while the wait is blocked: the first close
        // wakes it, and it returns `None` without rescheduling, as a
        // lone member's wait does (a reschedule there would make 8).
        let k = Kernel::new(CostModel::free());
        let a = PollSource::<u32>::new(&k, ProcId(0), us(1));
        let b = PollSource::<u32>::new(&k, ProcId(0), us(1));
        let set = [a.clone(), b.clone()];
        let h = k.spawn("poller", move || PollSource::poll_wait_any(&set).is_none());
        k.spawn("closer", move || {
            advance(us(5));
            a.close();
            b.close();
        });
        k.run().unwrap();
        assert!(h.join_outcome().unwrap());
        assert_eq!(k.capture().next_ticket, 7);
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
        // parked after `PARK_AFTER` empty detections and SCI latency
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
        // Parking (PARK_AFTER = 8): eight taxed detections, then the TCP
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
        // Parking (PARK_AFTER = 8), every lane idle: the whole group
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
            let set = [pa, pb];
            let first = PollSource::poll_wait_any(&set).unwrap();
            let second = PollSource::poll_wait_any(&set).unwrap();
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
        // Both messages are queued before the waiter looks: the wait must
        // pick the earlier arrival even though it sits on the second
        // member.
        let k = Kernel::new(CostModel::free());
        let a = PollSource::<&'static str>::new(&k, ProcId(0), us(1));
        let b = PollSource::<&'static str>::new(&k, ProcId(0), us(1));
        let h = k.spawn("t", move || {
            a.post(VirtualTime(30_000), "late");
            b.post(VirtualTime(10_000), "early");
            advance(us(100));
            let set = [a, b];
            let first = PollSource::poll_wait_any(&set).unwrap();
            let second = PollSource::poll_wait_any(&set).unwrap();
            ((first.0, first.1.payload), (second.0, second.1.payload))
        });
        k.run().unwrap();
        let (first, second) = h.join_outcome().unwrap();
        assert_eq!(first, (1, "early"));
        assert_eq!(second, (0, "late"));
    }

    #[test]
    fn poll_set_survives_racing_posts_to_both_members() {
        // Two posts land on different members while the waiter is
        // blocked. The first post wins the wake; the second must not
        // double-wake the thread, and its message must survive for the
        // next wait.
        let k = Kernel::new(CostModel::free());
        let a = PollSource::<u32>::new(&k, ProcId(0), us(1));
        let b = PollSource::<u32>::new(&k, ProcId(0), us(1));
        let (pa, pb) = (a.clone(), b.clone());
        let h = k.spawn("poller", move || {
            let set = [pa, pb];
            let mut got = vec![PollSource::poll_wait_any(&set).unwrap().1.payload];
            advance(us(100)); // let both posts land before looking again
            got.push(PollSource::poll_wait_any(&set).unwrap().1.payload);
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
            let set = [pa, pb];
            // Close of `a` must not end the wait while `b` is open.
            let m = PollSource::poll_wait_any(&set).unwrap();
            assert_eq!((m.0, m.1.payload), (1, 9));
            // All members closed and drained: the wait ends.
            PollSource::poll_wait_any(&set).is_none()
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
        // A wait over several members still pays the factorized polling
        // cycle of every attached source of the process, like a
        // single-source wait.
        let k = Kernel::new(CostModel::free());
        let a = PollSource::<u32>::new(&k, ProcId(0), us(1));
        let b = PollSource::<u32>::new(&k, ProcId(0), us(6));
        let (pa, pb) = (a.clone(), b.clone());
        let h = k.spawn("poller", move || {
            PollSource::poll_wait_any([&pa, &pb]).unwrap();
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
