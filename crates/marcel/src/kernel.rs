//! The deterministic virtual-time thread kernel.
//!
//! # Execution model
//!
//! Every simulated ("Marcel") thread is a user-level thread: a stackful
//! fiber (module `fiber`) that runs on the OS thread that called
//! [`Kernel::run`], and **exactly one simulated thread executes at a
//! time**. Whenever the running thread performs a kernel operation
//! (advance, yield, semaphore op, poll, spawn, join, exit) the kernel
//! re-evaluates which thread should run next: the runnable thread with
//! the smallest `(virtual time, thread id)` pair. If that is another
//! thread, the running fiber ends its borrow of the scheduler, switches
//! to it in userland and borrows it again when it is itself committed
//! again. The scheduler is an [`OwnedCell`]: every fiber of a kernel runs
//! on the OS thread that created it, so no lock guards it — a borrow is
//! a thread check and a flag. Between kernel operations a thread only
//! touches its own data, so this
//! total order of kernel operations by virtual time yields a
//! *deterministic, causally consistent* simulation: the same program
//! produces the same virtual-time trace on every run.
//!
//! # Why stacks and not an event loop
//!
//! The system under reproduction (MPICH/Madeleine, §4.2.3 of the paper) is
//! written in blocking style: polling threads block in
//! `mad_begin_unpacking`, the MPI control thread blocks on a rendezvous
//! semaphore, `MPI_Isend` spawns a worker thread. Giving every simulated
//! thread a real stack lets the reproduction keep exactly that structure
//! instead of inverting it into state machines.
//!
//! # Polling model
//!
//! Madeleine/Marcel integrate polling: each network channel is polled by a
//! dedicated thread, and Marcel *factorizes* the poll requests into one
//! polling loop whose iteration cost is the sum of the per-protocol poll
//! costs. The kernel models the consequence directly: a message arriving
//! at virtual time `a` on a source whose process currently poll-waits on
//! sources with total poll cost `C` is *noticed* at `max(a, block time) +
//! C`. This is what makes the paper's Figure 9 (SCI + TCP polling thread)
//! reproducible: adding a TCP channel adds TCP's expensive `select`-style
//! poll cost to every detection on the SCI channel.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;
use std::sync::Arc;

use crate::cost::{CostModel, PARK_AFTER};
use crate::fiber::{self, Context, Stack};
use crate::obs::{Event, EventSink, Metrics, MetricsSnapshot};
use crate::owned::{OwnedCell, OwnedMut};
use crate::time::{SchedKey, VirtualDuration, VirtualTime};

/// Identifier of a simulated thread.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Tid(pub(crate) usize);

impl Tid {
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifier of a poll source (see [`crate::poll`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SourceId(pub(crate) usize);

/// Identifier of a kernel semaphore.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) struct SemId(pub(crate) usize);

/// Process grouping for polling interference: poll sources of the same
/// process share one polling loop, so their poll costs add up (this is a
/// *simulation* process, i.e. an MPI rank, not an OS process).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ProcId(pub u32);

/// Errors surfaced by [`Kernel::run`].
#[derive(Debug, Clone)]
pub enum SimError {
    /// No thread can ever make progress again; the message contains a
    /// dump of every live thread's state.
    Deadlock(String),
    /// A simulated thread panicked; the simulation was aborted.
    ThreadPanicked(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock(d) => write!(f, "simulation deadlock:\n{d}"),
            SimError::ThreadPanicked(m) => write!(f, "simulated thread panicked: {m}"),
        }
    }
}

impl std::error::Error for SimError {}

pub(crate) enum TState {
    /// Eligible to run.
    Ready,
    /// Currently executing (at most one thread).
    Running,
    /// Waiting on a semaphore.
    BlockedSem(SemId),
    /// Waiting on a semaphore with a deadline: wakes at the deadline
    /// (empty-handed) if no release arrives first.
    BlockedSemTimeout(SemId, VirtualTime),
    /// Waiting for another thread to finish.
    BlockedJoin(Tid),
    /// Waiting in `poll_wait` on a source with an empty queue.
    BlockedPoll(SourceId),
    /// Sleeping until an absolute virtual time.
    Sleeping(VirtualTime),
    /// Finished.
    Done,
}

impl TState {
    fn describe(&self) -> String {
        match self {
            TState::Ready => "ready".into(),
            TState::Running => "running".into(),
            TState::BlockedSem(s) => format!("blocked on semaphore #{}", s.0),
            TState::BlockedSemTimeout(s, dl) => {
                format!("blocked on semaphore #{} until {dl}", s.0)
            }
            TState::BlockedJoin(t) => format!("joining thread #{}", t.0),
            TState::BlockedPoll(s) => format!("poll-waiting on source #{}", s.0),
            TState::Sleeping(t) => format!("sleeping until {t}"),
            TState::Done => "done".into(),
        }
    }
}

pub(crate) struct ThreadSlot {
    pub(crate) name: String,
    pub(crate) vtime: VirtualTime,
    pub(crate) state: TState,
    pub(crate) joiners: Vec<Tid>,
    /// Payload handed to a thread woken from `poll_wait`.
    pub(crate) wake_payload: Option<Box<dyn Any + Send>>,
    /// Every source this thread is registered on as a poll waiter (only
    /// non-empty while a [`crate::poll::PollSource::poll_wait_any`]
    /// waits on several members). The first post/close that wakes the
    /// thread clears the sibling registrations, so a second wake cannot
    /// target an already-ready thread; the vector keeps its capacity
    /// for the next wait.
    pub(crate) poll_set: Vec<SourceId>,
    /// Which source's post/close woke this thread from a poll wait
    /// (`poll_wait_any` uses it to attribute the message).
    pub(crate) woke_source: Option<usize>,
    /// What the thread runs, until its first dispatch takes it.
    pub(crate) body: Option<Body>,
    /// What the thread returned, once it finished, until its
    /// [`crate::thread::JoinHandle`] takes or drops it.
    pub(crate) result: Option<Box<dyn Any + Send>>,
    /// The thread's stack, from its first dispatch until it exits.
    pub(crate) stack: Option<Stack>,
    /// The thread's saved context while it is started and not running;
    /// the switch that suspends the thread writes it here in place.
    pub(crate) context: Context,
    /// Ticket of the scheduling decision that last committed this
    /// thread to run.
    pub(crate) ticket: u64,
}

/// A simulated thread's whole life: runs the user closure under
/// `catch_unwind` and returns its boxed result, or the panic message.
pub(crate) type Body = Box<dyn FnOnce() -> Result<Box<dyn Any + Send>, String> + Send>;

pub(crate) struct SemState {
    pub(crate) count: u64,
    pub(crate) waiters: VecDeque<Tid>,
    /// State of the primitive built on this semaphore (a mutex's data,
    /// a one-shot's value, a queue's buffer, ...), touched only inside
    /// the semaphore's own operations (see [`crate::sync`]).
    pub(crate) payload: Option<Box<dyn Any + Send>>,
}

pub(crate) struct SourceState {
    pub(crate) proc: ProcId,
    pub(crate) poll_cost: VirtualDuration,
    /// In-flight and arrived messages, sorted by (arrival, post sequence).
    pub(crate) queue: VecDeque<(VirtualTime, u64, Box<dyn Any + Send>)>,
    /// The thread currently blocked in `poll_wait` on this source, if any.
    pub(crate) waiter: Option<Tid>,
    /// A source counts toward the process polling cycle while some thread
    /// services it (a polling thread is attached, even if momentarily not
    /// blocked). Registered on first `poll_wait`, cleared on `detach`.
    pub(crate) attached: bool,
    pub(crate) closed: bool,
    /// Consecutive detections in this process during which this source's
    /// queue was empty. Only maintained under `PollPolicy::Parking`.
    pub(crate) empty_polls: u32,
    /// Parked out of the polling cycle (idle too long); re-armed by the
    /// next `post`. Never set under `PollPolicy::Seed`.
    pub(crate) parked: bool,
    /// Factorized-loop slot this source bills its poll cost under: the
    /// id of the first source of its group (its own id when created
    /// alone, the classic one-source-per-channel accounting). The
    /// sources of one group (e.g. the VCI lanes of one channel) are
    /// created back to back, so they are adjacent in `proc_sources`, and
    /// charge the cycle once for the whole group while any member is
    /// armed: polling a channel checks all of its lanes at one cost.
    /// Parking still tracks each lane individually — the slot's cost
    /// drops out of the cycle only once every member lane is parked.
    pub(crate) slot: usize,
}

/// One entry of the (optional) deterministic event trace. `what` is a
/// typed [`Event`] whose `Display` reproduces the legacy trace strings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    pub time: VirtualTime,
    pub tid: usize,
    /// Commit-order sequence number the committer stamped on the event
    /// when it was recorded. Strictly increasing over a run, so a
    /// stable sort on it restores canonical order from a buffer handed
    /// over out of order (see [`crate::obs::chrome_trace_json`]). Note
    /// that the canonical trace is *not* monotone in `time` — e.g. a
    /// semaphore release records the wake at the releaser's clock,
    /// which may exceed events recorded later by lower-clock threads —
    /// so `ticket`, not `time`, is the flush key.
    pub ticket: u64,
    pub what: Event,
}

/// One committed scheduling decision, as recorded by the optional
/// decision log ([`Kernel::enable_decision_log`]): the monotonic
/// ticket, the thread it committed and the virtual time of its
/// scheduling key.
///
/// The decision stream is the journal subsystem's finest-grained
/// divergence probe: the first ticket at which two runs commit a
/// different thread or key is what `replay diff` pinpoints. Recording
/// is pure host-side bookkeeping — it never advances virtual time —
/// and costs one `Option` check per commit when disabled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decision {
    /// The scheduling ticket stamped on the commit.
    pub ticket: u64,
    /// Thread the committer handed the run token to.
    pub tid: usize,
    /// Virtual time of the committed scheduling key.
    pub at: VirtualTime,
    /// Trace-event commit cursor ([`Sched::record_seq`]) at the instant
    /// this decision committed: the number of trace events recorded
    /// strictly before it. Bridges the two ticket domains — scheduling
    /// tickets (this log) and trace tickets ([`TraceEvent::ticket`]) —
    /// so replay tooling can slice the event stream to the window
    /// around any decision. Deterministic because both sequences
    /// advance inside the scheduler's borrow, in commit order. Zero whenever
    /// tracing is off.
    pub events_before: u64,
}

/// The schedulable set, ordered by scheduling key `(at, tid)`: exactly
/// the threads that are `Ready` (at their clock), `Sleeping` (at their
/// wake time) or `BlockedSemTimeout` (at their deadline). A lazy binary
/// heap: `due` holds each thread's one live key, and a heap entry whose
/// key no longer matches `due` is stale and dropped once it surfaces.
/// Every update pops the stale entries off the top, so the top is always
/// live and [`ReadySet::peek`] is the exact minimum — O(log threads) per
/// scheduling decision.
///
/// An entry goes stale in two ways. The committed thread is the top and
/// is popped at once. A timed semaphore waiter that `make_ready` re-keys
/// to an earlier wake leaves its deadline entry behind until the live
/// minimum passes it; the only timed wait is ch_mad's faulted rendezvous
/// `wait_timeout` (deadlines of 30 ms to 1 s). So the heap holds the
/// live set plus at most one stale entry per pending deadline.
#[derive(Default)]
pub(crate) struct ReadySet {
    /// Keys packed as `at << 64 | tid`, so a sift compares one integer.
    heap: BinaryHeap<Reverse<u128>>,
    due: Vec<Option<u64>>,
}

impl ReadySet {
    /// Index (or re-index) thread `tid` as due at `at`. Callers need not
    /// know whether the thread was already schedulable (a semaphore
    /// release re-keys a timed waiter from its deadline to its wake).
    pub(crate) fn upsert(&mut self, tid: usize, at: u64) {
        if tid >= self.due.len() {
            self.due.resize(tid + 1, None);
        }
        if self.due[tid] == Some(at) {
            return;
        }
        self.due[tid] = Some(at);
        self.heap.push(Reverse(pack(at, tid)));
        self.drop_stale();
    }

    /// Take thread `tid` out of the set.
    pub(crate) fn remove(&mut self, tid: usize) {
        self.due[tid] = None;
        self.drop_stale();
    }

    /// Take the minimum out of the set (it was committed to run).
    pub(crate) fn pop(&mut self) -> Option<(u64, usize)> {
        let min = self.peek()?;
        self.remove(min.1);
        Some(min)
    }

    /// Take the minimum out of the set and index thread `tid` (not in
    /// the set) as due at `at` in its place: one sift down instead of a
    /// push and a pop — the step of a running thread that stays
    /// schedulable but is no longer the minimum. Panics when empty.
    pub(crate) fn replace_top(&mut self, tid: usize, at: u64) -> (u64, usize) {
        let mut top = self.heap.peek_mut().expect("replace_top on an empty set");
        let Reverse(min) = std::mem::replace(&mut *top, Reverse(pack(at, tid)));
        drop(top);
        let min = unpack(min);
        self.due[min.1] = None;
        self.due[tid] = Some(at);
        self.drop_stale();
        min
    }

    /// The minimum `(at, tid)`, or `None` when nothing is schedulable.
    pub(crate) fn peek(&self) -> Option<(u64, usize)> {
        self.heap.peek().map(|&Reverse(key)| unpack(key))
    }

    fn drop_stale(&mut self) {
        while let Some((at, tid)) = self.peek() {
            if self.due[tid] == Some(at) {
                break;
            }
            self.heap.pop();
        }
    }
}

/// A scheduling key as one integer ordered like `(at, tid)`.
fn pack(at: u64, tid: usize) -> u128 {
    u128::from(at) << 64 | tid as u128
}

fn unpack(key: u128) -> (u64, usize) {
    ((key >> 64) as u64, key as u64 as usize)
}

pub(crate) struct Sched {
    pub(crate) threads: Vec<ThreadSlot>,
    pub(crate) running: Option<Tid>,
    pub(crate) live: usize,
    pub(crate) started: bool,
    pub(crate) abort: Option<String>,
    pub(crate) deadlock: Option<String>,
    pub(crate) sems: Vec<SemState>,
    pub(crate) sources: Vec<SourceState>,
    /// Source ids grouped by process (index = `ProcId.0`), in creation
    /// order. Lets the polling-cycle and detection sweeps touch only
    /// the process's own sources instead of scanning every source in
    /// the world — O(proc sources) per detection instead of O(total).
    pub(crate) proc_sources: Vec<Vec<usize>>,
    /// The schedulable set, ordered by scheduling key (see
    /// [`ReadySet`]).
    pub(crate) ready: ReadySet,
    pub(crate) post_seq: u64,
    pub(crate) trace: Recording<TraceEvent>,
    /// Committed scheduling decisions (see [`Decision`]); off unless
    /// the decision log is enabled.
    pub(crate) decisions: Recording<Decision>,
    /// Next scheduling ticket [`Shared::commit_next`] will issue.
    pub(crate) next_ticket: u64,
    /// Next trace-event commit sequence number (see
    /// [`TraceEvent::ticket`]).
    pub(crate) record_seq: u64,
    /// [`Kernel::run`]'s own context while fibers run.
    root: Context,
    /// Stacks of finished fibers, reused by the next thread to start.
    /// An exiting fiber files its own here, still running on it, once
    /// the context it hands over to is laid out.
    stacks: Vec<Stack>,
    /// Incremental drain target for the trace / decision buffers (see
    /// [`crate::obs::EventSink`]); `None` (the default) buffers for the
    /// whole run.
    stream: Option<Stream>,
    /// The kernel's metrics registry (see [`crate::obs`]): always on,
    /// never touches virtual time.
    pub(crate) metrics: Metrics,
}

/// What the kernel records, each kind into its own buffer and through
/// its own [`EventSink`] callback: trace events and decisions.
pub(crate) trait Recorded: Sized {
    /// Bytes one buffered entry counts toward the stream high-water mark.
    const BYTES: usize;
    fn hand(sink: &mut dyn EventSink, chunk: &[Self]);
}

impl Recorded for TraceEvent {
    /// 88, `size_of::<TraceEvent>()` on x86_64 when the price was
    /// frozen: the mark is a gauge in the metrics digest that
    /// benchmark/golden.json pins through the journal report, so a
    /// layout-only change to `TraceEvent` must not move it. Re-priced
    /// when golden.json is re-blessed.
    const BYTES: usize = 88;
    fn hand(sink: &mut dyn EventSink, chunk: &[Self]) {
        sink.events(chunk);
    }
}

impl Recorded for Decision {
    /// 40, the size a decision had with its deleted fallback flag: the
    /// mark is a gauge in the metrics digest that benchmark/golden.json
    /// pins through the journal report. It becomes
    /// `size_of::<Decision>()` when golden.json is re-blessed.
    const BYTES: usize = 40;
    fn hand(sink: &mut dyn EventSink, chunk: &[Self]) {
        sink.decisions(chunk);
    }
}

/// One recording buffer, the trace or the decision log: `None` while
/// recording is off, so a record costs one `Option` check. Entries are
/// appended one kernel operation at a time with a monotone ticket, so
/// any run of them is contiguous and ticket-ordered by construction.
pub(crate) struct Recording<T>(Option<Vec<T>>);

impl<T: Recorded> Recording<T> {
    /// Start recording into a fresh buffer.
    fn arm(&mut self) {
        self.0 = Some(Vec::new());
    }

    fn bytes(&self) -> usize {
        self.0.as_ref().map_or(0, |b| b.len() * T::BYTES)
    }

    /// Hand the buffer to `sink` once it holds at least `min` (≥ 1)
    /// entries. `clear()` keeps the allocation, bounding steady-state
    /// memory at the chunk size.
    fn drain(&mut self, sink: &mut dyn EventSink, min: usize) {
        if let Some(buf) = self.0.as_mut().filter(|b| b.len() >= min) {
            T::hand(sink, buf);
            buf.clear();
        }
    }

    /// Take the recorded entries; recording stays armed, so later
    /// entries land in a fresh buffer instead of silently vanishing.
    fn take(&mut self) -> Vec<T> {
        self.0.as_mut().map(std::mem::take).unwrap_or_default()
    }
}

/// The installed [`EventSink`], its drain threshold in buffered
/// entries, and the high-water mark of buffered trace + decision bytes
/// (published as the `journal.stream.hwm` gauge by
/// [`Kernel::finish_event_sink`]). The mark is only kept with a sink,
/// so metrics stay independent of plain tracing.
struct Stream {
    sink: Box<dyn EventSink>,
    chunk: usize,
    hwm: u64,
}

impl Stream {
    /// After an entry landed in `buf`: raise the high-water mark over
    /// both buffers, then hand `buf` over if it holds a chunk.
    fn pushed<T: Recorded, U: Recorded>(&mut self, buf: &mut Recording<T>, other: &Recording<U>) {
        self.hwm = self.hwm.max((buf.bytes() + other.bytes()) as u64);
        buf.drain(&mut *self.sink, self.chunk);
    }
}

impl Sched {
    pub(crate) fn record(&mut self, tid: Tid, what: impl FnOnce() -> Event) {
        let Some(trace) = &mut self.trace.0 else {
            return;
        };
        let time = self.threads[tid.0].vtime;
        let ticket = self.record_seq;
        self.record_seq += 1;
        trace.push(TraceEvent {
            time,
            tid: tid.0,
            ticket,
            what: what(),
        });
        if let Some(stream) = &mut self.stream {
            stream.pushed(&mut self.trace, &self.decisions);
        }
    }

    fn dump(&self) -> String {
        let mut out = String::new();
        for (i, t) in self.threads.iter().enumerate() {
            if matches!(t.state, TState::Done) {
                continue;
            }
            out.push_str(&format!(
                "  thread #{i} '{}' at {}: {}\n",
                t.name,
                t.vtime,
                t.state.describe()
            ));
        }
        out
    }
}

pub(crate) struct Shared {
    pub(crate) state: OwnedCell<Sched>,
    pub(crate) cost: CostModel,
}

impl Shared {
    /// Sum of poll costs of all *attached* sources in `proc` — the cost of
    /// one iteration of that process's factorized polling loop. Sources
    /// sharing a slot (the VCI lanes of one channel) bill their cost
    /// once per slot, not once per lane: a group's lanes are adjacent,
    /// so a slot is billed whenever it differs from the previous armed
    /// source's.
    pub(crate) fn polling_cycle(sched: &Sched, proc: ProcId) -> VirtualDuration {
        let mut total = VirtualDuration::ZERO;
        let Some(ids) = sched.proc_sources.get(proc.0 as usize) else {
            return total;
        };
        let mut prev_slot = None;
        for s in ids
            .iter()
            .map(|&i| &sched.sources[i])
            .filter(|s| s.attached && !s.closed && !s.parked)
        {
            if prev_slot != Some(s.slot) {
                prev_slot = Some(s.slot);
                total += s.poll_cost;
            }
        }
        total
    }

    /// Account one detection (one observed polling-loop iteration) in
    /// `proc` under `PollPolicy::Parking`: the source that produced the
    /// message — and any source with traffic queued — stays armed, while
    /// every other attached source accrues an empty poll and is parked
    /// once it has been empty for [`PARK_AFTER`] consecutive detections.
    /// No-op under `PollPolicy::Seed`.
    pub(crate) fn note_detection(&self, sched: &mut Sched, proc: ProcId, active: SourceId) {
        if self.cost.poll_policy != crate::cost::PollPolicy::Parking {
            return;
        }
        // The per-process index makes the sweep O(proc sources); the
        // ids are in creation order, matching the old full scan.
        let n = sched.proc_sources.get(proc.0 as usize).map_or(0, Vec::len);
        for k in 0..n {
            let i = sched.proc_sources[proc.0 as usize][k];
            let s = &mut sched.sources[i];
            if !s.attached || s.closed {
                continue;
            }
            if i == active.0 || !s.queue.is_empty() {
                s.empty_polls = 0;
                s.parked = false;
            } else {
                s.empty_polls += 1;
                if s.empty_polls >= PARK_AFTER {
                    s.parked = true;
                }
            }
        }
    }

    /// The O(threads) linear-scan reference for the scheduling step's
    /// pick: the minimum scheduling key over every runnable thread —
    /// Ready threads at their clock, Sleepers at their wake time, timed
    /// semaphore waiters at their deadline. Under `cfg(test)` every
    /// pick is checked against it, so every marcel unit test checks
    /// every decision.
    #[cfg(test)]
    fn scan_candidate(sched: &Sched) -> Option<SchedKey> {
        let mut best: Option<SchedKey> = None;
        for (i, t) in sched.threads.iter().enumerate() {
            let at = match t.state {
                TState::Ready => t.vtime,
                TState::Sleeping(wake) => wake,
                // A timed semaphore waiter is due at its deadline; an
                // earlier release makes it Ready through `make_ready`.
                TState::BlockedSemTimeout(_, deadline) => deadline,
                _ => continue,
            };
            let key = SchedKey { at, tid: i };
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        best
    }

    /// The one scheduling step: pick the thread with the smallest
    /// scheduling key, stamp the decision with the next monotonic
    /// ticket, log it, perform the wake-up semantics and give the run
    /// token to the chosen thread (the caller then switches to it).
    /// `false` when nothing can run.
    ///
    /// `caller` is the thread that just stopped running with the key it
    /// is due at again, if it stays schedulable. It is not in the ready
    /// heap, so the pick is the smaller of its key and the heap's top:
    /// a caller that stays the minimum is committed again without
    /// touching the heap, and otherwise it takes the top's place in one
    /// sift ([`ReadySet::replace_top`]).
    fn commit_next(&self, sched: &mut Sched, caller: Option<(Tid, VirtualTime)>) -> bool {
        let picked = match caller {
            Some((me, at)) if sched.ready.peek().is_none_or(|top| (at.0, me.0) < top) => {
                Some((at.0, me.0))
            }
            Some((me, at)) => Some(sched.ready.replace_top(me.0, at.0)),
            None => sched.ready.pop(),
        };
        let key = picked.map(|(at, tid)| SchedKey {
            at: VirtualTime(at),
            tid,
        });
        #[cfg(test)]
        assert_eq!(
            key,
            Self::scan_candidate(sched),
            "the scheduling step diverged from the linear-scan reference"
        );
        let Some(key) = key else {
            return false;
        };
        let ticket = sched.next_ticket;
        sched.next_ticket += 1;
        if let Some(log) = &mut sched.decisions.0 {
            log.push(Decision {
                ticket,
                tid: key.tid,
                at: key.at,
                events_before: sched.record_seq,
            });
            if let Some(stream) = &mut sched.stream {
                stream.pushed(&mut sched.decisions, &sched.trace);
            }
        }
        let next = Tid(key.tid);
        let wake = match sched.threads[next.0].state {
            TState::Sleeping(wake) => Some((None, wake)),
            // Scheduled *at the deadline*: the wait timed out. Leave the
            // semaphore's queue so a later release can't also grant us.
            TState::BlockedSemTimeout(sid, deadline) => Some((Some(sid), deadline)),
            _ => None,
        };
        if let Some((timed_out_sem, at)) = wake {
            if let Some(sid) = timed_out_sem {
                sched.sems[sid.0].waiters.retain(|t| *t != next);
            }
            let slot = &mut sched.threads[next.0];
            if at > slot.vtime {
                slot.vtime = at;
            }
        }
        let slot = &mut sched.threads[next.0];
        slot.state = TState::Running;
        slot.ticket = ticket;
        sched.running = Some(next);
        true
    }

    /// Commit the next thread after the current one stopped running:
    /// `caller` as for [`Shared::commit_next`] (a sleeper or a timed
    /// waiter stays schedulable; a blocked or finished thread does
    /// not). With nothing left to commit the run token goes back to
    /// [`Kernel::run`]: normal termination when no thread is live, a
    /// deadlock otherwise.
    fn dispatch(&self, sched: &mut Sched, caller: Option<(Tid, VirtualTime)>) {
        sched.running = None;
        if !self.commit_next(sched, caller) && sched.live > 0 {
            sched.deadlock = Some(format!(
                "no runnable thread among {} live:\n{}",
                sched.live,
                sched.dump()
            ));
        }
    }

    /// Re-evaluate scheduling at the end of a kernel operation performed
    /// by the running thread `me`. If another thread now has a smaller
    /// scheduling key, switch to it and park until rescheduled.
    pub(crate) fn reschedule(self: &Arc<Self>, sched: &mut OwnedMut<'_, Sched>, me: Tid) {
        debug_assert!(matches!(sched.threads[me.0].state, TState::Running));
        let slot = &mut sched.threads[me.0];
        slot.state = TState::Ready;
        let due = slot.vtime;
        let committed = self.commit_next(sched, Some((me, due)));
        assert!(committed, "running thread is always a candidate");
        self.wait_until_running(sched, me);
    }

    /// Block the running thread `me` with `state` and run something else.
    /// Returns once `me` is scheduled again.
    pub(crate) fn block(self: &Arc<Self>, sched: &mut OwnedMut<'_, Sched>, me: Tid, state: TState) {
        // Sleepers and timed waiters stay schedulable (due at their
        // wake/deadline); other blocked states leave the index.
        let due = match state {
            TState::Sleeping(wake) => Some((me, wake)),
            TState::BlockedSemTimeout(_, deadline) => Some((me, deadline)),
            _ => None,
        };
        sched.threads[me.0].state = state;
        self.dispatch(sched, due);
        self.wait_until_running(sched, me);
    }

    /// Forget every poll-waiter registration `target` holds (it is
    /// about to be woken through one of them — see
    /// [`crate::poll::PollSource::poll_wait_any`]). No-op for
    /// single-source waits, whose `poll_set` is empty.
    pub(crate) fn clear_poll_set(sched: &mut Sched, target: Tid) {
        let Sched {
            threads, sources, ..
        } = sched;
        for id in threads[target.0].poll_set.drain(..) {
            let s = &mut sources[id.0];
            if s.waiter == Some(target) {
                s.waiter = None;
            }
        }
    }

    /// Mark `target` runnable no earlier than `at`.
    pub(crate) fn make_ready(sched: &mut Sched, target: Tid, at: VirtualTime) {
        let slot = &mut sched.threads[target.0];
        if at > slot.vtime {
            slot.vtime = at;
        }
        slot.state = TState::Ready;
        // Upsert: a timed semaphore waiter was indexed at its deadline
        // and re-keys to its (earlier) wake time here.
        let due = slot.vtime;
        sched.ready.upsert(target.0, due.0);
    }

    /// The context of whoever holds the run token now: the committed
    /// thread's — laid out on a cached or fresh stack, which then stays
    /// in its slot, if this is its first dispatch — or [`Kernel::run`]'s
    /// once nothing is committed.
    fn committed_context(self: &Arc<Self>, sched: &mut Sched) -> Context {
        let Some(next) = sched.running else {
            return std::mem::take(&mut sched.root);
        };
        let slot = &mut sched.threads[next.0];
        if slot.context.is_saved() {
            return std::mem::take(&mut slot.context);
        }
        // A starting fiber finds its identity where a resumed one left
        // its own: in the thread-local the switching context vacated.
        crate::thread::set_current(Some((self.clone(), next)));
        let mut stack = sched.stacks.pop().unwrap_or_else(Stack::map);
        let context = Context::start(&mut stack, crate::thread::fiber_main);
        sched.threads[next.0].stack = Some(stack);
        context
    }

    /// The hand-off: switch to the committed context and save the
    /// caller's in place, in `me`'s slot (`None`: the root's). The
    /// borrow of the world ends while others run and is taken again
    /// once some context switches back: for a thread, when it is
    /// committed again; for the root, when the run is over. On abort or
    /// deadlock the root is resumed instead and the calling fiber is
    /// abandoned where it stands, its borrow already ended.
    fn switch_away(self: &Arc<Self>, sched: &mut OwnedMut<'_, Sched>, me: Option<Tid>) {
        let to = self.committed_context(sched);
        fiber::switch(
            sched,
            |s| match me {
                Some(me) => &mut s.threads[me.0].context,
                None => &mut s.root,
            },
            to,
        );
    }

    /// Park the descheduled thread `me` until it is committed again —
    /// at once when the commit that descheduled it picked it again (a
    /// caller that stays the next thread due).
    fn wait_until_running(self: &Arc<Self>, sched: &mut OwnedMut<'_, Sched>, me: Tid) {
        if sched.running != Some(me) {
            self.switch_away(sched, Some(me));
        }
        debug_assert!(sched.running == Some(me));
    }

    /// Bookkeeping when a simulated thread finishes (normally or by
    /// panic): file its result for the joiner, wake joiners, then leave
    /// its fiber for good — to the next committed thread, or to
    /// [`Kernel::run`] when the run is over or a panic aborts it — and
    /// its stack to the cache. Consumes the caller's kernel handle: the
    /// frames below the final switch are never unwound, so everything
    /// they own is dropped before it.
    pub(crate) fn thread_exit(
        this: Arc<Shared>,
        me: Tid,
        outcome: Result<Box<dyn Any + Send>, String>,
    ) -> ! {
        let target = {
            let mut sched = this.state.borrow();
            let panic_msg = match outcome {
                Ok(result) => {
                    sched.threads[me.0].result = Some(result);
                    None
                }
                Err(msg) => Some(msg),
            };
            let vtime = sched.threads[me.0].vtime;
            sched.record(me, || Event::Exit);
            sched.threads[me.0].state = TState::Done;
            sched.live -= 1;
            let joiners = std::mem::take(&mut sched.threads[me.0].joiners);
            let wake_at = vtime + this.cost.wake;
            for j in joiners {
                Self::make_ready(&mut sched, j, wake_at);
            }
            if panic_msg.is_some() {
                sched.abort = panic_msg;
                sched.running = None;
            } else {
                this.dispatch(&mut sched, None);
            }
            let target = this.committed_context(&mut sched);
            // Only now may the cache hand this stack out: the next
            // context is laid out, and nothing else is before the
            // final switch leaves it.
            let stack = sched.threads[me.0].stack.take();
            sched.stacks.extend(stack);
            target
        };
        drop(this);
        fiber::exit(target)
    }

    /// Committer-order gate for kernel operations: borrow the world and
    /// assert the calling thread holds the run token. Every kernel
    /// operation a simulated thread performs enters the serialized op
    /// stream through here — between operations a thread only touches
    /// its own data.
    pub(crate) fn enter(&self, me: Tid) -> OwnedMut<'_, Sched> {
        let sched = self.state.borrow();
        debug_assert!(
            sched.running == Some(me),
            "kernel operation without the run token (thread #{})",
            me.0
        );
        sched
    }
}

/// Handle to a virtual-time simulation.
///
/// Spawn the root threads with [`Kernel::spawn`], then call
/// [`Kernel::run`], which blocks (in real time) until every simulated
/// thread has finished and returns the simulation outcome.
#[derive(Clone)]
pub struct Kernel {
    pub(crate) shared: Arc<Shared>,
}

impl Kernel {
    /// Create a kernel with the given cost model.
    pub fn new(cost: CostModel) -> Self {
        Kernel {
            shared: Arc::new(Shared {
                state: OwnedCell::new(Sched {
                    threads: Vec::new(),
                    running: None,
                    live: 0,
                    started: false,
                    abort: None,
                    deadlock: None,
                    sems: Vec::new(),
                    sources: Vec::new(),
                    proc_sources: Vec::new(),
                    ready: ReadySet::default(),
                    post_seq: 0,
                    trace: Recording(None),
                    decisions: Recording(None),
                    next_ticket: 0,
                    record_seq: 0,
                    root: Context::default(),
                    stacks: Vec::new(),
                    stream: None,
                    metrics: Metrics::new(),
                }),
                cost,
            }),
        }
    }

    /// Create a kernel with the calibrated default cost model.
    pub fn calibrated() -> Self {
        Kernel::new(CostModel::calibrated())
    }

    /// The kernel's cost model.
    pub fn cost(&self) -> &CostModel {
        &self.shared.cost
    }

    /// Record a deterministic event trace during the run (see
    /// [`Kernel::take_trace`]).
    pub fn enable_trace(&self) {
        self.shared.state.borrow().trace.arm();
    }

    /// Take the recorded trace (empty if tracing was never enabled).
    /// Tracing stays armed: events recorded after this call land in a
    /// fresh buffer instead of silently vanishing. The events are in
    /// commit order already — each kernel operation appends its own
    /// with the next [`TraceEvent::ticket`].
    pub fn take_trace(&self) -> Vec<TraceEvent> {
        let t = self.shared.state.borrow().trace.take();
        debug_assert!(t.windows(2).all(|w| w[0].ticket < w[1].ticket));
        t
    }

    /// Number of events recorded so far, without consuming the trace.
    pub fn trace_len(&self) -> usize {
        self.shared
            .state
            .borrow()
            .trace
            .0
            .as_ref()
            .map_or(0, Vec::len)
    }

    /// Record every committed scheduling decision (see [`Decision`]).
    /// Like tracing, the log never advances virtual time; unlike the
    /// trace it also captures decisions that leave no trace event, so
    /// it is the finest-grained replay/divergence probe the kernel has.
    pub fn enable_decision_log(&self) {
        self.shared.state.borrow().decisions.arm();
    }

    /// Take the recorded decision log (empty if never enabled).
    /// Recording stays armed, like [`Kernel::take_trace`]. Decisions
    /// are already in commit order — the committer appends them one
    /// commit at a time.
    pub fn take_decisions(&self) -> Vec<Decision> {
        self.shared.state.borrow().decisions.take()
    }

    /// Install an incremental [`EventSink`]: the trace buffer (and, when
    /// the decision log is enabled, the decision buffer) is handed to
    /// `sink` in ticket-ordered chunks of roughly `chunk` entries
    /// instead of accumulating for the whole episode. See the
    /// [`EventSink`] contract — the sink runs inside a kernel operation
    /// and must never re-enter the kernel. Streaming is pure host-side
    /// bookkeeping: it never advances virtual time, so the simulated
    /// world is bit-identical with or without a sink.
    pub fn set_event_sink(&self, sink: Box<dyn EventSink>, chunk: usize) {
        self.shared.state.borrow().stream = Some(Stream {
            sink,
            chunk: chunk.max(1),
            hwm: 0,
        });
    }

    /// Remove the installed sink, flush whatever is still buffered
    /// through it — first remaining trace events, then remaining
    /// decisions — publish the buffered-bytes high-water mark as the
    /// `journal.stream.hwm` gauge, and hand the sink back to the caller.
    /// Call after [`Kernel::run`] returns. `None` without a sink.
    pub fn finish_event_sink(&self) -> Option<Box<dyn EventSink>> {
        let mut sched = self.shared.state.borrow();
        let Stream { mut sink, hwm, .. } = sched.stream.take()?;
        let hwm = hwm.max((sched.trace.bytes() + sched.decisions.bytes()) as u64);
        sched.trace.drain(&mut *sink, 1);
        sched.decisions.drain(&mut *sink, 1);
        sched.metrics.gauge_max("journal.stream.hwm", hwm);
        Some(sink)
    }

    /// Copy of the kernel's metrics registry (see [`crate::obs`]).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.shared.state.borrow().metrics.snapshot()
    }

    /// Names of all simulated threads, indexed by tid — the Chrome
    /// exporter uses them to label (and group) timeline rows.
    pub fn thread_names(&self) -> Vec<String> {
        self.shared
            .state
            .borrow()
            .threads
            .iter()
            .map(|t| t.name.clone())
            .collect()
    }

    /// Spawn a simulated thread starting at virtual time zero. Must be
    /// called before [`Kernel::run`]; inside the simulation use
    /// [`crate::spawn`] instead, which charges the spawn cost to the
    /// parent.
    pub fn spawn<T, F>(&self, name: impl Into<String>, f: F) -> crate::thread::JoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        crate::thread::spawn_inner(&self.shared, name.into(), VirtualTime::ZERO, f)
    }

    /// Run the simulation to completion on the calling OS thread.
    /// Returns an error on deadlock or when a simulated thread panics;
    /// the fibers still suspended then are abandoned — their stacks are
    /// unmapped here, their frames never unwound (what those own leaks).
    ///
    /// May be called from inside a simulated thread of another kernel:
    /// the caller's ambient identity is set aside for the duration.
    pub fn run(&self) -> Result<(), SimError> {
        let mut sched = self.shared.state.borrow();
        assert!(!sched.started, "Kernel::run called twice");
        sched.started = true;
        if sched.live > 0 {
            self.shared.dispatch(&mut sched, None);
        }
        if sched.running.is_some() {
            let outer = crate::thread::set_current(None);
            self.shared.switch_away(&mut sched, None);
            crate::thread::set_current(outer);
        }
        sched.stacks.clear();
        for t in &mut sched.threads {
            t.stack = None;
            t.context = Context::default();
            t.body = None;
        }
        if let Some(msg) = &sched.abort {
            return Err(SimError::ThreadPanicked(msg.clone()));
        }
        if let Some(msg) = &sched.deadlock {
            return Err(SimError::Deadlock(msg.clone()));
        }
        Ok(())
    }

    /// Virtual time at which the last simulated thread finished.
    pub fn end_time(&self) -> VirtualTime {
        let sched = self.shared.state.borrow();
        sched
            .threads
            .iter()
            .map(|t| t.vtime)
            .max()
            .unwrap_or(VirtualTime::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::Semaphore;
    use crate::thread;

    #[test]
    fn empty_kernel_runs() {
        let k = Kernel::new(CostModel::free());
        k.run().unwrap();
    }

    #[test]
    fn single_thread_advances_time() {
        let k = Kernel::new(CostModel::free());
        let h = k.spawn("t", || {
            thread::advance(VirtualDuration::from_micros(5));
            thread::now()
        });
        k.run().unwrap();
        assert_eq!(h.join_outcome().unwrap(), VirtualTime(5_000));
    }

    #[test]
    fn threads_interleave_by_virtual_time() {
        // Thread A advances 10us per step, thread B 3us per step; the
        // kernel must always run the thread with the smaller clock, so
        // B completes several steps before A's first step finishes.
        let k = Kernel::new(CostModel::free());
        let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let la = log.clone();
        k.spawn("a", move || {
            for i in 0..3 {
                thread::advance(VirtualDuration::from_micros(10));
                la.lock().unwrap().push(("a", i, thread::now()));
            }
        });
        let lb = log.clone();
        k.spawn("b", move || {
            for i in 0..3 {
                thread::advance(VirtualDuration::from_micros(3));
                lb.lock().unwrap().push(("b", i, thread::now()));
            }
        });
        k.run().unwrap();
        let events = log.lock().unwrap().clone();
        let times: Vec<u64> = events.iter().map(|(_, _, t)| t.as_nanos()).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted, "events must be logged in virtual-time order");
        // b at 3,6,9 all precede a's 10.
        assert_eq!(events[0].0, "b");
        assert_eq!(events[1].0, "b");
        assert_eq!(events[2].0, "b");
        assert_eq!(events[3].0, "a");
    }

    #[test]
    fn deadlock_is_detected_and_reported() {
        let k = Kernel::new(CostModel::free());
        let sem = Semaphore::new(&k, 0);
        k.spawn("stuck", move || {
            sem.acquire();
        });
        match k.run() {
            Err(SimError::Deadlock(msg)) => {
                assert!(msg.contains("stuck"), "dump should name the thread: {msg}");
                assert!(msg.contains("semaphore"), "dump should say why: {msg}");
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn panic_in_thread_aborts_run() {
        let k = Kernel::new(CostModel::free());
        k.spawn("boom", || panic!("intentional"));
        match k.run() {
            Err(SimError::ThreadPanicked(msg)) => assert!(msg.contains("intentional")),
            other => panic!("expected panic error, got {other:?}"),
        }
    }

    #[test]
    fn trace_is_deterministic_across_runs() {
        let a = handshake_trace(CostModel::calibrated());
        let b = handshake_trace(CostModel::calibrated());
        assert!(!a.is_empty());
        assert_eq!(a, b);
        // The trace is typed now: the producer/consumer handshake shows
        // up as structured semaphore events, not just strings.
        use crate::obs::Event;
        assert!(a.iter().any(|e| matches!(e.what, Event::SemBlock { .. })));
        assert!(a.iter().any(|e| matches!(e.what, Event::SemWake { .. })));
        assert_eq!(a.iter().filter(|e| e.what == Event::Exit).count(), 2);
    }

    #[test]
    fn take_trace_rearms_and_trace_len_is_nonconsuming() {
        let k = Kernel::new(CostModel::calibrated());
        k.enable_trace();
        k.spawn("a", || thread::advance(VirtualDuration::from_micros(1)));
        k.run().unwrap();
        let n = k.trace_len();
        assert!(n > 0);
        assert_eq!(k.trace_len(), n, "trace_len must not consume");
        let first = k.take_trace();
        assert_eq!(first.len(), n);
        // Tracing stayed armed: a second take returns the (empty) fresh
        // buffer rather than silently disabling tracing.
        assert!(k.shared.state.borrow().trace.0.is_some());
        assert!(k.take_trace().is_empty());
        assert_eq!(k.trace_len(), 0);
    }

    #[test]
    fn end_time_reflects_last_thread() {
        let k = Kernel::new(CostModel::free());
        k.spawn("short", || thread::advance(VirtualDuration::from_micros(1)));
        k.spawn("long", || thread::advance(VirtualDuration::from_micros(90)));
        k.run().unwrap();
        assert_eq!(k.end_time(), VirtualTime(90_000));
    }

    /// Run a ten-round producer/consumer semaphore handshake on `k`.
    fn handshake(k: &Kernel) {
        let sem = Semaphore::new(k, 0);
        let sem2 = sem.clone();
        k.spawn("producer", move || {
            for _ in 0..10 {
                thread::advance(VirtualDuration::from_micros(7));
                sem2.release();
            }
        });
        k.spawn("consumer", move || {
            for _ in 0..10 {
                sem.acquire();
                thread::advance(VirtualDuration::from_micros(2));
            }
        });
        k.run().unwrap();
    }

    fn handshake_trace(cost: CostModel) -> Vec<TraceEvent> {
        let k = Kernel::new(cost);
        k.enable_trace();
        handshake(&k);
        k.take_trace()
    }

    #[test]
    fn trace_tickets_are_strictly_increasing() {
        let trace = handshake_trace(CostModel::calibrated());
        for pair in trace.windows(2) {
            assert!(pair[0].ticket < pair[1].ticket);
        }
    }

    fn handshake_decisions(cost: CostModel) -> Vec<Decision> {
        let k = Kernel::new(cost);
        k.enable_decision_log();
        handshake(&k);
        k.take_decisions()
    }

    #[test]
    fn decision_log_is_deterministic_and_gapless() {
        let a = handshake_decisions(CostModel::calibrated());
        let b = handshake_decisions(CostModel::calibrated());
        assert!(!a.is_empty());
        assert_eq!(a, b);
        for (i, d) in a.iter().enumerate() {
            assert_eq!(d.ticket, i as u64, "tickets must be gapless");
        }
        // Disabled by default: no decisions recorded.
        let k = Kernel::new(CostModel::free());
        k.spawn("t", || thread::advance(VirtualDuration::from_micros(1)));
        k.run().unwrap();
        assert!(k.take_decisions().is_empty());
    }

    /// Collects every chunk the kernel hands over.
    #[derive(Default)]
    struct Collect {
        events: Vec<TraceEvent>,
        decisions: Vec<Decision>,
    }

    impl EventSink for Collect {
        fn events(&mut self, chunk: &[TraceEvent]) {
            self.events.extend_from_slice(chunk);
        }
        fn decisions(&mut self, chunk: &[Decision]) {
            self.decisions.extend_from_slice(chunk);
        }
    }

    #[test]
    fn finish_event_sink_hands_back_the_sink_with_every_record_once() {
        let twin = Kernel::new(CostModel::calibrated());
        twin.enable_trace();
        twin.enable_decision_log();
        handshake(&twin);

        let k = Kernel::new(CostModel::calibrated());
        k.enable_trace();
        k.enable_decision_log();
        k.set_event_sink(Box::<Collect>::default(), 3);
        handshake(&k);
        let sink: Box<dyn Any> = k.finish_event_sink().expect("a sink was installed");
        let got = sink
            .downcast::<Collect>()
            .expect("the installed sink comes back");
        assert_eq!(got.events, twin.take_trace());
        assert_eq!(got.decisions, twin.take_decisions());
        assert!(k.take_trace().is_empty() && k.take_decisions().is_empty());
        // The gauge is published; a 3-entry chunk bounds it below what
        // the twin run buffered.
        let hwm = k.metrics_snapshot().gauge("journal.stream.hwm");
        assert!(hwm > 0 && hwm < (got.events.len() * <TraceEvent as Recorded>::BYTES) as u64);
        assert!(k.finish_event_sink().is_none(), "the sink was removed");
    }

    #[test]
    fn capture_reflects_finished_run() {
        let k = Kernel::new(CostModel::free());
        k.spawn("short", || thread::advance(VirtualDuration::from_micros(1)));
        k.spawn("long", || thread::advance(VirtualDuration::from_micros(90)));
        k.run().unwrap();
        assert_eq!(k.end_time(), VirtualTime(90_000));
        assert_eq!(k.thread_names(), ["short", "long"]);
        let sched = k.shared.state.borrow();
        let done = sched
            .threads
            .iter()
            .filter(|t| matches!(t.state, TState::Done));
        assert_eq!((sched.live, done.count()), (0, 2));
        assert!(sched.next_ticket > 0);
    }

    #[test]
    fn sleep_wakes_in_order() {
        let k = Kernel::new(CostModel::free());
        let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        for (name, us) in [("late", 50u64), ("early", 10), ("mid", 30)] {
            let log = log.clone();
            k.spawn(name, move || {
                thread::sleep(VirtualDuration::from_micros(us));
                log.lock().unwrap().push(name);
            });
        }
        k.run().unwrap();
        assert_eq!(*log.lock().unwrap(), vec!["early", "mid", "late"]);
    }

    #[test]
    fn caller_that_stays_the_minimum_resumes_without_the_heap() {
        // `a` advances 1 us at a time and stays due first for two of its
        // steps; `b` interleaves. A decision that re-commits the caller
        // takes the same ticket, and logs the same key, as one that
        // comes off the heap.
        let k = Kernel::new(CostModel::free());
        k.enable_decision_log();
        k.spawn("a", || {
            for _ in 0..3 {
                thread::advance(VirtualDuration::from_micros(1));
            }
            thread::advance(VirtualDuration::from_micros(10));
        });
        k.spawn("b", || {
            for _ in 0..2 {
                thread::advance(VirtualDuration::from_micros(5));
            }
        });
        k.run().unwrap();
        let got: Vec<_> = k
            .take_decisions()
            .iter()
            .map(|d| (d.ticket, d.tid, d.at.as_nanos()))
            .collect();
        assert_eq!(
            got,
            [
                (0, 0, 0),
                (1, 1, 0),
                (2, 0, 1_000),
                (3, 0, 2_000),
                (4, 0, 3_000),
                (5, 1, 5_000),
                (6, 1, 10_000),
                (7, 0, 13_000),
            ]
        );
        assert!(k.shared.state.borrow().ready.heap.is_empty());
    }

    /// Reference for the [`ReadySet`] tests: a linear scan over a shadow
    /// of `due`.
    fn scan_min(due: &[Option<u64>]) -> Option<(u64, usize)> {
        due.iter()
            .enumerate()
            .filter_map(|(tid, d)| d.map(|at| (at, tid)))
            .min()
    }

    #[test]
    fn ready_set_empty_peeks_none() {
        let mut r = ReadySet::default();
        assert_eq!(r.peek(), None);
        r.upsert(3, 7);
        r.remove(3);
        assert_eq!(r.peek(), None);
    }

    #[test]
    fn ready_set_breaks_ties_by_tid() {
        let mut r = ReadySet::default();
        r.upsert(3, 100);
        r.upsert(1, 100);
        r.upsert(2, 50);
        assert_eq!(r.peek(), Some((50, 2)));
        r.remove(2);
        assert_eq!(r.peek(), Some((100, 1)));
        r.remove(1);
        assert_eq!(r.peek(), Some((100, 3)));
    }

    #[test]
    fn ready_set_rekeys_early() {
        let mut r = ReadySet::default();
        r.upsert(0, 1_000_000);
        r.upsert(1, 2_000_000);
        assert_eq!(r.peek(), Some((1_000_000, 0)));
        // A timed waiter released before its deadline re-keys below the
        // other thread; its deadline entry is left behind, stale.
        r.upsert(1, 500_000);
        assert_eq!(r.peek(), Some((500_000, 1)));
        r.remove(1);
        assert_eq!(r.peek(), Some((1_000_000, 0)));
        r.remove(0);
        assert_eq!(r.peek(), None);
        assert!(r.heap.is_empty(), "the stale deadline surfaced and went");
    }

    #[test]
    fn ready_set_keys_near_u64_max() {
        let mut r = ReadySet::default();
        r.upsert(0, u64::MAX);
        r.upsert(1, u64::MAX - 1);
        r.upsert(3, u64::MAX);
        r.upsert(2, 0);
        assert_eq!(r.peek(), Some((0, 2)));
        r.remove(2);
        assert_eq!(r.peek(), Some((u64::MAX - 1, 1)));
        r.remove(1);
        assert_eq!(r.peek(), Some((u64::MAX, 0)));
        r.remove(0);
        assert_eq!(r.peek(), Some((u64::MAX, 3)));
    }

    #[test]
    fn ready_set_matches_linear_scan_on_random_workload() {
        // Deterministic LCG; the kernel's usage pattern: file at or
        // after the last committed key, commit the minimum, re-key.
        let mut state = 0x243F6A8885A308D3u64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 16
        };
        let n = 200;
        let mut r = ReadySet::default();
        let mut shadow = vec![None; n];
        // Everyone starts at zero (the kernel's startup shape).
        for (tid, due) in shadow.iter_mut().enumerate() {
            r.upsert(tid, 0);
            *due = Some(0);
        }
        let mut cursor = 0u64;
        for _ in 0..5_000 {
            assert_eq!(r.peek(), scan_min(&shadow));
            match rng() % 5 {
                // Commit the minimum; it usually comes back later.
                0 | 1 => {
                    if let Some((at, tid)) = scan_min(&shadow) {
                        r.remove(tid);
                        cursor = cursor.max(at);
                        let back = cursor + (rng() % (1 << (rng() % 30)));
                        r.upsert(tid, back);
                        shadow[tid] = Some(back);
                    }
                }
                // Wake or re-key a random thread at or after the cursor.
                2 => {
                    let tid = (rng() as usize) % n;
                    let at = cursor + (rng() % (1 << (rng() % 34)));
                    r.upsert(tid, at);
                    shadow[tid] = Some(at);
                }
                // Block a random thread (leave the schedulable set).
                3 => {
                    let tid = (rng() as usize) % n;
                    r.remove(tid);
                    shadow[tid] = None;
                }
                // A running thread (one out of the set) files its next
                // key in the minimum's place, and the minimum leaves.
                _ => {
                    let tid = (rng() as usize) % n;
                    if let (None, Some((at, min))) = (shadow[tid], scan_min(&shadow)) {
                        cursor = cursor.max(at);
                        let back = cursor + (rng() % (1 << (rng() % 30)));
                        assert_eq!(r.replace_top(tid, back), (at, min));
                        shadow[min] = None;
                        shadow[tid] = Some(back);
                    }
                }
            }
        }
        assert_eq!(r.peek(), scan_min(&shadow));
    }

    #[test]
    fn ready_set_reinsert_over_stale_copy_peeks_once() {
        let mut r = ReadySet::default();
        r.upsert(1, 5);
        r.upsert(0, 100);
        r.upsert(2, 200);
        // Thread 0 leaves and comes back at the same key while its old
        // entry, not on top, is still in the heap: two copies.
        r.remove(0);
        r.upsert(0, 100);
        assert_eq!(r.heap.len(), 4);
        assert_eq!(r.peek(), Some((5, 1)));
        r.remove(1);
        assert_eq!(r.peek(), Some((100, 0)));
        // Committing thread 0 drops both copies: the next peek skips the
        // leftover one.
        r.remove(0);
        assert_eq!(r.peek(), Some((200, 2)));
        assert_eq!(r.heap.len(), 1);
    }

    #[test]
    fn ready_set_early_rekeys_drain_to_live_count() {
        // Thread 0 waits with a 1 ms deadline and is released early, n
        // times over, while thread 1 stays due just after each release:
        // every release leaves its deadline entry behind.
        let n = 16u64;
        let mut r = ReadySet::default();
        for i in 0..n {
            let t = i * 1_000;
            r.upsert(1, t + 900);
            r.upsert(0, t + 1_000_000);
            r.upsert(0, t + 500);
            assert_eq!(r.peek(), Some((t + 500, 0)));
            r.remove(0);
        }
        assert_eq!(r.heap.len(), 1 + n as usize);
        // Threads 1 and 2 take turns running; once the live minimum
        // passes the abandoned deadlines, the heap holds the live set.
        r.upsert(2, n * 1_000);
        let mut len = r.heap.len();
        while let Some((at, tid)) = r.peek() {
            assert!(tid == 1 || tid == 2, "a stale entry surfaced: {tid}");
            if at > 1_000_000 + n * 1_000 {
                break;
            }
            r.remove(tid);
            r.upsert(tid, at + 3_000);
            assert!(r.heap.len() <= len, "the heap grew without a new key");
            len = r.heap.len();
        }
        assert_eq!(r.heap.len(), 2);
    }

    /// One step of a random fiber's script.
    #[derive(Clone, Debug)]
    enum Step {
        Advance(u64),
        Sleep(u64),
        Yield,
        /// Timed P on semaphore `.0` with a `.1` ns timeout.
        AcquireTimeout(usize, u64),
        Release(usize),
    }

    fn step() -> impl proptest::Strategy<Value = Step> {
        use proptest::prelude::*;
        prop_oneof![
            (1u64..5_000).prop_map(Step::Advance),
            (1u64..20_000).prop_map(Step::Sleep),
            Just(Step::Yield),
            (0usize..2, 1u64..40_000).prop_map(|(s, t)| Step::AcquireTimeout(s, t)),
            (0usize..2).prop_map(Step::Release),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Random fibers pass through every schedulable state — Ready
        /// (advance, yield, release), Sleeping and BlockedSemTimeout,
        /// with timed waiters often released before their deadline, which
        /// re-keys them. `commit_next` checks every pick — the caller
        /// resumed without the heap, or the heap's top — against the
        /// linear scan, so finishing is the assertion; a second run must
        /// commit the same decisions. A last fiber sleeps past every
        /// script and then advances alone, so each case also resumes a
        /// caller that stays the minimum.
        #[test]
        fn ready_heap_matches_scan_on_random_fibers(
            scripts in proptest::collection::vec(proptest::collection::vec(step(), 1..24), 1..6)
        ) {
            let run = || {
                let k = Kernel::new(CostModel::calibrated());
                k.enable_decision_log();
                let sems = [Semaphore::new(&k, 0), Semaphore::new(&k, 0)];
                for (i, script) in scripts.iter().cloned().enumerate() {
                    let sems = sems.clone();
                    k.spawn(format!("f{i}"), move || {
                        for step in script {
                            match step {
                                Step::Advance(ns) => thread::advance(VirtualDuration::from_nanos(ns)),
                                Step::Sleep(ns) => thread::sleep(VirtualDuration::from_nanos(ns)),
                                Step::Yield => thread::yield_now(),
                                Step::AcquireTimeout(s, ns) => {
                                    sems[s].acquire_timeout(VirtualDuration::from_nanos(ns));
                                }
                                Step::Release(s) => sems[s].release(),
                            }
                        }
                    });
                }
                k.spawn("last", || {
                    thread::sleep(VirtualDuration::from_millis(10));
                    for _ in 0..3 {
                        thread::advance(VirtualDuration::from_nanos(1));
                    }
                });
                k.run().unwrap();
                k.take_decisions()
            };
            let decisions = run();
            let resumed = decisions.windows(2).filter(|w| w[0].tid == w[1].tid).count();
            proptest::prop_assert!(resumed >= 3, "the caller was resumed {resumed} times");
            proptest::prop_assert_eq!(decisions, run());
        }
    }
}
