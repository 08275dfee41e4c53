//! # marcel — deterministic virtual-time thread kernel
//!
//! Reproduction of the execution substrate of MPICH/Madeleine (Aumage,
//! Mercier, Namyst — INRIA RR-4016): the **Marcel** user-level thread
//! library and its cooperation with the Madeleine communication library's
//! polling loops, re-cast as a *deterministic virtual-time simulator* so
//! the paper's experiments can run without 2001-era NICs.
//!
//! Highlights:
//!
//! * [`Kernel`] — spawn simulated threads, run to completion, collect a
//!   deterministic trace.
//! * [`thread`] — ambient operations (`advance`, `now`, `spawn`, `sleep`,
//!   `yield_now`) on the current simulated thread.
//! * [`sync`] — semaphores, mutexes, condvars, one-shot slots, barriers;
//!   all blocking happens in virtual time.
//! * [`poll`] — the Marcel/Madeleine factorized-polling model: message
//!   detection delay equals one polling-loop cycle (sum of the attached
//!   sources' poll costs), which is what makes the paper's multi-protocol
//!   overhead experiment (Fig. 9) reproducible.
//! * [`CostModel`] — per-primitive virtual costs, calibrated so that the
//!   `ch_mad` "message handling" overhead emerges at the magnitude the
//!   paper reports (≈7 µs).
//! * [`obs`] — cross-layer observability: typed trace events, begin/end
//!   spans in virtual time, an always-on metrics registry, and a Chrome
//!   trace-event JSON exporter. Instrumentation never advances virtual
//!   time, so tracing on/off cannot change simulation results.
//!
//! ```
//! use marcel::{Kernel, CostModel, VirtualDuration};
//!
//! let kernel = Kernel::new(CostModel::calibrated());
//! let h = kernel.spawn("worker", || {
//!     marcel::advance(VirtualDuration::from_micros(10));
//!     marcel::now()
//! });
//! kernel.run().unwrap();
//! assert_eq!(h.join_outcome().unwrap().as_micros_f64(), 10.0);
//! ```

pub mod cost;
mod fiber;
pub mod kernel;
pub mod obs;
mod owned;
pub mod poll;
pub mod sync;
pub mod thread;
pub mod time;

pub use cost::{CostModel, ExecPolicy, PollPolicy};
pub use kernel::{Decision, Kernel, ProcId, SimError, TraceEvent};
pub use obs::{
    chrome_trace_json, validate_spans, ActiveSpan, Counter, Event, EventSink, Gauge, Hist,
    HistSnapshot, Layer, MetricsSnapshot, SpanKind, ThreadMeta,
};
pub use owned::OwnedCell;
pub use poll::{PollSource, Polled};
pub use sync::{OneShot, Semaphore, SimBarrier, SimCondvar, SimMutex, SimMutexGuard};
pub use thread::{
    advance, advance_to, dispatch_ticket, in_simulation, name, now, sleep, sleep_until, spawn,
    yield_now, JoinHandle,
};
pub use time::{VirtualDuration, VirtualTime};
