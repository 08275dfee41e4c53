//! Span recorder of the benchmark's own: one span around every call the
//! benchmark makes into a layer, kept in memory, written out once as
//! Chrome trace-event JSON when the traced run ends. Off (one relaxed
//! load per call site) in timed runs.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Sentinel for "no parent".
const ROOT: u32 = u32::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    pub workload: &'static str,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

static ON: AtomicBool = AtomicBool::new(false);
/// The open span new spans attach to. Calls made from inside a world's
/// rank closures run on other OS threads than the `run_world` call that
/// caused them, so the parent is process-wide, not thread-local; the
/// benchmark runs one world at a time.
static PARENT: AtomicU32 = AtomicU32::new(ROOT);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static WORKLOAD: Mutex<&'static str> = Mutex::new("");

fn epoch() -> Instant {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

pub fn set_enabled(on: bool) {
    epoch();
    ON.store(on, Ordering::SeqCst);
}

pub fn set_workload(name: &'static str) {
    *WORKLOAD.lock().expect("span state poisoned") = name;
}

fn push(name: &'static str, start_ns: u64, parent: u32) -> u32 {
    let workload = *WORKLOAD.lock().expect("span state poisoned");
    let mut spans = SPANS.lock().expect("span state poisoned");
    spans.push(Span {
        name,
        start_ns,
        end_ns: start_ns,
        parent: (parent != ROOT).then_some(parent),
        workload,
    });
    (spans.len() - 1) as u32
}

fn close(id: u32) {
    let end = now_ns();
    SPANS.lock().expect("span state poisoned")[id as usize].end_ns = end;
}

/// Span around a call whose own calls into the layers should nest under
/// it (a whole world, a campaign): becomes the parent until it returns.
pub fn scope<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !ON.load(Ordering::Relaxed) {
        return f();
    }
    let outer = PARENT.load(Ordering::SeqCst);
    let id = push(name, now_ns(), outer);
    PARENT.store(id, Ordering::SeqCst);
    let out = f();
    PARENT.store(outer, Ordering::SeqCst);
    close(id);
    out
}

/// Span around one leaf call (a send, a receive, a collective).
pub fn leaf<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !ON.load(Ordering::Relaxed) {
        return f();
    }
    let id = push(name, now_ns(), PARENT.load(Ordering::SeqCst));
    let out = f();
    close(id);
    out
}

/// `leaf` when `on`, a plain call otherwise: for call sites where only
/// one rank's or one thread's calls are recorded.
pub fn leaf_if<R>(on: bool, name: &'static str, f: impl FnOnce() -> R) -> R {
    if on {
        leaf(name, f)
    } else {
        f()
    }
}

/// Every span recorded so far.
pub fn snapshot() -> Vec<Span> {
    SPANS.lock().expect("span state poisoned").clone()
}

/// Self time per span name: each span's duration minus the part of it
/// its direct children cover (children of one parent can overlap in
/// time when they ran in different simulated threads, so their union is
/// taken, not their sum). Returns `(name, spans, total_us, self_us)`.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, usize, f64, f64)> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        kids.sort_unstable();
        let (mut covered, mut upto) = (0u64, s.start_ns);
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(upto), b.min(s.end_ns));
            if b > a {
                covered += b - a;
                upto = b;
            }
        }
        let total = (s.end_ns - s.start_ns) as f64 / 1e3;
        let own = total - covered as f64 / 1e3;
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += 1;
                r.2 += total;
                r.3 += own;
            }
            None => rows.push((s.name, 1, total, own)),
        }
    }
    rows
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// event per span, one `tid` per workload, parent and index in `args`.
pub fn chrome_json(spans: &[Span]) -> String {
    use std::fmt::Write;
    let mut lanes: Vec<&str> = Vec::new();
    let mut out = String::with_capacity(spans.len() * 96 + 32);
    out.push_str("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let tid = match lanes.iter().position(|w| *w == s.workload) {
            Some(t) => t,
            None => {
                lanes.push(s.workload);
                lanes.len() - 1
            }
        };
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            out,
            "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{i},\"parent\":{parent},\"workload\":\"{}\"}}}}",
            if i == 0 { "" } else { ",\n" },
            s.name,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.workload,
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            workload: "w",
        }
    }

    #[test]
    fn self_time_takes_the_union_of_overlapping_children() {
        let spans = [
            span("world", 0, 10_000, None),
            span("send", 1_000, 5_000, Some(0)),
            span("recv", 3_000, 7_000, Some(0)), // overlaps send by 2 us
            span("recv", 8_000, 12_000, Some(0)), // runs past its parent
        ];
        let rows = self_times(&spans);
        let world = rows.iter().find(|r| r.0 == "world").unwrap();
        // 10 us minus [1,7] and [8,10].
        assert_eq!((world.1, world.2, world.3), (1, 10.0, 2.0));
        let recv = rows.iter().find(|r| r.0 == "recv").unwrap();
        assert_eq!((recv.1, recv.2, recv.3), (2, 8.0, 8.0));
    }

    #[test]
    fn chrome_json_has_one_complete_event_per_span() {
        let json = chrome_json(&[span("a", 0, 1_500, None), span("b", 500, 1_000, Some(0))]);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains(
            "\"name\":\"b\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":0.500,\"dur\":0.500"
        ));
        assert!(json.contains("\"parent\":0") && json.contains("\"parent\":-1"));
        assert!(json.starts_with("{\"traceEvents\":[") && json.trim_end().ends_with("]}"));
    }
}
