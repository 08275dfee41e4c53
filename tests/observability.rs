//! Observability-layer tests: the typed trace and the metrics registry
//! must be as deterministic as the simulation they watch, spans must
//! balance by Finalize, reliability counters must agree with the fault
//! injector, and — the contract everything else rests on — leaving
//! tracing off must not perturb the simulation at all.

use marcel::{validate_spans, MetricsSnapshot, TraceEvent, VirtualTime};
use mpich::{run_world_report, Placement, WorldConfig};
use simnet::{FaultPlan, Protocol, Topology};

/// Sizes straddling the SCI eager→rendezvous switch so both transfer
/// modes (paper Fig. 4a/4b) leave spans in the trace.
const SIZES: [usize; 3] = [4, 4 * 1024, 40 * 1024];

/// One traced ch_mad ping-pong world; returns everything an observer
/// can extract from it.
fn traced_run(trace: bool) -> (Vec<u64>, VirtualTime, Vec<TraceEvent>, MetricsSnapshot) {
    let cfg = WorldConfig::builder().trace(trace).build();
    let report = run_world_report(
        Topology::single_network(2, Protocol::Sisci),
        Placement::OneRankPerNode,
        cfg,
        |comm| {
            let ep = comm.endpoint();
            let mut acc = 0u64;
            for &n in &SIZES {
                if comm.rank() == 0 {
                    ep.send(vec![7u8; n], 1, 0).unwrap();
                    acc += ep.recv::<Vec<u8>>(n, Some(1), Some(0)).unwrap().0.len() as u64;
                } else {
                    let (d, _) = ep.recv::<Vec<u8>>(n, Some(0), Some(0)).unwrap();
                    acc += d.len() as u64;
                    ep.send(&d, 0, 0).unwrap();
                }
            }
            acc
        },
    )
    .expect("traced world completes");
    let kernel = report.kernel;
    let snapshot = kernel.metrics_snapshot();
    (
        report.results,
        kernel.end_time(),
        kernel.take_trace(),
        snapshot,
    )
}

/// The typed trace and the metrics snapshot are part of the
/// deterministic output of a run: identical programs reproduce them
/// event for event and counter for counter, including the rendered
/// forms an operator would diff.
#[test]
fn typed_trace_and_metrics_are_deterministic() {
    let (r1, t1, trace1, m1) = traced_run(true);
    let (r2, t2, trace2, m2) = traced_run(true);
    assert_eq!(r1, r2);
    assert_eq!(t1, t2);
    assert_eq!(trace1, trace2, "typed traces must match event for event");
    assert_eq!(m1, m2, "metrics snapshots must match");
    let render = |tr: &[TraceEvent]| {
        tr.iter()
            .map(|e| format!("{} {} {}\n", e.time, e.tid, e.what))
            .collect::<String>()
    };
    assert_eq!(render(&trace1), render(&trace2));
    assert_eq!(m1.to_string(), m2.to_string());
}

/// Every span opened anywhere in the stack (pack, unpack, setup,
/// handle, post, stripe) is closed by the time the world finalizes,
/// on the thread that opened it — [`validate_spans`] walks the whole
/// trace and checks begin/end pairing per thread.
#[test]
fn spans_balance_at_finalize() {
    let (_, _, trace, _) = traced_run(true);
    validate_spans(&trace).expect("all spans balanced at Finalize");
    // The run actually exercised spans from every layer we instrument.
    let span_layers: std::collections::BTreeSet<&str> = trace
        .iter()
        .filter(|e| matches!(e.what, marcel::Event::SpanBegin { .. }))
        .map(|e| e.what.layer().name())
        .collect();
    for layer in ["madeleine", "ch_mad", "adi"] {
        assert!(
            span_layers.contains(layer),
            "expected spans from {layer}, got {span_layers:?}"
        );
    }
}

/// Under a loss-only survivable plan every dropped packet is recovered
/// by exactly one retransmission, and the total sits under the
/// registry's `chan/{name}/retransmits` keys the session reads it from.
#[test]
fn retransmits_match_injected_losses() {
    let mut t = Topology::new();
    let a = t.add_node("a", 1);
    let b = t.add_node("b", 1);
    t.add_network_with_fault(Protocol::Bip, FaultPlan::new(0xF00D).with_loss(0.3), [a, b]);
    let report = run_world_report(
        t,
        Placement::OneRankPerNode,
        WorldConfig::default(),
        |comm| {
            let ep = comm.endpoint();
            for i in 0..8 {
                if comm.rank() == 0 {
                    ep.send(vec![i as u8; 256], 1, i).unwrap();
                } else {
                    ep.recv::<Vec<u8>>(256, Some(0), Some(i)).unwrap();
                }
            }
        },
    )
    .expect("lossy world completes");
    let (kernel, session) = (report.kernel, report.session);
    let c = session.counters().faults;
    assert!(c.drops > 0, "the plan injected no losses: {c:?}");
    assert_eq!(
        c.retransmits, c.drops,
        "each injected loss costs exactly one retransmission: {c:?}"
    );
    // The registry is where those counts live: its retransmit keys sum
    // to the session's aggregate.
    let snap = kernel.metrics_snapshot();
    let metric_retransmits: u64 = snap
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("chan/") && k.ends_with("/retransmits"))
        .map(|(_, v)| v)
        .sum();
    assert_eq!(metric_retransmits, c.retransmits);
}

/// The zero-cost contract: instrumentation never advances virtual time,
/// so a run with tracing disabled produces bit-identical results and
/// end time to the same run traced — and records no events at all.
#[test]
fn tracing_disabled_is_zero_cost() {
    let (r_off, t_off, trace_off, m_off) = traced_run(false);
    let (r_on, t_on, trace_on, m_on) = traced_run(true);
    assert_eq!(r_off, r_on, "tracing changed the computed results");
    assert_eq!(t_off, t_on, "tracing changed the virtual end time");
    assert!(trace_off.is_empty(), "no events when tracing is off");
    assert!(!trace_on.is_empty(), "events expected when tracing is on");
    // Metrics are host-side and always on: both runs count the same.
    assert_eq!(m_off, m_on, "metrics must not depend on tracing");
}

/// The Chrome exporter emits one complete-or-instant event per trace
/// entry plus one metadata record per thread, each carrying the fields
/// `chrome://tracing` requires. CI parses the `trace` bin's export with
/// `python3 -m json.tool`, and the behaviour manifest pins its bytes.
#[test]
fn chrome_trace_export_is_well_formed() {
    let cfg = WorldConfig::builder().trace(true).build();
    let report = run_world_report(
        Topology::single_network(2, Protocol::Sisci),
        Placement::OneRankPerNode,
        cfg,
        |comm| {
            let ep = comm.endpoint();
            if comm.rank() == 0 {
                ep.send(&[1u8, 2, 3, 4], 1, 0).unwrap();
            } else {
                ep.recv::<Vec<u8>>(4, Some(0), Some(0)).unwrap();
            }
        },
    )
    .expect("chrome world completes");
    let trace = report.kernel.take_trace();
    let metas = mpich::thread_metas(&report.kernel, &report.session);
    let json = marcel::chrome_trace_json(&trace, &metas);
    // The "JSON array format" Perfetto and chrome://tracing load.
    assert!(json.starts_with('[') && json.trim_end().ends_with(']'));
    for key in ["\"ph\"", "\"pid\"", "\"tid\"", "\"ts\""] {
        assert!(json.contains(key), "exporter output missing {key}");
    }
    // One metadata record per simulated thread, naming it.
    assert!(json.matches("thread_name").count() >= metas.len());
}
