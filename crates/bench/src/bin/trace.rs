//! Timeline tool: run one ch_mad ping-pong with kernel tracing enabled
//! and print the typed event timeline — a window into the paper's
//! Figure 4 message flows (eager and rendezvous) as they actually
//! execute. With `--chrome <path>` the same trace is also exported as
//! Chrome trace-event JSON (loadable in Perfetto / `chrome://tracing`):
//! one virtual process per cluster node, one thread per Marcel tid.
//! With `--out <path>` the plain-text timeline goes to a file as well
//! as stdout, so CI and scripts can diff it without capturing streams.
//!
//! `cargo run -p bench --bin trace [-- <bytes>] [--chrome <path>] [--out <path>]`

use std::fmt::Write as _;

use mpich::{run_world_report, thread_metas, Placement, WorldConfig};
use simnet::{Protocol, Topology};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bytes: usize = args.iter().find_map(|a| a.parse().ok()).unwrap_or(4);
    let path_flag = |name: &str| {
        args.iter().position(|a| a == name).map(|i| {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("{name} needs a path"))
                .clone()
        })
    };
    let chrome_path = path_flag("--chrome");
    let out_path = path_flag("--out");
    let cfg = WorldConfig::builder().trace(true).build();
    let report = run_world_report(
        Topology::single_network(2, Protocol::Sisci),
        Placement::OneRankPerNode,
        cfg,
        move |comm| {
            if comm.rank() == 0 {
                comm.endpoint().send(vec![0u8; bytes], 1, 0).unwrap();
                comm.endpoint()
                    .recv::<Vec<u8>>(bytes, Some(1), Some(0))
                    .unwrap();
            } else {
                let (d, _) = comm
                    .endpoint()
                    .recv::<Vec<u8>>(bytes, Some(0), Some(0))
                    .unwrap();
                comm.endpoint().send(&d, 0, 0).unwrap();
            }
        },
    )
    .expect("trace world completes");
    let kernel = &report.kernel;
    let trace = kernel.take_trace();
    let mode = if bytes > Protocol::Sisci.switch_point() {
        "rendezvous (REQUEST -> OK_TO_SEND -> DATA, Fig. 4b)"
    } else {
        "eager (Fig. 4a)"
    };
    let mut text = String::new();
    let _ = writeln!(
        text,
        "ch_mad ping-pong of {bytes} B over SCI — transfer mode: {mode}"
    );
    let _ = writeln!(text, "{:>12}  {:>4}  event", "time", "tid");
    for e in &trace {
        let _ = writeln!(
            text,
            "{:>12}  {:>4}  {}",
            format!("{}", e.time),
            e.tid,
            e.what
        );
    }
    let _ = writeln!(
        text,
        "\n{} events; finished at {} (one-way ~{:.1} us)",
        trace.len(),
        kernel.end_time(),
        kernel.end_time().as_micros_f64() / 2.0
    );
    print!("{text}");
    if let Some(path) = out_path {
        std::fs::write(&path, &text).expect("write timeline");
        eprintln!("[out] {path}");
    }
    if let Some(path) = chrome_path {
        let metas = thread_metas(kernel, &report.session);
        let json = marcel::chrome_trace_json(&trace, &metas);
        std::fs::write(&path, json).expect("write chrome trace");
        println!("[chrome] {path} (open in Perfetto or chrome://tracing)");
    }
}
