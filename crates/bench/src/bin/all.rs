//! Runs every table/figure harness (the full evaluation section) and
//! prints their reports in order. `cargo run -p bench --bin all --release [-- <iters>]`.

fn main() {
    let iters: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(4);
    let experiments = [
        (
            "table1",
            bench::experiments::table1 as fn(usize) -> bench::Report,
        ),
        ("table2", bench::experiments::table2),
        ("fig6", bench::experiments::fig6),
        ("fig7", bench::experiments::fig7),
        ("fig8", bench::experiments::fig8),
        ("fig9", bench::experiments::fig9),
        ("multirail", bench::experiments::multirail),
        ("degraded", bench::experiments::degraded),
        ("overhead", bench::experiments::overhead),
    ];
    // Each harness builds its worlds on its own thread (a world stays on
    // the thread that created it) and shares nothing with the others,
    // so they run side by side; only the printing is in order.
    std::thread::scope(|s| {
        let runs = experiments.map(|(name, f)| (name, s.spawn(move || f(iters))));
        for (name, run) in runs {
            let report = run.join().expect("every harness completes");
            eprintln!(">>> {name} (iters = {iters})");
            report.emit(true, true);
        }
    });
}
