//! hostbench: what the host pays to run the simulator, end to end and by
//! layer. One process, pinned to one CPU, one world at a time.
//!
//!   hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!   hostbench --smoke            two reps of every workload, golden check, no timing
//!   hostbench --bless            rewrite golden.json for seeds 1 and 2
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`
//! with the end-to-end metrics for `--trace 0` and the per-layer rows for
//! `--trace 1`. README.md explains every number.

mod host;
mod layers;
mod spans;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use host::{corrected_s, cs_probe_us, median, p90, timed, Timed};
use layers::{Fidelity, Row};
use workloads::{Load, Outputs};

#[global_allocator]
static GLOBAL: host::CountingAlloc = host::CountingAlloc;

const GOLDEN: &str = include_str!("../golden.json");
const GOLDEN_SEEDS: [u64; 2] = [1, 2];

// ---------------------------------------------------------------------
// golden.json: one flat object of string keys and string values.
// ---------------------------------------------------------------------

fn golden_lookup(key: &str) -> Option<&'static str> {
    // Every second quoted string is a value: split on quotes and walk
    // the odd pieces pairwise.
    let mut quoted = GOLDEN.split('"').skip(1).step_by(2);
    while let (Some(k), Some(v)) = (quoted.next(), quoted.next()) {
        if k == key {
            return Some(v);
        }
    }
    None
}

fn golden_outputs(workload: &str, seed: u64) -> Option<Outputs> {
    let field = |f: &str| -> Option<u64> {
        let v = golden_lookup(&format!("seed{seed}.{workload}.{f}"))?;
        match v.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16).ok(),
            None => v.parse().ok(),
        }
    };
    Some(Outputs {
        ops: field("ops")?,
        virt_digest: field("virt_digest")?,
        tickets: field("tickets")?,
        journal_digest: field("journal_digest")?,
    })
}

fn golden_fidelity() -> Option<Fidelity> {
    Some(Fidelity {
        sci_4b_oneway_ns: golden_lookup("fidelity.sci_4b_oneway_ns")?.parse().ok()?,
        sci_8mib_oneway_ns: golden_lookup("fidelity.sci_8mib_oneway_ns")?.parse().ok()?,
    })
}

fn bless(scratch: &std::path::Path) -> ExitCode {
    use std::fmt::Write;
    let mut out = String::from("{\n");
    let probed = layers::fidelity_only();
    let _ = writeln!(
        out,
        "  \"fidelity.sci_4b_oneway_ns\": \"{}\",\n  \"fidelity.sci_8mib_oneway_ns\": \"{}\",",
        probed.sci_4b_oneway_ns, probed.sci_8mib_oneway_ns
    );
    let mut lines = Vec::new();
    for seed in GOLDEN_SEEDS {
        for name in workloads::NAMES {
            let load = workloads::build(name, seed, scratch).expect("known workload");
            let (a, b) = (load.rep(), load.rep());
            if a.failed > 0 || a.outputs != b.outputs {
                eprintln!("hostbench: {name} seed {seed} failed or is not deterministic");
                return ExitCode::FAILURE;
            }
            let o = a.outputs;
            lines.push(format!(
                "  \"seed{seed}.{name}.ops\": \"{}\",\n  \"seed{seed}.{name}.virt_digest\": \"{:#018x}\",\n  \
                 \"seed{seed}.{name}.tickets\": \"{}\",\n  \"seed{seed}.{name}.journal_digest\": \"{:#018x}\"",
                o.ops, o.virt_digest, o.tickets, o.journal_digest
            ));
        }
    }
    out.push_str(&lines.join(",\n"));
    out.push_str("\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden.json");
    match std::fs::write(path, out) {
        Ok(()) => {
            println!("blessed {path}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("hostbench: cannot write {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------
// Arguments.
// ---------------------------------------------------------------------

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 12.0,
        trace: false,
        smoke: false,
        bless: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--bless" => args.bless = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

/// `<target dir>/benchmark`: where the journal workload records and the
/// traced run writes `trace.json`. Inside the build directory, so inside
/// the checkout and already ignored by git.
fn scratch_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running binary");
    let target = exe
        .parent()
        .and_then(|release| release.parent())
        .expect("the binary runs from <target dir>/release");
    let dir = target.join("benchmark");
    std::fs::create_dir_all(&dir).expect("create the benchmark scratch directory");
    dir
}

// ---------------------------------------------------------------------
// Correctness: exact outputs against golden.json and the first rep.
// ---------------------------------------------------------------------

struct Checker {
    workload: &'static str,
    reference: Option<Outputs>,
    golden: Option<Outputs>,
    attempted: u64,
    failed: u64,
    mismatch: bool,
}

impl Checker {
    fn new(workload: &'static str, seed: u64) -> Self {
        Checker {
            workload,
            reference: None,
            golden: golden_outputs(workload, seed),
            attempted: 0,
            failed: 0,
            mismatch: false,
        }
    }

    /// Count one rep's ops; its exact outputs must equal the golden
    /// values (seeds 1 and 2) and those of every other rep of this run.
    fn rep(&mut self, out: &workloads::RepOut) {
        self.attempted += out.outputs.ops;
        self.failed += out.failed;
        let reference = *self.reference.get_or_insert(out.outputs);
        for (what, want) in [("first rep", Some(reference)), ("golden.json", self.golden)] {
            if want.is_some_and(|w| w != out.outputs) {
                eprintln!(
                    "hostbench: {} outputs differ from {what}: {:x?} vs {:x?}",
                    self.workload, out.outputs, want
                );
                self.mismatch = true;
            }
        }
    }

    fn other(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// (correct, attempted, failed): a mismatch fails every op.
    fn verdict(&self) -> (bool, u64, u64) {
        let attempted = self.attempted.max(1);
        let failed = if self.mismatch {
            attempted
        } else {
            self.failed
        };
        (failed == 0, attempted, failed)
    }
}

// ---------------------------------------------------------------------
// Sampling.
// ---------------------------------------------------------------------

/// Timings of one kind of section, each bracketed by context-switch
/// probes.
#[derive(Default)]
struct Samples {
    raw_s: Vec<f64>,
    corrected_s: Vec<f64>,
    timed: Vec<Timed>,
}

impl Samples {
    fn push(&mut self, t: Timed, cs_before: f64, cs_after: f64) {
        self.raw_s.push(t.wall_s);
        self.corrected_s.push(corrected_s(&t, cs_before, cs_after));
        self.timed.push(t);
    }

    fn len(&self) -> usize {
        self.raw_s.len()
    }

    fn mean_of(&self, f: impl Fn(&Timed) -> f64) -> f64 {
        self.timed.iter().map(f).sum::<f64>() / self.len().max(1) as f64
    }
}

/// Reads the context-switch probe once per call and remembers the last
/// reading, so consecutive sections share the probe between them.
struct CsProbe {
    last_us: f64,
    all_us: Vec<f64>,
}

impl CsProbe {
    fn new() -> Self {
        cs_probe_us(); // first use spawns cold; discard
        let first = cs_probe_us();
        CsProbe {
            last_us: first,
            all_us: vec![first],
        }
    }

    /// Time `f`, again and again until `BATCH_S` have passed, between the
    /// previous probe reading and a fresh one; every pass is one sample.
    /// Batching keeps the probe (13 ms) from outweighing sections that
    /// take a millisecond.
    fn around<R>(&mut self, samples: &mut Samples, mut f: impl FnMut() -> R) -> Vec<R> {
        let before = self.last_us;
        let batch = Instant::now();
        let (mut timings, mut outs) = (Vec::new(), Vec::new());
        while outs.is_empty() || batch.elapsed().as_secs_f64() < BATCH_S {
            let (t, out) = timed(&mut f);
            timings.push(t);
            outs.push(out);
        }
        // A long batch gets a longer closing probe (about 4 % of its
        // time): one 13 ms reading is within 10 % of the switch cost of
        // the moment, and 10 % of a 1024-rank world's half a million
        // switches is 5 % of its time.
        let readings = (batch.elapsed().as_secs_f64() * 0.04 / 0.013).clamp(1.0, 8.0) as usize;
        self.last_us = (0..readings).map(|_| cs_probe_us()).sum::<f64>() / readings as f64;
        self.all_us.push(self.last_us);
        for t in timings {
            samples.push(t, before, self.last_us);
        }
        outs
    }
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    // JSON has no NaN; a ratio of two empty samples must not make the
    // whole result unreadable.
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
}

fn finish(checker: &Checker, metrics: &[String]) -> ExitCode {
    let (correct, attempted, failed) = checker.verdict();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------
// The timed run: end-to-end metrics, tracing off.
// ---------------------------------------------------------------------

/// Fewest timed reps and set-up samples a run reports on.
const MIN_SAMPLES: usize = 3;
/// Share of the run spent sampling set-up.
const SETUP_SHARE: f64 = 0.25;
/// Seconds of samples between two context-switch probes.
const BATCH_S: f64 = 0.05;

fn run_timed(load: &dyn Load, seed: u64, seconds: f64) -> ExitCode {
    let mut checker = Checker::new(load.name(), seed);
    let mut probe = CsProbe::new();
    // Warm-up: fills pools and lazy statics. Every rep attempts the same
    // ops, or the checker fails the run.
    let warm = load.rep();
    checker.rep(&warm);
    let ops_per_rep = warm.outputs.ops.max(1);
    probe.last_us = cs_probe_us();

    let start = Instant::now();
    let (mut reps, mut setups) = (Samples::default(), Samples::default());
    let mut setup_failed = 0;
    while setups.len() < MIN_SAMPLES || start.elapsed().as_secs_f64() < SETUP_SHARE * seconds {
        let oks = probe.around(&mut setups, || load.setup());
        setup_failed += oks.iter().filter(|ok| !**ok).count() as u64;
    }
    checker.other(setups.len() as u64, setup_failed);
    while reps.len() < MIN_SAMPLES || start.elapsed().as_secs_f64() < seconds {
        for out in probe.around(&mut reps, || load.rep()) {
            checker.rep(&out);
        }
    }
    // Read last: the peak of the whole run, in which the process ran
    // nothing but the workload, its set-up and the switch probe. Read
    // after three reps it flipped between 13.5 and 16.6 MiB on
    // rails_pingpong, by whether the exiting threads of one world still
    // held a 4 MiB buffer when the next world allocated its own; over a
    // run's dozens of reps the higher case always occurs.
    let peak_rss_mib = host::vm_hwm_mib();

    let per_op =
        |s: &[f64]| -> Vec<f64> { s.iter().map(|t| t * 1e6 / ops_per_rep as f64).collect() };
    let (raw, corrected) = (per_op(&reps.raw_s), per_op(&reps.corrected_s));
    let host_us_per_op = median(&corrected);
    let setup_s = median(&setups.corrected_s);
    println!(
        "workload {} seed {seed}: {ops_per_rep} ops per rep",
        load.name()
    );
    println!(
        "  host_us_per_op      {host_us_per_op:>12.4} us   p90 {:.4}  n {}   (at cs_ref {} us)",
        p90(&corrected),
        reps.len(),
        host::CS_REF_US
    );
    println!(
        "  raw.host_us_per_op  {:>12.4} us   p90 {:.4}  n {}",
        median(&raw),
        p90(&raw),
        reps.len()
    );
    println!(
        "  setup_s             {setup_s:>12.6} s    p90 {:.6}  n {}   raw median {:.6}",
        p90(&setups.corrected_s),
        setups.len(),
        median(&setups.raw_s)
    );
    println!("  peak_rss_mib        {peak_rss_mib:>12.3} MiB  VmHWM at the end of the run");
    println!(
        "  calib.cs_us         {:>12.4} us   p90 {:.4}  n {}",
        median(&probe.all_us),
        p90(&probe.all_us),
        probe.all_us.len()
    );
    println!(
        "  os.cs_per_op        {:>12.2}",
        reps.mean_of(|t| t.switches as f64) / ops_per_rep as f64
    );
    let (_, attempted, failed) = checker.verdict();
    println!("  ops_attempted {attempted}  ops_failed {failed}");
    finish(
        &checker,
        &[
            metric_json("host_us_per_op", host_us_per_op, "us"),
            metric_json("setup_s", setup_s, "s"),
            metric_json("peak_rss_mib", peak_rss_mib, "MiB"),
        ],
    )
}

// ---------------------------------------------------------------------
// The traced run: per-layer rows.
// ---------------------------------------------------------------------

/// Share of the run the selected workload's traced and untraced reps
/// may use; the layer probes take a fixed ten seconds or so after it.
const TRACE_REPS_SHARE: f64 = 0.4;
/// Fewest untraced/traced rep pairs the traced run reports on.
const TRACE_MIN_PAIRS: usize = 2;

fn run_traced(load: &dyn Load, seed: u64, seconds: f64, scratch: &std::path::Path) -> ExitCode {
    let mut checker = Checker::new(load.name(), seed);
    let mut probe = CsProbe::new();
    let (mut copy_gib_s, mut alu_ms) = (Vec::new(), Vec::new());
    spans::set_workload(load.name());

    let (first, out) = timed(|| load.rep());
    checker.rep(&out);
    let ops = out.outputs.ops.max(1) as f64;
    probe.last_us = cs_probe_us();

    // Untraced and traced reps in alternation, so that drift of the box
    // lands on both sides of `trace.overhead_ratio`.
    let start = Instant::now();
    let (mut plain, mut traced_reps) = (Samples::default(), Samples::default());
    while plain.len() < TRACE_MIN_PAIRS
        || start.elapsed().as_secs_f64() < TRACE_REPS_SHARE * seconds
    {
        copy_gib_s.push(host::copy_probe_gib_s());
        alu_ms.push(host::alu_probe_ms());
        probe.last_us = cs_probe_us();
        for out in probe.around(&mut plain, || load.rep()) {
            checker.rep(&out);
        }
        spans::set_enabled(true);
        for out in probe.around(&mut traced_reps, || load.rep()) {
            checker.rep(&out);
        }
        spans::set_enabled(false);
    }

    let raw_us = median(&plain.raw_s) * 1e6 / ops;
    let cs_us = median(&probe.all_us);
    let cs_per_op = plain.mean_of(|t| t.switches as f64) / ops;
    let mut rows: Vec<Row> = vec![
        ("calib.cs_us", cs_us, "us"),
        ("calib.copy_gib_s", median(&copy_gib_s), "GiB/s"),
        ("calib.alu_ms", median(&alu_ms), "ms"),
        ("raw.host_us_per_op", raw_us, "us"),
        (
            "rep.p90_over_median",
            p90(&plain.raw_s) / median(&plain.raw_s),
            "ratio",
        ),
        (
            "trace.overhead_ratio",
            median(&traced_reps.raw_s) / median(&plain.raw_s),
            "ratio",
        ),
        ("os.cs_per_op", cs_per_op, "count"),
        ("os.cs_time_share", cs_per_op * cs_us / raw_us, "ratio"),
        (
            "os.sys_share",
            plain.mean_of(|t| t.sys_s) / plain.mean_of(|t| t.sys_s + t.user_s).max(1e-9),
            "ratio",
        ),
        (
            "alloc.count_per_op",
            plain.mean_of(|t| t.allocs as f64) / ops,
            "count",
        ),
        (
            "alloc.bytes_per_op",
            plain.mean_of(|t| t.alloc_bytes as f64) / ops,
            "B",
        ),
        (
            "proc.first_rep_ratio",
            first.wall_s / median(&plain.raw_s),
            "ratio",
        ),
        (
            "marcel.decisions_per_op",
            out.outputs.tickets as f64 / ops,
            "count",
        ),
        ("virt.us_per_op", out.virt_ns as f64 / 1e3 / ops, "us"),
    ];

    let probed = layers::probe_all(seed, scratch);
    checker.other(probed.attempted, probed.failed);
    if golden_fidelity().is_some_and(|g| g != probed.fidelity) {
        eprintln!(
            "hostbench: fidelity differs from golden.json: {:?}",
            probed.fidelity
        );
        checker.mismatch = true;
    }
    rows.extend(probed.rows);

    let all = spans::snapshot();
    let trace_path = scratch.join("trace.json");
    if let Err(e) = std::fs::write(&trace_path, spans::chrome_json(&all)) {
        eprintln!("hostbench: cannot write {}: {e}", trace_path.display());
        return ExitCode::FAILURE;
    }

    println!(
        "workload {} seed {seed}: per-layer rows ({} plain + {} traced reps, {} spans in {})",
        load.name(),
        plain.len(),
        traced_reps.len(),
        all.len(),
        trace_path.display()
    );
    for (name, value, unit) in &rows {
        println!("  {name:<34} {value:>14.4} {unit}");
    }
    println!("  self time by span name (us): spans, total, self");
    for (name, n, total, own) in spans::self_times(&all) {
        println!("    {name:<30} {n:>7} {total:>14.1} {own:>14.1}");
    }
    let (_, attempted, failed) = checker.verdict();
    println!("  ops_attempted {attempted}  ops_failed {failed}");
    let metrics: Vec<String> = rows
        .iter()
        .map(|(name, value, unit)| metric_json(name, *value, unit))
        .collect();
    finish(&checker, &metrics)
}

// ---------------------------------------------------------------------
// Smoke: every workload twice, exact outputs only.
// ---------------------------------------------------------------------

fn smoke(only: Option<&str>, scratch: &std::path::Path) -> ExitCode {
    let mut ok = true;
    for seed in GOLDEN_SEEDS {
        for name in workloads::NAMES {
            if only.is_some_and(|o| o != name) {
                continue;
            }
            let load = workloads::build(name, seed, scratch).expect("known workload");
            let mut checker = Checker::new(load.name(), seed);
            checker.rep(&load.rep());
            checker.rep(&load.rep());
            checker.other(1, !load.setup() as u64);
            let (correct, attempted, failed) = checker.verdict();
            println!(
                "smoke {name} seed {seed}: {} ({attempted} ops, {failed} failed)",
                if correct { "ok" } else { "FAILED" }
            );
            ok &= correct && checker.golden.is_some();
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("hostbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    host::one_malloc_arena();
    let cpu = host::pin_to_one_cpu();
    let scratch = scratch_dir();
    if args.bless {
        return bless(&scratch);
    }
    if args.smoke {
        return smoke(args.workload.as_deref(), &scratch);
    }
    let Some(load) = args
        .workload
        .as_deref()
        .and_then(|name| workloads::build(name, args.seed, &scratch))
    else {
        eprintln!(
            "hostbench: --workload must be one of {}",
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    println!("hostbench: pinned to cpu {cpu}, one of {cpus} this process may use");
    if args.trace {
        run_traced(load.as_ref(), args.seed, args.seconds, &scratch)
    } else {
        run_timed(load.as_ref(), args.seed, args.seconds)
    }
}
