//! Soak harness: durable fault campaigns with crash-resume and bisect.
//!
//! ```text
//! cargo run -p bench --bin soak -- run    --dir D [config flags]
//!                                         [--crash-after K [--torn]]
//!                                         [--report PATH] [--chrome PATH]
//! cargo run -p bench --bin soak -- resume --dir D [--force]
//!                                         [--report PATH] [--chrome PATH]
//! cargo run -p bench --bin soak -- bisect --a DIR --b DIR
//! ```
//!
//! Config flags for `run`: `--seed S --episodes N --ranks R --messages M
//! --payload B --workers W --loss L --ack-loss A --snapshot-every K
//! --decisions --force-fallback N --stream C` (all integers; loss and
//! ack-loss in thousandths). `--stream C` turns on the journaled flight
//! recorder: every episode's events and decisions land in the journal
//! in ~C-entry chunks, and `--chrome` exports are reconstructed from
//! those chunks by the `replay` machinery (byte-identical to a live
//! export).
//!
//! `--crash-after K` is `ci/check_soak.py`'s kill switch: after K
//! episodes the process optionally tears the journal tail mid-frame (`--torn`,
//! exactly what a SIGKILL between `write` and completion leaves behind)
//! and then SIGKILLs itself — no destructors, no flushes. A subsequent
//! `resume` must finish the campaign and emit a report and final-episode
//! Chrome trace *byte-identical* to an uninterrupted baseline run.

use std::path::{Path, PathBuf};
use std::process::exit;

use journal::{bisect, Campaign, SoakConfig};

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).map(|i| {
        args.get(i + 1)
            .unwrap_or_else(|| die(&format!("{name} needs a value")))
            .clone()
    })
}

fn flag_u64(args: &[String], name: &str) -> Option<u64> {
    flag_value(args, name).map(|v| {
        v.parse()
            .unwrap_or_else(|_| die(&format!("{name} needs an integer, got {v:?}")))
    })
}

fn flag_u32(args: &[String], name: &str) -> Option<u32> {
    flag_u64(args, name).map(|v| v as u32)
}

fn flag_set(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn die(msg: &str) -> ! {
    eprintln!("soak: {msg}");
    exit(2);
}

fn dir_arg(args: &[String], name: &str) -> PathBuf {
    PathBuf::from(flag_value(args, name).unwrap_or_else(|| die(&format!("{name} is required"))))
}

fn config_from(args: &[String]) -> SoakConfig {
    let mut cfg = SoakConfig::default();
    if let Some(v) = flag_u64(args, "--seed") {
        cfg.campaign_seed = v;
    }
    if let Some(v) = flag_u32(args, "--episodes") {
        cfg.episodes = v;
    }
    if let Some(v) = flag_u32(args, "--ranks") {
        cfg.ranks = v;
    }
    if let Some(v) = flag_u32(args, "--messages") {
        cfg.messages_per_episode = v;
    }
    if let Some(v) = flag_u32(args, "--payload") {
        cfg.payload = v;
    }
    if let Some(v) = flag_u32(args, "--workers") {
        cfg.workers = v;
    }
    if let Some(v) = flag_u32(args, "--loss") {
        cfg.loss_milli = v;
    }
    if let Some(v) = flag_u32(args, "--ack-loss") {
        cfg.ack_loss_milli = v;
    }
    if let Some(v) = flag_u32(args, "--snapshot-every") {
        cfg.snapshot_every = v;
    }
    if flag_set(args, "--decisions") {
        cfg.record_decisions = true;
    }
    if let Some(v) = flag_u32(args, "--force-fallback") {
        cfg.force_fallback = v;
    }
    if let Some(v) = flag_u32(args, "--stream") {
        cfg.stream_chunk = v;
    }
    cfg
}

/// Drive a campaign to completion (or to the planted crash), then emit
/// the report and the final episode's Chrome trace.
fn drive(mut campaign: Campaign, args: &[String]) {
    let crash_after = flag_u32(args, "--crash-after");
    while !campaign.is_complete() {
        if let Err(e) = campaign.step() {
            die(&format!("episode {} failed: {e}", campaign.episodes_done()));
        }
        eprintln!(
            "soak: episode {}/{} done",
            campaign.episodes_done(),
            campaign.config().episodes
        );
        if crash_after == Some(campaign.episodes_done()) {
            crash(campaign, flag_set(args, "--torn"));
        }
    }
    let trace = campaign.take_trace_json();
    let report = campaign.report();
    print!("{report}");
    if let Some(path) = flag_value(args, "--report") {
        write_out(Path::new(&path), report.as_bytes());
    }
    if let Some(path) = flag_value(args, "--chrome") {
        match &trace {
            Some(json) => write_out(Path::new(&path), json.as_bytes()),
            // Streamed campaigns keep no live trace buffer: the final
            // episode's events exist only as journal chunks, so
            // reconstruct the export from them (byte-identical).
            None if campaign.config().stream_chunk > 0 => {
                let last = campaign.config().episodes - 1;
                let json = journal::trace_json_for(campaign.dir(), last, None, None)
                    .unwrap_or_else(|e| die(&format!("--chrome: replay failed: {e}")));
                write_out(Path::new(&path), json.as_bytes());
            }
            // Resuming an already-complete campaign re-runs nothing, so
            // there is no in-process trace to export.
            None => die("--chrome: the final episode did not run in this process"),
        }
    }
}

/// Die the way a machine does: optionally tear the journal tail
/// mid-frame, then SIGKILL — no unwinding, no flushes, no goodbyes.
fn crash(campaign: Campaign, torn: bool) -> ! {
    eprintln!(
        "soak: simulating crash after episode {} (torn tail: {torn})",
        campaign.episodes_done()
    );
    if torn {
        campaign.tear_tail().expect("torn-tail write");
    }
    let pid = std::process::id().to_string();
    let _ = std::process::Command::new("kill")
        .args(["-9", &pid])
        .status();
    // If `kill` is somehow unavailable, still die without destructors.
    std::process::abort();
}

fn write_out(path: &Path, bytes: &[u8]) {
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(path, bytes).unwrap_or_else(|e| die(&format!("write {}: {e}", path.display())));
    eprintln!("soak: wrote {}", path.display());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => {
            let dir = dir_arg(&args, "--dir");
            let cfg = config_from(&args);
            let campaign = Campaign::create(&dir, cfg)
                .unwrap_or_else(|e| die(&format!("create {}: {e}", dir.display())));
            drive(campaign, &args);
        }
        Some("resume") => {
            let dir = dir_arg(&args, "--dir");
            let campaign = Campaign::resume(&dir, flag_set(&args, "--force"))
                .unwrap_or_else(|e| die(&format!("resume {}: {e}", dir.display())));
            eprintln!(
                "soak: resuming at episode {}/{}",
                campaign.episodes_done(),
                campaign.config().episodes
            );
            drive(campaign, &args);
        }
        Some("bisect") => {
            let a = dir_arg(&args, "--a");
            let b = dir_arg(&args, "--b");
            match bisect(&a, &b) {
                Ok(report) => {
                    println!("{report}");
                    // Exit 0 when identical, 1 when divergent — CI keys
                    // off this.
                    exit(report.first_divergent_episode.is_some() as i32);
                }
                Err(e) => die(&format!("bisect: {e}")),
            }
        }
        _ => die("usage: soak run|resume|bisect (see --help in the source header)"),
    }
}
