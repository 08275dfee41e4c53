//! Soak harness: durable fault campaigns with crash-resume.
//!
//! ```text
//! cargo run -p bench --bin soak -- run    --dir D [config flags]
//!                                         [--crash-after K [--torn]]
//!                                         [--report PATH] [--chrome PATH]
//! cargo run -p bench --bin soak -- resume --dir D [--force]
//!                                         [--report PATH] [--chrome PATH]
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
//!
//! Where two campaigns' journals first differ is `replay diff`'s
//! question.

use std::path::Path;

use bench::cli::Cli;
use journal::{Campaign, SoakConfig};

fn config_from(cli: &Cli) -> SoakConfig {
    let mut cfg = SoakConfig::default();
    if let Some(v) = cli.int("--seed") {
        cfg.campaign_seed = v;
    }
    if let Some(v) = cli.int("--episodes") {
        cfg.episodes = v;
    }
    if let Some(v) = cli.int("--ranks") {
        cfg.ranks = v;
    }
    if let Some(v) = cli.int("--messages") {
        cfg.messages_per_episode = v;
    }
    if let Some(v) = cli.int("--payload") {
        cfg.payload = v;
    }
    if let Some(v) = cli.int("--workers") {
        cfg.workers = v;
    }
    if let Some(v) = cli.int("--loss") {
        cfg.loss_milli = v;
    }
    if let Some(v) = cli.int("--ack-loss") {
        cfg.ack_loss_milli = v;
    }
    if let Some(v) = cli.int("--snapshot-every") {
        cfg.snapshot_every = v;
    }
    if cli.set("--decisions") {
        cfg.record_decisions = true;
    }
    if let Some(v) = cli.int("--force-fallback") {
        cfg.force_fallback = v;
    }
    if let Some(v) = cli.int("--stream") {
        cfg.stream_chunk = v;
    }
    cfg
}

/// Drive a campaign to completion (or to the planted crash), then emit
/// the report and the final episode's Chrome trace.
fn drive(mut campaign: Campaign, cli: &Cli) {
    let crash_after = cli.int::<u32>("--crash-after");
    while !campaign.is_complete() {
        if let Err(e) = campaign.step() {
            cli.die(&format!("episode {} failed: {e}", campaign.episodes_done()));
        }
        eprintln!(
            "soak: episode {}/{} done",
            campaign.episodes_done(),
            campaign.config().episodes
        );
        if crash_after == Some(campaign.episodes_done()) {
            crash(campaign, cli.set("--torn"));
        }
    }
    let trace = campaign.take_trace_json();
    let report = campaign.report();
    print!("{report}");
    if let Some(path) = cli.value("--report") {
        cli.write(Path::new(&path), report.as_bytes());
    }
    if let Some(path) = cli.value("--chrome") {
        match &trace {
            Some(json) => cli.write(Path::new(&path), json.as_bytes()),
            // Streamed campaigns keep no live trace buffer: the final
            // episode's events exist only as journal chunks, so
            // reconstruct the export from them (byte-identical).
            None if campaign.config().stream_chunk > 0 => {
                let last = campaign.config().episodes - 1;
                let json = journal::trace_json_for(campaign.dir(), last, None, None)
                    .unwrap_or_else(|e| cli.die(&format!("--chrome: replay failed: {e}")));
                cli.write(Path::new(&path), json.as_bytes());
            }
            // Resuming an already-complete campaign re-runs nothing, so
            // there is no in-process trace to export.
            None => cli.die("--chrome: the final episode did not run in this process"),
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

fn main() {
    let cli = Cli::new("soak", std::env::args().skip(1).collect());
    match cli.subcommand() {
        Some("run") => {
            let dir = cli.dir("--dir");
            let cfg = config_from(&cli);
            let campaign = Campaign::create(&dir, cfg)
                .unwrap_or_else(|e| cli.die(&format!("create {}: {e}", dir.display())));
            drive(campaign, &cli);
        }
        Some("resume") => {
            let dir = cli.dir("--dir");
            let campaign = Campaign::resume(&dir, cli.set("--force"))
                .unwrap_or_else(|e| cli.die(&format!("resume {}: {e}", dir.display())));
            eprintln!(
                "soak: resuming at episode {}/{}",
                campaign.episodes_done(),
                campaign.config().episodes
            );
            drive(campaign, &cli);
        }
        _ => cli.die("usage: soak run|resume (see --help in the source header)"),
    }
}
