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
//! --payload B --loss L --ack-loss A --snapshot-every K --stream C
//! --decisions` (integers but the `--decisions` switch; loss and
//! ack-loss in thousandths; `--snapshot-every` is the fsync cadence).
//! `--stream C` turns on the journal's flight recorder: every episode's
//! events (and, with `--decisions`, its decisions) land in the journal
//! in ~C-entry chunks; without it a campaign records digests only, so
//! `--decisions` and `--chrome` both need `--stream`. `--chrome`
//! rebuilds the final episode's trace from the journal's chunks, also
//! when `resume` finds the campaign already complete. An unknown or
//! repeated flag exits 2.
//!
//! `--crash-after K` is the kill switch of `ci/behaviour.sh`'s `crashed`
//! campaign: after K episodes the process optionally tears the journal
//! tail mid-frame (`--torn`, exactly what a SIGKILL between `write` and
//! completion leaves behind) and then SIGKILLs itself — no destructors,
//! no flushes. A subsequent
//! `resume` must finish the campaign and emit a report and final-episode
//! Chrome trace *byte-identical* to an uninterrupted baseline run.
//!
//! Where two campaigns' journals first differ is `replay diff`'s
//! question; two runs that differ only in `--loss`/`--ack-loss` are
//! comparable, which is how CI plants a divergence.

use std::path::Path;

use bench::cli::{Cli, Flags};
use journal::{Campaign, JournalError, SoakConfig};

const FLAGS: Flags = Flags {
    values: "--dir --seed --episodes --ranks --messages --payload --loss --ack-loss \
             --snapshot-every --stream --crash-after --report --chrome",
    switches: "--decisions --torn --force",
};

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
    if let Some(v) = cli.int("--stream") {
        cfg.stream_chunk = v;
    }
    cfg
}

/// Refuse `--chrome` for a campaign that keeps no trace to export.
fn check_chrome(cli: &Cli, config: &SoakConfig) {
    if cli.set("--chrome") && config.stream_chunk == 0 {
        cli.die("--chrome needs --stream: a campaign without the flight recorder keeps no trace");
    }
}

/// Drive a campaign to completion (or to the planted crash), then emit
/// the report and the final episode's Chrome trace.
fn drive(mut campaign: Campaign, cli: &Cli) {
    let crash_after = cli.int::<u32>("--crash-after");
    while !campaign.is_complete() {
        if let Err(e) = campaign.step() {
            match e {
                // Its text names the episode already.
                JournalError::EpisodeFailed { .. } => cli.die(&e.to_string()),
                e => cli.die(&format!("episode {} failed: {e}", campaign.episodes_done())),
            }
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
    let report = campaign.report();
    print!("{report}");
    if let Some(path) = cli.value("--report") {
        cli.write(Path::new(&path), report.as_bytes());
    }
    if let Some(path) = cli.value("--chrome") {
        let last = campaign
            .config()
            .episodes
            .checked_sub(1)
            .unwrap_or_else(|| cli.die("--chrome: the campaign has no episodes"));
        let json = journal::trace_json_for(campaign.dir(), last, None, None)
            .unwrap_or_else(|e| cli.die(&format!("--chrome: replay failed: {e}")));
        cli.write(Path::new(&path), json.as_bytes());
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
    let cli = Cli::new("soak", std::env::args().skip(1).collect(), &FLAGS);
    match cli.subcommand() {
        Some("run") => {
            let dir = cli.dir("--dir");
            let cfg = config_from(&cli);
            check_chrome(&cli, &cfg);
            let campaign = Campaign::create(&dir, cfg)
                .unwrap_or_else(|e| cli.die(&format!("create {}: {e}", dir.display())));
            drive(campaign, &cli);
        }
        Some("resume") => {
            let dir = cli.dir("--dir");
            let campaign = Campaign::resume(&dir, cli.set("--force"))
                .unwrap_or_else(|e| cli.die(&format!("resume {}: {e}", dir.display())));
            check_chrome(&cli, campaign.config());
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
