//! Resume-determinism properties: a campaign that crashes and resumes
//! must be indistinguishable — byte for byte — from one that never
//! crashed.
//!
//! Each case samples a campaign shape (worker count in {1, 4},
//! survivable fault intensities, snapshot cadence), runs an
//! uninterrupted baseline, then replays the same campaign with a crash
//! planted after a sampled episode (optionally tearing the journal tail
//! mid-frame, as a SIGKILL between `write` and frame completion would),
//! resumes it, and demands the resumed run's report, final-episode
//! Chrome trace, and full journal record stream equal the baseline's.

use std::fs;
use std::path::PathBuf;

use journal::{read_journal, Campaign, SoakConfig};
use proptest::prelude::*;
use simnet::FaultPlan;

fn tmpdir(tag: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "journal-resume-{tag}-{case}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn crash_resume_is_byte_identical(
        seed in 0u64..1 << 32,
        workers_sel in 0usize..2,
        messages in 3u32..8,
        loss in 0u32..180,
        ack_loss in 0u32..90,
        snapshot_every in 1u32..3,
        crash_after in 1u32..3,
        torn in proptest::prelude::any::<bool>(),
    ) {
        let cfg = SoakConfig {
            campaign_seed: seed,
            episodes: 3,
            ranks: 3,
            messages_per_episode: messages,
            payload: 64,
            workers: [1u32, 4][workers_sel],
            loss_milli: loss,
            ack_loss_milli: ack_loss,
            snapshot_every,
            record_decisions: true,
            force_fallback: 0,
            stream_chunk: 0,
        };
        // The sampled fault intensities must be survivable, or the
        // campaign itself (not the journal) would hang: mirror the
        // fault plan the episodes will run and check.
        let plan = FaultPlan::new(cfg.episode_seed(0))
            .with_loss(cfg.loss_milli as f64 / 1000.0)
            .with_ack_loss(cfg.ack_loss_milli as f64 / 1000.0);
        prop_assert!(plan.is_survivable());

        // Baseline: never interrupted.
        let base_dir = tmpdir("base", seed);
        let mut base = Campaign::create(&base_dir, cfg.clone()).unwrap();
        base.run_to_completion().unwrap();
        let base_report = base.report();
        let base_trace = base.take_trace_json().expect("final episode traces");
        drop(base);

        // Crash run: stop after `crash_after` episodes, optionally
        // tearing the tail, then resume in a "new process" (a fresh
        // Campaign resumed purely from the on-disk journal).
        let crash_dir = tmpdir("crash", seed);
        let mut crashed = Campaign::create(&crash_dir, cfg.clone()).unwrap();
        for _ in 0..crash_after {
            crashed.step().unwrap();
        }
        if torn {
            crashed.tear_tail().unwrap();
        } else {
            drop(crashed);
        }
        // The crashed journal, torn or not, agrees over its valid prefix.
        prop_assert_eq!(journal::diff_runs(&base_dir, &crash_dir, 2).unwrap(), None);

        let mut resumed = Campaign::resume(&crash_dir, false).unwrap();
        prop_assert_eq!(resumed.episodes_done(), crash_after);
        resumed.run_to_completion().unwrap();

        // Byte-identical report and final-episode trace.
        prop_assert_eq!(resumed.report(), base_report);
        prop_assert_eq!(resumed.take_trace_json().unwrap(), base_trace);

        // Identical record streams on disk: every episode record —
        // results, metrics, decision streams, chained digests — must
        // match, and the journals must both read back strictly clean.
        let a = read_journal(&base_dir).unwrap();
        let b = read_journal(&crash_dir).unwrap();
        prop_assert_eq!(&a.config, &b.config);
        prop_assert_eq!(&a.episodes, &b.episodes);

        // And the divergence query agrees there is nothing to find.
        prop_assert_eq!(journal::diff_runs(&base_dir, &crash_dir, 2).unwrap(), None);

        fs::remove_dir_all(&base_dir).unwrap();
        fs::remove_dir_all(&crash_dir).unwrap();
    }
}

/// Worker-count sweep outside proptest: the same campaign at workers =
/// 0, 1 and 4 must journal identical episode records — the field is
/// recorded in the config and read by no episode.
#[test]
fn worker_count_never_reaches_the_journal() {
    let mut reports = Vec::new();
    for workers in [0u32, 1, 4] {
        let cfg = SoakConfig {
            episodes: 2,
            ranks: 3,
            messages_per_episode: 4,
            payload: 64,
            workers,
            ..SoakConfig::default()
        };
        let dir = tmpdir("workers", workers as u64);
        let mut c = Campaign::create(&dir, cfg).unwrap();
        c.run_to_completion().unwrap();
        let contents = read_journal(&dir).unwrap();
        reports.push(
            contents
                .episodes
                .iter()
                .map(|e| {
                    (
                        e.index,
                        e.episode_seed,
                        e.end_time_ns,
                        e.result_digest,
                        e.trace_digest,
                    )
                })
                .collect::<Vec<_>>(),
        );
        fs::remove_dir_all(&dir).unwrap();
    }
    assert_eq!(reports[0], reports[1], "Seed vs 1 worker");
    assert_eq!(reports[0], reports[2], "Seed vs 4 workers");
}
