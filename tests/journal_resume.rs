//! Resume-determinism properties: a campaign that crashes and resumes
//! must be indistinguishable — byte for byte — from one that never
//! crashed.
//!
//! Each case samples a campaign shape (survivable fault intensities,
//! fsync cadence), runs an
//! uninterrupted baseline, then replays the same campaign with a crash
//! planted after a sampled episode (optionally tearing the journal tail
//! mid-frame, as a SIGKILL between `write` and frame completion would),
//! resumes it, and demands the resumed run's report, final-episode
//! Chrome trace, and full journal record stream equal the baseline's.

use std::fs;
use std::path::PathBuf;

use journal::{read_journal, trace_json_for, Campaign, SoakConfig};
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
            loss_milli: loss,
            ack_loss_milli: ack_loss,
            snapshot_every,
            record_decisions: true,
            stream_chunk: 8,
        };
        let last = cfg.episodes - 1;
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
        drop(base);
        let base_trace = trace_json_for(&base_dir, last, None, None).unwrap();

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
        prop_assert_eq!(trace_json_for(&crash_dir, last, None, None).unwrap(), base_trace);

        // Identical records on disk: every episode record — results,
        // metrics, stream and decision digests, chained digests — must
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
