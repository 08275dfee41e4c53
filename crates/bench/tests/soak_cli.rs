//! The `soak` and `replay` binaries end to end.
//!
//! - A campaign whose first episode always fails: the error line names
//!   the episode once, and neither the failed run nor any number of
//!   failing resumes grows the journal.
//! - A campaign killed after 3 of 6 episodes: replay reads every
//!   complete episode, byte for byte as the uninterrupted run's.
//! - A frame cut short in a segment that is not the last: corruption,
//!   which `resume` refuses without touching a byte and replay reports.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn soak(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_soak"))
        .args(args)
        .output()
        .expect("soak runs")
}

fn replay(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_replay"))
        .args(args)
        .output()
        .expect("replay runs")
}

/// Total bytes of every journal segment in `dir`.
fn journal_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().metadata().unwrap().len())
        .sum()
}

/// The line `soak` dies with (the simulated thread's panic message is
/// printed above it by the panic hook).
fn stderr_line(out: &Output) -> String {
    assert_eq!(out.status.code(), Some(2), "a failed episode exits 2");
    let stderr = String::from_utf8(out.stderr.clone()).unwrap();
    let line = stderr.lines().rfind(|l| l.starts_with("soak: "));
    line.unwrap_or_else(|| panic!("no soak line in:\n{stderr}"))
        .to_string()
}

#[test]
fn a_failing_episode_is_reported_once_and_leaves_the_journal_as_it_was() {
    let dir: PathBuf = std::env::temp_dir().join(format!("soak-cli-fail-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let d = dir.to_str().unwrap();
    let run = soak(&[
        "run",
        "--dir",
        d,
        "--episodes",
        "2",
        "--ranks",
        "3",
        "--messages",
        "4",
        "--loss",
        "999",
        "--stream",
        "8",
        "--decisions",
    ]);
    let err = stderr_line(&run);
    assert!(
        err.starts_with("soak: episode 0 failed: simulated thread panicked"),
        "{err}"
    );
    assert_eq!(err.matches("failed").count(), 1, "{err}");

    let after_run = journal_bytes(&dir);
    for _ in 0..3 {
        let resumed = soak(&["resume", "--dir", d]);
        assert_eq!(
            stderr_line(&resumed),
            err,
            "the same failure, worded the same"
        );
        assert_eq!(
            journal_bytes(&dir),
            after_run,
            "a failed resume grew the journal"
        );
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// stdout of a `replay` run that must succeed.
fn replayed(args: &[&str]) -> Vec<u8> {
    let out = replay(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "replay {args:?} failed: {stderr}");
    out.stdout
}

/// SIGKILLed after 3 of 6 episodes, between the index written after
/// episode 1 and the one episode 3 would have written: the journal's
/// last frame is episode 2's record, which no index lists yet. Replay
/// still reads episode 2, and `trace` without `--episode` picks it.
/// Two shapes: the default one, whose last segment holds no index, and
/// a small one, whose only segment holds the index that misses episode 2.
#[test]
fn a_crashed_campaign_replays_its_newest_complete_episode() {
    let small = ["--ranks", "3", "--messages", "4"];
    for (tag, shape, segments) in [("default", &[][..], 4), ("small", &small[..], 1)] {
        crashed_campaign_replays(tag, shape, segments);
    }
}

fn crashed_campaign_replays(tag: &str, shape: &[&str], segments: usize) {
    let root: PathBuf =
        std::env::temp_dir().join(format!("soak-cli-crash-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let (crashed, full) = (root.join("crashed"), root.join("full"));
    let (c, f) = (crashed.to_str().unwrap(), full.to_str().unwrap());
    let flags = [
        "--episodes",
        "6",
        "--snapshot-every",
        "2",
        "--stream",
        "8",
        "--decisions",
    ];
    let flags = [&flags[..], shape].concat();
    let killed = soak(&[&["run", "--dir", c, "--crash-after", "3"], &flags[..]].concat());
    assert_eq!(
        killed.status.code(),
        None,
        "{tag}: the campaign dies by SIGKILL"
    );
    let done = soak(&[&["run", "--dir", f], &flags[..]].concat());
    assert!(
        done.status.success(),
        "{tag}: the uninterrupted run completes"
    );
    assert_eq!(fs::read_dir(&crashed).unwrap().count(), segments, "{tag}");

    let baseline = replayed(&["trace", "--dir", f, "--episode", "2"]);
    assert_eq!(replayed(&["trace", "--dir", c, "--episode", "2"]), baseline);
    let index = journal::load_index(&crashed).unwrap();
    let listed: Vec<u32> = index.entries.iter().map(|s| s.episode).collect();
    assert_eq!(listed, [0, 1, 2], "{tag}");
    assert_eq!(
        replayed(&["trace", "--dir", c]),
        baseline,
        "{tag}: the default is episode 2"
    );
    let metrics = ["metrics", "--at-episode", "2", "--dir"];
    assert_eq!(
        replayed(&[&metrics[..], &[c]].concat()),
        replayed(&[&metrics[..], &[f]].concat())
    );

    // An episode the crash lost is named, with no made-up coordinates.
    let lost = replay(&["trace", "--dir", c, "--episode", "3"]);
    let stderr = String::from_utf8(lost.stderr).unwrap();
    assert_eq!(
        stderr.trim_end(),
        "replay: episode 3: episode 3 is not in the journal, which holds 3 complete streamed episodes"
    );
    assert!(
        !stderr.contains("segment 0 offset 0 (0 valid records"),
        "{stderr}"
    );
    fs::remove_dir_all(&root).unwrap();
}

/// The lossy streamed campaign of `ci/behaviour.sh` (four segments)
/// with the first frame of `seg-000001.jrnl` declaring 0x7FFFFFF0
/// bytes. Frames never span segments and every rotation is fsynced
/// first, so no crash cuts a frame short in an earlier segment: this
/// is corruption, not a torn tail. `resume` must refuse it, even with
/// `--force`, and leave every segment as it was; a replay read that
/// reaches the cut fails and names it.
#[test]
fn a_frame_cut_short_in_an_earlier_segment_is_corruption() {
    let dir: PathBuf = std::env::temp_dir().join(format!("soak-cli-cut-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let d = dir.to_str().unwrap();
    let flags = [
        "--episodes",
        "6",
        "--ranks",
        "4",
        "--messages",
        "16",
        "--payload",
        "128",
        "--snapshot-every",
        "2",
        "--stream",
        "8",
        "--decisions",
        "--loss",
        "60",
        "--ack-loss",
        "25",
    ];
    assert!(soak(&[&["run", "--dir", d], &flags[..]].concat())
        .status
        .success());
    let seg1 = dir.join("seg-000001.jrnl");
    let mut bytes = fs::read(&seg1).unwrap();
    bytes[33..37].copy_from_slice(&0x7FFF_FFF0u32.to_le_bytes());
    fs::write(&seg1, &bytes).unwrap();
    let segments = || {
        let mut all: Vec<(PathBuf, Vec<u8>)> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .map(|p| (p.clone(), fs::read(p).unwrap()))
            .collect();
        all.sort();
        all
    };
    let before = segments();
    assert_eq!(before.len(), 4);

    let named = |out: &Output| {
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(!out.status.success(), "exit 0 on a cut segment");
        assert!(
            stderr.contains(
                "inconsistent journal: frame cut short in a segment before the last; \
                 recovery point: segment 1 offset 32"
            ),
            "{stderr}"
        );
    };
    named(&soak(&["resume", "--dir", d]));
    named(&soak(&["resume", "--dir", d, "--force"]));
    assert!(segments() == before, "a refused resume rewrote the journal");
    named(&replay(&["metrics", "--dir", d, "--at-episode", "5"]));
    // Episode 1's stream runs across the rotation into segment 1.
    named(&replay(&["trace", "--dir", d, "--episode", "1"]));
    fs::remove_dir_all(&dir).unwrap();
}
