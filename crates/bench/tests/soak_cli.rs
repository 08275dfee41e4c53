//! The `soak` binary on a campaign whose first episode always fails:
//! the error line names the episode once, and neither the failed run
//! nor any number of failing resumes grows the journal.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn soak(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_soak"))
        .args(args)
        .output()
        .expect("soak runs")
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
