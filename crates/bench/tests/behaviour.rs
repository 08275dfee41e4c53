//! The behaviour manifest as a tier-1 test.
//!
//! `ci/behaviour.sh` runs every deterministic artifact of the stack on
//! this build's bench bins and hashes each one; the result must equal
//! the pin, `ci/behaviour.sha256`, line for line. The script also makes
//! the identities that are not hashes (the crashed campaign dies by
//! SIGKILL, its resumed report and trace equal the uninterrupted run's,
//! `replay trace` equals the live export), and the bins assert their
//! own headlines (`vci`, `collectives`): any of those failing fails the
//! run. A deliberate behaviour change regenerates the pin as the
//! script's header says.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// `sha256sum` lines as artifact → hash.
fn manifest(text: &str) -> BTreeMap<&str, &str> {
    text.lines()
        .map(|l| {
            let (hash, name) = l.split_once("  ").expect("a sha256sum line");
            (name, hash)
        })
        .collect()
}

#[test]
fn behaviour_manifest_is_unchanged() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let bins = Path::new(env!("CARGO_BIN_EXE_soak")).parent().unwrap();
    let work = Path::new(env!("CARGO_TARGET_TMPDIR")).join("behaviour");

    let run = Command::new(root.join("ci/behaviour.sh"))
        .arg(bins)
        .arg(&work)
        .output()
        .expect("ci/behaviour.sh starts");
    assert!(
        run.status.success(),
        "ci/behaviour.sh failed ({}); sha256sum, bash and cmp must be installed:\n{}",
        run.status,
        String::from_utf8_lossy(&run.stderr)
    );

    let pinned = std::fs::read_to_string(root.join("ci/behaviour.sha256")).unwrap();
    let produced = std::fs::read_to_string(work.join("target/behaviour/manifest.sha256")).unwrap();
    let (pinned, produced) = (manifest(&pinned), manifest(&produced));
    let mut wrong = Vec::new();
    for (name, hash) in &pinned {
        match produced.get(name) {
            None => wrong.push(format!("missing: {name}")),
            Some(h) if h != hash => wrong.push(format!("moved:   {name}")),
            Some(_) => {}
        }
    }
    for name in produced.keys().filter(|n| !pinned.contains_key(*n)) {
        wrong.push(format!("extra:   {name}"));
    }
    assert!(
        wrong.is_empty(),
        "behaviour moved against ci/behaviour.sha256 (artifacts under {}):\n{}",
        work.join("target/behaviour").display(),
        wrong.join("\n")
    );
}
