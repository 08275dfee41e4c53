//! Fuzz-style corruption tests for the journal reader.
//!
//! The hardening contract: *no input — truncated, bit-flipped,
//! version-skewed, or outright garbage — may panic the reader.* Every
//! failure must surface as a typed [`JournalError`], and frame-level
//! failures must carry a best-effort [`RecoveryPoint`] naming the valid
//! prefix. These tests build one real multi-segment journal, then
//! attack copies of it with seeded truncations and bit flips, reading
//! every mutant with both the strict and the recovering reader under
//! `catch_unwind` so any panic is reported with the seed that found it.

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use journal::{
    read_journal, read_journal_recovering, DecisionRec, EpisodeRecord, JournalError, JournalWriter,
    Record, SnapshotRecord, SoakConfig, Totals,
};
use simnet::rng::splitmix64;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("journal-fuzz-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A synthetic but internally consistent episode, padded with a decision
/// stream so the journal grows past one segment.
fn episode(index: u32, cum: u64, cfg: &SoakConfig) -> EpisodeRecord {
    let decisions: Vec<DecisionRec> = (0..200)
        .map(|t| DecisionRec {
            ticket: t,
            tid: (t % 7) as u32,
            at_ns: 13 * t,
            fallback: false,
            events_before: 0,
        })
        .collect();
    let mut ep = EpisodeRecord {
        index,
        episode_seed: cfg.episode_seed(index),
        end_time_ns: 1_000_000 + index as u64,
        result_digest: splitmix64(index as u64 ^ 0xBEEF),
        metrics_digest: splitmix64(index as u64 ^ 0xCAFE),
        trace_digest: 0,
        decisions_digest: EpisodeRecord::digest_decisions(&decisions),
        faults: Default::default(),
        failovers: 0,
        rndv_reissues: 0,
        wire_messages: 64,
        wire_bytes: 16_384,
        cum_digest: 0,
        decisions,
    };
    ep.cum_digest = journal::store::chain(cum, ep.own_digest());
    ep
}

/// Build the attack target: a valid journal spanning several segments,
/// with episodes, snapshots, and decision streams.
fn build_target(dir: &Path) -> (SoakConfig, usize) {
    let cfg = SoakConfig {
        episodes: 24,
        record_decisions: true,
        ..SoakConfig::default()
    };
    let mut w = JournalWriter::create(dir, &cfg).unwrap();
    let mut cum = 0;
    let mut totals = Totals::default();
    for i in 0..cfg.episodes {
        let ep = episode(i, cum, &cfg);
        cum = ep.cum_digest;
        totals.add_episode(&ep);
        w.append(&Record::Episode(ep)).unwrap();
        if (i + 1) % cfg.snapshot_every == 0 {
            w.append(&Record::Snapshot(SnapshotRecord {
                episodes_done: i + 1,
                totals,
                cum_digest: cum,
            }))
            .unwrap();
        }
    }
    drop(w);
    let segments = fs::read_dir(dir).unwrap().count();
    assert!(
        segments >= 2,
        "attack target should span segments, has {segments}"
    );
    (cfg, segments)
}

fn copy_journal(src: &Path, dst: &Path) {
    let _ = fs::remove_dir_all(dst);
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

fn segment_paths(dir: &Path) -> Vec<PathBuf> {
    let mut v: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    v.sort();
    v
}

/// Both readers, under catch_unwind: a panic anywhere is a contract
/// violation. Returns the strict result for further assertions.
fn read_must_not_panic(dir: &Path, what: &str) -> Result<usize, JournalError> {
    let strict = catch_unwind(AssertUnwindSafe(|| read_journal(dir)))
        .unwrap_or_else(|_| panic!("strict reader panicked on {what}"));
    let recovering = catch_unwind(AssertUnwindSafe(|| read_journal_recovering(dir)))
        .unwrap_or_else(|_| panic!("recovering reader panicked on {what}"));
    // The recovering reader must succeed whenever the journal's
    // structure (directory, segment-0 header, config) is intact; when
    // it does, its recovery point must be internally sane.
    if let Ok((contents, stopped)) = &recovering {
        assert_eq!(
            contents
                .recovery
                .last_episode
                .map(|e| e as usize + 1)
                .unwrap_or(0),
            contents.episodes.len(),
            "recovery point disagrees with episodes read on {what}"
        );
        if stopped.is_none() {
            assert!(
                strict.is_ok(),
                "strict failed where recovering was clean on {what}"
            );
        }
    }
    strict.map(|c| c.episodes.len())
}

#[test]
fn truncations_never_panic_and_recover_a_prefix() {
    let target = tmpdir("trunc-target");
    let (_cfg, _) = build_target(&target);
    let full = read_journal(&target).unwrap().episodes.len();
    let mutant = tmpdir("trunc-mutant");

    let paths = segment_paths(&target);
    let last = paths.last().unwrap();
    let last_len = fs::metadata(last).unwrap().len();

    // Every cut in the first 200 bytes of the last segment (header and
    // first frames), plus seeded cuts across its whole length.
    let mut cuts: Vec<u64> = (0..200.min(last_len)).collect();
    let mut h = 0x7254_4E43u64; // "TRNC"
    for _ in 0..200 {
        h = splitmix64(h);
        cuts.push(h % (last_len + 1));
    }
    for cut in cuts {
        copy_journal(&target, &mutant);
        let f = fs::OpenOptions::new()
            .write(true)
            .open(mutant.join(last.file_name().unwrap()))
            .unwrap();
        f.set_len(cut).unwrap();
        drop(f);
        let what = format!("truncation at {cut}/{last_len}");
        let strict = read_must_not_panic(&mutant, &what);
        if cut == last_len {
            assert_eq!(strict.unwrap(), full, "{what}");
        } else if let Ok((contents, _)) = read_journal_recovering(&mutant) {
            assert!(contents.episodes.len() <= full, "{what}");
        }
    }
    fs::remove_dir_all(&target).unwrap();
    fs::remove_dir_all(&mutant).unwrap();
}

#[test]
fn bit_flips_never_panic_and_never_lie() {
    let target = tmpdir("flip-target");
    build_target(&target);
    let baseline = read_journal(&target).unwrap();
    let mutant = tmpdir("flip-mutant");
    let paths = segment_paths(&target);

    let mut h = 0x464C_4950u64; // "FLIP"
    for round in 0..300 {
        h = splitmix64(h);
        let path = &paths[(h % paths.len() as u64) as usize];
        let mut bytes = fs::read(path).unwrap();
        h = splitmix64(h);
        let byte = (h % bytes.len() as u64) as usize;
        let bit = (h >> 32) % 8;
        bytes[byte] ^= 1 << bit;
        copy_journal(&target, &mutant);
        fs::write(mutant.join(path.file_name().unwrap()), &bytes).unwrap();

        let what = format!("bit flip #{round} at {}:{byte}.{bit}", path.display());
        let strict = read_must_not_panic(&mutant, &what);
        // A flip may land in a header's reserved bytes (not covered by
        // any check — benign by design). If the strict read still
        // passes, it must have read the *same* journal; anything else
        // means corruption went undetected.
        if let Ok(n) = strict {
            assert_eq!(n, baseline.episodes.len(), "silent corruption: {what}");
            assert_eq!(
                read_journal(&mutant).unwrap().episodes,
                baseline.episodes,
                "silent corruption: {what}"
            );
        }
    }
    fs::remove_dir_all(&target).unwrap();
    fs::remove_dir_all(&mutant).unwrap();
}

#[test]
fn structural_garbage_is_typed_not_fatal() {
    // Empty directory.
    let dir = tmpdir("empty");
    fs::create_dir_all(&dir).unwrap();
    assert!(matches!(
        read_journal(&dir),
        Err(JournalError::Empty { .. })
    ));

    // A directory of random bytes named like a segment.
    let mut h = 0x6761_7262u64; // "garb"
    for len in [0usize, 7, 31, 32, 33, 4096] {
        let bytes: Vec<u8> = (0..len)
            .map(|_| {
                h = splitmix64(h);
                h as u8
            })
            .collect();
        fs::write(dir.join("seg-000000.jrnl"), &bytes).unwrap();
        let err = read_must_not_panic(&dir, &format!("{len}B garbage segment")).unwrap_err();
        match err {
            JournalError::TruncatedHeader { .. }
            | JournalError::BadMagic { .. }
            | JournalError::UnsupportedVersion { .. }
            | JournalError::SegmentIndexMismatch { .. }
            | JournalError::NoConfig { .. } => {}
            other => panic!("unexpected error class for garbage: {other}"),
        }
    }

    // A gap in the segment sequence.
    let gap = tmpdir("gap");
    build_target(&gap);
    fs::remove_file(segment_paths(&gap).remove(0)).unwrap();
    assert!(matches!(
        read_journal(&gap),
        Err(JournalError::MissingSegment { expected: 0, .. })
    ));

    // Segments from two different campaigns mixed together.
    let a = tmpdir("mix-a");
    build_target(&a);
    let b = tmpdir("mix-b");
    let cfg_b = SoakConfig {
        campaign_seed: 0xD1FF,
        episodes: 24,
        record_decisions: true,
        ..SoakConfig::default()
    };
    let mut w = JournalWriter::create(&b, &cfg_b).unwrap();
    let mut cum = 0;
    for i in 0..cfg_b.episodes {
        let ep = episode(i, cum, &cfg_b);
        cum = ep.cum_digest;
        w.append(&Record::Episode(ep)).unwrap();
    }
    drop(w);
    let foreign = segment_paths(&b).pop().unwrap();
    fs::copy(&foreign, a.join(foreign.file_name().unwrap())).unwrap();
    match read_must_not_panic(&a, "mixed campaigns") {
        Err(JournalError::CampaignMismatch { .. }) | Err(JournalError::Inconsistent { .. }) => {}
        other => panic!("mixed campaigns not detected: {other:?}"),
    }

    for d in [dir, gap, a, b] {
        fs::remove_dir_all(&d).unwrap();
    }
}

/// Scan one segment file and return the byte offsets of every frame of
/// `want_kind` (frames are `kind u8 | len u32 | payload | crc64`, after
/// the 32-byte segment header).
fn frame_offsets(path: &Path, want_kind: u8) -> Vec<(u64, usize)> {
    let bytes = fs::read(path).unwrap();
    let mut out = Vec::new();
    let mut pos = journal::store::HEADER_LEN as usize;
    while pos + 5 <= bytes.len() {
        let kind = bytes[pos];
        let len = u32::from_le_bytes(bytes[pos + 1..pos + 5].try_into().unwrap()) as usize;
        let end = pos + 5 + len + 8;
        if end > bytes.len() {
            break;
        }
        if kind == want_kind {
            out.push((pos as u64, len));
        }
        pos = end;
    }
    out
}

/// The streamed flight recorder inherits the full hardening contract: a
/// bit flip inside an event-chunk frame must surface as a typed
/// [`JournalError`] whose recovery point names the damaged frame, the
/// recovering reader must keep the valid prefix, replay of undamaged
/// episodes must still work — and nothing may panic.
#[test]
fn corrupted_event_chunks_are_typed_with_recovery_never_a_panic() {
    let target = tmpdir("stream-flip-target");
    let cfg = SoakConfig {
        episodes: 2,
        ranks: 3,
        messages_per_episode: 4,
        payload: 64,
        workers: 2,
        snapshot_every: 1,
        record_decisions: true,
        stream_chunk: 8,
        ..SoakConfig::default()
    };
    let mut c = journal::Campaign::create(&target, cfg).unwrap();
    c.run_to_completion().unwrap();
    drop(c);
    let baseline = read_journal(&target).unwrap();
    assert_eq!(baseline.stream.len(), 2, "both episodes streamed");

    let mutant = tmpdir("stream-flip-mutant");
    let mut h = 0x4556_434Bu64; // "EVCK"
    let mut typed_hits = 0;
    for path in segment_paths(&target) {
        for kind in [
            journal::record::KIND_EVENT_CHUNK,
            journal::record::KIND_DECISION_CHUNK,
            journal::record::KIND_METRICS_DELTA,
            journal::record::KIND_INDEX,
        ] {
            for (frame_at, len) in frame_offsets(&path, kind) {
                // Flip one payload bit (past kind+len, before the CRC).
                h = splitmix64(h);
                let byte = frame_at as usize + 5 + (h % len.max(1) as u64) as usize;
                copy_journal(&target, &mutant);
                let seg_path = mutant.join(path.file_name().unwrap());
                let mut bytes = fs::read(&seg_path).unwrap();
                bytes[byte] ^= 1 << ((h >> 32) % 8);
                fs::write(&seg_path, &bytes).unwrap();

                let what = format!("flip in kind-{kind} frame at {}:{frame_at}", path.display());
                let strict = read_must_not_panic(&mutant, &what);
                // The frame CRC covers every payload bit, so the strict
                // reader must reject the mutant — with the recovery
                // point at (or before) the damaged frame.
                let err = strict.expect_err(&format!("undetected corruption: {what}"));
                if let Some(rp) = err.recovery() {
                    typed_hits += 1;
                    let seg: u32 = path
                        .file_name()
                        .unwrap()
                        .to_str()
                        .unwrap()
                        .trim_start_matches("seg-")
                        .trim_end_matches(".jrnl")
                        .parse()
                        .unwrap();
                    assert!(
                        (rp.segment, rp.offset) <= (seg, frame_at),
                        "recovery past the damage: {what} -> {rp:?}"
                    );
                }
                // Replay of episodes wholly before the damage must
                // still reconstruct from the recovering prefix; replay
                // of damaged episodes must fail typed, never panic.
                let replayed = catch_unwind(AssertUnwindSafe(|| {
                    journal::trace_json_for(&mutant, 0, None, None)
                }))
                .unwrap_or_else(|_| panic!("replay panicked on {what}"));
                drop(replayed);
            }
        }
    }
    assert!(
        typed_hits > 0,
        "no streamed frame produced a recovery-carrying error"
    );
    fs::remove_dir_all(&target).unwrap();
    fs::remove_dir_all(&mutant).unwrap();
}

#[test]
fn recovery_point_names_the_exact_cut() {
    let dir = tmpdir("exact");
    build_target(&dir);
    // Flip one bit in the middle of segment 1's frames; the recovery
    // point must land exactly at the start of the damaged frame, and
    // every record before it must be preserved.
    let paths = segment_paths(&dir);
    let target = &paths[1];
    let mut bytes = fs::read(target).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    fs::write(target, &bytes).unwrap();

    let (contents, stopped) = read_journal_recovering(&dir).unwrap();
    let err = stopped.expect("damage must be reported");
    let recovery = err.recovery().expect("frame-level error carries recovery");
    assert_eq!(recovery.segment, 1);
    assert!(recovery.offset <= mid as u64, "recovery past the damage");
    assert_eq!(
        recovery.records,
        1 + contents.episodes.len() as u64 + contents.snapshots.len() as u64
    );
    fs::remove_dir_all(&dir).unwrap();
}
