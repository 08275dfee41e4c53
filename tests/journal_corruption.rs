//! Fuzz-style corruption tests for the journal reader.
//!
//! The hardening contract: *no input — truncated, bit-flipped,
//! version-skewed, or outright garbage — may panic the reader.* Every
//! failure must surface as a typed [`JournalError`], and frame-level
//! failures must carry a best-effort [`RecoveryPoint`] naming the valid
//! prefix. These tests build real multi-segment journals — one of
//! digests only, one streamed — then attack copies of them with seeded
//! truncations and bit flips, reading every mutant with the strict and
//! the recovering reader and with replay's reads (`load_index`,
//! `trace_json_for`, `metrics_at`), all under `catch_unwind` so any
//! panic is reported with the seed that found it.

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use journal::{
    load_index, metrics_at, read_journal, read_journal_recovering, trace_json_for, EpisodeRecord,
    IndexRec, JournalError, JournalWriter, Record, SoakConfig, HEADER_LEN,
};
use marcel::MetricsSnapshot;
use simnet::rng::splitmix64;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("journal-fuzz-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Campaign seed of an attack target.
const SEED: u64 = 0x50AC_0001;

/// Episodes in an attack target: enough 145-byte episode frames to
/// span two 64 KiB segments.
const EPISODES: u32 = 600;

/// A synthetic but internally consistent episode of a campaign that
/// records digests only.
fn episode(index: u32, cum: u64, cfg: &SoakConfig) -> EpisodeRecord {
    let mut ep = EpisodeRecord {
        index,
        episode_seed: cfg.episode_seed(index),
        end_time_ns: 1_000_000 + index as u64,
        result_digest: splitmix64(index as u64 ^ 0xBEEF),
        metrics_digest: splitmix64(index as u64 ^ 0xCAFE),
        trace_digest: 0,
        decisions_digest: 0,
        faults: Default::default(),
        failovers: 0,
        rndv_reissues: 0,
        wire_messages: 64,
        wire_bytes: 16_384,
        cum_digest: 0,
    };
    ep.cum_digest = journal::store::chain(cum, ep.own_digest());
    ep
}

/// Build the attack target: a valid journal of campaign `seed`'s
/// episode records, spanning several segments.
fn build_target(dir: &Path, seed: u64) {
    let cfg = SoakConfig {
        campaign_seed: seed,
        episodes: EPISODES,
        ..SoakConfig::default()
    };
    let mut w = JournalWriter::create(dir, &cfg).unwrap();
    let mut cum = 0;
    for i in 0..cfg.episodes {
        let ep = episode(i, cum, &cfg);
        cum = ep.cum_digest;
        w.append(&Record::Episode(ep)).unwrap();
    }
    drop(w);
    let segments = fs::read_dir(dir).unwrap().count();
    assert!(segments >= 2, "attack target spans {segments} segment");
}

/// The streamed attack target: a real campaign whose flight recorder
/// streams two episodes' events and decisions over four segments.
fn build_streamed_target(dir: &Path) {
    let cfg = SoakConfig {
        episodes: 2,
        ranks: 3,
        messages_per_episode: 64,
        payload: 64,
        snapshot_every: 1,
        record_decisions: true,
        stream_chunk: 8,
        ..SoakConfig::default()
    };
    journal::Campaign::create(dir, cfg)
        .unwrap()
        .run_to_completion()
        .unwrap();
    let segments = fs::read_dir(dir).unwrap().count();
    assert!(segments >= 2, "streamed target spans {segments} segment");
}

/// Builds an attack target in a directory.
type Build = fn(&Path);

/// The targets the seeded truncations and bit flips attack.
const TARGETS: [(&str, Build); 2] = [
    ("digests", |dir| build_target(dir, SEED)),
    ("streamed", build_streamed_target),
];

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

/// What replay's reads return on one journal: the index, and the trace
/// and the metrics of each of `episodes` episodes.
#[derive(Debug, PartialEq)]
struct Replayed {
    index: Result<IndexRec, JournalError>,
    traces: Vec<Result<String, JournalError>>,
    metrics: Vec<Result<MetricsSnapshot, JournalError>>,
}

/// Replay's reads, each under catch_unwind: a typed result, never a
/// panic.
fn replay_must_not_panic(dir: &Path, episodes: u32, what: &str) -> Replayed {
    fn guarded<T>(read: impl FnOnce() -> T, name: &str, what: &str) -> T {
        catch_unwind(AssertUnwindSafe(read)).unwrap_or_else(|_| panic!("{name} panicked on {what}"))
    }
    Replayed {
        index: guarded(|| load_index(dir), "load_index", what),
        traces: (0..episodes)
            .map(|e| {
                guarded(
                    || trace_json_for(dir, e, None, None),
                    "trace_json_for",
                    what,
                )
            })
            .collect(),
        metrics: (0..episodes)
            .map(|e| guarded(|| metrics_at(dir, e), "metrics_at", what))
            .collect(),
    }
}

/// Replay of a journal whose valid prefix holds `complete` streamed
/// episodes: each reads as it did intact, and no later one is read.
fn assert_replays_prefix(got: &Replayed, intact: &Replayed, complete: usize, what: &str) {
    for (e, (trace, metrics)) in got.traces.iter().zip(&got.metrics).enumerate() {
        if e < complete {
            assert_eq!(trace, &intact.traces[e], "{what}: episode {e}");
            assert_eq!(metrics, &intact.metrics[e], "{what}: episode {e}");
        } else {
            let missing = JournalError::MissingEpisode {
                episode: e as u32,
                complete: complete as u32,
            };
            assert_eq!(trace.as_ref().err(), Some(&missing), "{what}");
            assert_eq!(metrics.as_ref().err(), Some(&missing), "{what}");
        }
    }
}

#[test]
fn truncations_never_panic_and_recover_a_prefix() {
    for (tag, build) in TARGETS {
        truncations(tag, build);
    }
}

fn truncations(tag: &str, build: Build) {
    let target = tmpdir(&format!("trunc-target-{tag}"));
    build(&target);
    let full = read_journal(&target).unwrap();
    // The digest target streams nothing: replay refuses its episode 0.
    let episodes = full.stream.len().max(1) as u32;
    let intact = replay_must_not_panic(&target, episodes, "the intact journal");
    let mutant = tmpdir(&format!("trunc-mutant-{tag}"));

    let paths = segment_paths(&target);
    let last = paths.last().unwrap();
    let last_seg = paths.len() as u32 - 1;
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
        let what = format!("{tag}: truncation at {cut}/{last_len}");
        let strict = read_must_not_panic(&mutant, &what);
        let replayed = replay_must_not_panic(&mutant, episodes, &what);
        if cut == last_len {
            assert_eq!(strict.unwrap(), full.episodes.len(), "{what}");
            assert_eq!(replayed, intact, "{what}");
            continue;
        }
        let recovering = read_journal_recovering(&mutant);
        if cut < HEADER_LEN {
            // A later segment cut inside its header is a torn rotation:
            // the valid prefix ends where that segment starts.
            let stop = recovering.as_ref().map(|(_, stopped)| stopped);
            match stop {
                Ok(Some(JournalError::TruncatedRecord { recovery })) => {
                    assert_eq!((recovery.segment, recovery.offset), (last_seg, 0), "{what}")
                }
                other => panic!("{what}: expected a torn tail, got {other:?}"),
            }
        }
        if let Ok((contents, _)) = recovering {
            assert!(contents.episodes.len() <= full.episodes.len(), "{what}");
            // A cut is a torn tail, the end of what replay reads: its
            // index lists every complete episode, and only those.
            let entries = replayed.index.as_ref().map(|i| &i.entries);
            assert_eq!(entries, Ok(&contents.stream), "{what}");
            assert_replays_prefix(&replayed, &intact, contents.stream.len(), &what);
        }
    }
    fs::remove_dir_all(&target).unwrap();
    fs::remove_dir_all(&mutant).unwrap();
}

#[test]
fn bit_flips_never_panic_and_never_lie() {
    for (tag, build) in TARGETS {
        bit_flips(tag, build);
    }
}

fn bit_flips(tag: &str, build: Build) {
    let target = tmpdir(&format!("flip-target-{tag}"));
    build(&target);
    let baseline = read_journal(&target).unwrap();
    let episodes = baseline.stream.len().max(1) as u32;
    let intact = replay_must_not_panic(&target, episodes, "the intact journal");
    let mutant = tmpdir(&format!("flip-mutant-{tag}"));
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

        let what = format!(
            "{tag}: bit flip #{round} at {}:{byte}.{bit}",
            path.display()
        );
        let strict = read_must_not_panic(&mutant, &what);
        let replayed = replay_must_not_panic(&mutant, episodes, &what);
        // A flip may land in a header's reserved bytes (not covered by
        // any check — benign by design). If the strict read still
        // passes, it must have read the *same* journal, and replay must
        // read it as before; anything else means corruption went
        // undetected.
        if let Ok(n) = strict {
            assert_eq!(n, baseline.episodes.len(), "silent corruption: {what}");
            assert_eq!(
                read_journal(&mutant).unwrap().episodes,
                baseline.episodes,
                "silent corruption: {what}"
            );
            assert_eq!(replayed, intact, "silent corruption: {what}");
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
    build_target(&gap, SEED);
    fs::remove_file(segment_paths(&gap).remove(0)).unwrap();
    assert!(matches!(
        read_journal(&gap),
        Err(JournalError::MissingSegment { expected: 0, .. })
    ));

    // Segments from two different campaigns mixed together.
    let a = tmpdir("mix-a");
    build_target(&a, SEED);
    let b = tmpdir("mix-b");
    build_target(&b, 0xD1FF);
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

/// A whole chunk frame cut out of the stream — every frame left intact
/// — is a sequence gap, reported at the frame that follows the cut,
/// before the stream's digest chain is even consulted.
#[test]
fn a_dropped_chunk_frame_is_a_sequence_gap_at_its_offset() {
    let dir = tmpdir("dropped-chunk");
    build_streamed_target(&dir);
    let seg0 = &segment_paths(&dir)[0];
    // Episode 0's first event chunk `k > 0` whose next frame is an
    // event chunk too (a decision chunk would find the chain broken).
    let events = frame_offsets(seg0, journal::record::KIND_EVENT_CHUNK);
    let k = (1..events.len() - 1)
        .find(|&k| events[k].0 + 5 + events[k].1 as u64 + 8 == events[k + 1].0)
        .expect("two adjacent event chunks");
    let (at, len) = events[k];
    let mut bytes = fs::read(seg0).unwrap();
    bytes.drain(at as usize..at as usize + 5 + len + 8);
    fs::write(seg0, &bytes).unwrap();
    match read_journal(&dir) {
        Err(JournalError::Inconsistent { recovery, why }) => {
            assert_eq!((recovery.segment, recovery.offset), (0, at), "{why}");
            let gap = format!("got {}, expected {k}", k + 1);
            assert_eq!(why, format!("event chunk sequence gap in episode 0: {gap}"));
        }
        other => panic!("expected a sequence gap, got {other:?}"),
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovery_point_names_the_exact_cut() {
    let dir = tmpdir("exact");
    build_target(&dir, SEED);
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
    assert_eq!(recovery.records, 1 + contents.episodes.len() as u64);
    fs::remove_dir_all(&dir).unwrap();
}
