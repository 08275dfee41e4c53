//! Time-travel replay acceptance: a streamed journal must reconstruct
//! any episode's Chrome trace **byte-identically** to what exporting a
//! live traced run gives, materialize the exact metrics registry at any
//! episode boundary, keep the in-kernel event buffer bounded (the
//! `journal.stream.hwm` gauge), survive crash-resume, and localize a
//! planted divergence to its (episode, ticket) window offline.

use std::fs;
use std::path::{Path, PathBuf};

use journal::{
    diff_runs, load_index, metrics_at, read_journal, trace_json_for, Campaign, JournalError,
    SoakConfig,
};

fn tmpdir(tag: &str, salt: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "journal-replay-{tag}-{salt}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn base_cfg() -> SoakConfig {
    SoakConfig {
        campaign_seed: 0xC0FF_EE00,
        episodes: 2,
        ranks: 3,
        messages_per_episode: 4,
        payload: 64,
        snapshot_every: 1,
        record_decisions: true,
        stream_chunk: 8,
        ..SoakConfig::default()
    }
}

fn run_campaign(dir: &Path, cfg: SoakConfig) -> Campaign {
    let mut c = Campaign::create(dir, cfg).unwrap();
    c.run_to_completion().unwrap();
    c
}

/// The tentpole acceptance: reconstructed trace == live trace, byte
/// for byte; the metrics fold cross-checks against every episode's
/// recorded digest; the seekable index covers every episode.
#[test]
fn replayed_trace_is_byte_identical_to_live() {
    // CRC-64 and length of the final episode's Chrome trace as a live
    // traced run of this campaign exported it from memory, read when
    // the journal still kept that in-memory export beside the stream
    // (format version 3, `stream_chunk` 0, same seed and shape).
    const LIVE_CRC: u64 = 0x9d8d_c7c0_4b29_8e9f;
    const LIVE_LEN: usize = 36_662;

    // The episode's events exist only as journal chunks. Stepped one
    // episode at a time: each world's report hands its recorder back,
    // the recorder hands the writer back, and the campaign appends the
    // episode record and (snapshot_every = 1) the index before the
    // next episode runs.
    let stream_dir = tmpdir("stream", 1);
    let mut streamed = Campaign::create(&stream_dir, base_cfg()).unwrap();
    for done in 1..=2 {
        streamed.step().unwrap();
        assert_eq!(read_journal(&stream_dir).unwrap().episodes.len(), done);
        assert_eq!(load_index(&stream_dir).unwrap().entries.len(), done);
    }

    // Byte-identity of the offline reconstruction.
    let replayed = trace_json_for(&stream_dir, 1, None, None).unwrap();
    let got = (journal::crc64(replayed.as_bytes()), replayed.len());
    assert_eq!(got, (LIVE_CRC, LIVE_LEN));

    // A ticket-window slice is a strict subset of the full export.
    let window = trace_json_for(&stream_dir, 1, Some(2), Some(10)).unwrap();
    assert!(window.len() < replayed.len());

    // The index reaches every episode, and its entries are exactly the
    // summaries a full validated read reconstructs.
    let idx = load_index(&stream_dir).unwrap();
    let contents = read_journal(&stream_dir).unwrap();
    assert_eq!(idx.entries, contents.stream);
    assert_eq!(idx.entries.len(), 2);
    assert!(idx.entries.iter().all(|s| s.events > 0));
    assert!(idx.entries.iter().all(|s| s.decisions > 0));

    // Metrics at each boundary fold cleanly and cross-check against
    // the episode records' digests (metrics_at errors on any drift).
    for ep in 0..2 {
        let snap = metrics_at(&stream_dir, ep).unwrap();
        assert!(snap.gauges.contains_key("journal.stream.hwm"));
    }

    fs::remove_dir_all(&stream_dir).unwrap();
}

/// Bounded memory: with a small chunk the high-water mark of buffered
/// events+decisions stays flat as the episode grows 4×; with an
/// effectively-infinite chunk (the "no streaming" comparison arm, sink
/// installed but never draining mid-episode) it grows linearly.
#[test]
fn stream_hwm_is_bounded_by_chunk_not_episode_size() {
    let hwm = |msgs: u32, chunk: u32, salt: u64| -> u64 {
        let dir = tmpdir("hwm", salt);
        let cfg = SoakConfig {
            episodes: 1,
            messages_per_episode: msgs,
            stream_chunk: chunk,
            ..base_cfg()
        };
        run_campaign(&dir, cfg);
        let snap = metrics_at(&dir, 0).unwrap();
        let hwm = snap.gauges["journal.stream.hwm"];
        fs::remove_dir_all(&dir).unwrap();
        hwm
    };

    let small_4 = hwm(4, 8, 1);
    let small_16 = hwm(16, 8, 2);
    let big_4 = hwm(4, 1_000_000_000, 3);
    let big_16 = hwm(16, 1_000_000_000, 4);

    // Flat under streaming: the mark is set by the drain threshold,
    // not the episode's message count.
    assert_eq!(
        small_4, small_16,
        "streamed hwm must not grow with episode size"
    );
    // The gauge is in bytes; with an 8-entry chunk both buffers
    // (events + decisions) together stay under ~2 chunks of entries.
    let entry = std::mem::size_of::<marcel::TraceEvent>() as u64;
    assert!(
        small_4 <= 2 * 8 * entry,
        "streamed hwm {small_4} bytes exceeds the chunk bound ({})",
        2 * 8 * entry
    );
    // Linear without draining: 4× the messages, ≥ 2× the buffered mark.
    assert!(
        big_16 >= 2 * big_4,
        "non-draining hwm should grow with episode size ({big_4} -> {big_16})"
    );
    assert!(big_4 > small_4);
}

/// Crash-resume with streaming on: the resumed journal must replay the
/// same bytes as an uninterrupted baseline, exercising the chunk
/// seq-0 restart rule (orphan chunks of the interrupted episode stay
/// in the valid prefix; the deterministic re-run supersedes them).
#[test]
fn streamed_campaign_survives_crash_resume() {
    let cfg = base_cfg();

    let base_dir = tmpdir("crashbase", 1);
    run_campaign(&base_dir, cfg.clone());
    let base_trace = trace_json_for(&base_dir, 1, None, None).unwrap();

    for torn in [false, true] {
        let crash_dir = tmpdir("crash", torn as u64);
        let mut crashed = Campaign::create(&crash_dir, cfg.clone()).unwrap();
        crashed.step().unwrap();
        if torn {
            crashed.tear_tail().unwrap();
        } else {
            drop(crashed);
        }
        let mut resumed = Campaign::resume(&crash_dir, false).unwrap();
        resumed.run_to_completion().unwrap();

        let a = read_journal(&base_dir).unwrap();
        let b = read_journal(&crash_dir).unwrap();
        assert_eq!(a.episodes, b.episodes, "torn={torn}");
        assert_eq!(a.stream, b.stream, "torn={torn}");
        assert_eq!(
            trace_json_for(&crash_dir, 1, None, None).unwrap(),
            base_trace,
            "torn={torn}"
        );
        assert_eq!(
            metrics_at(&crash_dir, 1).unwrap(),
            metrics_at(&base_dir, 1).unwrap()
        );
        fs::remove_dir_all(&crash_dir).unwrap();
    }
    fs::remove_dir_all(&base_dir).unwrap();
}

/// `diff_runs` localizes the divergence a lossier twin plants (200/1000
/// loss against the default 50) to episode 1, ticket 67, and
/// reconstructs the trace window around it from both journals' chunk
/// streams — the episode records themselves carry no decisions, so
/// only replay can find it.
#[test]
fn diff_localizes_planted_loss_divergence() {
    let cfg = base_cfg();
    let twin = SoakConfig {
        loss_milli: 200,
        ..cfg.clone()
    };

    let dir_a = tmpdir("diff-a", 1);
    let dir_b = tmpdir("diff-b", 1);
    run_campaign(&dir_a, cfg);
    run_campaign(&dir_b, twin);

    let diff = diff_runs(&dir_a, &dir_b, 2)
        .unwrap()
        .expect("divergence planted");
    assert_eq!(diff.episode, 1);
    assert_eq!(diff.ticket, Some(67));
    assert!(diff.detail.starts_with("decision (tid "), "{}", diff.detail);
    let window = diff.window.expect("a ticket has a window");
    assert!(window.first_event_ticket < window.end_event_ticket);

    let rendered = diff.render();
    assert!(
        rendered.contains("first divergence at episode 1, ticket 67"),
        "{rendered}"
    );
    assert!(!diff.trace_a.is_empty() && !diff.trace_b.is_empty());

    // Identical runs have nothing to report.
    let dir_c = tmpdir("diff-c", 1);
    run_campaign(&dir_c, base_cfg());
    assert_eq!(diff_runs(&dir_a, &dir_c, 2).unwrap(), None);

    fs::remove_dir_all(&dir_a).unwrap();
    fs::remove_dir_all(&dir_b).unwrap();
    fs::remove_dir_all(&dir_c).unwrap();
}

/// The journal's on-disk bytes are pinned: the CRC-64 of every segment
/// of two small campaigns — one streamed with its decisions, one
/// recording digests only — must equal the values recorded when the
/// format was fixed. Any codec change that moves a byte fails here.
#[test]
fn segment_bytes_are_pinned() {
    let streamed = SoakConfig {
        messages_per_episode: 64,
        ..base_cfg()
    };
    let digests = SoakConfig {
        record_decisions: false,
        stream_chunk: 0,
        ..base_cfg()
    };
    let cases: [(&str, SoakConfig, &[u64]); 2] = [
        (
            "pin-streamed",
            streamed,
            &[
                0xd6b2e619339dc573,
                0xc32eda49fe2864bb,
                0x0bcd984b35e177a4,
                0x192a44670faafa0c,
            ],
        ),
        ("pin-digests", digests, &[0x7374733f9a7bcf4d]),
    ];
    for (tag, cfg, pinned) in cases {
        let dir = tmpdir(tag, 0);
        run_campaign(&dir, cfg);
        let crcs: Vec<u64> = (0..)
            .map_while(|i| fs::read(dir.join(format!("seg-{i:06}.jrnl"))).ok())
            .map(|bytes| journal::crc64(&bytes))
            .collect();
        assert_eq!(crcs, pinned, "{tag}: segment bytes moved");
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// A journal whose `seg-000001.jrnl` comes from another campaign of the
/// same shape: its frames are well formed, but its header carries the
/// other campaign's fingerprint. Every replay read that crosses it
/// refuses it with a `CampaignMismatch` naming the segment, as the full
/// reader does; a read that does not cross it is unchanged.
#[test]
fn a_foreign_later_segment_is_refused_by_every_replay_read() {
    // Two segments: segment 1 is the last, so every read meets it.
    let last = SoakConfig {
        episodes: 6,
        messages_per_episode: 8,
        snapshot_every: 2,
        ..base_cfg()
    };
    foreign_segment("last", last, 2, 0..6);
    // `ci/behaviour.sh`'s soak shape: four segments, and only episodes
    // 1 to 3 have frames in segment 1.
    let middle = SoakConfig {
        campaign_seed: SoakConfig::default().campaign_seed,
        episodes: 6,
        ranks: 4,
        messages_per_episode: 16,
        payload: 128,
        snapshot_every: 2,
        ..base_cfg()
    };
    foreign_segment("middle", middle, 4, 1..4);
}

fn foreign_segment(tag: &str, cfg: SoakConfig, segments: usize, crossing: std::ops::Range<u32>) {
    let dir = tmpdir(&format!("foreign-{tag}"), 0);
    let other = tmpdir(&format!("foreign-{tag}"), 1);
    run_campaign(&dir, cfg.clone());
    let other_cfg = SoakConfig {
        campaign_seed: cfg.campaign_seed + 1,
        ..cfg.clone()
    };
    run_campaign(&other, other_cfg);
    assert_eq!(fs::read_dir(&dir).unwrap().count(), segments, "{tag}");
    let clean_index = load_index(&dir).unwrap();
    let clean: Vec<String> = (0..cfg.episodes)
        .map(|ep| trace_json_for(&dir, ep, None, None).unwrap())
        .collect();
    let seg = "seg-000001.jrnl";
    fs::copy(other.join(seg), dir.join(seg)).unwrap();

    let refused = |what: &str, err: Option<JournalError>| match err {
        Some(JournalError::CampaignMismatch { ref path, .. }) if path.ends_with(seg) => {
            let text = err.unwrap().to_string();
            assert!(
                !text.contains("segment 0 offset 0 (0 valid records"),
                "{text}"
            );
        }
        other => panic!("{tag}: {what}: expected CampaignMismatch on {seg}, got {other:?}"),
    };
    refused("read_journal", read_journal(&dir).err());
    refused("diff_runs", diff_runs(&dir, &dir, 2).err());
    match segments {
        2 => refused("load_index", load_index(&dir).err()),
        _ => assert_eq!(load_index(&dir).unwrap(), clean_index, "{tag}"),
    }
    for ep in 0..cfg.episodes {
        let what = format!("episode {ep}");
        refused(&what, metrics_at(&dir, ep).err());
        let trace = trace_json_for(&dir, ep, None, None);
        match crossing.contains(&ep) {
            true => refused(&what, trace.err()),
            false => assert_eq!(trace.unwrap(), clean[ep as usize], "{tag}: {what}"),
        }
    }
    fs::remove_dir_all(&dir).unwrap();
    fs::remove_dir_all(&other).unwrap();
}
