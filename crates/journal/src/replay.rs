//! Time-travel replay: reconstruct the world view of any recorded
//! episode — or any ticket window inside it — from a streamed journal,
//! offline (DESIGN §12).
//!
//! Replay is *reconstruction, not re-execution*: nothing here runs the
//! simulator. The event chunks already hold the full typed trace in
//! commit-ticket order, the metrics deltas fold to the exact registry
//! snapshot at every episode boundary, and the decision chunks carry
//! the `events_before` cursor that maps any scheduling ticket to its
//! surrounding event-ticket window. Because the chunk codec is
//! lossless and [`marcel::chrome_trace_json`] is a pure function of
//! the events and thread table, a replayed Chrome trace is
//! **byte-identical** to what exporting a live traced run of the same
//! episode gives (`tests/journal_replay.rs` pins it against such an
//! export).
//!
//! Seekability: [`load_index`] finds the newest cumulative
//! [`IndexRec`] by scanning only the last segment (every durability
//! point rewrites the index right after its fsync), falling back to a
//! full validated read.
//! From the index, chunk reads start at the episode's recorded
//! `(segment, offset)` instead of scanning the campaign, parsing frames
//! with the store's one frame scanner.

use std::path::Path;

use marcel::{chrome_trace_json, MetricsSnapshot, ThreadMeta, TraceEvent};

use crate::codec::DecodeError;
use crate::crc::crc64;
use crate::error::{JournalError, RecoveryPoint};
use crate::record::{
    first_divergence, DecisionRec, Divergence, EpisodeRecord, SoakConfig, KIND_DECISION_CHUNK,
    KIND_EVENT_CHUNK, KIND_INDEX,
};
use crate::store::{
    check_header, list_segments, read_journal, read_journal_recovering, read_segment, scan_frame,
    JournalContents, HEADER_LEN,
};
use crate::stream::{DecisionChunkRec, EventChunkRec, IndexRec, StreamSummary};

fn inconsistent(why: String) -> JournalError {
    JournalError::inconsistent(&RecoveryPoint::default(), why)
}

fn undecodable(e: DecodeError) -> JournalError {
    JournalError::decode(&RecoveryPoint::default(), e)
}

/// Iterate validated frames from `(segment, offset)` to the end of the
/// journal, calling `f(kind, payload)` until it returns `false`. A
/// segment header of another format version and frames that fail the
/// checksum are typed errors; a torn tail ends the walk silently (the
/// valid prefix simply ends there).
fn walk_frames(
    dir: &Path,
    from: (u32, u64),
    mut f: impl FnMut(u8, &[u8]) -> Result<bool, JournalError>,
) -> Result<(), JournalError> {
    let segments = list_segments(dir)?;
    let last = *segments.last().expect("list_segments is non-empty");
    for seg in from.0..=last {
        let (path, buf) = read_segment(dir, seg)?;
        match check_header(&path, &buf, seg, &None) {
            Err(JournalError::TruncatedHeader { .. }) if seg > 0 => return Ok(()),
            checked => checked?,
        }
        let start = if seg == from.0 { from.1 } else { 0 };
        let mut pos = start.max(HEADER_LEN) as usize;
        while pos < buf.len() {
            let recovery = RecoveryPoint {
                segment: seg,
                offset: pos as u64,
                ..RecoveryPoint::default()
            };
            let frame = match scan_frame(&buf, pos, &recovery) {
                Ok(frame) => frame,
                // A torn tail: the valid prefix ends here.
                Err(JournalError::TruncatedRecord { .. }) => return Ok(()),
                Err(e) => return Err(e),
            };
            if !f(frame.kind, frame.payload)? {
                return Ok(());
            }
            pos = frame.end;
        }
    }
    Ok(())
}

/// Load the newest seekable stream index: scan only the last segment
/// (the cumulative index is rewritten there after every snapshot and at
/// completion); when that segment holds none — e.g. a crash landed
/// mid-episode after a rotation — fall back to a full validated read,
/// whose accumulated summaries *are* the index.
pub fn load_index(dir: &Path) -> Result<IndexRec, JournalError> {
    let segments = list_segments(dir)?;
    let last = *segments.last().expect("list_segments is non-empty");
    let mut newest: Option<IndexRec> = None;
    let walked = walk_frames(dir, (last, HEADER_LEN), |kind, payload| {
        if kind == KIND_INDEX {
            newest = Some(IndexRec::decode(payload).map_err(undecodable)?);
        }
        Ok(true)
    });
    match (walked, newest) {
        (Ok(()), Some(idx)) => Ok(idx),
        // No index in the last segment (or it was damaged): the full
        // reader revalidates everything and rebuilds the summaries.
        _ => {
            let contents = read_journal(dir)?;
            Ok(contents.index.unwrap_or(IndexRec {
                entries: contents.stream,
            }))
        }
    }
}

fn summary_for(index: &IndexRec, episode: u32) -> Result<&StreamSummary, JournalError> {
    index
        .entries
        .iter()
        .find(|s| s.episode == episode)
        .ok_or_else(|| {
            inconsistent(format!(
                "episode {episode} is not in the stream index ({} streamed episodes)",
                index.entries.len()
            ))
        })
}

/// Read back one streamed episode's full event trace and thread table,
/// walking only the frames from the episode's first event chunk to its
/// `fin` chunk.
pub fn read_episode_events(
    dir: &Path,
    summary: &StreamSummary,
) -> Result<(Vec<TraceEvent>, Vec<ThreadMeta>), JournalError> {
    let from = summary.event_pos.ok_or_else(|| {
        inconsistent(format!(
            "episode {} has no recorded event chunks",
            summary.episode
        ))
    })?;
    let mut events: Vec<TraceEvent> = Vec::new();
    let mut threads: Vec<ThreadMeta> = Vec::new();
    let mut fin = false;
    walk_frames(dir, from, |kind, payload| {
        if kind != KIND_EVENT_CHUNK {
            return Ok(true);
        }
        let chunk = EventChunkRec::decode(payload).map_err(undecodable)?;
        if chunk.episode != summary.episode {
            return Err(inconsistent(format!(
                "event chunk for episode {} inside episode {}'s stream",
                chunk.episode, summary.episode
            )));
        }
        events.extend(chunk.events);
        if chunk.fin {
            threads = chunk.threads;
            fin = true;
            return Ok(false);
        }
        Ok(true)
    })?;
    if !fin {
        return Err(inconsistent(format!(
            "episode {}'s event stream ends without a fin chunk",
            summary.episode
        )));
    }
    if events.len() as u64 != summary.events {
        return Err(inconsistent(format!(
            "episode {}: read {} events, index says {}",
            summary.episode,
            events.len(),
            summary.events
        )));
    }
    Ok((events, threads))
}

/// Read back one streamed episode's decision stream.
pub fn read_episode_decisions(
    dir: &Path,
    summary: &StreamSummary,
) -> Result<Vec<DecisionRec>, JournalError> {
    let Some(from) = summary.decision_pos else {
        return Ok(Vec::new());
    };
    let mut decisions: Vec<DecisionRec> = Vec::new();
    walk_frames(dir, from, |kind, payload| {
        if kind != KIND_DECISION_CHUNK {
            return Ok(true);
        }
        let chunk = DecisionChunkRec::decode(payload).map_err(undecodable)?;
        if chunk.episode != summary.episode {
            return Err(inconsistent(format!(
                "decision chunk for episode {} inside episode {}'s stream",
                chunk.episode, summary.episode
            )));
        }
        decisions.extend(chunk.decisions);
        Ok(decisions.len() < summary.decisions as usize)
    })?;
    if decisions.len() as u64 != summary.decisions {
        return Err(inconsistent(format!(
            "episode {}: read {} decisions, index says {}",
            summary.episode,
            decisions.len(),
            summary.decisions
        )));
    }
    Ok(decisions)
}

/// Reconstruct the Chrome trace JSON of one streamed episode,
/// optionally sliced to the half-open event-ticket window
/// `[from_ticket, to_ticket)` (pass `None`/`None` for the whole
/// episode). The full reconstruction is byte-identical to the JSON a
/// live traced run of the same episode exports.
pub fn trace_json_for(
    dir: &Path,
    episode: u32,
    from_ticket: Option<u64>,
    to_ticket: Option<u64>,
) -> Result<String, JournalError> {
    let index = load_index(dir)?;
    let summary = summary_for(&index, episode)?;
    let (mut events, threads) = read_episode_events(dir, summary)?;
    if from_ticket.is_some() || to_ticket.is_some() {
        let lo = from_ticket.unwrap_or(0);
        let hi = to_ticket.unwrap_or(u64::MAX);
        events.retain(|e| e.ticket >= lo && e.ticket < hi);
    }
    Ok(chrome_trace_json(&events, &threads))
}

/// Materialize the metrics registry snapshot at episode boundary
/// `episode` (after that episode finished) by folding the recorded
/// deltas `0..=episode`, and cross-check it against the episode
/// record's `metrics_digest` — a fold that drifts from what the live
/// registry held is a hard error, not a silently wrong answer.
pub fn metrics_at(dir: &Path, episode: u32) -> Result<MetricsSnapshot, JournalError> {
    let contents = read_journal(dir)?;
    let upto = episode as usize;
    if upto >= contents.metrics_deltas.len() {
        return Err(inconsistent(format!(
            "episode {episode} has no metrics delta ({} recorded)",
            contents.metrics_deltas.len()
        )));
    }
    let mut snapshot = MetricsSnapshot::default();
    for delta in &contents.metrics_deltas[..=upto] {
        delta
            .apply(&mut snapshot)
            .map_err(|why| inconsistent(format!("episode {}: {why}", delta.episode)))?;
    }
    let digest = crc64(snapshot.to_string().as_bytes());
    let expect = contents.episodes[upto].metrics_digest;
    if digest != expect {
        return Err(inconsistent(format!(
            "episode {episode}: folded metrics digest {digest:#018x} \
             does not match the recorded {expect:#018x}"
        )));
    }
    Ok(snapshot)
}

/// The event-ticket window replay slices around a divergent decision:
/// `[first_event_ticket, end_event_ticket)` in the episode's trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TicketWindow {
    pub first_event_ticket: u64,
    pub end_event_ticket: u64,
}

/// Where two journals first part ways: the first divergent episode,
/// and — when both runs recorded that episode's decisions and they
/// differ — the first divergent ticket, with the reconstructed Chrome
/// traces of both runs sliced to the window around it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayDiff {
    pub episode: u32,
    /// First divergent committer ticket; `None` when the episode's
    /// decision streams agree or were not recorded.
    pub ticket: Option<u64>,
    /// What differs, in words: the decision at `ticket`, or else every
    /// differing field of the two episode records.
    pub detail: String,
    /// The event window around `ticket`; `None` without a ticket.
    pub window: Option<TicketWindow>,
    /// Chrome trace JSON of run A, sliced to `window` (empty without one).
    pub trace_a: String,
    /// Chrome trace JSON of run B, sliced to `window` (empty without one).
    pub trace_b: String,
}

impl ReplayDiff {
    /// Render the human-facing report: the divergence line, then the
    /// two window traces side by side, differing lines marked.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let ticket = self.ticket.map(|t| format!(", ticket {t}"));
        let _ = writeln!(
            out,
            "first divergence at episode {}{}: {}",
            self.episode,
            ticket.unwrap_or_default(),
            self.detail
        );
        let Some(window) = self.window else {
            return out;
        };
        let _ = writeln!(
            out,
            "event-ticket window [{}, {}):",
            window.first_event_ticket, window.end_event_ticket
        );
        let a: Vec<&str> = self.trace_a.lines().collect();
        let b: Vec<&str> = self.trace_b.lines().collect();
        let width = a.iter().map(|l| l.len()).max().unwrap_or(0).clamp(16, 100);
        let _ = writeln!(out, "{:<width$} | run B", "run A", width = width);
        for i in 0..a.len().max(b.len()) {
            let (la, lb) = (
                a.get(i).copied().unwrap_or(""),
                b.get(i).copied().unwrap_or(""),
            );
            let mark = if la == lb { ' ' } else { '≠' };
            let la = if la.len() > width { &la[..width] } else { la };
            let _ = writeln!(out, "{la:<width$} {mark} {lb}", width = width);
        }
        out
    }
}

/// Two campaigns are comparable when every config field agrees except
/// the fault rates. A twin at a higher `loss_milli` keeps every packet
/// the base run keeps (a packet is lost when its hash falls below the
/// rate), so the two agree up to the first packet whose fate flips:
/// that is the divergence the diff is meant to find.
fn comparable(a: &SoakConfig, b: &SoakConfig) -> Result<(), JournalError> {
    let strip = |c: &SoakConfig| SoakConfig {
        loss_milli: 0,
        ack_loss_milli: 0,
        ..c.clone()
    };
    if strip(a) != strip(b) {
        return Err(JournalError::Incomparable {
            why: format!(
                "campaign configs disagree (fingerprints {:#x} vs {:#x})",
                a.fingerprint(),
                b.fingerprint()
            ),
        });
    }
    Ok(())
}

/// The first episode of two journals' common prefix whose chained
/// digest differs, found by binary search: the chain makes the agreeing
/// episodes a prefix, and episodes before `lo` agree.
fn first_divergent_episode(a: &[EpisodeRecord], b: &[EpisodeRecord]) -> Option<usize> {
    let n = a.len().min(b.len());
    let (mut lo, mut hi) = (0, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if a[mid].cum_digest == b[mid].cum_digest {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    (lo < n).then_some(lo)
}

/// Decision stream of episode `episode` in a journal, read from its
/// chunks (empty when it recorded none).
fn decision_stream(
    dir: &Path,
    contents: &JournalContents,
    episode: usize,
) -> Result<Vec<DecisionRec>, JournalError> {
    match contents.stream.iter().find(|s| s.episode == episode as u32) {
        Some(summary) => read_episode_decisions(dir, summary),
        None => Ok(Vec::new()),
    }
}

/// Name the differing fields of two episode records.
fn differing_fields(x: &EpisodeRecord, y: &EpisodeRecord) -> String {
    let fields: Vec<String> = [
        ("episode_seed", x.episode_seed, y.episode_seed),
        ("end_time_ns", x.end_time_ns, y.end_time_ns),
        ("result_digest", x.result_digest, y.result_digest),
        ("metrics_digest", x.metrics_digest, y.metrics_digest),
        ("trace_digest", x.trace_digest, y.trace_digest),
        ("decisions_digest", x.decisions_digest, y.decisions_digest),
        ("wire_messages", x.wire_messages, y.wire_messages),
        ("wire_bytes", x.wire_bytes, y.wire_bytes),
        ("failovers", x.failovers, y.failovers),
        ("rndv_reissues", x.rndv_reissues, y.rndv_reissues),
    ]
    .into_iter()
    .filter(|(_, a, b)| a != b)
    .map(|(name, a, b)| format!("{name} ({a:#x} vs {b:#x})"))
    .collect();
    if fields.is_empty() {
        return "episode digests differ but no recorded field does (fault counters?)".into();
    }
    fields.join("; ")
}

/// Find the first episode where two journals part ways and say why.
///
/// Divergence is monotone under the digest chain, so the first
/// divergent episode is a binary search over the episode records. When
/// both runs recorded that episode's decisions and they differ, the
/// report names the first divergent ticket and slices both runs' traces
/// to the event window `radius` decisions on each side of it; otherwise
/// it names the differing record fields. Returns `Ok(None)` when the
/// common prefix agrees. Reads are best-effort: a torn or damaged tail
/// limits the comparison to the valid prefixes (the journal of a
/// crashed run is exactly when this matters).
pub fn diff_runs(
    dir_a: &Path,
    dir_b: &Path,
    radius: usize,
) -> Result<Option<ReplayDiff>, JournalError> {
    let (a, _) = read_journal_recovering(dir_a)?;
    let (b, _) = read_journal_recovering(dir_b)?;
    comparable(&a.config, &b.config)?;
    if a.episodes.is_empty() || b.episodes.is_empty() {
        return Err(JournalError::Incomparable {
            why: "one journal has no complete episodes".into(),
        });
    }
    // Episodes before the first chain divergence agree on every digest,
    // decisions and (streamed) `events_before` bridges included.
    let Some(ep) = first_divergent_episode(&a.episodes, &b.episodes) else {
        return Ok(None);
    };
    let da = decision_stream(dir_a, &a, ep)?;
    let db = decision_stream(dir_b, &b, ep)?;
    let Some(Divergence {
        index: i,
        ticket,
        detail,
    }) = first_divergence(&da, &db)
    else {
        return Ok(Some(ReplayDiff {
            episode: ep as u32,
            ticket: None,
            detail: differing_fields(&a.episodes[ep], &b.episodes[ep]),
            window: None,
            trace_a: String::new(),
            trace_b: String::new(),
        }));
    };
    // The window: `events_before` of the decision `radius` before the
    // divergence opens it; the decision `radius + 1` after closes it
    // (end of episode when the stream ends first).
    let longest = if da.len() >= db.len() { &da } else { &db };
    let lo = longest[i.saturating_sub(radius).min(longest.len() - 1)].events_before;
    let hi = longest
        .get(i + radius + 1)
        .map(|d| d.events_before)
        .unwrap_or(u64::MAX);
    let slice = |dir: &Path, contents: &JournalContents| {
        match contents.stream.iter().find(|s| s.episode == ep as u32) {
            Some(summary) => {
                let (mut events, threads) = read_episode_events(dir, summary)?;
                events.retain(|e| e.ticket >= lo && e.ticket < hi);
                Ok::<String, JournalError>(chrome_trace_json(&events, &threads))
            }
            // No stream for the episode: no events to reconstruct.
            None => Ok(chrome_trace_json(&[], &[])),
        }
    };
    Ok(Some(ReplayDiff {
        episode: ep as u32,
        ticket: Some(ticket),
        detail,
        window: Some(TicketWindow {
            first_event_ticket: lo,
            end_event_ticket: hi,
        }),
        trace_a: slice(dir_a, &a)?,
        trace_b: slice(dir_b, &b)?,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Record;
    use crate::soak::Campaign;
    use crate::store::{chain, JournalWriter};
    use crate::stream::StreamRecorder;
    use marcel::{Decision, EventSink, VirtualTime};
    use std::fs;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("journal-diff-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn small() -> SoakConfig {
        SoakConfig {
            episodes: 2,
            ranks: 3,
            messages_per_episode: 4,
            payload: 64,
            ..SoakConfig::default()
        }
    }

    /// Run a baseline campaign and its twin at 80/1000 loss to
    /// completion, diff them, and remove both journals.
    fn diff_lossier(tag: &str, cfg: SoakConfig) -> ReplayDiff {
        let dir_a = tmpdir(&format!("{tag}-base"));
        Campaign::create(&dir_a, cfg.clone())
            .unwrap()
            .run_to_completion()
            .unwrap();
        let dir_b = tmpdir(&format!("{tag}-lossier"));
        Campaign::create(
            &dir_b,
            SoakConfig {
                loss_milli: 80,
                ..cfg
            },
        )
        .unwrap()
        .run_to_completion()
        .unwrap();
        let diff = diff_runs(&dir_a, &dir_b, 2).unwrap().expect("planted");
        fs::remove_dir_all(&dir_a).unwrap();
        fs::remove_dir_all(&dir_b).unwrap();
        diff
    }

    /// End to end on real campaigns: a baseline and its lossier twin
    /// first diverge at one pinned (episode, ticket), found in their
    /// streamed decision chunks.
    #[test]
    fn streamed_lossier_twin_diverges_at_a_pinned_ticket() {
        let diff = diff_lossier(
            "streamed",
            SoakConfig {
                record_decisions: true,
                stream_chunk: 64,
                ..small()
            },
        );
        assert_eq!((diff.episode, diff.ticket), (1, Some(21)));
        assert!(diff.detail.starts_with("decision (tid "), "{}", diff.detail);
        assert!(diff.window.is_some());
    }

    /// Without recorded decisions the lossier twin shows only in the
    /// record's digests and counts: the diff still names the episode,
    /// with the differing fields and no ticket.
    #[test]
    fn digest_only_divergence_names_its_fields() {
        let diff = diff_lossier("digest", small());
        assert_eq!((diff.episode, diff.ticket, diff.window), (1, None, None));
        assert!(diff.detail.contains("metrics_digest"), "{}", diff.detail);
        assert!(!diff.detail.contains("result_digest"), "{}", diff.detail);
        assert_eq!(
            diff.render(),
            format!("first divergence at episode 1: {}\n", diff.detail)
        );
    }

    /// An episode record closing a stream whose chain is `trace` and
    /// decision digest `decisions` (both 0 without a stream).
    fn synthetic(index: u32, cum: u64, trace: u64, decisions: u64) -> EpisodeRecord {
        let mut ep = EpisodeRecord {
            index,
            episode_seed: 0x1000 + index as u64,
            end_time_ns: 10,
            result_digest: 1,
            metrics_digest: 2,
            trace_digest: trace,
            decisions_digest: decisions,
            faults: Default::default(),
            failovers: 0,
            rndv_reissues: 0,
            wire_messages: 5,
            wire_bytes: 320,
            cum_digest: 0,
        };
        ep.cum_digest = chain(cum, ep.own_digest());
        ep
    }

    /// Write a streamed campaign of `cfg.episodes` synthetic episodes,
    /// episode `i` recording `decisions(i)`.
    fn write_decisions(dir: &Path, cfg: &SoakConfig, decisions: impl Fn(u32) -> Vec<Decision>) {
        let metrics = MetricsSnapshot::default();
        let mut w = JournalWriter::create(dir, cfg).unwrap();
        let mut cum = 0;
        for i in 0..cfg.episodes {
            let mut recorder = StreamRecorder::new(w, i);
            recorder.decisions(&decisions(i));
            let (writer, fin) = recorder.finish(Vec::new(), &metrics, &metrics);
            let fin = fin.unwrap();
            let ep = synthetic(i, cum, fin.cum, fin.decisions_digest);
            cum = ep.cum_digest;
            w = writer;
            w.append(&Record::Episode(ep)).unwrap();
        }
    }

    fn streamed(episodes: u32) -> SoakConfig {
        SoakConfig {
            episodes,
            record_decisions: true,
            stream_chunk: 8,
            ..SoakConfig::default()
        }
    }

    /// Decision `t` of a synthetic stream: due at `7 t`, one nanosecond
    /// later when `late`, after `5 t` trace events.
    fn d(t: u64, late: bool) -> Decision {
        Decision {
            ticket: t,
            tid: 1,
            at: VirtualTime(7 * t + late as u64),
            events_before: 5 * t,
        }
    }

    #[test]
    fn binary_search_finds_a_mid_campaign_divergence() {
        let cfg = streamed(16);
        let write = |dir: &Path, diverge_at: u32| {
            write_decisions(dir, &cfg, |i| {
                vec![d(0, false), d(1, i >= diverge_at), d(2, false)]
            })
        };
        let dir_a = tmpdir("mid-a");
        let dir_b = tmpdir("mid-b");
        write(&dir_a, u32::MAX);
        write(&dir_b, 11);
        read_journal(&dir_a).unwrap();
        let diff = diff_runs(&dir_a, &dir_b, 2).unwrap().expect("planted");
        assert_eq!((diff.episode, diff.ticket), (11, Some(1)));
        fs::remove_dir_all(&dir_a).unwrap();
        fs::remove_dir_all(&dir_b).unwrap();
    }

    /// The event window opens at the `events_before` of the decision
    /// `radius` before the divergent one — not one decision earlier,
    /// whose cursor differs — and closes at the one `radius + 1` after.
    #[test]
    fn diff_window_spans_radius_decisions_around_the_divergence() {
        let cfg = streamed(1);
        let run = |late_from: u64| move |_| (0..10).map(|t| d(t, t >= late_from)).collect();
        let dir_a = tmpdir("window-a");
        let dir_b = tmpdir("window-b");
        write_decisions(&dir_a, &cfg, run(u64::MAX));
        write_decisions(&dir_b, &cfg, run(6));
        let diff = diff_runs(&dir_a, &dir_b, 2).unwrap().expect("planted");
        assert_eq!((diff.episode, diff.ticket), (0, Some(6)));
        assert_ne!(d(3, false).events_before, d(4, false).events_before);
        let window = TicketWindow {
            first_event_ticket: d(4, false).events_before,
            end_event_ticket: d(9, false).events_before,
        };
        assert_eq!(diff.window, Some(window));
        fs::remove_dir_all(&dir_a).unwrap();
        fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn incomparable_configs_are_rejected() {
        let dir_a = tmpdir("cfg-a");
        let dir_b = tmpdir("cfg-b");
        let cfg = SoakConfig::default();
        let other = SoakConfig {
            ranks: cfg.ranks + 1,
            ..cfg.clone()
        };
        for (dir, c) in [(&dir_a, &cfg), (&dir_b, &other)] {
            let mut w = JournalWriter::create(dir, c).unwrap();
            w.append(&Record::Episode(synthetic(0, 0, 0, 0))).unwrap();
        }
        assert!(matches!(
            diff_runs(&dir_a, &dir_b, 2),
            Err(JournalError::Incomparable { .. })
        ));
        fs::remove_dir_all(&dir_a).unwrap();
        fs::remove_dir_all(&dir_b).unwrap();
    }
}
