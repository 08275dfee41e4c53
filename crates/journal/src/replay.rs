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
//! **byte-identical** to what a live traced run of the same episode
//! exports — the CI replay leg `cmp`s the two files.
//!
//! Seekability: [`load_index`] finds the newest cumulative
//! [`IndexRec`] by scanning only the last segment (every snapshot
//! rewrites the index, and snapshots are the last thing written before
//! rotation-heavy stretches), falling back to a full validated read.
//! From the index, chunk reads start at the episode's recorded
//! `(segment, offset)` instead of scanning the campaign, parsing frames
//! with the store's one frame scanner.

use std::path::Path;

use marcel::{chrome_trace_json, MetricsSnapshot, ThreadMeta, TraceEvent};

use crate::bisect::{decision_stream, first_divergent_episode};
use crate::codec::DecodeError;
use crate::crc::crc64;
use crate::error::{JournalError, RecoveryPoint};
use crate::record::{
    first_divergence, DecisionRec, Divergence, KIND_DECISION_CHUNK, KIND_EVENT_CHUNK, KIND_INDEX,
};
use crate::store::{
    list_segments, read_journal, read_segment, scan_frame, JournalContents, HEADER_LEN,
};
use crate::stream::{DecisionChunkRec, EventChunkRec, IndexRec, StreamSummary};

fn inconsistent(why: String) -> JournalError {
    JournalError::inconsistent(&RecoveryPoint::default(), why)
}

fn undecodable(e: DecodeError) -> JournalError {
    JournalError::decode(&RecoveryPoint::default(), e)
}

/// Iterate validated frames from `(segment, offset)` to the end of the
/// journal, calling `f(kind, payload)` until it returns `false`. Frames
/// that fail the checksum are typed errors; a torn tail ends the walk
/// silently (the valid prefix simply ends there).
fn walk_frames(
    dir: &Path,
    from: (u32, u64),
    mut f: impl FnMut(u8, &[u8]) -> Result<bool, JournalError>,
) -> Result<(), JournalError> {
    let segments = list_segments(dir)?;
    let last = *segments.last().expect("list_segments is non-empty");
    for seg in from.0..=last {
        let (_, buf) = read_segment(dir, seg)?;
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

/// Where two journals' decision streams first part ways, with the
/// reconstructed Chrome traces of both runs sliced to the window around
/// the divergent ticket.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayDiff {
    pub episode: u32,
    pub ticket: u64,
    /// What differs at that ticket, in words.
    pub detail: String,
    pub window: TicketWindow,
    /// Chrome trace JSON of run A, sliced to `window`.
    pub trace_a: String,
    /// Chrome trace JSON of run B, sliced to `window`.
    pub trace_b: String,
}

impl ReplayDiff {
    /// Render the human-facing report: the divergence line, then the
    /// two window traces side by side, differing lines marked.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "first divergence at episode {}, ticket {}: {}",
            self.episode, self.ticket, self.detail
        );
        let _ = writeln!(
            out,
            "event-ticket window [{}, {}):",
            self.window.first_event_ticket, self.window.end_event_ticket
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

/// Compare two journals' decision streams and reconstruct the trace
/// window around the first divergent ticket (`radius` decisions on each
/// side). Returns `Ok(None)` when every compared decision agrees.
pub fn diff_runs(
    dir_a: &Path,
    dir_b: &Path,
    radius: usize,
) -> Result<Option<ReplayDiff>, JournalError> {
    let a = read_journal(dir_a)?;
    let b = read_journal(dir_b)?;
    let n = a.episodes.len().min(b.episodes.len());
    // Episodes before the first chain divergence agree on every digest,
    // decisions and (streamed) `events_before` bridges included.
    let Some(first) = first_divergent_episode(&a.episodes, &b.episodes) else {
        return Ok(None);
    };
    for ep in first..n {
        let da = decision_stream(dir_a, &a, ep)?;
        let db = decision_stream(dir_b, &b, ep)?;
        let Some(Divergence {
            index: i,
            ticket,
            detail,
        }) = first_divergence(&da, &db)
        else {
            continue;
        };
        // The window: `events_before` of the decision `radius` before
        // the divergence opens it; the decision `radius + 1` after
        // closes it (end of episode when the stream ends first).
        let longest = if da.len() >= db.len() { &da } else { &db };
        let lo = longest[i.saturating_sub(radius).min(longest.len() - 1)].events_before;
        let hi = longest
            .get(i + radius + 1)
            .map(|d| d.events_before)
            .unwrap_or(u64::MAX);
        let window = TicketWindow {
            first_event_ticket: lo,
            end_event_ticket: hi,
        };
        let slice = |dir: &Path, contents: &JournalContents| {
            match contents.stream.iter().find(|s| s.episode == ep as u32) {
                Some(summary) => {
                    let (mut events, threads) = read_episode_events(dir, summary)?;
                    events.retain(|e| e.ticket >= lo && e.ticket < hi);
                    Ok::<String, JournalError>(chrome_trace_json(&events, &threads))
                }
                // Non-streamed journal: no events to reconstruct.
                None => Ok(chrome_trace_json(&[], &[])),
            }
        };
        return Ok(Some(ReplayDiff {
            episode: ep as u32,
            ticket,
            detail,
            window,
            trace_a: slice(dir_a, &a)?,
            trace_b: slice(dir_b, &b)?,
        }));
    }
    Ok(None)
}
