//! The on-disk journal: append-only, checksummed, segment-rotated.
//!
//! A journal is a directory of segment files `seg-NNNNNN.jrnl`,
//! contiguous from zero. Each segment opens with a 32-byte header:
//!
//! ```text
//! magic "MADJRNL1" (8) | version u32 | segment u32 | campaign u64 | reserved u64
//! ```
//!
//! followed by record frames:
//!
//! ```text
//! kind u8 | len u32 | payload (len bytes) | crc64 u64
//! ```
//!
//! where the CRC-64/XZ covers `kind || len || payload` — a flip in any
//! of the three is caught, including length-prefix flips (an in-bounds
//! flipped length fails the checksum; an out-of-bounds one reads as a
//! torn record). All integers are little-endian. Frames never span
//! segments; the writer rotates *before* a frame that would push the
//! segment past its limit. The campaign fsyncs at its durability points
//! (every `snapshot_every` episodes, the last one, and before each
//! rotation); crash-resume relies on nothing else.
//!
//! Frames are parsed in one place, [`scan_frame`]: the full reader
//! ([`read_journal`]) and replay's seek-and-walk both go through it. A
//! frame cut short is a torn tail — a typed error for the reader, the
//! silent end of the valid prefix for replay.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use crate::crc::crc64;
use crate::error::{JournalError, RecoveryPoint};
use crate::record::{
    EpisodeRecord, Record, SoakConfig, KIND_CONFIG, KIND_DECISION_CHUNK, KIND_EPISODE,
    KIND_EVENT_CHUNK, KIND_INDEX, KIND_METRICS_DELTA,
};
use crate::stream::{
    chunk_own_digest, DecisionChunkRec, EventChunkRec, IndexRec, MetricsDeltaRec, StreamAccum,
    StreamSummary,
};

pub const MAGIC: &[u8; 8] = b"MADJRNL1";
pub const VERSION: u32 = 4;
pub const HEADER_LEN: u64 = 32;
/// Rotation threshold: a frame that would push a segment past this
/// starts a new segment (one oversized frame per segment is legal).
pub const DEFAULT_SEGMENT_BYTES: u64 = 64 * 1024;

pub(crate) fn segment_path(dir: &Path, index: u32) -> PathBuf {
    dir.join(format!("seg-{index:06}.jrnl"))
}

fn encode_header(segment: u32, campaign: u64) -> [u8; HEADER_LEN as usize] {
    let mut h = [0u8; HEADER_LEN as usize];
    h[..8].copy_from_slice(MAGIC);
    h[8..12].copy_from_slice(&VERSION.to_le_bytes());
    h[12..16].copy_from_slice(&segment.to_le_bytes());
    h[16..24].copy_from_slice(&campaign.to_le_bytes());
    h
}

/// List the journal's segment indices, sorted, verifying contiguity.
pub(crate) fn list_segments(dir: &Path) -> Result<Vec<u32>, JournalError> {
    let entries = fs::read_dir(dir).map_err(|e| JournalError::io(dir, "read_dir", e))?;
    let mut found = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| JournalError::io(dir, "read_dir", e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(num) = name
            .strip_prefix("seg-")
            .and_then(|rest| rest.strip_suffix(".jrnl"))
        {
            if let Ok(idx) = num.parse::<u32>() {
                found.push(idx);
            }
        }
    }
    found.sort_unstable();
    if found.is_empty() {
        return Err(JournalError::Empty {
            dir: dir.to_path_buf(),
        });
    }
    for (want, &got) in found.iter().enumerate() {
        if got != want as u32 {
            return Err(JournalError::MissingSegment {
                dir: dir.to_path_buf(),
                expected: want as u32,
            });
        }
    }
    Ok(found)
}

/// Read one whole segment file.
pub(crate) fn read_segment(dir: &Path, seg: u32) -> Result<(PathBuf, Vec<u8>), JournalError> {
    let path = segment_path(dir, seg);
    let mut buf = Vec::new();
    File::open(&path)
        .and_then(|mut f| f.read_to_end(&mut buf))
        .map_err(|e| JournalError::io(&path, "read", e))?;
    Ok((path, buf))
}

/// One checksummed frame of a segment buffer.
pub(crate) struct Frame<'a> {
    pub kind: u8,
    pub payload: &'a [u8],
    /// Offset just past the frame: where the next one starts.
    pub end: usize,
}

/// The frame scanner: parse the frame that starts at `pos` (with `pos <
/// buf.len()`). A frame running past the buffer is a `TruncatedRecord`
/// (a torn tail), one whose bytes disagree with its CRC a
/// `ChecksumMismatch`; both carry `recovery`.
pub(crate) fn scan_frame<'a>(
    buf: &'a [u8],
    pos: usize,
    recovery: &RecoveryPoint,
) -> Result<Frame<'a>, JournalError> {
    let torn = || JournalError::TruncatedRecord {
        recovery: recovery.clone(),
    };
    let len = buf.get(pos + 1..pos + 5).ok_or_else(torn)?;
    let end = pos + 5 + u32::from_le_bytes(len.try_into().expect("4 bytes")) as usize + 8;
    let stored = buf.get(end - 8..end).ok_or_else(torn)?;
    let stored = u64::from_le_bytes(stored.try_into().expect("8 bytes"));
    let computed = crc64(&buf[pos..end - 8]);
    if stored != computed {
        return Err(JournalError::ChecksumMismatch {
            recovery: recovery.clone(),
            stored,
            computed,
        });
    }
    Ok(Frame {
        kind: buf[pos],
        payload: &buf[pos + 5..end - 8],
        end,
    })
}

/// Appending side of the journal.
pub struct JournalWriter {
    dir: PathBuf,
    file: File,
    segment: u32,
    segment_len: u64,
    segment_limit: u64,
    campaign: u64,
}

impl JournalWriter {
    /// Create a fresh journal in `dir` (created if absent; must not
    /// already contain segments) and write the config record.
    pub fn create(dir: &Path, config: &SoakConfig) -> Result<JournalWriter, JournalError> {
        fs::create_dir_all(dir).map_err(|e| JournalError::io(dir, "create_dir", e))?;
        match list_segments(dir) {
            Err(JournalError::Empty { .. }) => {}
            Ok(_) => {
                return Err(JournalError::Io {
                    path: dir.to_path_buf(),
                    op: "create",
                    message: "journal directory already holds segments".into(),
                })
            }
            Err(other) => return Err(other),
        }
        let campaign = config.fingerprint();
        let mut w = JournalWriter {
            dir: dir.to_path_buf(),
            file: Self::open_segment(dir, 0, campaign)?,
            segment: 0,
            segment_len: HEADER_LEN,
            segment_limit: DEFAULT_SEGMENT_BYTES,
            campaign,
        };
        w.append(&Record::Config(config.clone()))?;
        w.sync()?;
        Ok(w)
    }

    /// Reopen an existing journal for appending after `resume`
    /// validated it: truncates the (possibly torn) tail at the recovery
    /// point, removes any segments past it, and positions at the end.
    pub fn reopen(
        dir: &Path,
        recovery: &RecoveryPoint,
        campaign: u64,
    ) -> Result<JournalWriter, JournalError> {
        let segments = list_segments(dir)?;
        // Drop segments past the recovery point, and the recovery
        // segment itself when even its header is gone.
        let (mut last, mut keep_len) = (recovery.segment, recovery.offset);
        if keep_len < HEADER_LEN {
            if last == 0 {
                return Err(JournalError::NoConfig {
                    dir: dir.to_path_buf(),
                });
            }
            last -= 1;
            let path = segment_path(dir, last);
            keep_len = fs::metadata(&path)
                .map_err(|e| JournalError::io(&path, "stat", e))?
                .len();
        }
        let file = Self::cut_back(dir, &segments, last, keep_len)?;
        Ok(JournalWriter {
            dir: dir.to_path_buf(),
            file,
            segment: last,
            segment_len: keep_len,
            segment_limit: DEFAULT_SEGMENT_BYTES,
            campaign,
        })
    }

    /// Cut the journal back to `pos`, an earlier [`JournalWriter::position`]
    /// of this writer: every frame appended since goes, with the
    /// segments rotated in meanwhile, and appending continues there.
    pub(crate) fn truncate_to(&mut self, pos: (u32, u64)) -> Result<(), JournalError> {
        let (segment, len) = pos;
        debug_assert!(pos <= self.position(), "truncate_to moves back only");
        let later: Vec<u32> = (segment + 1..=self.segment).collect();
        self.file = Self::cut_back(&self.dir, &later, segment, len)?;
        self.segment = segment;
        self.segment_len = len;
        Ok(())
    }

    /// Remove the `segments` after `last`, cut `last` to `len` bytes,
    /// make that durable, and return it opened at its end.
    fn cut_back(dir: &Path, segments: &[u32], last: u32, len: u64) -> Result<File, JournalError> {
        for &idx in segments.iter().filter(|&&i| i > last) {
            let path = segment_path(dir, idx);
            fs::remove_file(&path).map_err(|e| JournalError::io(&path, "remove", e))?;
        }
        let path = segment_path(dir, last);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| JournalError::io(&path, "open", e))?;
        file.set_len(len)
            .map_err(|e| JournalError::io(&path, "truncate", e))?;
        file.sync_data()
            .map_err(|e| JournalError::io(&path, "fsync", e))?;
        use std::io::Seek;
        file.seek(std::io::SeekFrom::End(0))
            .map_err(|e| JournalError::io(&path, "seek", e))?;
        Ok(file)
    }

    fn open_segment(dir: &Path, segment: u32, campaign: u64) -> Result<File, JournalError> {
        let path = segment_path(dir, segment);
        let mut file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(&path)
            .map_err(|e| JournalError::io(&path, "create", e))?;
        file.write_all(&encode_header(segment, campaign))
            .map_err(|e| JournalError::io(&path, "write", e))?;
        Ok(file)
    }

    /// Append one record, rotating the segment first if the frame would
    /// push it past the limit. Returns the `(segment, offset)` the frame
    /// landed at — the coordinates the stream index records so replay
    /// can seek straight to it.
    pub fn append(&mut self, rec: &Record) -> Result<(u32, u64), JournalError> {
        self.append_payload(rec.kind(), &rec.encode())
    }

    /// [`JournalWriter::append`] for a payload already encoded as a
    /// record of kind `kind`.
    pub(crate) fn append_payload(
        &mut self,
        kind: u8,
        payload: &[u8],
    ) -> Result<(u32, u64), JournalError> {
        let mut frame = Vec::with_capacity(1 + 4 + payload.len() + 8);
        frame.push(kind);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(payload);
        let crc = crc64(&frame);
        frame.extend_from_slice(&crc.to_le_bytes());

        if self.segment_len > HEADER_LEN
            && self.segment_len + frame.len() as u64 > self.segment_limit
        {
            self.sync()?;
            self.segment += 1;
            self.file = Self::open_segment(&self.dir, self.segment, self.campaign)?;
            self.segment_len = HEADER_LEN;
        }
        let pos = (self.segment, self.segment_len);
        self.file
            .write_all(&frame)
            .map_err(|e| JournalError::io(segment_path(&self.dir, self.segment), "write", e))?;
        self.segment_len += frame.len() as u64;
        Ok(pos)
    }

    /// fsync the current segment (a durability point).
    pub fn sync(&mut self) -> Result<(), JournalError> {
        self.file
            .sync_data()
            .map_err(|e| JournalError::io(segment_path(&self.dir, self.segment), "fsync", e))
    }

    /// Crash simulation for the soak harness: write the first bytes of
    /// a frame that will never be completed (as a mid-write SIGKILL
    /// would) and drop the writer. The recovering reader must report a
    /// torn tail and `reopen` must truncate it.
    pub fn simulate_torn_tail(mut self) -> Result<(), JournalError> {
        let torn = [KIND_EPISODE, 0xFF, 0x02, 0x00, 0x00, 0xDE, 0xAD];
        self.file
            .write_all(&torn)
            .map_err(|e| JournalError::io(segment_path(&self.dir, self.segment), "write", e))
    }

    /// Where the next frame would land (for tests).
    pub fn position(&self) -> (u32, u64) {
        (self.segment, self.segment_len)
    }
}

/// Everything read from a journal: the campaign config, episode records
/// in order, and the recovery point marking the end of the valid
/// prefix. For streamed campaigns it also carries the
/// per-episode [`StreamSummary`] index entries, the metrics deltas, and
/// the newest seekable [`IndexRec`] — but **not** the event chunks
/// themselves: the reader validates each chunk's chain link and drops
/// its events, so reading an arbitrarily long campaign stays bounded in
/// memory (replay re-reads chunks by position, see [`crate::replay`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalContents {
    pub config: SoakConfig,
    pub episodes: Vec<EpisodeRecord>,
    /// One entry per streamed episode, in order (empty when the
    /// campaign did not stream).
    pub stream: Vec<StreamSummary>,
    /// One metrics delta per streamed episode, in order.
    pub metrics_deltas: Vec<MetricsDeltaRec>,
    /// The newest seekable index, when one was written.
    pub index: Option<IndexRec>,
    pub recovery: RecoveryPoint,
}

/// Strict read: the journal must be perfectly well formed end to end.
pub fn read_journal(dir: &Path) -> Result<JournalContents, JournalError> {
    match read_journal_inner(dir)? {
        (contents, None) => Ok(contents),
        (_, Some(err)) => Err(err),
    }
}

/// Best-effort read: structural problems (unreadable directory, no
/// config record, bad segment-0 header) are still hard errors, but a
/// frame-level failure — torn tail, checksum mismatch, undecodable or
/// inconsistent record — ends the read early, returning the valid
/// prefix plus the error that stopped it. `resume` runs on this.
pub fn read_journal_recovering(
    dir: &Path,
) -> Result<(JournalContents, Option<JournalError>), JournalError> {
    read_journal_inner(dir)
}

fn read_journal_inner(dir: &Path) -> Result<(JournalContents, Option<JournalError>), JournalError> {
    let segments = list_segments(dir)?;
    let mut fold = Fold::default();
    let mut recovery = RecoveryPoint::default();
    let mut stopped: Option<JournalError> = None;

    'segments: for &seg in &segments {
        let (path, buf) = read_segment(dir, seg)?;
        recovery.segment = seg;
        // Header. A bad header on segment 0 dooms the journal; on a
        // later segment it is a torn rotation — recoverable at the
        // previous segment's end.
        if let Err(e) = check_header(&path, &buf, seg, &fold.config) {
            if seg == 0 || !matches!(e, JournalError::TruncatedHeader { .. }) {
                return Err(e);
            }
            recovery.offset = 0;
            stopped = Some(JournalError::TruncatedRecord {
                recovery: recovery.clone(),
            });
            break;
        }
        recovery.offset = HEADER_LEN;
        while (recovery.offset as usize) < buf.len() {
            match fold.take_frame(&buf, &mut recovery) {
                Ok(end) => {
                    recovery.records += 1;
                    recovery.offset = end as u64;
                }
                Err(e) => {
                    stopped = Some(e);
                    break 'segments;
                }
            }
        }
    }

    let Fold {
        config,
        episodes,
        stream,
        metrics_deltas,
        index,
        ..
    } = fold;
    let config = config.ok_or_else(|| JournalError::NoConfig {
        dir: dir.to_path_buf(),
    })?;
    Ok((
        JournalContents {
            config,
            episodes,
            stream,
            metrics_deltas,
            index,
            recovery,
        },
        stopped,
    ))
}

/// The reader's state, folded frame by frame over the valid prefix.
#[derive(Default)]
struct Fold {
    config: Option<SoakConfig>,
    episodes: Vec<EpisodeRecord>,
    stream: Vec<StreamSummary>,
    metrics_deltas: Vec<MetricsDeltaRec>,
    index: Option<IndexRec>,
    /// The episode whose chunk stream is accumulating.
    accum: Option<StreamAccum>,
}

/// The header fields the reader checks on an event or a decision chunk.
struct ChunkHead {
    decisions: bool,
    episode: u32,
    seq: u32,
    first_ticket: u64,
    entries: usize,
    cum: u64,
}

impl Fold {
    /// Scan, decode, check and fold the frame at `recovery.offset`;
    /// returns the offset where the next frame starts.
    fn take_frame(
        &mut self,
        buf: &[u8],
        recovery: &mut RecoveryPoint,
    ) -> Result<usize, JournalError> {
        let at = (recovery.segment, recovery.offset);
        let frame = scan_frame(buf, at.1 as usize, recovery)?;
        let cum_digest = self.episodes.last().map_or(0, |e| e.cum_digest);
        match decode_record(frame.kind, frame.payload, recovery)? {
            Record::Config(cfg) => {
                if at != (0, HEADER_LEN) {
                    return Err(JournalError::inconsistent(
                        recovery,
                        "config record after the first frame",
                    ));
                }
                if cfg.fingerprint() != campaign_of(buf) {
                    return Err(JournalError::inconsistent(
                        recovery,
                        "config fingerprint disagrees with segment header",
                    ));
                }
                self.config = Some(cfg);
            }
            Record::Episode(ep) => {
                if self.config.is_none() {
                    return Err(JournalError::inconsistent(
                        recovery,
                        "episode before config",
                    ));
                }
                validate_episode(&ep, self.episodes.len(), cum_digest, recovery)?;
                if let Some(acc) = self.accum.take() {
                    let (summary, delta) = seal_stream_episode(acc, &ep, recovery)?;
                    self.stream.push(summary);
                    self.metrics_deltas.push(delta);
                }
                recovery.last_episode = Some(ep.index);
                self.episodes.push(ep);
            }
            Record::EventChunk(chunk) => {
                let head = ChunkHead {
                    decisions: false,
                    episode: chunk.episode,
                    seq: chunk.seq,
                    first_ticket: chunk.first_ticket,
                    entries: chunk.events.len(),
                    cum: chunk.cum,
                };
                let (acc, own) = self.check_chunk(head, frame.payload, recovery)?;
                acc.add_events(&chunk, own, at);
            }
            Record::DecisionChunk(chunk) => {
                let head = ChunkHead {
                    decisions: true,
                    episode: chunk.episode,
                    seq: chunk.seq,
                    first_ticket: chunk.first_ticket,
                    entries: chunk.decisions.len(),
                    cum: chunk.cum,
                };
                let (acc, own) = self.check_chunk(head, frame.payload, recovery)?;
                acc.add_decisions(&chunk, own, at);
            }
            Record::MetricsDelta(delta) => {
                let episode = delta.episode;
                let acc = match self.accum.as_mut() {
                    Some(acc) if episode as usize == self.episodes.len() => acc,
                    _ => {
                        let why = format!("metrics delta for episode {episode} without its stream");
                        return Err(JournalError::inconsistent(recovery, why));
                    }
                };
                if acc.pending_metrics.is_some() {
                    let why = format!("duplicate metrics delta for episode {episode}");
                    return Err(JournalError::inconsistent(recovery, why));
                }
                acc.summary.metrics_pos = Some(at);
                acc.pending_metrics = Some(delta);
            }
            Record::Index(idx) => {
                if idx.entries != self.stream {
                    let why = format!(
                        "index lists {} episodes but {} streamed",
                        idx.entries.len(),
                        self.stream.len()
                    );
                    return Err(JournalError::inconsistent(recovery, why));
                }
                self.index = Some(idx);
            }
        }
        Ok(frame.end)
    }

    /// The reader's checks on one event or decision chunk, run before
    /// the accumulator takes it: episode order, chunk sequence (with the
    /// crash-resume restart rule), the stream digest chain and ticket
    /// continuity. Returns the accumulator and the chunk's own digest.
    fn check_chunk(
        &mut self,
        c: ChunkHead,
        payload: &[u8],
        recovery: &RecoveryPoint,
    ) -> Result<(&mut StreamAccum, u64), JournalError> {
        let bad = |why: String| JournalError::inconsistent(recovery, why);
        let what = if c.decisions { "decision" } else { "event" };
        let (episode, seq) = (c.episode, c.seq);
        let done = self.episodes.len();
        if episode as usize != done {
            return Err(bad(format!(
                "{what} chunk for episode {episode} after {done} episodes"
            )));
        }
        let cursor = |acc: &StreamAccum| {
            if c.decisions {
                (acc.next_decision_seq, acc.next_sched_ticket())
            } else {
                (acc.next_event_seq, acc.next_event_ticket())
            }
        };
        // A seq-0 chunk while a later seq was expected is the crash-resume
        // signature: complete chunks of the interrupted attempt survive in
        // the valid prefix and the re-run restarts the episode's stream
        // from scratch (deterministically, so its first append repeats
        // sequence zero). Restart the accumulation (DESIGN §12).
        if matches!(&self.accum, Some(acc) if seq == 0 && cursor(acc).0 > 0) {
            self.accum = None;
        }
        let acc = self.accum.get_or_insert_with(|| StreamAccum::new(episode));
        if !c.decisions && acc.fin_seen {
            return Err(bad(format!(
                "event chunk {seq} after the episode {episode} fin chunk"
            )));
        }
        let (next_seq, next_ticket) = cursor(acc);
        if seq != next_seq {
            return Err(bad(format!(
                "{what} chunk sequence gap in episode {episode}: got {seq}, expected {next_seq}"
            )));
        }
        let own =
            chunk_own_digest(payload).ok_or_else(|| bad(format!("{what} chunk too short")))?;
        if chain(acc.summary.cum, own) != c.cum {
            return Err(bad(format!(
                "episode {episode}: stream digest chain broken at {what} chunk {seq}"
            )));
        }
        match next_ticket {
            Some(expect) if c.entries > 0 && c.first_ticket != expect => Err(bad(format!(
                "episode {episode}: {what} ticket gap (got {}, expected {expect})",
                c.first_ticket
            ))),
            _ => Ok((acc, own)),
        }
    }
}

/// An episode record arrived while its chunk stream was accumulating:
/// require the stream to be sealed (fin chunk seen, metrics delta
/// present) and its digests to agree with the episode record, then
/// yield the finished index entry.
fn seal_stream_episode(
    acc: StreamAccum,
    ep: &EpisodeRecord,
    recovery: &RecoveryPoint,
) -> Result<(StreamSummary, MetricsDeltaRec), JournalError> {
    let (s, i) = (&acc.summary, ep.index);
    let why = if s.episode != i {
        format!(
            "episode {i} record closes a stream accumulated for episode {}",
            s.episode
        )
    } else if !acc.fin_seen {
        format!("episode {i} record before its stream fin chunk")
    } else if ep.trace_digest != s.cum {
        format!("episode {i}: trace digest does not match its streamed chunk chain")
    } else if ep.decisions_digest != s.decisions_digest {
        format!("episode {i}: decision digest does not match its streamed decisions")
    } else {
        match acc.pending_metrics {
            Some(delta) => return Ok((acc.summary, delta)),
            None => format!("episode {i} streamed without a metrics delta"),
        }
    };
    Err(JournalError::inconsistent(recovery, why))
}

fn campaign_of(buf: &[u8]) -> u64 {
    u64::from_le_bytes(buf[16..24].try_into().expect("8 bytes"))
}

pub(crate) fn check_header(
    path: &Path,
    buf: &[u8],
    seg: u32,
    config: &Option<SoakConfig>,
) -> Result<(), JournalError> {
    if (buf.len() as u64) < HEADER_LEN {
        return Err(JournalError::TruncatedHeader {
            path: path.to_path_buf(),
            len: buf.len() as u64,
        });
    }
    if &buf[..8] != MAGIC {
        return Err(JournalError::BadMagic {
            path: path.to_path_buf(),
        });
    }
    let version = u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(JournalError::UnsupportedVersion {
            path: path.to_path_buf(),
            found: version,
            supported: VERSION,
        });
    }
    let declared = u32::from_le_bytes(buf[12..16].try_into().expect("4 bytes"));
    if declared != seg {
        return Err(JournalError::SegmentIndexMismatch {
            path: path.to_path_buf(),
            expected: seg,
            found: declared,
        });
    }
    if let Some(cfg) = config {
        let campaign = campaign_of(buf);
        if campaign != cfg.fingerprint() {
            return Err(JournalError::CampaignMismatch {
                path: path.to_path_buf(),
                expected: cfg.fingerprint(),
                found: campaign,
            });
        }
    }
    Ok(())
}

fn decode_record(
    kind: u8,
    payload: &[u8],
    recovery: &RecoveryPoint,
) -> Result<Record, JournalError> {
    let decoded = match kind {
        KIND_CONFIG => SoakConfig::decode(payload).map(Record::Config),
        KIND_EPISODE => EpisodeRecord::decode(payload).map(Record::Episode),
        KIND_EVENT_CHUNK => EventChunkRec::decode(payload).map(Record::EventChunk),
        KIND_DECISION_CHUNK => DecisionChunkRec::decode(payload).map(Record::DecisionChunk),
        KIND_METRICS_DELTA => MetricsDeltaRec::decode(payload).map(Record::MetricsDelta),
        KIND_INDEX => IndexRec::decode(payload).map(Record::Index),
        other => {
            return Err(JournalError::UnknownRecordKind {
                recovery: recovery.clone(),
                kind: other,
            })
        }
    };
    decoded.map_err(|e| JournalError::decode(recovery, e))
}

fn validate_episode(
    ep: &EpisodeRecord,
    seen: usize,
    cum_digest: u64,
    recovery: &RecoveryPoint,
) -> Result<(), JournalError> {
    let why = if ep.index as usize != seen {
        format!("episode {} after {seen} episodes", ep.index)
    } else if ep.cum_digest != chain(cum_digest, ep.own_digest()) {
        format!("episode {}: cumulative digest chain broken", ep.index)
    } else {
        return Ok(());
    };
    Err(JournalError::inconsistent(recovery, why))
}

/// The cumulative-chain step shared by writer and validator.
pub fn chain(cum: u64, own: u64) -> u64 {
    simnet::rng::splitmix64(cum ^ own)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("journal-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn episode(index: u32, cum: u64, cfg: &SoakConfig) -> EpisodeRecord {
        let mut ep = EpisodeRecord {
            index,
            episode_seed: cfg.episode_seed(index),
            end_time_ns: 1000 + index as u64,
            result_digest: 7 * index as u64 + 1,
            metrics_digest: 11,
            trace_digest: 0,
            decisions_digest: 0,
            faults: Default::default(),
            failovers: 0,
            rndv_reissues: 0,
            wire_messages: 10,
            wire_bytes: 640,
            cum_digest: 0,
        };
        ep.cum_digest = chain(cum, ep.own_digest());
        ep
    }

    /// Episodes written up to a durability point (the fsync a campaign
    /// makes every `snapshot_every` episodes) read back whole.
    #[test]
    fn write_read_round_trip_with_snapshot() {
        let dir = tmpdir("roundtrip");
        let cfg = SoakConfig::default();
        let mut w = JournalWriter::create(&dir, &cfg).unwrap();
        let mut cum = 0;
        let mut written = Vec::new();
        for i in 0..3 {
            let ep = episode(i, cum, &cfg);
            cum = ep.cum_digest;
            w.append(&Record::Episode(ep.clone())).unwrap();
            written.push(ep);
        }
        w.sync().unwrap();
        let end = w.position();
        drop(w);
        let contents = read_journal(&dir).unwrap();
        assert_eq!(contents.config, cfg);
        assert_eq!(contents.episodes, written);
        assert_eq!(contents.recovery.last_episode, Some(2));
        assert_eq!((contents.recovery.segment, contents.recovery.offset), end);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_rotate_and_read_back() {
        let dir = tmpdir("rotate");
        let cfg = SoakConfig::default();
        let mut w = JournalWriter::create(&dir, &cfg).unwrap();
        w.segment_limit = 512; // force rotation quickly
        let mut cum = 0;
        for i in 0..40 {
            let ep = episode(i, cum, &cfg);
            cum = ep.cum_digest;
            w.append(&Record::Episode(ep)).unwrap();
        }
        let (last_segment, _) = w.position();
        assert!(last_segment >= 2, "expected rotation, got {last_segment}");
        drop(w);
        let contents = read_journal(&dir).unwrap();
        assert_eq!(contents.episodes.len(), 40);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_recovers_and_reopen_truncates() {
        let dir = tmpdir("torn");
        let cfg = SoakConfig::default();
        let mut w = JournalWriter::create(&dir, &cfg).unwrap();
        let mut cum = 0;
        for i in 0..2 {
            let ep = episode(i, cum, &cfg);
            cum = ep.cum_digest;
            w.append(&Record::Episode(ep)).unwrap();
        }
        let (seg, keep) = w.position();
        w.simulate_torn_tail().unwrap();

        // Strict read fails typed; recovering read returns the prefix.
        match read_journal(&dir) {
            Err(JournalError::TruncatedRecord { recovery }) => {
                assert_eq!((recovery.segment, recovery.offset), (seg, keep));
                assert_eq!(recovery.last_episode, Some(1));
            }
            other => panic!("expected TruncatedRecord, got {other:?}"),
        }
        let (contents, stopped) = read_journal_recovering(&dir).unwrap();
        assert_eq!(contents.episodes.len(), 2);
        assert!(matches!(
            stopped,
            Some(JournalError::TruncatedRecord { .. })
        ));

        // Reopen truncates the torn bytes and appends cleanly.
        let mut w = JournalWriter::reopen(&dir, &contents.recovery, cfg.fingerprint()).unwrap();
        w.append(&Record::Episode(episode(2, cum, &cfg))).unwrap();
        drop(w);
        let contents = read_journal(&dir).unwrap();
        assert_eq!(contents.episodes.len(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_skew_is_typed() {
        let dir = tmpdir("version");
        let cfg = SoakConfig {
            episodes: 1,
            ranks: 2,
            messages_per_episode: 1,
            stream_chunk: 8,
            ..SoakConfig::default()
        };
        crate::Campaign::create(&dir, cfg)
            .unwrap()
            .run_to_completion()
            .unwrap();
        let path = segment_path(&dir, 0);
        let mut bytes = fs::read(&path).unwrap();
        // Version 1 journals carried world captures in their snapshots,
        // version 2 journals snapshot records and fallback flags, and
        // version 3 journals inline decision logs in episode records.
        // Every reader refuses them, replay's index walk included, and
        // a forced resume leaves their bytes as they were.
        for found in [9, 1, 2, 3] {
            bytes[8..12].copy_from_slice(&u32::to_le_bytes(found));
            fs::write(&path, &bytes).unwrap();
            let refused = |r: Result<(), JournalError>| match r {
                Err(JournalError::UnsupportedVersion {
                    found: f,
                    supported: 4,
                    ..
                }) if f == found => {}
                other => panic!("expected UnsupportedVersion {found}, got {other:?}"),
            };
            refused(read_journal(&dir).map(drop));
            refused(crate::replay::trace_json_for(&dir, 0, None, None).map(drop));
            refused(crate::Campaign::resume(&dir, true).map(drop));
            assert_eq!(fs::read(&path).unwrap(), bytes);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn broken_digest_chain_is_inconsistent() {
        let dir = tmpdir("chain");
        let cfg = SoakConfig::default();
        let mut w = JournalWriter::create(&dir, &cfg).unwrap();
        let mut ep = episode(0, 0, &cfg);
        ep.cum_digest ^= 1; // valid frame, broken chain
        w.append(&Record::Episode(ep)).unwrap();
        drop(w);
        match read_journal(&dir) {
            Err(JournalError::Inconsistent { why, .. }) => {
                assert!(why.contains("chain"), "{why}")
            }
            other => panic!("expected Inconsistent, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
