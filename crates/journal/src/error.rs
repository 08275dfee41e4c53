//! Typed journal failures and the best-effort recovery point.
//!
//! The hardening contract of this crate: *no input — truncated,
//! bit-flipped, version-skewed, or outright garbage — may panic the
//! reader.* Every failure is a [`JournalError`], and failures found
//! inside a segment carry a [`RecoveryPoint`] describing the longest
//! valid prefix, so `resume` can truncate a torn tail and continue
//! while genuine corruption is reported with exact coordinates.

use std::path::PathBuf;

use crate::codec::DecodeError;

/// The longest valid prefix of a journal, as established by the reader
/// before it hit an error (or the end of the files).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryPoint {
    /// Segment index of the first bad frame.
    pub segment: u32,
    /// Byte offset inside that segment where the bad frame starts
    /// (equivalently: the length the segment should be truncated to).
    pub offset: u64,
    /// Valid records read across the whole journal up to this point.
    pub records: u64,
    /// Index of the last fully valid episode record, if any.
    pub last_episode: Option<u32>,
    /// Campaign cursor of the last fully valid snapshot record, if any.
    pub last_snapshot: Option<u32>,
}

impl std::fmt::Display for RecoveryPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "recovery point: segment {} offset {} ({} valid records, last episode {:?}, \
             last snapshot {:?})",
            self.segment, self.offset, self.records, self.last_episode, self.last_snapshot
        )
    }
}

/// Everything that can go wrong reading or writing a journal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalError {
    /// Host I/O failure (open, read, write, fsync, rename…). The
    /// original `io::Error` is flattened to its message so the error
    /// stays `Clone`/`Eq` for tests.
    Io {
        path: PathBuf,
        op: &'static str,
        message: String,
    },
    /// The directory holds no `seg-*.jrnl` files at all.
    Empty { dir: PathBuf },
    /// Segment files must be contiguous from zero.
    MissingSegment { dir: PathBuf, expected: u32 },
    /// The first 8 bytes of a segment are not the journal magic.
    BadMagic { path: PathBuf },
    /// The segment's format version is not one this reader speaks.
    UnsupportedVersion {
        path: PathBuf,
        found: u32,
        supported: u32,
    },
    /// The header's self-declared segment index disagrees with the
    /// file name.
    SegmentIndexMismatch {
        path: PathBuf,
        expected: u32,
        found: u32,
    },
    /// Segments of one journal must share the campaign fingerprint
    /// stamped at creation (catches mixed-up directories).
    CampaignMismatch {
        path: PathBuf,
        expected: u64,
        found: u64,
    },
    /// The segment ends before a full header.
    TruncatedHeader { path: PathBuf, len: u64 },
    /// A frame's declared length runs past the end of the segment —
    /// the signature of a torn tail after a crash mid-write.
    TruncatedRecord { recovery: RecoveryPoint },
    /// A frame's checksum does not match its bytes (bit rot, torn
    /// overwrite, or deliberate tampering).
    ChecksumMismatch {
        recovery: RecoveryPoint,
        stored: u64,
        computed: u64,
    },
    /// A frame checksummed correctly but carries a record kind this
    /// reader does not know.
    UnknownRecordKind { recovery: RecoveryPoint, kind: u8 },
    /// A frame checksummed correctly but its payload does not decode
    /// (field-level mismatch — version-skewed writer, or a flip that
    /// survived inside a length prefix before the checksum… which
    /// cannot happen; decode failures mean writer/reader skew).
    Decode {
        recovery: RecoveryPoint,
        what: &'static str,
        at: usize,
    },
    /// The journal has no Config record (must be the first record of
    /// segment 0), so nothing can be resumed or reported.
    NoConfig { dir: PathBuf },
    /// Records are internally inconsistent (e.g. episode indices out
    /// of order, snapshot cursor disagreeing with episode count).
    Inconsistent {
        recovery: RecoveryPoint,
        why: String,
    },
    /// `resume` found the campaign already complete.
    AlreadyComplete { episodes: u32 },
    /// `diff_runs` needs two journals over the same campaign shape.
    Incomparable { why: String },
    /// The campaign config describes a world no episode can run.
    InvalidConfig { why: String },
    /// An episode's world failed: it deadlocked or a rank panicked.
    EpisodeFailed { episode: u32, why: String },
    /// A streamed episode failed and its world dropped the journal
    /// writer it held; only `resume` can continue the campaign.
    WriterLost { episode: u32 },
}

impl JournalError {
    /// The recovery point carried by frame-level errors, if any.
    pub fn recovery(&self) -> Option<&RecoveryPoint> {
        match self {
            JournalError::TruncatedRecord { recovery }
            | JournalError::ChecksumMismatch { recovery, .. }
            | JournalError::UnknownRecordKind { recovery, .. }
            | JournalError::Decode { recovery, .. }
            | JournalError::Inconsistent { recovery, .. } => Some(recovery),
            _ => None,
        }
    }

    pub(crate) fn io(path: impl Into<PathBuf>, op: &'static str, e: std::io::Error) -> Self {
        JournalError::Io {
            path: path.into(),
            op,
            message: e.to_string(),
        }
    }

    pub(crate) fn inconsistent(recovery: &RecoveryPoint, why: impl Into<String>) -> Self {
        JournalError::Inconsistent {
            recovery: recovery.clone(),
            why: why.into(),
        }
    }

    pub(crate) fn decode(recovery: &RecoveryPoint, e: DecodeError) -> Self {
        JournalError::Decode {
            recovery: recovery.clone(),
            what: e.what,
            at: e.at,
        }
    }
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io { path, op, message } => {
                write!(f, "{op} {}: {message}", path.display())
            }
            JournalError::Empty { dir } => {
                write!(f, "no journal segments in {}", dir.display())
            }
            JournalError::MissingSegment { dir, expected } => {
                write!(f, "{}: segment {expected} missing", dir.display())
            }
            JournalError::BadMagic { path } => {
                write!(f, "{}: not a journal segment (bad magic)", path.display())
            }
            JournalError::UnsupportedVersion {
                path,
                found,
                supported,
            } => write!(
                f,
                "{}: format version {found} (this reader speaks {supported})",
                path.display()
            ),
            JournalError::SegmentIndexMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "{}: header says segment {found}, file name says {expected}",
                path.display()
            ),
            JournalError::CampaignMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "{}: campaign fingerprint {found:#x} does not match {expected:#x}",
                path.display()
            ),
            JournalError::TruncatedHeader { path, len } => {
                write!(
                    f,
                    "{}: {len}-byte segment is shorter than a header",
                    path.display()
                )
            }
            JournalError::TruncatedRecord { recovery } => {
                write!(f, "torn record frame; {recovery}")
            }
            JournalError::ChecksumMismatch {
                recovery,
                stored,
                computed,
            } => write!(
                f,
                "frame checksum mismatch (stored {stored:#018x}, computed {computed:#018x}); \
                 {recovery}"
            ),
            JournalError::UnknownRecordKind { recovery, kind } => {
                write!(f, "unknown record kind {kind}; {recovery}")
            }
            JournalError::Decode { recovery, what, at } => {
                write!(f, "cannot decode {what} at payload offset {at}; {recovery}")
            }
            JournalError::NoConfig { dir } => {
                write!(
                    f,
                    "{}: journal has no campaign config record",
                    dir.display()
                )
            }
            JournalError::Inconsistent { recovery, why } => {
                write!(f, "inconsistent journal: {why}; {recovery}")
            }
            JournalError::AlreadyComplete { episodes } => {
                write!(f, "campaign already complete ({episodes} episodes)")
            }
            JournalError::Incomparable { why } => {
                write!(f, "journals not comparable: {why}")
            }
            JournalError::InvalidConfig { why } => {
                write!(f, "invalid campaign config: {why}")
            }
            JournalError::EpisodeFailed { episode, why } => {
                write!(f, "episode {episode} failed: {why}")
            }
            JournalError::WriterLost { episode } => write!(
                f,
                "streamed episode {episode} failed and took the journal writer with it; \
                 resume the campaign from its journal"
            ),
        }
    }
}

impl std::error::Error for JournalError {}
