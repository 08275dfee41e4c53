//! Durable journal for million-message fault campaigns: `record`,
//! `resume`, and replay's divergence query.
//!
//! The simulator's determinism makes every campaign a pure function of
//! its config — this crate makes that durable. A soak campaign
//! ([`soak::Campaign`]) appends one checksummed [`record::EpisodeRecord`]
//! per finished episode and an fsynced [`record::SnapshotRecord`] (the
//! campaign cursor, running totals and digest chain) at a configured
//! cadence to a segment-rotated on-disk journal ([`store`], wire format
//! in DESIGN §11). Three operations:
//!
//! * **record** — zero virtual-time cost (metrics and decision logs are
//!   host-side reads after the kernel quiesces); disabled, nothing is
//!   touched at all.
//! * **resume** — [`soak::Campaign::resume`] reloads the journal, folds
//!   the record stream back into campaign state, truncates a torn tail
//!   (the mid-write crash signature) and re-runs from the last complete
//!   episode. The continuation is *byte-identical* to an uninterrupted
//!   run: the CI soak leg SIGKILLs a campaign mid-flight, resumes it,
//!   and byte-diffs both the report and the final episode's Chrome
//!   trace against a baseline.
//! * **diff** — [`replay::diff_runs`] binary-searches two journals'
//!   chained episode digests for the first divergent episode and walks
//!   its recorded committer-decision streams to the exact first
//!   divergent ticket, or names the differing record fields when the
//!   decisions agree (acceptance: a campaign with `force_fallback`
//!   planted reports ticket 0, fallback-flag-only).
//!
//! Reader hardening is a hard contract: truncated, bit-flipped,
//! version-skewed or garbage journals yield typed [`JournalError`]s
//! carrying a best-effort [`RecoveryPoint`] — never a panic
//! (`tests/journal_corruption.rs` fuzzes this).

pub mod codec;
pub mod crc;
pub mod error;
pub mod record;
pub mod replay;
pub mod soak;
pub mod store;
pub mod stream;

pub use crc::crc64;
pub use error::{JournalError, RecoveryPoint};
pub use record::{DecisionRec, EpisodeRecord, Record, SnapshotRecord, SoakConfig, Totals};
pub use replay::{
    diff_runs, load_index, metrics_at, read_episode_decisions, read_episode_events, trace_json_for,
    ReplayDiff, TicketWindow,
};
pub use soak::{render_report, Campaign};
pub use store::{
    read_journal, read_journal_recovering, JournalContents, JournalWriter, DEFAULT_SEGMENT_BYTES,
    HEADER_LEN, MAGIC, VERSION,
};
pub use stream::{
    DecisionChunkRec, EventChunkRec, IndexRec, MetricsDeltaRec, StreamRecorder, StreamSummary,
};
