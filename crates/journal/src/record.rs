//! The journal's record vocabulary and its structured encodings.
//!
//! Three record kinds travel in checksummed frames (see
//! [`crate::store`]): the campaign [`SoakConfig`] (first record of
//! segment 0 — a journal is self-contained, `resume` and `replay diff` need
//! no side channel), one [`EpisodeRecord`] per finished episode, and a
//! [`SnapshotRecord`] at the configured cadence carrying the campaign
//! cursor, totals and digest chain of the episode it follows. Every
//! encoding is little-endian via [`crate::codec`]; every decode is
//! total (typed errors, no panics).

use madeleine::FaultCounters;
use simnet::rng::{splitmix64, GOLDEN_GAMMA};

use crate::codec::{Dec, DecodeError, Enc};

/// Record kind tags on the wire.
pub const KIND_CONFIG: u8 = 1;
pub const KIND_EPISODE: u8 = 2;
pub const KIND_SNAPSHOT: u8 = 3;
/// Streaming flight-recorder frames (see [`crate::stream`]).
pub const KIND_EVENT_CHUNK: u8 = 4;
pub const KIND_DECISION_CHUNK: u8 = 5;
pub const KIND_METRICS_DELTA: u8 = 6;
pub const KIND_INDEX: u8 = 7;

/// Full description of a soak campaign: enough to (re)derive every
/// episode deterministically. Stored as the journal's first record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SoakConfig {
    /// Master seed; episode `i` runs under
    /// `splitmix64(campaign_seed ^ i · GOLDEN_GAMMA)`.
    pub campaign_seed: u64,
    /// Total episodes in the campaign.
    pub episodes: u32,
    /// MPI world size per episode.
    pub ranks: u32,
    /// Ring-exchange rounds per rank per episode.
    pub messages_per_episode: u32,
    /// Payload bytes per message (kept below the eager switch point so
    /// the workload never deadlocks on rendezvous ordering).
    pub payload: u32,
    /// Encoded, fingerprinted and printed in the report; no episode
    /// reads it. Kept so journal bytes do not move.
    pub workers: u32,
    /// Per-attempt loss probability in thousandths (0..=1000) — stored
    /// as an integer so the config encoding is exact.
    pub loss_milli: u32,
    /// Ack-loss (forced duplicate) probability in thousandths.
    pub ack_loss_milli: u32,
    /// Episodes between snapshots (also the fsync cadence); 0 disables
    /// snapshots entirely (tail-only journal).
    pub snapshot_every: u32,
    /// Record per-ticket committer decisions in episode records (the
    /// `replay diff` substrate; costs journal bytes, never virtual time).
    pub record_decisions: bool,
    /// Mark the first N scheduling decisions of *every* episode
    /// `fallback` (0 = none) — plants a known divergence for the
    /// `replay diff` acceptance test without changing any result byte.
    pub force_fallback: u32,
    /// Streaming flight recorder: when > 0, every episode runs with
    /// tracing on and an incremental [`marcel::EventSink`] that flushes
    /// events/decisions to the journal in chunks of roughly this many
    /// entries (see [`crate::stream`]). 0 (the default) keeps the PR-7
    /// behaviour: buffers accumulate per episode and only digests reach
    /// the journal.
    pub stream_chunk: u32,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            campaign_seed: 0x50AC_0001,
            episodes: 8,
            ranks: 4,
            messages_per_episode: 32,
            payload: 256,
            workers: 0,
            loss_milli: 50,
            ack_loss_milli: 20,
            snapshot_every: 2,
            record_decisions: false,
            force_fallback: 0,
            stream_chunk: 0,
        }
    }
}

impl SoakConfig {
    /// Deterministic seed of episode `index`.
    pub fn episode_seed(&self, index: u32) -> u64 {
        splitmix64(self.campaign_seed ^ (index as u64).wrapping_mul(GOLDEN_GAMMA))
    }

    /// Order-sensitive digest over every field: the campaign identity
    /// stamped into each segment header, so segments from different
    /// campaigns cannot be silently mixed.
    pub fn fingerprint(&self) -> u64 {
        let mut h = splitmix64(self.campaign_seed ^ 0x534F_414B_0000_0001); // "SOAK"
        let mut mix = |v: u64| h = splitmix64(h ^ v);
        mix(self.episodes as u64);
        mix(self.ranks as u64);
        mix(self.messages_per_episode as u64);
        mix(self.payload as u64);
        mix(self.workers as u64);
        mix(self.loss_milli as u64);
        mix(self.ack_loss_milli as u64);
        mix(self.snapshot_every as u64);
        mix(self.record_decisions as u64);
        mix(self.force_fallback as u64);
        mix(self.stream_chunk as u64);
        h
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(self.campaign_seed);
        e.u32(self.episodes);
        e.u32(self.ranks);
        e.u32(self.messages_per_episode);
        e.u32(self.payload);
        e.u32(self.workers);
        e.u32(self.loss_milli);
        e.u32(self.ack_loss_milli);
        e.u32(self.snapshot_every);
        e.bool(self.record_decisions);
        e.u32(self.force_fallback);
        e.u32(self.stream_chunk);
        e.into_vec()
    }

    pub fn decode(buf: &[u8]) -> Result<SoakConfig, DecodeError> {
        let mut d = Dec::new(buf);
        let cfg = SoakConfig {
            campaign_seed: d.u64("config.campaign_seed")?,
            episodes: d.u32("config.episodes")?,
            ranks: d.u32("config.ranks")?,
            messages_per_episode: d.u32("config.messages_per_episode")?,
            payload: d.u32("config.payload")?,
            workers: d.u32("config.workers")?,
            loss_milli: d.u32("config.loss_milli")?,
            ack_loss_milli: d.u32("config.ack_loss_milli")?,
            snapshot_every: d.u32("config.snapshot_every")?,
            record_decisions: d.bool("config.record_decisions")?,
            force_fallback: d.u32("config.force_fallback")?,
            stream_chunk: d.u32("config.stream_chunk")?,
        };
        d.finish("config")?;
        Ok(cfg)
    }
}

/// Campaign-level running totals, accumulated record by record. The
/// final report is a pure function of these, which is what makes a
/// crash-resumed campaign's report byte-identical to an uninterrupted
/// one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    pub wire_messages: u64,
    pub wire_bytes: u64,
    pub retransmits: u64,
    pub drops: u64,
    pub duplicates: u64,
    pub deferrals: u64,
    pub dead_pairs: u64,
    pub failovers: u64,
    pub rndv_reissues: u64,
    /// Sum of per-episode virtual end times (ns).
    pub vtime_ns: u64,
}

impl Totals {
    pub fn add_episode(&mut self, ep: &EpisodeRecord) {
        self.wire_messages += ep.wire_messages;
        self.wire_bytes += ep.wire_bytes;
        self.retransmits += ep.faults.retransmits;
        self.drops += ep.faults.drops;
        self.duplicates += ep.faults.duplicates;
        self.deferrals += ep.faults.deferrals;
        self.dead_pairs += ep.faults.dead_pairs;
        self.failovers += ep.failovers;
        self.rndv_reissues += ep.rndv_reissues;
        self.vtime_ns += ep.end_time_ns;
    }

    fn encode(&self, e: &mut Enc) {
        e.u64(self.wire_messages);
        e.u64(self.wire_bytes);
        e.u64(self.retransmits);
        e.u64(self.drops);
        e.u64(self.duplicates);
        e.u64(self.deferrals);
        e.u64(self.dead_pairs);
        e.u64(self.failovers);
        e.u64(self.rndv_reissues);
        e.u64(self.vtime_ns);
    }

    fn decode(d: &mut Dec<'_>) -> Result<Totals, DecodeError> {
        Ok(Totals {
            wire_messages: d.u64("totals.wire_messages")?,
            wire_bytes: d.u64("totals.wire_bytes")?,
            retransmits: d.u64("totals.retransmits")?,
            drops: d.u64("totals.drops")?,
            duplicates: d.u64("totals.duplicates")?,
            deferrals: d.u64("totals.deferrals")?,
            dead_pairs: d.u64("totals.dead_pairs")?,
            failovers: d.u64("totals.failovers")?,
            rndv_reissues: d.u64("totals.rndv_reissues")?,
            vtime_ns: d.u64("totals.vtime_ns")?,
        })
    }
}

/// One committed scheduling decision: the journal's single mirror of
/// [`marcel::Decision`] (kept separate so the wire format does not
/// depend on marcel's in-memory layout), read and written by both the
/// episode's inline decision log and the streamed decision chunks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecisionRec {
    pub ticket: u64,
    pub tid: u32,
    pub at_ns: u64,
    pub fallback: bool,
    /// Trace events recorded strictly before this decision committed
    /// (see [`marcel::Decision::events_before`]). Only decision chunks
    /// store it; the inline log does not, and reads it back as 0.
    pub events_before: u64,
}

impl From<marcel::Decision> for DecisionRec {
    fn from(d: marcel::Decision) -> Self {
        DecisionRec {
            ticket: d.ticket,
            tid: d.tid as u32,
            at_ns: d.at.0,
            fallback: d.fallback,
            events_before: d.events_before,
        }
    }
}

/// Seed of the decision digest fold.
pub const DECISION_DIGEST_SEED: u64 = 0x4445_4353; // "DECS"

impl DecisionRec {
    /// Fold this decision into a running decision digest (order
    /// sensitive, fallback flag included, `events_before` excluded).
    /// The streamed fold and [`EpisodeRecord::digest_decisions`] are
    /// both this step.
    pub fn fold_digest(&self, h: u64) -> u64 {
        splitmix64(
            h ^ self.ticket.wrapping_mul(GOLDEN_GAMMA)
                ^ self.tid as u64
                ^ self.at_ns
                ^ ((self.fallback as u64) << 63),
        )
    }
}

/// Where two decision streams first part ways.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// Position of the first differing decision, or the shorter
    /// stream's length when one stream is a prefix of the other.
    pub index: usize,
    pub ticket: u64,
    /// What differs, in words.
    pub detail: String,
}

/// The decision-stream comparator of [`crate::replay::diff_runs`];
/// `None` when the streams are equal.
pub fn first_divergence(a: &[DecisionRec], b: &[DecisionRec]) -> Option<Divergence> {
    let shared = a.len().min(b.len());
    if let Some(index) = (0..shared).find(|&i| a[i] != b[i]) {
        let (x, y) = (&a[index], &b[index]);
        let detail = if x.fallback != y.fallback
            && (x.ticket, x.tid, x.at_ns) == (y.ticket, y.tid, y.at_ns)
        {
            format!(
                "only the fallback flag differs ({} vs {})",
                x.fallback, y.fallback
            )
        } else {
            format!(
                "decision (tid {}, at {}ns, fallback {}) vs (tid {}, at {}ns, fallback {})",
                x.tid, x.at_ns, x.fallback, y.tid, y.at_ns, y.fallback
            )
        };
        return Some(Divergence {
            index,
            ticket: x.ticket,
            detail,
        });
    }
    (a.len() != b.len()).then(|| Divergence {
        index: shared,
        ticket: a.get(shared).or(b.get(shared)).map_or(0, |d| d.ticket),
        detail: format!(
            "decision streams share {shared} tickets, then lengths differ ({} vs {})",
            a.len(),
            b.len()
        ),
    })
}

/// One finished episode: its identity, result/trace/metrics digests,
/// fault outcome, and (optionally) the full committer decision stream.
/// `cum_digest` chains every prior episode — two campaigns agree on a
/// prefix exactly when their last common record's `cum_digest` agrees,
/// which is what `replay diff` binary-searches on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EpisodeRecord {
    pub index: u32,
    pub episode_seed: u64,
    /// Kernel end time of the episode (virtual ns).
    pub end_time_ns: u64,
    /// Digest of the per-rank results, in rank order.
    pub result_digest: u64,
    /// CRC-64 of the metrics-registry snapshot rendering.
    pub metrics_digest: u64,
    /// CRC-64 of the Chrome trace JSON (0 when tracing was off).
    pub trace_digest: u64,
    /// Digest of the decision stream (0 when not recorded).
    pub decisions_digest: u64,
    pub faults: FaultCounters,
    pub failovers: u64,
    pub rndv_reissues: u64,
    pub wire_messages: u64,
    pub wire_bytes: u64,
    /// Chained digest over all episodes up to and including this one.
    pub cum_digest: u64,
    /// Full decision stream, with every `events_before` 0 (empty unless
    /// `record_decisions`, and always empty for a streamed episode).
    pub decisions: Vec<DecisionRec>,
}

impl EpisodeRecord {
    /// The episode's own contribution to the cumulative chain.
    pub fn own_digest(&self) -> u64 {
        let mut h = splitmix64(self.episode_seed ^ self.index as u64);
        let mut mix = |v: u64| h = splitmix64(h ^ v);
        mix(self.end_time_ns);
        mix(self.result_digest);
        mix(self.metrics_digest);
        mix(self.trace_digest);
        mix(self.decisions_digest);
        mix(self.faults.retransmits);
        mix(self.faults.drops);
        mix(self.faults.duplicates);
        mix(self.faults.deferrals);
        mix(self.faults.dead_pairs);
        mix(self.failovers);
        mix(self.rndv_reissues);
        mix(self.wire_messages);
        mix(self.wire_bytes);
        h
    }

    /// Digest of a decision stream (order sensitive, fallback flags
    /// included — the forced-fallback divergence lives here).
    pub fn digest_decisions(decisions: &[DecisionRec]) -> u64 {
        decisions
            .iter()
            .fold(DECISION_DIGEST_SEED, |h, d| d.fold_digest(h))
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u32(self.index);
        e.u64(self.episode_seed);
        e.u64(self.end_time_ns);
        e.u64(self.result_digest);
        e.u64(self.metrics_digest);
        e.u64(self.trace_digest);
        e.u64(self.decisions_digest);
        e.u64(self.faults.retransmits);
        e.u64(self.faults.drops);
        e.u64(self.faults.duplicates);
        e.u64(self.faults.deferrals);
        e.u64(self.faults.dead_pairs);
        e.u64(self.failovers);
        e.u64(self.rndv_reissues);
        e.u64(self.wire_messages);
        e.u64(self.wire_bytes);
        e.u64(self.cum_digest);
        e.u32(self.decisions.len() as u32);
        for d in &self.decisions {
            e.u64(d.ticket);
            e.u32(d.tid);
            e.u64(d.at_ns);
            e.bool(d.fallback);
        }
        e.into_vec()
    }

    pub fn decode(buf: &[u8]) -> Result<EpisodeRecord, DecodeError> {
        let mut d = Dec::new(buf);
        let mut ep = EpisodeRecord {
            index: d.u32("episode.index")?,
            episode_seed: d.u64("episode.seed")?,
            end_time_ns: d.u64("episode.end_time_ns")?,
            result_digest: d.u64("episode.result_digest")?,
            metrics_digest: d.u64("episode.metrics_digest")?,
            trace_digest: d.u64("episode.trace_digest")?,
            decisions_digest: d.u64("episode.decisions_digest")?,
            faults: FaultCounters {
                retransmits: d.u64("episode.retransmits")?,
                drops: d.u64("episode.drops")?,
                duplicates: d.u64("episode.duplicates")?,
                deferrals: d.u64("episode.deferrals")?,
                dead_pairs: d.u64("episode.dead_pairs")?,
            },
            failovers: d.u64("episode.failovers")?,
            rndv_reissues: d.u64("episode.rndv_reissues")?,
            wire_messages: d.u64("episode.wire_messages")?,
            wire_bytes: d.u64("episode.wire_bytes")?,
            cum_digest: d.u64("episode.cum_digest")?,
            decisions: Vec::new(),
        };
        let n = d.u32("episode.decision_count")?;
        ep.decisions.reserve(n.min(1 << 20) as usize);
        for _ in 0..n {
            ep.decisions.push(DecisionRec {
                ticket: d.u64("episode.decision.ticket")?,
                tid: d.u32("episode.decision.tid")?,
                at_ns: d.u64("episode.decision.at_ns")?,
                fallback: d.bool("episode.decision.fallback")?,
                events_before: 0,
            });
        }
        d.finish("episode")?;
        Ok(ep)
    }
}

/// A durable point: the campaign cursor, the running totals and the
/// digest chain after the last recorded episode — the three fields the
/// reader cross-checks against the episode records before them. The
/// writer fsyncs after every snapshot, so resume is guaranteed to find
/// at least the newest one on disk after a crash.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotRecord {
    /// Episodes fully recorded before this snapshot (the resume
    /// cursor: the next episode to run is `episodes_done`).
    pub episodes_done: u32,
    pub totals: Totals,
    /// `cum_digest` of the last episode record (0 when none).
    pub cum_digest: u64,
}

impl SnapshotRecord {
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u32(self.episodes_done);
        self.totals.encode(&mut e);
        e.u64(self.cum_digest);
        e.into_vec()
    }

    pub fn decode(buf: &[u8]) -> Result<SnapshotRecord, DecodeError> {
        let mut d = Dec::new(buf);
        let snap = SnapshotRecord {
            episodes_done: d.u32("snapshot.episodes_done")?,
            totals: Totals::decode(&mut d)?,
            cum_digest: d.u64("snapshot.cum_digest")?,
        };
        d.finish("snapshot")?;
        Ok(snap)
    }
}

/// One decoded journal record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Record {
    Config(SoakConfig),
    Episode(EpisodeRecord),
    Snapshot(SnapshotRecord),
    EventChunk(crate::stream::EventChunkRec),
    DecisionChunk(crate::stream::DecisionChunkRec),
    MetricsDelta(crate::stream::MetricsDeltaRec),
    Index(crate::stream::IndexRec),
}

impl Record {
    pub fn kind(&self) -> u8 {
        match self {
            Record::Config(_) => KIND_CONFIG,
            Record::Episode(_) => KIND_EPISODE,
            Record::Snapshot(_) => KIND_SNAPSHOT,
            Record::EventChunk(_) => KIND_EVENT_CHUNK,
            Record::DecisionChunk(_) => KIND_DECISION_CHUNK,
            Record::MetricsDelta(_) => KIND_METRICS_DELTA,
            Record::Index(_) => KIND_INDEX,
        }
    }

    pub fn encode(&self) -> Vec<u8> {
        match self {
            Record::Config(c) => c.encode(),
            Record::Episode(e) => e.encode(),
            Record::Snapshot(s) => s.encode(),
            Record::EventChunk(c) => c.encode(),
            Record::DecisionChunk(c) => c.encode(),
            Record::MetricsDelta(m) => m.encode(),
            Record::Index(i) => i.encode(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_episode() -> EpisodeRecord {
        let decisions = vec![
            DecisionRec {
                ticket: 0,
                tid: 1,
                at_ns: 10,
                fallback: false,
                events_before: 0,
            },
            DecisionRec {
                ticket: 1,
                tid: 0,
                at_ns: 20,
                fallback: true,
                events_before: 0,
            },
        ];
        EpisodeRecord {
            index: 3,
            episode_seed: 0xABCD,
            end_time_ns: 123_456,
            result_digest: 1,
            metrics_digest: 2,
            trace_digest: 3,
            decisions_digest: EpisodeRecord::digest_decisions(&decisions),
            faults: FaultCounters {
                retransmits: 4,
                drops: 5,
                duplicates: 6,
                deferrals: 7,
                dead_pairs: 0,
            },
            failovers: 1,
            rndv_reissues: 2,
            wire_messages: 100,
            wire_bytes: 6400,
            cum_digest: 0xFEED,
            decisions,
        }
    }

    #[test]
    fn config_round_trips() {
        let cfg = SoakConfig {
            record_decisions: true,
            force_fallback: 7,
            ..SoakConfig::default()
        };
        assert_eq!(SoakConfig::decode(&cfg.encode()).unwrap(), cfg);
        // Fingerprint is sensitive to each field.
        let other = SoakConfig {
            snapshot_every: 3,
            ..cfg.clone()
        };
        assert_ne!(cfg.fingerprint(), other.fingerprint());
    }

    #[test]
    fn episode_round_trips_with_decisions() {
        let ep = sample_episode();
        assert_eq!(EpisodeRecord::decode(&ep.encode()).unwrap(), ep);
    }

    #[test]
    fn snapshot_round_trips() {
        let mut totals = Totals::default();
        totals.add_episode(&sample_episode());
        let snap = SnapshotRecord {
            episodes_done: 4,
            totals,
            cum_digest: 0xFEED,
        };
        assert_eq!(SnapshotRecord::decode(&snap.encode()).unwrap(), snap);
    }

    #[test]
    fn truncated_payloads_decode_to_errors() {
        let ep = sample_episode();
        let buf = ep.encode();
        for cut in 0..buf.len() {
            assert!(
                EpisodeRecord::decode(&buf[..cut]).is_err(),
                "cut at {cut} decoded"
            );
        }
    }

    #[test]
    fn decision_digest_sees_fallback_flags() {
        let mut decisions = vec![DecisionRec {
            ticket: 0,
            tid: 1,
            at_ns: 10,
            fallback: false,
            events_before: 0,
        }];
        let a = EpisodeRecord::digest_decisions(&decisions);
        decisions[0].fallback = true;
        let b = EpisodeRecord::digest_decisions(&decisions);
        assert_ne!(a, b);
    }
}
