//! The journal's record vocabulary and its structured encodings.
//!
//! Two record kinds travel in checksummed frames (see
//! [`crate::store`]) beside the streamed chunks of [`crate::stream`]:
//! the campaign [`SoakConfig`] (first record of segment 0 — a journal is
//! self-contained, `resume` and `replay diff` need no side channel) and
//! one [`EpisodeRecord`] per finished episode — digests and counts; its
//! events and decisions travel only as chunks — whose `cum_digest`
//! chains every episode before it. The reader folds the campaign's
//! totals and cursor from the episodes themselves. Every encoding is
//! little-endian via [`crate::codec`]; every decode is total (typed
//! errors, no panics).

use madeleine::FaultCounters;
use simnet::rng::{splitmix64, GOLDEN_GAMMA};

use crate::codec::{Dec, DecodeError, Enc};

/// Record kind tags on the wire.
pub const KIND_CONFIG: u8 = 1;
pub const KIND_EPISODE: u8 = 2;
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
    /// Per-attempt loss probability in thousandths (0..=1000) — stored
    /// as an integer so the config encoding is exact.
    pub loss_milli: u32,
    /// Ack-loss (forced duplicate) probability in thousandths.
    pub ack_loss_milli: u32,
    /// Episodes between durability points: the writer fsyncs (and a
    /// streamed campaign rewrites its index) after every
    /// `snapshot_every`-th episode and after the last; 0 leaves only
    /// the last.
    pub snapshot_every: u32,
    /// Also stream every episode's per-ticket committer decisions (the
    /// `replay diff` substrate; costs journal bytes, never virtual
    /// time). Needs `stream_chunk > 0`.
    pub record_decisions: bool,
    /// The flight recorder: when > 0, every episode runs with tracing on
    /// and a [`crate::stream::StreamRecorder`] that flushes its events
    /// (and decisions) to the journal in chunks of roughly this many
    /// entries. 0 (the default) records digests only.
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
            loss_milli: 50,
            ack_loss_milli: 20,
            snapshot_every: 2,
            record_decisions: false,
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
        // The two zeros stand where the deleted `workers` and
        // `force_fallback` fields were mixed, so every fingerprint, and
        // with it the report that benchmark/golden.json pins, keeps its
        // value; they go when golden.json is re-blessed.
        mix(0);
        mix(self.loss_milli as u64);
        mix(self.ack_loss_milli as u64);
        mix(self.snapshot_every as u64);
        mix(self.record_decisions as u64);
        mix(0);
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
        e.u32(self.loss_milli);
        e.u32(self.ack_loss_milli);
        e.u32(self.snapshot_every);
        e.bool(self.record_decisions);
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
            loss_milli: d.u32("config.loss_milli")?,
            ack_loss_milli: d.u32("config.ack_loss_milli")?,
            snapshot_every: d.u32("config.snapshot_every")?,
            record_decisions: d.bool("config.record_decisions")?,
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
}

/// One committed scheduling decision: the journal's mirror of
/// [`marcel::Decision`] (kept separate so the wire format does not
/// depend on marcel's in-memory layout), as decision chunks carry it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecisionRec {
    pub ticket: u64,
    pub tid: u32,
    pub at_ns: u64,
    /// Trace events recorded strictly before this decision committed
    /// (see [`marcel::Decision::events_before`]).
    pub events_before: u64,
}

impl From<marcel::Decision> for DecisionRec {
    fn from(d: marcel::Decision) -> Self {
        DecisionRec {
            ticket: d.ticket,
            tid: d.tid as u32,
            at_ns: d.at.0,
            events_before: d.events_before,
        }
    }
}

/// Seed of the decision digest fold.
pub const DECISION_DIGEST_SEED: u64 = 0x4445_4353; // "DECS"

impl DecisionRec {
    /// Fold this decision into a running decision digest (order
    /// sensitive, `events_before` excluded): the step of the streamed
    /// fold and of [`EpisodeRecord::digest_decisions`].
    pub fn fold_digest(&self, h: u64) -> u64 {
        splitmix64(h ^ self.ticket.wrapping_mul(GOLDEN_GAMMA) ^ self.tid as u64 ^ self.at_ns)
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
        let detail = format!(
            "decision (tid {}, at {}ns) vs (tid {}, at {}ns)",
            x.tid, x.at_ns, y.tid, y.at_ns
        );
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

/// One finished episode: its identity, result/trace/metrics/decision
/// digests and fault outcome; a streamed episode's events and decisions
/// sit in the chunks before it. `cum_digest` chains every prior
/// episode — two campaigns agree on a prefix exactly when their last
/// common record's `cum_digest` agrees, which is what `replay diff`
/// binary-searches on.
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
    /// The episode's stream digest chain (0 when not streamed).
    pub trace_digest: u64,
    /// Digest of the streamed decisions (0 when not recorded).
    pub decisions_digest: u64,
    pub faults: FaultCounters,
    pub failovers: u64,
    pub rndv_reissues: u64,
    pub wire_messages: u64,
    pub wire_bytes: u64,
    /// Chained digest over all episodes up to and including this one.
    pub cum_digest: u64,
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

    /// Digest of a decision stream (order sensitive): the reference the
    /// streamed fold is tested against.
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
        e.into_vec()
    }

    pub fn decode(buf: &[u8]) -> Result<EpisodeRecord, DecodeError> {
        let mut d = Dec::new(buf);
        let ep = EpisodeRecord {
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
        };
        d.finish("episode")?;
        Ok(ep)
    }
}

/// One decoded journal record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Record {
    Config(SoakConfig),
    Episode(EpisodeRecord),
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
                events_before: 0,
            },
            DecisionRec {
                ticket: 1,
                tid: 0,
                at_ns: 20,
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
        }
    }

    #[test]
    fn config_round_trips() {
        let cfg = SoakConfig {
            record_decisions: true,
            stream_chunk: 7,
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
}
