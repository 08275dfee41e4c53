//! Divergence bisect: given two journals of the "same" campaign, name
//! the first episode — and, when decision streams were recorded, the
//! exact first committer ticket — where they disagree.
//!
//! The episode records chain their digests (`cum_digest[i] =
//! splitmix64(cum_digest[i-1] ^ own_digest[i])`), so divergence is
//! monotone: once two campaigns disagree they disagree forever, and the
//! first divergent episode is found by binary search over the chain
//! rather than a linear field-by-field sweep. Within that episode the
//! decision streams — inline or streamed — are compared ticket by
//! ticket. The acceptance scenario is the forced-fallback campaign:
//! every result byte matches, only the decision log's fallback flags
//! differ, and bisect must still name ticket 0 of the first affected
//! episode. `replay diff` walks the same chain and decision streams.

use std::path::Path;

use crate::error::JournalError;
use crate::record::{first_divergence, DecisionRec, EpisodeRecord, SoakConfig};
use crate::replay::read_episode_decisions;
use crate::store::{read_journal_recovering, JournalContents};

/// Where two journals first part ways.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BisectReport {
    /// Episodes compared (the shorter journal's length).
    pub episodes_compared: u32,
    /// First episode whose records differ, if any.
    pub first_divergent_episode: Option<u32>,
    /// First committer ticket that differs inside that episode, when
    /// both journals carry decision streams for it.
    pub first_divergent_ticket: Option<u64>,
    /// Human-readable account of *what* differs.
    pub detail: String,
}

impl std::fmt::Display for BisectReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.first_divergent_episode {
            None => write!(
                f,
                "journals agree over all {} compared episodes",
                self.episodes_compared
            ),
            Some(ep) => {
                write!(f, "first divergence at episode {ep}")?;
                if let Some(t) = self.first_divergent_ticket {
                    write!(f, ", ticket {t}")?;
                }
                write!(f, ": {}", self.detail)
            }
        }
    }
}

/// Two campaigns are comparable when every config field that shapes the
/// *workload* agrees; `force_fallback` is exempt (planting a forced
/// divergence is bisect's whole use case) and so is `workers` (the
/// execution policy must not change results — catching it when it does
/// is also bisect's use case).
fn comparable(a: &SoakConfig, b: &SoakConfig) -> Result<(), JournalError> {
    let strip = |c: &SoakConfig| SoakConfig {
        force_fallback: 0,
        workers: 0,
        ..c.clone()
    };
    if strip(a) != strip(b) {
        return Err(JournalError::BisectMismatch {
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
/// digest differs, found by binary search: invariant — episodes before
/// `lo` agree, and the first disagreement is at or before `hi`.
pub(crate) fn first_divergent_episode(a: &[EpisodeRecord], b: &[EpisodeRecord]) -> Option<usize> {
    let n = a.len().min(b.len());
    if n == 0 || a[n - 1].cum_digest == b[n - 1].cum_digest {
        return None;
    }
    let (mut lo, mut hi) = (0usize, n - 1);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if a[mid].cum_digest == b[mid].cum_digest {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

/// Decision stream of episode `episode` in a journal: from the chunk
/// stream when the episode streamed, else from the in-record decision
/// log (whose entries carry no `events_before` bridge — it reads as 0).
pub(crate) fn decision_stream(
    dir: &Path,
    contents: &JournalContents,
    episode: usize,
) -> Result<Vec<DecisionRec>, JournalError> {
    match contents.stream.iter().find(|s| s.episode == episode as u32) {
        Some(summary) if summary.decisions > 0 => read_episode_decisions(dir, summary),
        _ => Ok(contents.episodes[episode].decisions.clone()),
    }
}

/// Compare two journals and report their first divergence. Reads are
/// best-effort: a torn or damaged tail limits the comparison to the
/// valid prefixes (bisecting the journal of a crashed run is exactly
/// when this matters).
pub fn bisect(dir_a: &Path, dir_b: &Path) -> Result<BisectReport, JournalError> {
    let (a, _) = read_journal_recovering(dir_a)?;
    let (b, _) = read_journal_recovering(dir_b)?;
    comparable(&a.config, &b.config)?;
    let n = a.episodes.len().min(b.episodes.len());
    if n == 0 {
        return Err(JournalError::BisectMismatch {
            why: "one journal has no complete episodes".into(),
        });
    }

    let Some(lo) = first_divergent_episode(&a.episodes, &b.episodes) else {
        return Ok(BisectReport {
            episodes_compared: n as u32,
            first_divergent_episode: None,
            first_divergent_ticket: None,
            detail: if a.episodes.len() == b.episodes.len() {
                "identical".into()
            } else {
                format!(
                    "identical prefix; lengths differ ({} vs {} episodes)",
                    a.episodes.len(),
                    b.episodes.len()
                )
            },
        });
    };
    let (dx, dy) = (
        decision_stream(dir_a, &a, lo)?,
        decision_stream(dir_b, &b, lo)?,
    );
    let (ticket, detail) = describe(&a.episodes[lo], &b.episodes[lo], &dx, &dy);
    Ok(BisectReport {
        episodes_compared: n as u32,
        first_divergent_episode: Some(lo as u32),
        first_divergent_ticket: ticket,
        detail,
    })
}

/// Name the differing fields of the first divergent episode pair, and
/// resolve the first differing ticket when decision streams allow.
fn describe(
    x: &EpisodeRecord,
    y: &EpisodeRecord,
    dx: &[DecisionRec],
    dy: &[DecisionRec],
) -> (Option<u64>, String) {
    let mut fields = Vec::new();
    let mut diff = |name: &'static str, a: u64, b: u64| {
        if a != b {
            fields.push(format!("{name} ({a:#x} vs {b:#x})"));
        }
    };
    diff("episode_seed", x.episode_seed, y.episode_seed);
    diff("end_time_ns", x.end_time_ns, y.end_time_ns);
    diff("result_digest", x.result_digest, y.result_digest);
    diff("metrics_digest", x.metrics_digest, y.metrics_digest);
    diff("trace_digest", x.trace_digest, y.trace_digest);
    diff("decisions_digest", x.decisions_digest, y.decisions_digest);
    diff("wire_messages", x.wire_messages, y.wire_messages);
    diff("wire_bytes", x.wire_bytes, y.wire_bytes);
    diff("failovers", x.failovers, y.failovers);
    diff("rndv_reissues", x.rndv_reissues, y.rndv_reissues);

    let mut ticket = None;
    if !dx.is_empty() && !dy.is_empty() {
        if let Some(d) = first_divergence(dx, dy) {
            ticket = Some(d.ticket);
            fields.push(if d.index < dx.len().min(dy.len()) {
                format!("ticket {}: {}", d.ticket, d.detail)
            } else {
                d.detail
            });
        }
    }
    if fields.is_empty() {
        fields.push("episode digests differ but no recorded field does (fault counters?)".into());
    }
    (ticket, fields.join("; "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::DecisionRec;
    use crate::soak::Campaign;
    use crate::store::chain;
    use std::fs;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("journal-bisect-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// End to end on real campaigns: a baseline and a forced-fallback
    /// twin must bisect to episode 0, ticket 0, fallback-flag-only —
    /// whether the decisions sit in the episode records or, with
    /// `stream_chunk > 0`, only in the chunk stream.
    fn bisect_forced_fallback(tag: &str, stream_chunk: u32) {
        let cfg = SoakConfig {
            episodes: 2,
            ranks: 3,
            messages_per_episode: 4,
            payload: 64,
            record_decisions: true,
            workers: 2,
            stream_chunk,
            ..SoakConfig::default()
        };
        let dir_a = tmpdir(&format!("{tag}-base"));
        let mut a = Campaign::create(&dir_a, cfg.clone()).unwrap();
        a.run_to_completion().unwrap();
        let dir_b = tmpdir(&format!("{tag}-forced"));
        let mut b = Campaign::create(
            &dir_b,
            SoakConfig {
                force_fallback: 2,
                ..cfg
            },
        )
        .unwrap();
        b.run_to_completion().unwrap();

        let report = bisect(&dir_a, &dir_b).unwrap();
        assert_eq!(report.first_divergent_episode, Some(0));
        assert_eq!(report.first_divergent_ticket, Some(0));
        assert!(
            report.detail.contains("only the fallback flag differs"),
            "{}",
            report.detail
        );
        fs::remove_dir_all(&dir_a).unwrap();
        fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn forced_fallback_bisects_to_ticket_zero() {
        bisect_forced_fallback("inline", 0);
    }

    #[test]
    fn streamed_forced_fallback_bisects_to_ticket_zero() {
        bisect_forced_fallback("streamed", 64);
    }

    fn synthetic(index: u32, cum: u64, decisions: Vec<DecisionRec>) -> EpisodeRecord {
        let mut ep = EpisodeRecord {
            index,
            episode_seed: 0x1000 + index as u64,
            end_time_ns: 10,
            result_digest: 1,
            metrics_digest: 2,
            trace_digest: 0,
            decisions_digest: if decisions.is_empty() {
                0
            } else {
                EpisodeRecord::digest_decisions(&decisions)
            },
            faults: Default::default(),
            failovers: 0,
            rndv_reissues: 0,
            wire_messages: 5,
            wire_bytes: 320,
            cum_digest: 0,
            decisions,
        };
        ep.cum_digest = chain(cum, ep.own_digest());
        ep
    }

    #[test]
    fn binary_search_finds_a_mid_campaign_divergence() {
        use crate::record::Record;
        use crate::store::{read_journal, JournalWriter};
        let cfg = SoakConfig {
            episodes: 16,
            ..SoakConfig::default()
        };
        let d = |t: u64, fb: bool| DecisionRec {
            ticket: t,
            tid: 1,
            at_ns: 7 * t,
            fallback: fb,
            events_before: 0,
        };
        let write = |dir: &Path, diverge_at: u32| {
            let mut w = JournalWriter::create(dir, &cfg).unwrap();
            let mut cum = 0;
            for i in 0..16u32 {
                let flips = i >= diverge_at;
                let ep = synthetic(i, cum, vec![d(0, false), d(1, flips), d(2, false)]);
                cum = ep.cum_digest;
                w.append(&Record::Episode(ep)).unwrap();
            }
        };
        let dir_a = tmpdir("mid-a");
        let dir_b = tmpdir("mid-b");
        write(&dir_a, u32::MAX);
        write(&dir_b, 11);
        read_journal(&dir_a).unwrap();
        let report = bisect(&dir_a, &dir_b).unwrap();
        assert_eq!(report.first_divergent_episode, Some(11));
        assert_eq!(report.first_divergent_ticket, Some(1));
        fs::remove_dir_all(&dir_a).unwrap();
        fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn incomparable_configs_are_rejected() {
        use crate::record::Record;
        use crate::store::JournalWriter;
        let dir_a = tmpdir("cfg-a");
        let dir_b = tmpdir("cfg-b");
        let cfg = SoakConfig::default();
        let other = SoakConfig {
            ranks: cfg.ranks + 1,
            ..cfg.clone()
        };
        for (dir, c) in [(&dir_a, &cfg), (&dir_b, &other)] {
            let mut w = JournalWriter::create(dir, c).unwrap();
            w.append(&Record::Episode(synthetic(0, 0, Vec::new())))
                .unwrap();
        }
        assert!(matches!(
            bisect(&dir_a, &dir_b),
            Err(JournalError::BisectMismatch { .. })
        ));
        fs::remove_dir_all(&dir_a).unwrap();
        fs::remove_dir_all(&dir_b).unwrap();
    }
}
