//! The soak campaign runner: `record`, `resume`, `report`.
//!
//! A campaign is a sequence of episodes, each a full `run_world` over a
//! lossy single-network topology, seeded as
//! `splitmix64(campaign_seed ^ i·GOLDEN_GAMMA)` so episode `i` is a pure
//! function of the config. The journal records one [`EpisodeRecord`]
//! per finished episode — with `stream_chunk > 0` after the episode's
//! event (and decision) chunks, else digests only — and fsyncs every
//! `snapshot_every` episodes; a crash between records loses at most the
//! in-flight episode, which resume simply re-runs — episodes are
//! deterministic, so a re-run reproduces the lost record byte for byte.
//! The campaign report is a pure function of the config and the episode
//! records, which is what makes a crash-resumed campaign's report
//! *byte-identical* to an uninterrupted one (the CI soak leg diffs
//! them).
//!
//! Fiber stacks cannot be serialized, so the journal holds no world
//! state: the resume cursor is the number of valid episode records, and
//! the running totals and digest chain fold from them. Resume recovers
//! the world by re-running the next episode from its seed.

use std::any::Any;
use std::path::{Path, PathBuf};

use marcel::{MetricsSnapshot, ThreadMeta};
use mpich::{thread_metas, Placement, StreamHook, WorldConfig, WorldFailure};
use simnet::rng::splitmix64;
use simnet::{FaultPlan, NetworkId, Protocol, Topology};

use crate::crc::crc64;
use crate::error::JournalError;
use crate::record::{EpisodeRecord, Record, SoakConfig, Totals};
use crate::store::{chain, read_journal_recovering, JournalContents, JournalWriter};
use crate::stream::{IndexRec, StreamRecorder, StreamSummary};

/// A campaign in progress: the journal writer plus the folded state of
/// every record written so far.
pub struct Campaign {
    dir: PathBuf,
    config: SoakConfig,
    /// The journal's one writer. A streamed episode's
    /// [`StreamRecorder`] owns it while the episode runs (chunk appends
    /// happen from inside the kernel); the world hands the recorder
    /// back whether it finished or failed, and the recorder hands the
    /// writer back. `None` only while an episode runs.
    writer: Option<JournalWriter>,
    episodes: Vec<EpisodeRecord>,
    totals: Totals,
    cum_digest: u64,
    /// Index entries of streamed episodes, in order (for `KIND_INDEX`).
    stream: Vec<StreamSummary>,
    /// Metrics snapshot of the previous episode — the base the next
    /// episode's `MetricsDelta` is diffed against.
    prev_metrics: MetricsSnapshot,
}

impl Campaign {
    /// Start a fresh campaign: create the journal and write its config
    /// record.
    pub fn create(dir: &Path, config: SoakConfig) -> Result<Campaign, JournalError> {
        check_runnable(&config)?;
        let writer = JournalWriter::create(dir, &config)?;
        Ok(Campaign {
            dir: dir.to_path_buf(),
            config,
            writer: Some(writer),
            episodes: Vec::new(),
            totals: Totals::default(),
            cum_digest: 0,
            stream: Vec::new(),
            prev_metrics: MetricsSnapshot::default(),
        })
    }

    /// Resume a campaign from its journal. A torn tail (the crash
    /// signature — a frame cut short mid-write) is truncated and the
    /// campaign continues from the last complete episode; any *other*
    /// frame-level damage (checksum mismatch, undecodable or
    /// inconsistent record) is reported as the typed error unless
    /// `force` truncates to the valid prefix anyway.
    pub fn resume(dir: &Path, force: bool) -> Result<Campaign, JournalError> {
        let (contents, stopped) = read_journal_recovering(dir)?;
        if let Some(err) = stopped {
            let torn = matches!(err, JournalError::TruncatedRecord { .. });
            if !torn && !force {
                return Err(err);
            }
        }
        let JournalContents {
            config,
            episodes,
            stream,
            metrics_deltas,
            recovery,
            ..
        } = contents;
        check_runnable(&config)?;
        let writer = JournalWriter::reopen(dir, &recovery, config.fingerprint())?;
        let mut totals = Totals::default();
        let mut cum_digest = 0;
        for ep in &episodes {
            totals.add_episode(ep);
            cum_digest = ep.cum_digest;
        }
        // Rebuild the metrics base for the next episode's delta by
        // folding the recorded deltas (empty when not streaming).
        let mut prev_metrics = MetricsSnapshot::default();
        for delta in &metrics_deltas {
            delta
                .apply(&mut prev_metrics)
                .map_err(|why| JournalError::Inconsistent {
                    recovery: recovery.clone(),
                    why,
                })?;
        }
        Ok(Campaign {
            dir: dir.to_path_buf(),
            config,
            writer: Some(writer),
            episodes,
            totals,
            cum_digest,
            stream,
            prev_metrics,
        })
    }

    pub fn config(&self) -> &SoakConfig {
        &self.config
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn episodes_done(&self) -> u32 {
        self.episodes.len() as u32
    }

    pub fn is_complete(&self) -> bool {
        self.episodes_done() >= self.config.episodes
    }

    fn writer(&mut self) -> &mut JournalWriter {
        self.writer
            .as_mut()
            .expect("invariant: the campaign holds its writer between episodes")
    }

    /// Run the next episode, append its record, and fsync at the
    /// configured cadence. With `stream_chunk > 0` the episode's events,
    /// decisions, and metrics delta were already appended incrementally
    /// by the time the episode record lands, and every durability point
    /// is followed by a rewritten cumulative stream index. A step that
    /// fails before its episode record is appended leaves the campaign
    /// as it was — a failed world's streamed chunks are cut off the
    /// journal again — and the next step re-runs the same episode.
    pub fn step(&mut self) -> Result<(), JournalError> {
        if self.is_complete() {
            return Err(JournalError::AlreadyComplete {
                episodes: self.config.episodes,
            });
        }
        let index = self.episodes_done();
        let last = index + 1 == self.config.episodes;
        let streaming = self.config.stream_chunk > 0;
        let start = self.writer().position();
        let recorder = self
            .writer
            .take_if(|_| streaming)
            .map(|writer| StreamRecorder::new(writer, index));
        let (recorder, outcome) = run_episode(&self.config, index, recorder);
        let EpisodeOutcome {
            mut ep,
            metrics,
            threads,
        } = match outcome {
            Ok(outcome) => outcome,
            Err(e) => {
                // Cut the failed world's chunks off again: the journal
                // stays at its last good episode, however often the
                // episode is re-run and fails.
                if let Some(recorder) = recorder {
                    self.writer
                        .insert(recorder.into_writer())
                        .truncate_to(start)?;
                }
                return Err(e);
            }
        };
        // A streamed record's digests come from the recorder's chunk
        // chain, and its `finish` hands the writer back.
        let mut summary = None;
        if let Some(recorder) = recorder {
            let (writer, fin) = recorder.finish(threads, &self.prev_metrics, &metrics);
            self.writer = Some(writer);
            let fin = fin?;
            ep.trace_digest = fin.cum;
            ep.decisions_digest = fin.decisions_digest;
            summary = Some(fin);
        }
        ep.cum_digest = chain(self.cum_digest, ep.own_digest());
        self.writer().append(&Record::Episode(ep.clone()))?;
        // Fold the episode in only once its record is written.
        self.cum_digest = ep.cum_digest;
        self.totals.add_episode(&ep);
        self.stream.extend(summary);
        self.prev_metrics = metrics;
        self.episodes.push(ep);
        let due = self.config.snapshot_every > 0
            && (index + 1).is_multiple_of(self.config.snapshot_every);
        if due || last {
            self.writer().sync()?;
            if streaming {
                // Rewrite the cumulative seekable index right after the
                // durability point, so a reader can always jump from
                // the newest index to any (episode, ticket).
                let index = Record::Index(IndexRec {
                    entries: self.stream.clone(),
                });
                self.writer().append(&index)?;
            }
        }
        Ok(())
    }

    /// Run every remaining episode.
    pub fn run_to_completion(&mut self) -> Result<(), JournalError> {
        while !self.is_complete() {
            self.step()?;
        }
        self.writer().sync()
    }

    /// Tear the journal's tail as a mid-write crash would (see
    /// [`JournalWriter::simulate_torn_tail`]). Consumes the campaign.
    pub fn tear_tail(mut self) -> Result<(), JournalError> {
        self.writer
            .take()
            .map_or(Ok(()), JournalWriter::simulate_torn_tail)
    }

    /// The campaign report: a pure function of the config and the
    /// episode records, so a resumed campaign reports byte-identically
    /// to an uninterrupted one.
    pub fn report(&self) -> String {
        render_report(&self.config, &self.episodes, &self.totals)
    }
}

/// Render the deterministic campaign report.
pub fn render_report(config: &SoakConfig, episodes: &[EpisodeRecord], totals: &Totals) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "soak campaign {:#018x}", config.fingerprint());
    // `workers=0` and `force_fallback=0` name deleted fields; they stay
    // because benchmark/golden.json pins these bytes, and go when it is
    // re-blessed.
    let _ = write!(
        out,
        "config: seed={:#x} episodes={} ranks={} messages={} payload={}B workers=0 \
         loss={}/1000 ack_loss={}/1000 snapshot_every={} decisions={} force_fallback=0",
        config.campaign_seed,
        config.episodes,
        config.ranks,
        config.messages_per_episode,
        config.payload,
        config.loss_milli,
        config.ack_loss_milli,
        config.snapshot_every,
        config.record_decisions,
    );
    // Appended only when streaming, so non-streamed reports keep their
    // exact historical bytes (the CI resume leg byte-diffs them).
    if config.stream_chunk > 0 {
        let _ = write!(out, " stream={}", config.stream_chunk);
    }
    out.push('\n');
    let _ = writeln!(
        out,
        "episodes: {}/{} complete",
        episodes.len(),
        config.episodes
    );
    let _ = writeln!(
        out,
        "wire: {} messages, {} bytes",
        totals.wire_messages, totals.wire_bytes
    );
    let _ = writeln!(
        out,
        "faults: retransmits={} drops={} duplicates={} deferrals={} dead_pairs={}",
        totals.retransmits, totals.drops, totals.duplicates, totals.deferrals, totals.dead_pairs
    );
    let _ = writeln!(
        out,
        "recovery: failovers={} rndv_reissues={}",
        totals.failovers, totals.rndv_reissues
    );
    let _ = writeln!(out, "virtual time: {} ns summed", totals.vtime_ns);
    let cum = episodes.last().map(|e| e.cum_digest).unwrap_or(0);
    let _ = writeln!(out, "chain digest: {cum:#018x}");
    for ep in episodes {
        let _ = writeln!(
            out,
            "  e{:03} seed={:#018x} end={}ns result={:#018x} metrics={:#018x} \
             trace={:#018x} decisions={:#018x} cum={:#018x}",
            ep.index,
            ep.episode_seed,
            ep.end_time_ns,
            ep.result_digest,
            ep.metrics_digest,
            ep.trace_digest,
            ep.decisions_digest,
            ep.cum_digest,
        );
    }
    out
}

/// Deterministic payload byte `k` of message `i` from `src`.
fn payload_byte(src: usize, i: u32, k: usize) -> u8 {
    (src as u8)
        .wrapping_mul(31)
        .wrapping_add((i as u8).wrapping_mul(17))
        .wrapping_add(k as u8)
}

/// What one episode run yields: the record (with `cum_digest` left at 0
/// for the caller to chain, and the trace and decision digests at 0:
/// a streamed record takes them from the recorder's chunk chain), the
/// metrics snapshot (the next delta's base) and the thread table a
/// stream's `fin` chunk carries.
struct EpisodeOutcome {
    ep: EpisodeRecord,
    metrics: MetricsSnapshot,
    threads: Vec<ThreadMeta>,
}

/// Refuse a config no episode can run: a world needs two ranks, a
/// network that loses every attempt leaves no rail alive, and decisions
/// are recorded only by the flight recorder.
fn check_runnable(config: &SoakConfig) -> Result<(), JournalError> {
    let why = if config.ranks < 2 {
        format!("ranks = {}: a world needs at least 2", config.ranks)
    } else if config.loss_milli >= 1000 {
        format!(
            "loss = {}/1000: every attempt is lost, so no rail survives",
            config.loss_milli
        )
    } else if config.record_decisions && config.stream_chunk == 0 {
        "decisions are recorded only as streamed chunks: set stream_chunk > 0".to_string()
    } else {
        return Ok(());
    };
    Err(JournalError::InvalidConfig { why })
}

/// Run one episode of the campaign workload. With `recorder` set,
/// tracing is on and the kernel drains its trace/decision buffers
/// through it in `config.stream_chunk`-sized chunks as it runs; the
/// recorder comes back beside the outcome, also when the world
/// deadlocks or a rank panics ([`JournalError::EpisodeFailed`]).
fn run_episode(
    config: &SoakConfig,
    index: u32,
    recorder: Option<StreamRecorder>,
) -> (Option<StreamRecorder>, Result<EpisodeOutcome, JournalError>) {
    let episode_seed = config.episode_seed(index);
    let ranks = config.ranks as usize;
    let mut topology = Topology::single_network(ranks, Protocol::Tcp);
    if config.loss_milli > 0 || config.ack_loss_milli > 0 {
        topology.set_fault(
            NetworkId(0),
            FaultPlan::new(episode_seed)
                .with_loss(config.loss_milli as f64 / 1000.0)
                .with_ack_loss(config.ack_loss_milli as f64 / 1000.0),
        );
    }
    let world = WorldConfig::builder()
        .trace(recorder.is_some())
        .decisions(config.record_decisions)
        .stream(recorder.map(|recorder| StreamHook {
            chunk: config.stream_chunk as usize,
            sink: Box::new(recorder),
        }))
        .build();

    let rounds = config.messages_per_episode;
    let bytes = config.payload as usize;
    // Ring exchange: rank r sends `rounds` messages to r+1 and receives
    // from r-1, folding every received byte into a digest. Payloads stay
    // below the eager switch point, so sends complete without waiting on
    // the receiver and the even/odd phase order can never deadlock.
    let ran = mpich::run_world_report(topology, Placement::OneRankPerNode, world, move |comm| {
        let me = comm.rank();
        let n = comm.size();
        let (next, prev) = ((me + 1) % n, (me + n - 1) % n);
        let mut digest = splitmix64(me as u64 ^ 0x5249_4E47); // "RING"
        for i in 0..rounds {
            let msg: Vec<u8> = (0..bytes).map(|k| payload_byte(me, i, k)).collect();
            if me % 2 == 0 {
                comm.endpoint().send(&msg, next, i as i32).unwrap();
                let (got, _) = comm
                    .endpoint()
                    .recv::<Vec<u8>>(bytes, Some(prev), Some(i as i32))
                    .unwrap();
                digest = splitmix64(digest ^ crc64(&got));
            } else {
                let (got, _) = comm
                    .endpoint()
                    .recv::<Vec<u8>>(bytes, Some(prev), Some(i as i32))
                    .unwrap();
                digest = splitmix64(digest ^ crc64(&got));
                comm.endpoint().send(&msg, next, i as i32).unwrap();
            }
        }
        digest
    });
    let (report, sink) = match ran {
        Ok(mut report) => {
            let sink = report.sink.take();
            (Ok(report), sink)
        }
        Err(WorldFailure { error, sink }) => (Err(error), sink),
    };
    let recorder = sink.map(|sink| {
        *(sink as Box<dyn Any>)
            .downcast::<StreamRecorder>()
            .expect("invariant: the world hands back the recorder it was given")
    });
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            let why = e.to_string();
            return (
                recorder,
                Err(JournalError::EpisodeFailed {
                    episode: index,
                    why,
                }),
            );
        }
    };
    let (results, kernel, session) = (report.results, report.kernel, report.session);
    let threads = thread_metas(&kernel, &session);
    // Counts come through the session's handles, the digest from a snapshot.
    let counters = session.counters();
    let metrics = kernel.metrics_snapshot();
    let mut result_digest = splitmix64(episode_seed);
    for r in &results {
        result_digest = splitmix64(result_digest ^ r);
    }
    let ep = EpisodeRecord {
        index,
        episode_seed,
        end_time_ns: kernel.end_time().0,
        result_digest,
        metrics_digest: crc64(metrics.to_string().as_bytes()),
        trace_digest: 0,
        decisions_digest: 0,
        faults: counters.faults,
        failovers: counters.failovers,
        rndv_reissues: counters.rndv_reissues,
        wire_messages: counters.wire_messages,
        wire_bytes: counters.wire_bytes,
        cum_digest: 0,
    };
    let outcome = EpisodeOutcome {
        ep,
        metrics,
        threads,
    };
    (recorder, Ok(outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::trace_json_for;
    use crate::store::read_journal;
    use std::fs;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("journal-soak-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn tiny() -> SoakConfig {
        SoakConfig {
            episodes: 3,
            ranks: 3,
            messages_per_episode: 4,
            payload: 64,
            snapshot_every: 2,
            ..SoakConfig::default()
        }
    }

    #[test]
    fn campaign_records_and_reports() {
        let dir = tmpdir("basic");
        let mut c = Campaign::create(&dir, tiny()).unwrap();
        c.run_to_completion().unwrap();
        assert!(c.is_complete());
        let report = c.report();
        drop(c);
        let contents = read_journal(&dir).unwrap();
        assert_eq!(contents.episodes.len(), 3);
        // Not streamed: digests only.
        assert!(contents.stream.is_empty());
        assert!(contents.episodes.iter().all(|e| e.trace_digest == 0));
        assert_eq!(
            report,
            render_report(&contents.config, &contents.episodes, &fold(&contents)),
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    fn fold(contents: &JournalContents) -> Totals {
        let mut t = Totals::default();
        for ep in &contents.episodes {
            t.add_episode(ep);
        }
        t
    }

    #[test]
    fn unrunnable_configs_are_typed_errors() {
        let invalid = |r: Result<Campaign, JournalError>| {
            matches!(r, Err(JournalError::InvalidConfig { .. }))
        };
        let bad_configs = [
            (0, 0, false),
            (1, 0, false),
            (3, 1000, false),
            (3, 5000, false),
        ]
        .into_iter()
        // Decisions without a stream: there is no recorder for them.
        .chain([(3, 0, true)]);
        for (ranks, loss_milli, record_decisions) in bad_configs {
            let bad = SoakConfig {
                ranks,
                loss_milli,
                record_decisions,
                ..tiny()
            };
            let dir = tmpdir(&format!("invalid-{ranks}-{loss_milli}-{record_decisions}"));
            assert!(invalid(Campaign::create(&dir, bad.clone())), "{bad:?}");
            assert!(!dir.exists(), "create wrote before checking");
            // `create` refuses the value: write the config record by hand.
            drop(JournalWriter::create(&dir, &bad).unwrap());
            assert!(invalid(Campaign::resume(&dir, false)), "{bad:?}");
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn episodes_are_deterministic() {
        let cfg = tiny();
        let run = |index| run_episode(&cfg, index, None).1.unwrap();
        let (a, b) = (run(1), run(1));
        assert_eq!(a.ep, b.ep);
        assert_ne!(a.ep.result_digest, run(2).ep.result_digest);
    }

    #[test]
    fn resume_after_torn_tail_matches_uninterrupted_report() {
        let cfg = SoakConfig {
            record_decisions: true,
            stream_chunk: 8,
            ..tiny()
        };
        let last = cfg.episodes - 1;
        let base_dir = tmpdir("base");
        let mut base = Campaign::create(&base_dir, cfg.clone()).unwrap();
        base.run_to_completion().unwrap();
        let base_trace = trace_json_for(&base_dir, last, None, None).unwrap();
        let base_report = base.report();

        let crash_dir = tmpdir("crash");
        let mut crashed = Campaign::create(&crash_dir, cfg).unwrap();
        crashed.step().unwrap();
        crashed.tear_tail().unwrap(); // "crash" mid-write after episode 0

        let mut resumed = Campaign::resume(&crash_dir, false).unwrap();
        assert_eq!(resumed.episodes_done(), 1);
        resumed.run_to_completion().unwrap();
        assert_eq!(resumed.report(), base_report);
        assert_eq!(
            trace_json_for(&crash_dir, last, None, None).unwrap(),
            base_trace
        );

        fs::remove_dir_all(&base_dir).unwrap();
        fs::remove_dir_all(&crash_dir).unwrap();
    }

    /// A world in which every rail dies fails its episode with a typed
    /// error and leaves the campaign as it was: a streamed world hands
    /// the writer back too, so a retry re-runs the episode and fails
    /// the same way, and the journal still reads back cleanly.
    #[test]
    fn failed_world_is_a_typed_error_and_changes_nothing() {
        for stream_chunk in [0, 8] {
            let cfg = SoakConfig {
                loss_milli: 999,
                stream_chunk,
                ..tiny()
            };
            let dir = tmpdir(&format!("failed-{stream_chunk}"));
            let mut c = Campaign::create(&dir, cfg).unwrap();
            let report = c.report();
            let segments = || {
                let mut all: Vec<_> = fs::read_dir(&dir)
                    .unwrap()
                    .map(|e| e.unwrap().path())
                    .map(|p| (fs::read(&p).unwrap(), p))
                    .collect();
                all.sort_by(|a, b| a.1.cmp(&b.1));
                all
            };
            let journal = segments();
            let failed = c.step().unwrap_err();
            assert!(
                matches!(&failed, JournalError::EpisodeFailed { episode: 0, why }
                    if why.contains("dead")),
                "{failed}"
            );
            assert_eq!((c.episodes_done(), c.report()), (0, report.clone()));
            assert_eq!(c.step().unwrap_err(), failed);
            assert_eq!(c.run_to_completion().unwrap_err(), failed);
            assert_eq!((c.episodes_done(), c.report()), (0, report));
            assert!(
                segments() == journal,
                "the failed world's chunks were cut off"
            );
            drop(c);
            assert!(read_journal(&dir).unwrap().episodes.is_empty());
            fs::remove_dir_all(&dir).unwrap();
        }
    }
}
