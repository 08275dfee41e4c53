//! The soak campaign runner: `record`, `resume`, `report`.
//!
//! A campaign is a sequence of episodes, each a full `run_world` over a
//! lossy single-network topology, seeded as
//! `splitmix64(campaign_seed ^ i·GOLDEN_GAMMA)` so episode `i` is a pure
//! function of the config. The journal records one [`EpisodeRecord`]
//! per finished episode and a fsynced [`SnapshotRecord`] every
//! `snapshot_every` episodes; a crash between records loses at most the
//! in-flight episode, which resume simply re-runs — episodes are
//! deterministic, so a re-run reproduces the lost record byte for byte.
//! The campaign report is a pure function of the config and the episode
//! records, which is what makes a crash-resumed campaign's report
//! *byte-identical* to an uninterrupted one (the CI soak leg diffs
//! them).
//!
//! OS thread stacks cannot be serialized, so snapshots happen at
//! episode quiescence: the [`WorldCaptureRec`] inside each snapshot is
//! the fully-drained world (kernel clocks and ticket cursor, per-channel
//! sequencing state, per-rank engine depths) — an auditable invariant
//! record, with the resume cursor carried by `episodes_done`.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use madeleine::FaultCounters;
use marcel::MetricsSnapshot;
use mpich::{thread_metas, Placement, StreamHook, WorldConfig};
use simnet::rng::splitmix64;
use simnet::{FaultPlan, NetworkId, Protocol, Topology};

use crate::crc::crc64;
use crate::error::JournalError;
use crate::record::{
    DecisionRec, EpisodeRecord, Record, SnapshotRecord, SoakConfig, Totals, WorldCaptureRec,
};
use crate::store::{chain, read_journal_recovering, JournalContents, JournalWriter};
use crate::stream::{IndexRec, StreamRecorder, StreamSummary};

/// A campaign in progress: the journal writer plus the folded state of
/// every record written so far.
pub struct Campaign {
    dir: PathBuf,
    config: SoakConfig,
    /// Shared with the per-episode [`StreamRecorder`] sinks when
    /// `config.stream_chunk > 0`: chunk appends happen from inside the
    /// running episode, record/snapshot appends from [`Campaign::step`].
    writer: Arc<Mutex<JournalWriter>>,
    episodes: Vec<EpisodeRecord>,
    totals: Totals,
    cum_digest: u64,
    /// Index entries of streamed episodes, in order (for `KIND_INDEX`).
    stream: Vec<StreamSummary>,
    /// Metrics snapshot of the previous episode — the base the next
    /// episode's `MetricsDelta` is diffed against.
    prev_metrics: MetricsSnapshot,
    /// Chrome trace JSON of the final episode (tracing is enabled only
    /// there, so baseline and resumed campaigns export the same bytes).
    /// `None` in streamed mode: events went to the journal as they
    /// happened, so the live buffer is empty — replay reconstructs the
    /// identical JSON from the chunks instead.
    trace_json: Option<String>,
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
            writer: Arc::new(Mutex::new(writer)),
            episodes: Vec::new(),
            totals: Totals::default(),
            cum_digest: 0,
            stream: Vec::new(),
            prev_metrics: MetricsSnapshot::default(),
            trace_json: None,
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
            writer: Arc::new(Mutex::new(writer)),
            episodes,
            totals,
            cum_digest,
            stream,
            prev_metrics,
            trace_json: None,
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

    fn lock_writer(&self) -> std::sync::MutexGuard<'_, JournalWriter> {
        self.writer.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Run the next episode, append its record, and snapshot at the
    /// configured cadence. With `stream_chunk > 0` the episode's events,
    /// decisions, and metrics delta were already appended incrementally
    /// by the time the episode record lands, and every snapshot is
    /// followed by a rewritten cumulative stream index.
    pub fn step(&mut self) -> Result<(), JournalError> {
        if self.is_complete() {
            return Err(JournalError::AlreadyComplete {
                episodes: self.config.episodes,
            });
        }
        let index = self.episodes_done();
        let last = index + 1 == self.config.episodes;
        let streaming = self.config.stream_chunk > 0;
        let recorder = streaming.then(|| StreamRecorder::new(self.writer.clone(), index));
        let trace = last || streaming;
        let out = run_episode(
            &self.config,
            index,
            trace,
            recorder.as_ref().map(|r| (r, &self.prev_metrics)),
        )?;
        let EpisodeOutcome {
            mut ep,
            world,
            trace_json,
            metrics,
            stream,
        } = out;
        ep.cum_digest = chain(self.cum_digest, ep.own_digest());
        self.cum_digest = ep.cum_digest;
        self.totals.add_episode(&ep);
        self.trace_json = trace_json;
        self.prev_metrics = metrics;
        self.lock_writer().append(&Record::Episode(ep.clone()))?;
        self.episodes.push(ep);
        if let Some(summary) = stream {
            self.stream.push(summary);
        }
        let due = self.config.snapshot_every > 0
            && (index + 1).is_multiple_of(self.config.snapshot_every);
        if due || last {
            self.lock_writer()
                .append(&Record::Snapshot(SnapshotRecord {
                    episodes_done: index + 1,
                    totals: self.totals,
                    cum_digest: self.cum_digest,
                    world,
                }))?;
            if streaming {
                // Rewrite the cumulative seekable index right after the
                // durability point, so a reader can always jump from
                // the newest index to any (episode, ticket).
                self.lock_writer().append(&Record::Index(IndexRec {
                    entries: self.stream.clone(),
                }))?;
            }
        }
        Ok(())
    }

    /// Run every remaining episode.
    pub fn run_to_completion(&mut self) -> Result<(), JournalError> {
        while !self.is_complete() {
            self.step()?;
        }
        self.lock_writer().sync()
    }

    /// The final episode's Chrome trace JSON, if that episode ran in
    /// this process.
    pub fn take_trace_json(&mut self) -> Option<String> {
        self.trace_json.take()
    }

    /// Tear the journal's tail as a mid-write crash would (see
    /// [`JournalWriter::simulate_torn_tail`]). Consumes the campaign.
    pub fn tear_tail(self) -> Result<(), JournalError> {
        let writer = Arc::try_unwrap(self.writer)
            .ok()
            .expect("no episode is running, so the campaign owns the writer")
            .into_inner()
            .unwrap_or_else(|e| e.into_inner());
        writer.simulate_torn_tail()
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
    let _ = write!(
        out,
        "config: seed={:#x} episodes={} ranks={} messages={} payload={}B workers={} \
         loss={}/1000 ack_loss={}/1000 snapshot_every={} decisions={} force_fallback={}",
        config.campaign_seed,
        config.episodes,
        config.ranks,
        config.messages_per_episode,
        config.payload,
        config.workers,
        config.loss_milli,
        config.ack_loss_milli,
        config.snapshot_every,
        config.record_decisions,
        config.force_fallback,
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
/// for the caller to chain), the quiescent world capture, the live
/// Chrome trace JSON (non-streamed trace episodes only), the metrics
/// snapshot (the next delta's base), and the stream index entry
/// (streamed episodes only).
struct EpisodeOutcome {
    ep: EpisodeRecord,
    world: WorldCaptureRec,
    trace_json: Option<String>,
    metrics: MetricsSnapshot,
    stream: Option<StreamSummary>,
}

/// Refuse a config no episode can run: a world needs two ranks, and a
/// network that loses every attempt leaves no rail alive.
fn check_runnable(config: &SoakConfig) -> Result<(), JournalError> {
    let why = if config.ranks < 2 {
        format!("ranks = {}: a world needs at least 2", config.ranks)
    } else if config.loss_milli >= 1000 {
        format!(
            "loss = {}/1000: every attempt is lost, so no rail survives",
            config.loss_milli
        )
    } else {
        return Ok(());
    };
    Err(JournalError::InvalidConfig { why })
}

/// Run one episode of the campaign workload. With `stream` set, the
/// kernel drains its trace/decision buffers through the recorder's sink
/// in `config.stream_chunk`-sized chunks as it runs, and the episode's
/// trace/decision digests come from the streamed chain instead of
/// in-memory buffers (which stay empty — that is the point).
fn run_episode(
    config: &SoakConfig,
    index: u32,
    trace: bool,
    stream: Option<(&StreamRecorder, &MetricsSnapshot)>,
) -> Result<EpisodeOutcome, JournalError> {
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
        .trace(trace)
        .decisions(config.record_decisions)
        .force_fallback(config.force_fallback)
        .stream(stream.map(|(recorder, _)| {
            let recorder = recorder.clone_handle();
            StreamHook {
                chunk: config.stream_chunk as usize,
                make: Arc::new(move || recorder.sink()),
            }
        }))
        .build();

    let rounds = config.messages_per_episode;
    let bytes = config.payload as usize;
    // Ring exchange: rank r sends `rounds` messages to r+1 and receives
    // from r-1, folding every received byte into a digest. Payloads stay
    // below the eager switch point, so sends complete without waiting on
    // the receiver and the even/odd phase order can never deadlock.
    let report = mpich::run_world_report(topology, Placement::OneRankPerNode, world, move |comm| {
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
    })
    .expect("soak episode deadlocked");
    let capture = report.capture();
    let (results, kernel, session) = (report.results, report.kernel, report.session);
    let world_rec = WorldCaptureRec::from(&capture);
    let mut faults = FaultCounters::default();
    for c in &capture.session.channels {
        faults += c.counters;
    }
    let (failovers, rndv_reissues) = (capture.session.failovers, capture.session.rndv_reissues);
    let metrics = capture.metrics;

    let mut result_digest = splitmix64(episode_seed);
    for r in &results {
        result_digest = splitmix64(result_digest ^ r);
    }
    let metrics_digest = crc64(metrics.to_string().as_bytes());
    // Streamed episodes have empty live buffers (that is the invariant
    // under test): digests come from the recorder's chunk chain, the
    // episode record carries no in-line decisions, and the trace JSON
    // is reconstructed offline by `replay` instead of exported here.
    let (trace_json, trace_digest, decisions, decisions_digest, summary) = match stream {
        Some((recorder, prev_metrics)) => {
            let fin = recorder.finish(thread_metas(&kernel, &session), prev_metrics, &metrics)?;
            (None, fin.cum, Vec::new(), fin.decisions_digest, Some(fin))
        }
        None => {
            let trace_json = trace.then(|| {
                let events = kernel.take_trace();
                marcel::chrome_trace_json(&events, &thread_metas(&kernel, &session))
            });
            let trace_digest = trace_json
                .as_deref()
                .map(|j| crc64(j.as_bytes()))
                .unwrap_or(0);
            // The inline log does not carry `events_before`.
            let decisions: Vec<DecisionRec> = if config.record_decisions {
                kernel
                    .take_decisions()
                    .into_iter()
                    .map(|d| DecisionRec {
                        events_before: 0,
                        ..d.into()
                    })
                    .collect()
            } else {
                Vec::new()
            };
            let decisions_digest = if decisions.is_empty() {
                0
            } else {
                EpisodeRecord::digest_decisions(&decisions)
            };
            (trace_json, trace_digest, decisions, decisions_digest, None)
        }
    };
    let (wire_messages, wire_bytes) = world_rec
        .channels
        .iter()
        .fold((0, 0), |(m, b), c| (m + c.wire_messages, b + c.wire_bytes));

    let ep = EpisodeRecord {
        index,
        episode_seed,
        end_time_ns: kernel.end_time().0,
        result_digest,
        metrics_digest,
        trace_digest,
        decisions_digest,
        faults,
        failovers,
        rndv_reissues,
        wire_messages,
        wire_bytes,
        cum_digest: 0,
        decisions,
    };
    Ok(EpisodeOutcome {
        ep,
        world: world_rec,
        trace_json,
        metrics,
        stream: summary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert!(c.take_trace_json().is_some(), "final episode traces");
        let report = c.report();
        drop(c);
        let contents = read_journal(&dir).unwrap();
        assert_eq!(contents.episodes.len(), 3);
        // snapshots at episode 2 (cadence) and 3 (final).
        assert_eq!(contents.snapshots.len(), 2);
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

    fn run_plain(cfg: &SoakConfig, index: u32, trace: bool) -> EpisodeOutcome {
        run_episode(cfg, index, trace, None).expect("non-streamed episode cannot fail I/O")
    }

    #[test]
    fn unrunnable_configs_are_typed_errors() {
        let invalid = |r: Result<Campaign, JournalError>| {
            matches!(r, Err(JournalError::InvalidConfig { .. }))
        };
        for (ranks, loss_milli) in [(0, 0), (1, 0), (3, 1000), (3, 5000)] {
            let bad = SoakConfig {
                ranks,
                loss_milli,
                ..tiny()
            };
            let dir = tmpdir(&format!("invalid-{ranks}-{loss_milli}"));
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
        let a = run_plain(&cfg, 1, false);
        let b = run_plain(&cfg, 1, false);
        assert_eq!(a.ep, b.ep);
        assert_eq!(a.world, b.world);
        assert_ne!(
            a.ep.result_digest,
            run_plain(&cfg, 2, false).ep.result_digest
        );
    }

    #[test]
    fn resume_after_torn_tail_matches_uninterrupted_report() {
        let cfg = tiny();
        let base_dir = tmpdir("base");
        let mut base = Campaign::create(&base_dir, cfg.clone()).unwrap();
        base.run_to_completion().unwrap();
        let base_trace = base.take_trace_json().unwrap();
        let base_report = base.report();

        let crash_dir = tmpdir("crash");
        let mut crashed = Campaign::create(&crash_dir, cfg).unwrap();
        crashed.step().unwrap();
        crashed.tear_tail().unwrap(); // "crash" mid-write after episode 0

        let mut resumed = Campaign::resume(&crash_dir, false).unwrap();
        assert_eq!(resumed.episodes_done(), 1);
        resumed.run_to_completion().unwrap();
        assert_eq!(resumed.report(), base_report);
        assert_eq!(resumed.take_trace_json().unwrap(), base_trace);

        fs::remove_dir_all(&base_dir).unwrap();
        fs::remove_dir_all(&crash_dir).unwrap();
    }

    #[test]
    fn forced_fallback_changes_no_result_byte() {
        let cfg = SoakConfig {
            record_decisions: true,
            workers: 2,
            ..tiny()
        };
        let forced = SoakConfig {
            force_fallback: 3,
            ..cfg.clone()
        };
        let a = run_plain(&cfg, 0, false).ep;
        let b = run_plain(&forced, 0, false).ep;
        assert_eq!(a.result_digest, b.result_digest);
        assert_eq!(a.end_time_ns, b.end_time_ns);
        // Metrics DO differ — the `exec/fallback` counter counts the
        // forced picks; results and virtual time never move.
        assert_ne!(a.metrics_digest, b.metrics_digest);
        assert_ne!(
            a.decisions_digest, b.decisions_digest,
            "fallback flags must diverge"
        );
        let first = a
            .decisions
            .iter()
            .zip(&b.decisions)
            .find(|(x, y)| x != y)
            .expect("a divergent decision");
        assert_eq!(first.0.ticket, 0, "forced fallback starts at ticket 0");
        assert!(!first.0.fallback && first.1.fallback);
    }
}
