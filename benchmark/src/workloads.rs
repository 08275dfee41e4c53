//! The five workloads. Each drives the libraries only through their
//! public API (listed in README.md), generates its inputs from the seed,
//! checks every payload and result it gets back, and hands the exact
//! outputs of a rep (op count, virtual end times, ticket count, journal
//! digests) to the golden check in `main.rs`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use bytes::Bytes;
use journal::{replay, Campaign, SoakConfig};
use mpich::{
    run_world, ChMadConfig, Communicator, ExecPolicy, Placement, PolicyMode, ReduceOp,
    RemoteDeviceKind, WorldConfig,
};
use simnet::{FaultPlan, NetworkId, Protocol, Topology};

use crate::spans;

pub const NAMES: [&str; 5] = [
    "rails_pingpong",
    "storm_small",
    "storm_vci",
    "scale_allreduce",
    "journal_cycle",
];

// ---------------------------------------------------------------------
// Seeded inputs and digests (the benchmark's own; no library code).
// ---------------------------------------------------------------------

pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn fold(h: u64, v: u64) -> u64 {
    splitmix64(h ^ v)
}

fn fold_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for chunk in bytes.chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        h = fold(h, u64::from_le_bytes(w));
    }
    fold(h, bytes.len() as u64)
}

/// `len` bytes that depend on every bit of `key`.
fn seeded_bytes(key: u64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 8);
    let mut x = key;
    while out.len() < len {
        x = splitmix64(x);
        out.extend_from_slice(&x.to_le_bytes());
    }
    out.truncate(len);
    out
}

/// The first 16 of `seeded_bytes(key, ..)`, without the allocation: the
/// storms check a payload per message, and `alloc.count_per_op` should
/// count the libraries' allocations, not the harness's.
fn seeded_16(key: u64) -> [u8; 16] {
    let (a, b) = (splitmix64(key), splitmix64(splitmix64(key)));
    let mut out = [0u8; 16];
    out[..8].copy_from_slice(&a.to_le_bytes());
    out[8..].copy_from_slice(&b.to_le_bytes());
    out
}

/// Fisher-Yates shuffle of `0..n` keyed by `key`.
fn seeded_order(key: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut x = key;
    for i in (1..n).rev() {
        x = splitmix64(x);
        order.swap(i, (x % (i as u64 + 1)) as usize);
    }
    order
}

// ---------------------------------------------------------------------
// What a rep yields.
// ---------------------------------------------------------------------

/// The exact outputs of one rep: identical for every rep of one
/// (workload, seed) on any host, so they are the correctness check.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Outputs {
    /// Ops the rep attempted.
    pub ops: u64,
    /// Digest over every rank's virtual end time, in rank order
    /// (journal_cycle: over the campaign report, which lists every
    /// episode's end time and digests).
    pub virt_digest: u64,
    /// Highest scheduler ticket a rank held when its body ended, summed
    /// over the rep's worlds (0 for journal_cycle: a campaign does not
    /// expose its kernels).
    pub tickets: u64,
    /// journal_cycle: digest over every replayed Chrome trace and the
    /// folded metrics snapshot; 0 elsewhere.
    pub journal_digest: u64,
}

#[derive(Clone, Debug, Default)]
pub struct RepOut {
    pub outputs: Outputs,
    pub failed: u64,
    /// Virtual nanoseconds simulated (latest rank end per world, summed).
    pub virt_ns: u64,
    /// journal_cycle only.
    pub journal: JournalFacts,
}

#[derive(Clone, Copy, Debug, Default)]
pub struct JournalFacts {
    pub bytes: u64,
    pub retransmits: u64,
    pub wire_messages: u64,
}

impl RepOut {
    fn absorb(&mut self, w: RepOut) {
        self.outputs.ops += w.outputs.ops;
        self.outputs.virt_digest = fold(self.outputs.virt_digest, w.outputs.virt_digest);
        self.outputs.tickets += w.outputs.tickets;
        self.failed += w.failed;
        self.virt_ns += w.virt_ns;
    }
}

/// What every rank reports when its body ends.
struct RankEnd {
    failed: u64,
    end_ns: u64,
    ticket: u64,
}

/// Run one world of `ops` ops. `body` returns how many of the calling
/// rank's ops failed. A world that deadlocks or panics is caught here
/// and fails all its ops; it never aborts the run.
fn world<F>(topology: Topology, config: WorldConfig, ops: u64, body: F) -> RepOut
where
    F: Fn(&Communicator) -> u64 + Send + Sync + 'static,
{
    let ran = catch_unwind(AssertUnwindSafe(|| {
        spans::scope("mpich.run_world", || {
            run_world(topology, Placement::OneRankPerNode, config, move |comm| {
                let failed = body(comm);
                RankEnd {
                    failed,
                    end_ns: marcel::now().0,
                    ticket: marcel::dispatch_ticket(),
                }
            })
        })
    }));
    let mut out = RepOut::default();
    out.outputs.ops = ops;
    match ran {
        Ok(Ok(ends)) => {
            for e in &ends {
                out.failed += e.failed;
                out.outputs.virt_digest = fold(out.outputs.virt_digest, e.end_ns);
                out.outputs.tickets = out.outputs.tickets.max(e.ticket);
                out.virt_ns = out.virt_ns.max(e.end_ns);
            }
            out.failed = out.failed.min(ops);
        }
        Ok(Err(e)) => {
            eprintln!("hostbench: world failed: {e}");
            out.failed = ops;
        }
        Err(_) => {
            eprintln!("hostbench: world panicked");
            out.failed = ops;
        }
    }
    out
}

/// A workload: inputs fixed at construction from the seed.
pub trait Load {
    fn name(&self) -> &'static str;
    /// Run the workload once.
    fn rep(&self) -> RepOut;
    /// Pay the fixed cost before the first op once: build the topology
    /// and run a world with an empty body (bootstrap + teardown).
    /// Returns false if that failed.
    fn setup(&self) -> bool;
}

fn empty_world(topology: Topology, config: WorldConfig) -> bool {
    world(topology, config, 1, |_| 0).failed == 0
}

pub fn build(name: &str, seed: u64, scratch: &Path) -> Option<Box<dyn Load>> {
    Some(match name {
        "rails_pingpong" => Box::new(Rails::new(seed)),
        "storm_small" => Box::new(StormSmall::new(seed)),
        "storm_vci" => Box::new(StormVci::new(seed, 4)),
        "scale_allreduce" => Box::new(ScaleAllreduce::new(seed)),
        "journal_cycle" => Box::new(JournalCycle::new(seed, scratch)),
        _ => return None,
    })
}

// ---------------------------------------------------------------------
// rails_pingpong
// ---------------------------------------------------------------------

const RAIL_SIZES: [usize; 5] = [4, 1 << 10, 64 << 10, 1 << 20, 4 << 20];
pub const RAIL_SIZE_SPANS: [&str; 5] = [
    "rails.size.4B",
    "rails.size.1KiB",
    "rails.size.64KiB",
    "rails.size.1MiB",
    "rails.size.4MiB",
];
/// Round trips per size and topology, chosen so that sizes >= 64 KiB
/// take at least 60 % of a rep's host time (measured split in README).
pub const RAIL_ROUND_TRIPS: [usize; 5] = [24, 24, 12, 6, 3];
pub const RAIL_TOPOLOGY_SPANS: [&str; 4] = ["rails.tcp", "rails.sci", "rails.bip", "rails.sci+bip"];

/// The paper's Figs. 6-8 scenario: a 2-rank ping-pong over each single
/// rail and over one striped SCI+BIP pair, at five sizes.
pub struct Rails {
    payloads: Vec<Bytes>,
    tag: i32,
}

impl Rails {
    pub fn new(seed: u64) -> Self {
        Rails {
            payloads: RAIL_SIZES
                .iter()
                .map(|&n| Bytes::from(seeded_bytes(seed ^ (n as u64) << 20, n)))
                .collect(),
            tag: (splitmix64(seed) % 30_000) as i32,
        }
    }

    fn topology(which: usize) -> (Topology, WorldConfig) {
        let single = |p| {
            (
                Topology::single_network(2, p),
                WorldConfig::builder().build(),
            )
        };
        match which {
            0 => single(Protocol::Tcp),
            1 => single(Protocol::Sisci),
            2 => single(Protocol::Bip),
            _ => {
                let mut t = Topology::new();
                let (a, b) = (t.add_node("a", 1), t.add_node("b", 1));
                t.add_network(Protocol::Sisci, [a, b]);
                t.add_network(Protocol::Bip, [a, b]);
                let striped = ChMadConfig {
                    policy: PolicyMode::Striped,
                    ..ChMadConfig::default()
                };
                let config = WorldConfig::builder()
                    .remote(RemoteDeviceKind::ChMad(striped))
                    .build();
                (t, config)
            }
        }
    }

    /// One topology's ping-pong; `which` indexes `RAIL_TOPOLOGY_SPANS`.
    fn pingpong(&self, which: usize) -> RepOut {
        let (topology, config) = spans::leaf("simnet.topology", || Self::topology(which));
        let ops = 2 * RAIL_ROUND_TRIPS.iter().sum::<usize>() as u64;
        let (payloads, tag) = (self.payloads.clone(), self.tag);
        spans::scope(RAIL_TOPOLOGY_SPANS[which], || {
            world(topology, config, ops, move |comm| {
                let ep = comm.endpoint();
                let (me, mut failed) = (comm.rank(), 0);
                // Smallest size first on every seed: the order in which
                // the big buffers come and go decides how much freed
                // memory the allocator still holds at the peak, and
                // `peak_rss_mib` spread 8 % over seeds when it varied.
                for (si, payload) in payloads.iter().enumerate() {
                    let tag = tag + si as i32;
                    let n = payload.len();
                    let exchange = |failed: &mut u64| {
                        for _ in 0..RAIL_ROUND_TRIPS[si] {
                            if me == 0 {
                                let sent = spans::leaf("mpich.send", || ep.send(payload, 1, tag));
                                *failed += u64::from(sent.is_err());
                            }
                            let got = spans::leaf("mpich.recv", || {
                                ep.recv::<Bytes>(n, Some(1 - me), Some(tag))
                            });
                            *failed += u64::from(!matches!(&got, Ok((d, _)) if d == payload));
                            if me == 1 {
                                let sent = spans::leaf("mpich.send", || ep.send(payload, 0, tag));
                                *failed += u64::from(sent.is_err());
                            }
                        }
                    };
                    if me == 0 {
                        spans::leaf(RAIL_SIZE_SPANS[si], || exchange(&mut failed));
                    } else {
                        exchange(&mut failed);
                    }
                }
                failed
            })
        })
    }
}

impl Load for Rails {
    fn name(&self) -> &'static str {
        "rails_pingpong"
    }

    fn rep(&self) -> RepOut {
        let mut out = RepOut::default();
        for which in 0..RAIL_TOPOLOGY_SPANS.len() {
            out.absorb(self.pingpong(which));
        }
        out
    }

    fn setup(&self) -> bool {
        (0..RAIL_TOPOLOGY_SPANS.len()).all(|which| {
            let (topology, config) = Self::topology(which);
            empty_world(topology, config)
        })
    }
}

// ---------------------------------------------------------------------
// storm_small
// ---------------------------------------------------------------------

const STORM_RANKS: usize = 8;
const STORM_ROUNDS: usize = 8;
const STORM_BYTES: usize = 16;

/// The ROADMAP hot-path row: every rank bursts 16 B tagged sends to
/// every peer for 8 rounds, then drains them in reverse order, so the
/// unexpected queue grows 56 deep and every match is dug from its far
/// end. Builder defaults throughout.
pub struct StormSmall {
    seed: u64,
    /// Tag of each round.
    tags: Vec<i32>,
    /// `WorldConfig::trace`: on only for the `obs.trace_on_ratio` probe.
    trace: bool,
}

impl StormSmall {
    pub fn new(seed: u64) -> Self {
        let base = (splitmix64(seed ^ 0x73_746F_726D) % 30_000) as i32;
        StormSmall {
            seed,
            tags: seeded_order(seed, STORM_ROUNDS)
                .into_iter()
                .map(|r| base + r as i32)
                .collect(),
            trace: false,
        }
    }

    /// The same storm with the library's own flight recorder on.
    pub fn with_trace(self) -> Self {
        StormSmall {
            trace: true,
            ..self
        }
    }

    pub const MESSAGES: u64 = (STORM_RANKS * (STORM_RANKS - 1) * STORM_ROUNDS) as u64;

    fn payload(seed: u64, src: usize, round: usize) -> [u8; STORM_BYTES] {
        seeded_16(seed ^ (src as u64) << 32 ^ (round as u64) << 8)
    }

    fn topology() -> Topology {
        Topology::single_network(STORM_RANKS, Protocol::Sisci)
    }

    fn config(&self) -> WorldConfig {
        WorldConfig::builder().trace(self.trace).build()
    }
}

impl Load for StormSmall {
    fn name(&self) -> &'static str {
        "storm_small"
    }

    fn rep(&self) -> RepOut {
        let topology = spans::leaf("simnet.topology", Self::topology);
        let (seed, tags) = (self.seed, self.tags.clone());
        world(topology, self.config(), Self::MESSAGES, move |comm| {
            let ep = comm.endpoint();
            let (me, n, mut failed) = (comm.rank(), comm.size(), 0);
            // Only rank 0's calls are recorded: its spans give the cost
            // of one send and one receive call, and seven more ranks'
            // worth would only add recorder time.
            let traced = me == 0;
            for (round, &tag) in tags.iter().enumerate() {
                let payload = Self::payload(seed, me, round);
                for step in 1..n {
                    let dst = (me + step) % n;
                    let sent = spans::leaf_if(traced, "mpich.send", || ep.send(&payload, dst, tag));
                    failed += u64::from(sent.is_err());
                }
            }
            for (round, &tag) in tags.iter().enumerate().rev() {
                for step in (1..n).rev() {
                    let src = (me + n - step) % n;
                    let got = spans::leaf_if(traced, "mpich.recv", || {
                        ep.recv::<Bytes>(STORM_BYTES, Some(src), Some(tag))
                    });
                    let want = Self::payload(seed, src, round);
                    failed += u64::from(!matches!(&got, Ok((d, _)) if d[..] == want[..]));
                }
            }
            failed
        })
    }

    fn setup(&self) -> bool {
        empty_world(Self::topology(), self.config())
    }
}

// ---------------------------------------------------------------------
// storm_vci
// ---------------------------------------------------------------------

const VCI_THREADS: usize = 4;
const VCI_MSGS_PER_THREAD: usize = 256;

/// The same small-message path used differently: 2 ranks on TCP, four
/// sender and four receiver marcel threads, one tag each, the tags
/// hashed to four distinct lanes of a 4-VCI world.
pub struct StormVci {
    seed: u64,
    tags: [i32; VCI_THREADS],
    /// Lanes of the world: 4 for the workload, 1 for the
    /// `vci.host_ratio_4v1` probe.
    vcis: usize,
}

impl StormVci {
    pub fn new(seed: u64, vcis: usize) -> Self {
        // First four tags from a seeded start that `vci_for` spreads
        // over four distinct lanes.
        let mut tags = [0i32; VCI_THREADS];
        let mut taken = [false; VCI_THREADS];
        let mut tag = (splitmix64(seed ^ 0x76_6369) % 30_000) as i32;
        let mut found = 0;
        while found < VCI_THREADS {
            let lane = mpich::vci_for(0, tag, VCI_THREADS);
            if !taken[lane] {
                taken[lane] = true;
                tags[found] = tag;
                found += 1;
            }
            tag += 1;
        }
        StormVci { seed, tags, vcis }
    }

    pub const MESSAGES: u64 = (VCI_THREADS * VCI_MSGS_PER_THREAD) as u64;

    fn payload(seed: u64, thread: usize, i: usize) -> [u8; STORM_BYTES] {
        seeded_16(seed ^ (thread as u64) << 40 ^ i as u64)
    }

    fn topology() -> Topology {
        Topology::single_network(2, Protocol::Tcp)
    }

    fn config(&self) -> WorldConfig {
        WorldConfig::builder()
            .vcis(self.vcis)
            .exec(ExecPolicy::Ticketed { workers: 2 })
            .build()
    }
}

impl Load for StormVci {
    fn name(&self) -> &'static str {
        "storm_vci"
    }

    fn rep(&self) -> RepOut {
        let topology = spans::leaf("simnet.topology", Self::topology);
        let (seed, tags) = (self.seed, self.tags);
        world(topology, self.config(), Self::MESSAGES, move |comm| {
            let me = comm.rank();
            let workers: Vec<_> = (0..VCI_THREADS)
                .map(|t| {
                    let (ep, tag) = (comm.endpoint(), tags[t]);
                    marcel::spawn(format!("storm{me}-{t}"), move || {
                        let mut failed = 0;
                        for i in 0..VCI_MSGS_PER_THREAD {
                            let payload = Self::payload(seed, t, i);
                            if me == 0 {
                                let sent = spans::leaf_if(t == 0, "mpich.send", || {
                                    ep.send(&payload, 1, tag)
                                });
                                failed += u64::from(sent.is_err());
                            } else {
                                let got = spans::leaf_if(t == 0, "mpich.recv", || {
                                    ep.recv::<Bytes>(STORM_BYTES, Some(0), Some(tag))
                                });
                                let ok = matches!(&got, Ok((d, _)) if d[..] == payload[..]);
                                failed += u64::from(!ok);
                            }
                        }
                        failed
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join()).sum()
        })
    }

    fn setup(&self) -> bool {
        empty_world(Self::topology(), self.config())
    }
}

// ---------------------------------------------------------------------
// scale_allreduce
// ---------------------------------------------------------------------

/// `fat_tree(16)`: 16 pods of 8 edge switches of 8 hosts.
const SCALE_K: usize = 16;
pub const SCALE_RANKS: u64 = (SCALE_K * SCALE_K * SCALE_K / 4) as u64;

/// The memory and bootstrap workload: a fresh 1024-rank fat-tree world
/// per rep doing two allreduces and a barrier.
pub struct ScaleAllreduce {
    seed: u64,
    sum: i64,
    max: i64,
}

impl ScaleAllreduce {
    pub fn new(seed: u64) -> Self {
        let values = (0..SCALE_RANKS as usize).map(|r| Self::contribution(seed, r));
        ScaleAllreduce {
            seed,
            sum: values.clone().sum(),
            max: values.max().expect("the world has ranks"),
        }
    }

    fn contribution(seed: u64, rank: usize) -> i64 {
        (splitmix64(seed ^ (rank as u64) << 16) % 1_000_000) as i64
    }

    pub fn topology() -> Topology {
        Topology::fat_tree(SCALE_K)
    }

    fn config() -> WorldConfig {
        WorldConfig::builder()
            .exec(ExecPolicy::Ticketed { workers: 2 })
            .fused_progress(true)
            .build()
    }
}

impl Load for ScaleAllreduce {
    fn name(&self) -> &'static str {
        "scale_allreduce"
    }

    fn rep(&self) -> RepOut {
        let topology = spans::leaf("simnet.topology", Self::topology);
        let (seed, sum, max) = (self.seed, self.sum, self.max);
        world(topology, Self::config(), 3 * SCALE_RANKS, move |comm| {
            let mine = Self::contribution(seed, comm.rank());
            // Rank 0's spans stand for the collective: it returns only
            // when every rank's contribution has reached it.
            let traced = comm.rank() == 0;
            let reduce =
                |op| spans::leaf_if(traced, "mpich.allreduce", || comm.allreduce(&[mine], op));
            let mut failed = u64::from(reduce(ReduceOp::Sum) != [sum]);
            failed += u64::from(reduce(ReduceOp::Max) != [max]);
            spans::leaf_if(traced, "mpich.barrier", || comm.barrier());
            failed
        })
    }

    fn setup(&self) -> bool {
        empty_world(Self::topology(), Self::config())
    }
}

// ---------------------------------------------------------------------
// journal_cycle
// ---------------------------------------------------------------------

/// Record a lossy 4-rank campaign with the flight recorder streaming
/// into the journal, then replay all of it offline.
pub struct JournalCycle {
    config: SoakConfig,
    scratch: PathBuf,
    /// The journal of the latest rep, kept for `setup` to load an index
    /// from; removed when the next rep ends and on drop.
    recorded: Mutex<Option<PathBuf>>,
}

static JOURNAL_DIRS: AtomicU64 = AtomicU64::new(0);

impl JournalCycle {
    pub fn new(seed: u64, scratch: &Path) -> Self {
        JournalCycle {
            config: SoakConfig {
                campaign_seed: splitmix64(seed ^ 0x6A_6F75_726E),
                ranks: 4,
                loss_milli: 50,
                ack_loss_milli: 20,
                record_decisions: true,
                stream_chunk: 256,
                ..SoakConfig::default()
            },
            scratch: scratch.to_path_buf(),
            recorded: Mutex::new(None),
        }
    }

    fn fresh_dir(&self) -> PathBuf {
        let n = JOURNAL_DIRS.fetch_add(1, Ordering::Relaxed);
        self.scratch
            .join(format!("journal-{}-{n}", std::process::id()))
    }

    /// Record and replay; `Err` carries the first library error.
    fn cycle(&self, dir: &Path) -> Result<RepOut, journal::JournalError> {
        let mut campaign = spans::leaf("journal.create", || {
            Campaign::create(dir, self.config.clone())
        })?;
        spans::scope("journal.record", || campaign.run_to_completion())?;
        let report = campaign.report();
        drop(campaign);

        let index = spans::leaf("journal.load_index", || replay::load_index(dir))?;
        let events: u64 = index.entries.iter().map(|e| e.events).sum();
        let mut replayed = 0u64;
        spans::leaf("journal.trace_json", || {
            for entry in &index.entries {
                let json = replay::trace_json_for(dir, entry.episode, None, None)?;
                replayed = fold_bytes(replayed, json.as_bytes());
            }
            Ok::<(), journal::JournalError>(())
        })?;
        let last = self.config.episodes - 1;
        let metrics = spans::leaf("journal.metrics_fold", || replay::metrics_at(dir, last))?;
        replayed = fold_bytes(replayed, metrics.to_string().as_bytes());
        let diff = spans::leaf("journal.diff", || replay::diff_runs(dir, dir, 8))?;

        // The replayed side must agree with what the live campaign
        // reported: every episode streamed, each episode's stream chain
        // equal to the trace digest the report printed, and a journal
        // identical to itself.
        let live_chains: Vec<u64> = report
            .lines()
            .filter_map(|l| l.trim_start().strip_prefix('e').map(|_| l))
            .filter_map(|l| hex_field(l, "trace="))
            .collect();
        let replay_chains: Vec<u64> = index.entries.iter().map(|e| e.cum).collect();
        let consistent = live_chains == replay_chains
            && index.entries.len() == self.config.episodes as usize
            && diff.is_none();

        let bytes = std::fs::read_dir(dir)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok()?.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0);
        Ok(RepOut {
            outputs: Outputs {
                ops: events,
                virt_digest: fold_bytes(0, report.as_bytes()),
                tickets: 0,
                journal_digest: replayed,
            },
            failed: if consistent { 0 } else { events },
            virt_ns: dec_field(&report, "virtual time: ").unwrap_or(0),
            journal: JournalFacts {
                bytes,
                retransmits: dec_field(&report, "retransmits=").unwrap_or(0),
                wire_messages: dec_field(&report, "wire: ").unwrap_or(0),
            },
        })
    }
}

/// The decimal number right after `key` in `text`.
fn dec_field(text: &str, key: &str) -> Option<u64> {
    let rest = &text[text.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The `0x…` number right after `key` in `text`.
fn hex_field(text: &str, key: &str) -> Option<u64> {
    let rest = text[text.find(key)? + key.len()..].strip_prefix("0x")?;
    let end = rest
        .find(|c: char| !c.is_ascii_hexdigit())
        .unwrap_or(rest.len());
    u64::from_str_radix(&rest[..end], 16).ok()
}

impl Load for JournalCycle {
    fn name(&self) -> &'static str {
        "journal_cycle"
    }

    fn rep(&self) -> RepOut {
        let dir = self.fresh_dir();
        let ran = catch_unwind(AssertUnwindSafe(|| self.cycle(&dir)));
        let previous = self
            .recorded
            .lock()
            .expect("journal dir state poisoned")
            .replace(dir);
        if let Some(old) = previous {
            let _ = std::fs::remove_dir_all(old);
        }
        match ran {
            Ok(Ok(out)) => out,
            failure => {
                match failure {
                    Ok(Err(e)) => eprintln!("hostbench: journal cycle failed: {e}"),
                    _ => eprintln!("hostbench: journal cycle panicked"),
                }
                // The op count is unknown when the cycle did not finish:
                // one attempted, one failed.
                RepOut {
                    outputs: Outputs {
                        ops: 1,
                        ..Outputs::default()
                    },
                    failed: 1,
                    ..RepOut::default()
                }
            }
        }
    }

    /// The fixed costs of the two halves: an empty-bodied world of the
    /// shape every episode runs in (4 ranks on lossy TCP, flight
    /// recorder on), and loading the index of a recorded journal.
    /// `Campaign::create` is left to the rep: its time is one
    /// `fdatasync`, and disk is not measured.
    fn setup(&self) -> bool {
        let mut topology = Topology::single_network(self.config.ranks as usize, Protocol::Tcp);
        topology.set_fault(
            NetworkId(0),
            FaultPlan::new(self.config.campaign_seed)
                .with_loss(self.config.loss_milli as f64 / 1000.0)
                .with_ack_loss(self.config.ack_loss_milli as f64 / 1000.0),
        );
        let booted = empty_world(topology, WorldConfig::builder().trace(true).build());
        let recorded = self.recorded.lock().expect("journal dir state poisoned");
        let loaded = match recorded.as_deref() {
            Some(dir) => replay::load_index(dir).is_ok(),
            None => false,
        };
        booted && loaded
    }
}

impl Drop for JournalCycle {
    fn drop(&mut self) {
        if let Ok(mut recorded) = self.recorded.lock() {
            if let Some(dir) = recorded.take() {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }
}
