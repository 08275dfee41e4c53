//! Layer-isolation probes for the traced run: each layer driven bare
//! (a `Kernel` with no session, a `Session` with no MPI, the matching
//! stores with no engine, journal replay with no world), the storm_small
//! ladder, and short traced runs of the other workloads' patterns. Small
//! fixed sample counts: these rows have no bound, they say where to look.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use madeleine::{ReceiveMode, SendMode, Session};
use marcel::{CostModel, Kernel, Semaphore, VirtualDuration, VirtualTime};
use mpich::{Envelope, MatchSpec, PostedStore, UnexpectedStore};
use simnet::{FaultPlan, Protocol};

use crate::host::{median, timed};
use crate::spans::{self, Span};
use crate::workloads::{
    self, JournalCycle, Load, Rails, ScaleAllreduce, StormSmall, StormVci, RAIL_ROUND_TRIPS,
    RAIL_SIZE_SPANS, SCALE_RANKS,
};

/// One per-layer row: name, value, unit.
pub type Row = (&'static str, f64, &'static str);

/// Exact virtual-time results of the fidelity probe, golden-checked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fidelity {
    pub sci_4b_oneway_ns: u64,
    pub sci_8mib_oneway_ns: u64,
}

pub struct Probed {
    pub rows: Vec<Row>,
    pub fidelity: Fidelity,
    pub attempted: u64,
    pub failed: u64,
}

/// Median wall seconds of `n` runs of `f`.
fn median_wall(n: usize, mut f: impl FnMut()) -> f64 {
    let walls: Vec<f64> = (0..n).map(|_| timed(&mut f).0.wall_s).collect();
    median(&walls)
}

/// Tally of the ops the probes ran through whole worlds.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Wall seconds of one rep of `load`, counting its ops.
    fn rep_wall(&mut self, load: &dyn Load) -> f64 {
        let (t, out) = timed(|| load.rep());
        self.attempted += out.outputs.ops;
        self.failed += out.failed;
        t.wall_s
    }
}

// ---------------------------------------------------------------------
// marcel, bare
// ---------------------------------------------------------------------

/// Two marcel threads handing a semaphore pair back and forth: host
/// microseconds per simulated switch.
fn marcel_switch_us() -> f64 {
    const ROUND_TRIPS: usize = 2000;
    let wall = median_wall(3, || {
        let kernel = Kernel::calibrated();
        let (ping, pong) = (Semaphore::new(&kernel, 0), Semaphore::new(&kernel, 0));
        let (ping2, pong2) = (ping.clone(), pong.clone());
        kernel.spawn("ping", move || {
            for _ in 0..ROUND_TRIPS {
                ping.release();
                pong.acquire();
            }
        });
        kernel.spawn("pong", move || {
            for _ in 0..ROUND_TRIPS {
                ping2.acquire();
                pong2.release();
            }
        });
        kernel.run().expect("semaphore ping-pong cannot deadlock");
    });
    wall * 1e6 / (2 * ROUND_TRIPS) as f64
}

const BARE_THREADS: usize = 1024;
const SLEEPS_PER_THREAD: usize = 8;

/// Spawn, run and join 1024 marcel threads that each sleep `sleeps`
/// staggered times: wall seconds. Under the execution policy of
/// scale_allreduce, the workload these two rows explain: the default
/// policy wakes every parked thread at every hand-off.
fn marcel_threads_wall(sleeps: usize) -> f64 {
    median_wall(3, || {
        let kernel = Kernel::new(CostModel::calibrated().with_ticketed(2));
        for t in 0..BARE_THREADS {
            kernel.spawn(format!("t{t}"), move || {
                for s in 0..sleeps {
                    marcel::sleep(VirtualDuration::from_micros((1 + t + 37 * s) as u64));
                }
            });
        }
        kernel.run().expect("sleepers cannot deadlock");
    })
}

/// `switches` simulated switches among `threads` marcel threads on a
/// semaphore ring in a bare kernel: wall seconds. The ring stops when a
/// thread is dispatched under a ticket past `switches`, so the count of
/// scheduling decisions matches the world it stands for exactly.
fn marcel_ring_wall(threads: usize, switches: u64) -> f64 {
    median_wall(3, || {
        let kernel = Kernel::calibrated();
        // The first thread finds its semaphore already released.
        let sems: Vec<Semaphore> = (0..threads)
            .map(|t| Semaphore::new(&kernel, (t == 0) as u64))
            .collect();
        let stop = Arc::new(AtomicBool::new(false));
        for t in 0..threads {
            let (mine, next) = (sems[t].clone(), sems[(t + 1) % threads].clone());
            let stop = stop.clone();
            kernel.spawn(format!("ring{t}"), move || loop {
                mine.acquire();
                if marcel::dispatch_ticket() >= switches {
                    stop.store(true, Ordering::SeqCst);
                }
                next.release();
                if stop.load(Ordering::SeqCst) {
                    return;
                }
            });
        }
        kernel
            .run()
            .expect("the ring drains once the stop goes round");
    })
}

// ---------------------------------------------------------------------
// madeleine, bare
// ---------------------------------------------------------------------

/// Ping-pong of `bytes`-byte messages through a bare SCI `Session`
/// (pack into / unpack from caller buffers): wall seconds per message.
fn mad_pingpong_s(bytes: usize, round_trips: usize) -> f64 {
    let wall = median_wall(3, || {
        let kernel = Kernel::calibrated();
        let session = Session::single_network(&kernel, 2, Protocol::Sisci);
        let channel = session.channels()[0].clone();
        for me in 0..2usize {
            let ep = channel.endpoint(me).expect("ranks 0 and 1 are members");
            kernel.spawn(format!("mad{me}"), move || {
                let (out, mut back) = (vec![me as u8; bytes], vec![0u8; bytes]);
                for _ in 0..round_trips {
                    if me == 0 {
                        send(&ep, 1, &out);
                    }
                    let mut conn = ep.begin_unpacking().expect("channel stays open");
                    conn.unpack(&mut back, SendMode::Cheaper, ReceiveMode::Cheaper);
                    conn.end_unpacking();
                    if me == 1 {
                        send(&ep, 0, &out);
                    }
                }
            });
        }
        kernel.run().expect("ping-pong cannot deadlock");
    });
    wall / (2 * round_trips) as f64
}

fn send(ep: &madeleine::Endpoint, to: usize, data: &[u8]) {
    let mut conn = ep.begin_packing(to).expect("peer is a member");
    conn.pack(data, SendMode::Cheaper, ReceiveMode::Cheaper);
    conn.end_packing().expect("fault-free network");
}

/// The storm_small pattern (8 ranks, 8 rounds, 16 B to every peer, then
/// drain) through a bare SCI `Session`: wall seconds per rep, and the
/// highest scheduler ticket a rank held when it finished.
fn mad_storm() -> (f64, u64) {
    const RANKS: usize = 8;
    const ROUNDS: usize = 8;
    let mut tickets = 0;
    let wall = median_wall(3, || {
        let kernel = Kernel::calibrated();
        let session = Session::single_network(&kernel, RANKS, Protocol::Sisci);
        let channel = session.channels()[0].clone();
        let ranks: Vec<_> = (0..RANKS)
            .map(|me| {
                let ep = channel.endpoint(me).expect("every rank is a member");
                kernel.spawn(format!("mad{me}"), move || {
                    let payload = [me as u8; 16];
                    for _ in 0..ROUNDS {
                        for step in 1..RANKS {
                            send(&ep, (me + step) % RANKS, &payload);
                        }
                    }
                    let mut got = [0u8; 16];
                    for _ in 0..ROUNDS * (RANKS - 1) {
                        let mut conn = ep.begin_unpacking().expect("channel stays open");
                        let from = conn.from();
                        conn.unpack(&mut got, SendMode::Cheaper, ReceiveMode::Cheaper);
                        conn.end_unpacking();
                        assert_eq!(got, [from as u8; 16], "bare madeleine payload");
                    }
                    marcel::dispatch_ticket()
                })
            })
            .collect();
        kernel.run().expect("eager storm cannot deadlock");
        tickets = ranks
            .into_iter()
            .filter_map(|h| h.join_outcome())
            .max()
            .unwrap_or(0);
    });
    (wall, tickets)
}

// ---------------------------------------------------------------------
// mpich matching stores, bare
// ---------------------------------------------------------------------

const MATCH_DEPTH: usize = 1024;

fn env(i: usize) -> Envelope {
    Envelope {
        src: i % 8,
        tag: i as i32,
        context: 0,
        len: 16,
    }
}

fn spec(i: usize) -> MatchSpec {
    MatchSpec {
        src: Some(i % 8),
        tag: Some(i as i32),
        context: 0,
    }
}

/// Post 1024 receives, then match an arriving envelope against each,
/// newest first: nanoseconds per post + match.
fn posted_match_ns() -> f64 {
    let wall = median_wall(25, || {
        let mut store: PostedStore<usize> = PostedStore::new();
        for i in 0..MATCH_DEPTH {
            store.insert(spec(i), i);
        }
        for i in (0..MATCH_DEPTH).rev() {
            assert_eq!(store.take_match(&env(i)), Some(i));
        }
    });
    wall * 1e9 / MATCH_DEPTH as f64
}

/// Queue 1024 unexpected messages, then dig each out with an exact
/// receive, newest first: nanoseconds per queue + dig.
fn unexpected_dig_ns() -> f64 {
    let wall = median_wall(25, || {
        let mut store: UnexpectedStore<usize> = UnexpectedStore::new();
        for i in 0..MATCH_DEPTH {
            store.insert(env(i), i);
        }
        for i in (0..MATCH_DEPTH).rev() {
            assert_eq!(store.take_match(&spec(i)).map(|(_, p)| p), Some(i));
        }
    });
    wall * 1e9 / MATCH_DEPTH as f64
}

// ---------------------------------------------------------------------
// simnet, bare
// ---------------------------------------------------------------------

fn topology_build_us() -> f64 {
    median_wall(3, || {
        let topology = ScaleAllreduce::topology();
        std::hint::black_box(topology.cluster_levels());
    }) * 1e6
}

fn fate_ns(seed: u64) -> f64 {
    const DRAWS: u64 = 200_000;
    let plan = FaultPlan::new(seed).with_loss(0.05).with_ack_loss(0.02);
    let wall = median_wall(3, || {
        for seq in 0..DRAWS {
            std::hint::black_box(plan.fate(seq, 256, VirtualTime(seq * 1_000)));
        }
    });
    wall * 1e9 / DRAWS as f64
}

// ---------------------------------------------------------------------
// fidelity
// ---------------------------------------------------------------------

/// One-way virtual time of a 2-rank SCI ping-pong at 4 B and 8 MiB, by
/// the method of `bench --bin table2` (one warm-up exchange, then the
/// mean over the timed ones).
fn fidelity(tally: &mut Tally) -> Fidelity {
    const SIZES: [(usize, u64); 2] = [(4, 16), (8 << 20, 2)];
    let ran = mpich::run_world(
        simnet::Topology::single_network(2, Protocol::Sisci),
        mpich::Placement::OneRankPerNode,
        mpich::WorldConfig::builder().build(),
        |comm| {
            let ep = comm.endpoint();
            let me = comm.rank();
            let mut oneway_ns = Vec::new();
            for (n, iters) in SIZES {
                let data = vec![0u8; n];
                let mut t0 = marcel::now();
                for i in 0..=iters {
                    if i == 1 {
                        t0 = marcel::now();
                    }
                    if me == 0 {
                        ep.send(&data, 1, 0).expect("rank 1 exists");
                    }
                    ep.recv::<Vec<u8>>(n, Some(1 - me), Some(0))
                        .expect("ping-pong payload");
                    if me == 1 {
                        ep.send(&data, 0, 0).expect("rank 0 exists");
                    }
                }
                oneway_ns.push(((marcel::now() - t0) / (2 * iters)).as_nanos());
            }
            oneway_ns
        },
    );
    tally.attempted += 1;
    match ran {
        Ok(per_rank) => Fidelity {
            sci_4b_oneway_ns: per_rank[0][0],
            sci_8mib_oneway_ns: per_rank[0][1],
        },
        Err(e) => {
            eprintln!("hostbench: fidelity world failed: {e}");
            tally.failed += 1;
            Fidelity {
                sci_4b_oneway_ns: 0,
                sci_8mib_oneway_ns: 0,
            }
        }
    }
}

/// The fidelity probe alone, for `--bless`.
pub fn fidelity_only() -> Fidelity {
    fidelity(&mut Tally::default())
}

// ---------------------------------------------------------------------
// The table.
// ---------------------------------------------------------------------

/// Spans of `workload` called `name`: (summed microseconds, count).
fn span_sum(spans: &[Span], workload: &str, name: &str) -> (f64, usize) {
    spans
        .iter()
        .filter(|s| s.workload == workload && s.name == name)
        .fold((0.0, 0), |(us, n), s| (us + s.dur_us(), n + 1))
}

fn span_mean(spans: &[Span], workload: &str, name: &str) -> f64 {
    let (us, n) = span_sum(spans, workload, name);
    us / n.max(1) as f64
}

/// Run `load` once with the recorder on, under its own workload label.
fn traced_rep(tally: &mut Tally, load: &dyn Load) -> workloads::RepOut {
    spans::set_workload(load.name());
    spans::set_enabled(true);
    let out = load.rep();
    spans::set_enabled(false);
    tally.attempted += out.outputs.ops;
    tally.failed += out.failed;
    out
}

/// Median wall of three reps of `a` and of `b`, alternating.
fn alternating(tally: &mut Tally, a: &dyn Load, b: &dyn Load) -> (f64, f64) {
    let (mut wa, mut wb) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        wa.push(tally.rep_wall(a));
        wb.push(tally.rep_wall(b));
    }
    (median(&wa), median(&wb))
}

/// Every per-layer row that does not depend on the workload selected.
pub fn probe_all(seed: u64, scratch: &Path) -> Probed {
    let mut tally = Tally::default();
    let mut rows: Vec<Row> = Vec::new();

    rows.push(("simnet.topology_build_us", topology_build_us(), "us"));
    rows.push(("simnet.fate_ns", fate_ns(seed), "ns"));

    rows.push(("marcel.switch_us", marcel_switch_us(), "us"));
    let spawn_join_s = marcel_threads_wall(0);
    rows.push((
        "marcel.spawn_join_us",
        spawn_join_s * 1e6 / BARE_THREADS as f64,
        "us",
    ));
    let sleepers_s = marcel_threads_wall(SLEEPS_PER_THREAD);
    rows.push((
        "marcel.timer_event_us",
        (sleepers_s - spawn_join_s).max(0.0) * 1e6 / (BARE_THREADS * SLEEPS_PER_THREAD) as f64,
        "us",
    ));

    rows.push(("mad.pingpong_us.4B", mad_pingpong_s(4, 500) * 1e6, "us"));
    rows.push((
        "mad.ns_per_byte.1MiB",
        mad_pingpong_s(1 << 20, 8) * 1e9 / (1u64 << 20) as f64,
        "ns",
    ));

    rows.push(("matching.post_match_ns", posted_match_ns(), "ns"));
    rows.push(("matching.unexpected_dig_ns", unexpected_dig_ns(), "ns"));

    // The storm_small ladder. X: the storm through MPI. Y: the same
    // pattern through a bare Session. Z: as many simulated switches as X
    // made, among as many threads as X has (a rank and its SCI poller,
    // times 8), through a bare Kernel. marcel's share is Z/X. The bare
    // Session has no pollers, so it makes fewer switches among fewer
    // threads than X; its own switching (a ring of its 8 threads and
    // its switch count) is taken out of Y, and what is left is
    // madeleine's share. mpich's share is the rest, so the three sum
    // to 1 by construction.
    let storm = StormSmall::new(seed);
    let storm_traced = StormSmall::new(seed).with_trace();
    let (x_s, x_traced_s) = alternating(&mut tally, &storm, &storm_traced);
    rows.push(("obs.trace_on_ratio", x_traced_s / x_s, "ratio"));
    let storm_out = traced_rep(&mut tally, &storm);
    let (y_s, y_tickets) = mad_storm();
    let z_s = marcel_ring_wall(16, storm_out.outputs.tickets);
    let y_switching_s = marcel_ring_wall(8, y_tickets);
    let (marcel_share, mad_share) = (z_s / x_s, (y_s - y_switching_s) / x_s);
    rows.push(("marcel.share", marcel_share, "ratio"));
    rows.push(("mad.share", mad_share, "ratio"));
    rows.push(("mpich.share", 1.0 - marcel_share - mad_share, "ratio"));

    let vci4 = StormVci::new(seed, 4);
    let vci1 = StormVci::new(seed, 1);
    let (v4_s, v1_s) = alternating(&mut tally, &vci4, &vci1);
    rows.push(("vci.host_ratio_4v1", v4_s / v1_s, "ratio"));

    rows.push((
        "world.bootstrap_us_per_rank.8",
        median_wall(10, || {
            tally.attempted += 1;
            tally.failed += !storm.setup() as u64;
        }) * 1e6
            / 8.0,
        "us",
    ));
    let scale = ScaleAllreduce::new(seed);
    rows.push((
        "world.bootstrap_us_per_rank.1024",
        median_wall(1, || {
            tally.attempted += 1;
            tally.failed += !scale.setup() as u64;
        }) * 1e6
            / SCALE_RANKS as f64,
        "us",
    ));
    traced_rep(&mut tally, &scale);
    traced_rep(&mut tally, &Rails::new(seed));

    let journal = JournalCycle::new(seed, scratch);
    let journal_out = traced_rep(&mut tally, &journal);
    drop(journal);

    let fidelity = fidelity(&mut tally);

    // Rows read off the spans recorded here and in phase A.
    let all = spans::snapshot();
    rows.push((
        "mpich.send_call_us",
        span_mean(&all, "storm_small", "mpich.send"),
        "us",
    ));
    rows.push((
        "mpich.recv_call_us",
        span_mean(&all, "storm_small", "mpich.recv"),
        "us",
    ));
    rows.push((
        "coll.allreduce_us_per_rank",
        span_mean(&all, "scale_allreduce", "mpich.allreduce") / SCALE_RANKS as f64,
        "us",
    ));
    const RAIL_ROWS: [&str; 5] = [
        "rails.host_us_per_msg.4B",
        "rails.host_us_per_msg.1KiB",
        "rails.host_us_per_msg.64KiB",
        "rails.host_us_per_msg.1MiB",
        "rails.host_us_per_msg.4MiB",
    ];
    for (si, row) in RAIL_ROWS.into_iter().enumerate() {
        let (us, n) = span_sum(&all, "rails_pingpong", RAIL_SIZE_SPANS[si]);
        rows.push((row, us / (n.max(1) * 2 * RAIL_ROUND_TRIPS[si]) as f64, "us"));
    }
    // A size span's parent is its world, whose parent is its topology.
    let big_under = |topology: &str| {
        let durs: Vec<f64> = all
            .iter()
            .filter(|s| s.workload == "rails_pingpong" && s.name == RAIL_SIZE_SPANS[4])
            .filter(|s| {
                let world = s.parent.map(|p| &all[p as usize]);
                let top = world.and_then(|w| w.parent).map(|p| all[p as usize].name);
                top == Some(topology)
            })
            .map(Span::dur_us)
            .collect();
        durs.iter().sum::<f64>() / durs.len().max(1) as f64
    };
    rows.push((
        "rails.striped_ratio",
        big_under("rails.sci+bip") / big_under("rails.bip"),
        "ratio",
    ));

    // Microseconds per rep in the journal call `name`.
    let reps = span_sum(&all, "journal_cycle", "journal.create").1.max(1) as f64;
    let j = |name| span_sum(&all, "journal_cycle", name).0 / reps;
    let events = journal_out.outputs.ops.max(1) as f64;
    rows.push((
        "journal.record_us_per_event",
        (j("journal.create") + j("journal.record")) / events,
        "us",
    ));
    rows.push((
        "journal.replay_us_per_event",
        (j("journal.load_index")
            + j("journal.trace_json")
            + j("journal.metrics_fold")
            + j("journal.diff"))
            / events,
        "us",
    ));
    rows.push((
        "journal.bytes_per_event",
        journal_out.journal.bytes as f64 / events,
        "B",
    ));
    rows.push((
        "journal.metrics_fold_ms",
        j("journal.metrics_fold") / 1e3,
        "ms",
    ));
    rows.push(("journal.diff_ms", j("journal.diff") / 1e3, "ms"));
    rows.push((
        "mad.retransmit_ratio",
        journal_out.journal.retransmits as f64 / journal_out.journal.wire_messages.max(1) as f64,
        "ratio",
    ));

    // EXPERIMENTS.md Table 2: the paper's ch_mad/SCI 4 B latency is 20 us.
    let sci_us = fidelity.sci_4b_oneway_ns as f64 / 1e3;
    rows.push(("virt.sci_latency_us", sci_us, "us"));
    rows.push((
        "virt.sci_bw_mb_s",
        8.0 / (fidelity.sci_8mib_oneway_ns.max(1) as f64 / 1e9),
        "MB/s",
    ));
    rows.push((
        "virt.sci_latency_err_pct",
        (sci_us - 20.0) / 20.0 * 100.0,
        "%",
    ));

    Probed {
        rows,
        fidelity,
        attempted: tally.attempted,
        failed: tally.failed,
    }
}
