//! VCI message-rate scaling bench — the headline experiment of the
//! multi-VCI work: a threads-per-rank small-message storm whose
//! aggregate message rate scales with the number of configured VCIs,
//! while the same storm forced through a single shared endpoint stays
//! flat.
//!
//! Two ranks over TCP. Rank 0 runs `THREADS` sender threads, each
//! streaming eager messages to rank 1 under its own tag; rank 1 runs
//! one receiver thread per tag. The tags are precomputed so the
//! deterministic `(context, tag) → vci` hash spreads them across lanes
//! (all four distinct at `vcis = 4`, two and two at `vcis = 2`), so in
//! the `laned` series each stream gets its own wire connection, its own
//! receiver poll thread and its own matching shard. The `shared` series
//! pins every sender to `endpoint_on(0)`: one wire lane, one poll
//! thread, no scaling — the single-endpoint baseline of the VCI
//! literature.
//!
//! Every figure is *virtual* time, so the output is bit-deterministic:
//! the behaviour manifest (`ci/behaviour.sh`) pins every row, and the
//! bin itself asserts the headline after printing it — laned `vcis=4`
//! at least 2x `vcis=1`, the shared series flat within 5% — so a pin
//! regenerated without it fails the run.
//!
//! `cargo run -p bench --bin vci --release [-- <msgs-per-thread>]`

use mpich::{run_world, Placement, WorldConfig};
use simnet::{Protocol, Topology};

const THREADS: usize = 4;
/// Chosen against `mpich::vci_for` (context 0): lanes `[3, 1, 2, 0]` at
/// `vcis = 4` — all distinct — and `[1, 1, 0, 0]` at `vcis = 2`.
const TAGS: [i32; THREADS] = [0, 1, 2, 6];
const MSG: usize = 64;

/// One storm run: returns the virtual seconds rank 1 needed to drain
/// every message.
fn storm(vcis: usize, shared: bool, msgs: usize) -> f64 {
    let config = WorldConfig::builder().vcis(vcis).build();
    let results = run_world(
        Topology::single_network(2, Protocol::Tcp),
        Placement::OneRankPerNode,
        config,
        move |comm| {
            if comm.rank() == 0 {
                let handles: Vec<_> = (0..THREADS)
                    .map(|t| {
                        let ep = if shared {
                            comm.endpoint_on(0).expect("lane 0 always exists")
                        } else {
                            comm.endpoint()
                        };
                        marcel::spawn(format!("storm-send-{t}"), move || {
                            let payload = vec![t as u8; MSG];
                            for _ in 0..msgs {
                                ep.send(&payload, 1, TAGS[t]).expect("rank 1 exists");
                            }
                        })
                    })
                    .collect();
                for h in handles {
                    h.join();
                }
                0.0
            } else {
                let t0 = marcel::now();
                let handles: Vec<_> = (0..THREADS)
                    .map(|t| {
                        let ep = comm.endpoint();
                        marcel::spawn(format!("storm-recv-{t}"), move || {
                            for _ in 0..msgs {
                                let (data, _) = ep
                                    .recv::<Vec<u8>>(MSG, Some(0), Some(TAGS[t]))
                                    .expect("storm payload");
                                assert_eq!(data.len(), MSG);
                            }
                        })
                    })
                    .collect();
                for h in handles {
                    h.join();
                }
                (marcel::now() - t0).as_secs_f64()
            }
        },
    )
    .expect("storm world completes");
    results[1]
}

fn main() {
    let msgs: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(64);
    let total = (THREADS * msgs) as f64;

    println!("vci storm: threads={THREADS} msgs/thread={msgs} payload={MSG}B topology=2xTCP\n");
    println!(
        "{:<16} {:>5} {:>12} {:>14} {:>8}",
        "series", "vcis", "virtual_ms", "msgs_per_sec", "scaling"
    );

    let mut rates = [[0.0f64; 3]; 2]; // [laned, shared] x [1, 2, 4]
    for (s, (label, shared)) in [("laned", false), ("shared-endpoint", true)]
        .into_iter()
        .enumerate()
    {
        let mut base = 0.0;
        for (i, vcis) in [1usize, 2, 4].into_iter().enumerate() {
            let secs = storm(vcis, shared, msgs);
            let rate = total / secs;
            rates[s][i] = rate;
            if i == 0 {
                base = rate;
            }
            println!(
                "{label:<16} {vcis:>5} {:>12.3} {:>14.1} {:>8.2}",
                secs * 1e3,
                rate,
                rate / base
            );
        }
    }

    println!(
        "\n{{\"vci_storm\":{{\"threads\":{THREADS},\"msgs_per_thread\":{msgs},\
         \"laned\":{{\"1\":{:.1},\"2\":{:.1},\"4\":{:.1}}},\
         \"shared\":{{\"1\":{:.1},\"2\":{:.1},\"4\":{:.1}}}}}}}",
        rates[0][0], rates[0][1], rates[0][2], rates[1][0], rates[1][1], rates[1][2]
    );

    let [laned, shared] = rates;
    let scaling = laned[2] / laned[0];
    assert!(
        scaling >= 2.0,
        "laned vcis=4 rate is only {scaling:.2}x vcis=1 (needs >= 2x)"
    );
    let (lo, hi) = shared
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &r| (lo.min(r), hi.max(r)));
    assert!(
        hi / lo <= 1.05,
        "shared-endpoint series is not flat: max/min = {:.3}",
        hi / lo
    );
}
