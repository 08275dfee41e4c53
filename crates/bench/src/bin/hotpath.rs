//! Hot-path bench: a many-rank all-to-all small-message storm driving
//! the ADI matching engine and the madeleine eager path as hard as the
//! simulator allows, counting the allocations the O(1) matching store
//! and the copy-free eager path are meant to keep down. It counts
//! allocation calls, not bytes: the bytes move with struct layout, so
//! a layout-only change would read as a behaviour change. Host time is
//! the standalone benchmark's job (`storm_small`); everything printed
//! here is exact, so the output repeats byte for byte.
//!
//! Output is line-oriented, `hotpath: messages=<n> allocs=<a>` plus a
//! JSON summary on the final line, and the behaviour manifest pins it
//! byte for byte. The parked idle-channel tax it prints is asserted
//! exactly zero by `tests/hotpath.rs` on the same topology and warm-up.
//!
//! `cargo run -p bench --bin hotpath --release [-- <iters>]`

use marcel::VirtualTime;
use mpich::{run_world, Placement, PollPolicy, WorldConfig};
use simnet::{Protocol, Topology};

#[global_allocator]
static GLOBAL: bench::alloc::CountingAlloc = bench::alloc::CountingAlloc;

const RANKS: usize = 8;
const MSG: usize = 16;

/// All-to-all storm: every rank bursts `rounds` tagged small eager
/// messages to every peer, then drains its receives in *reverse*
/// arrival order — so the unexpected queue grows to `rounds × (n-1)`
/// entries and every match has to be dug out from the far end, the
/// worst case for a linear scan.
fn storm_once(rounds: usize) -> (u64, u64, Vec<VirtualTime>) {
    let a0 = bench::alloc::allocs();
    let ends = run_world(
        Topology::single_network(RANKS, Protocol::Sisci),
        Placement::OneRankPerNode,
        WorldConfig::default(),
        move |comm| {
            let me = comm.rank();
            let n = comm.size();
            let payload = vec![me as u8; MSG];
            for round in 0..rounds {
                let tag = round as i32;
                for step in 1..n {
                    comm.endpoint()
                        .send(&payload, (me + step) % n, tag)
                        .unwrap();
                }
            }
            for round in (0..rounds).rev() {
                let tag = round as i32;
                for step in (1..n).rev() {
                    let src = (me + n - step) % n;
                    let (data, _) = comm
                        .endpoint()
                        .recv::<bytes::Bytes>(MSG, Some(src), Some(tag))
                        .unwrap();
                    assert_eq!(&data[..], &[src as u8; MSG][..]);
                }
            }
            marcel::now()
        },
    )
    .expect("storm world failed");
    let msgs = (RANKS * (RANKS - 1) * rounds) as u64;
    (msgs, bench::alloc::allocs() - a0, ends)
}

/// One warm-up storm, then the measured one: after the warm-up run,
/// per-run allocation counts are deterministic. Both runs must end
/// each rank at the same virtual time: no state carries over from one
/// world to the next.
fn storm(rounds: usize) -> (u64, u64) {
    let (_, _, warm_ends) = storm_once(rounds);
    let (msgs, allocs, ends) = storm_once(rounds);
    assert_eq!(ends, warm_ends, "a repeated storm ended elsewhere");
    (msgs, allocs)
}

/// Steady-state SCI one-way ping-pong latency in µs: 32 warm-up
/// exchanges (enough for `Parking` to park an idle TCP channel), then
/// a timed 16-exchange window. Virtual time, so exact.
fn steady_sci_oneway_us(with_tcp: bool, poll: PollPolicy) -> f64 {
    let results = run_world(
        bench::pingpong::fig9_topology(with_tcp),
        Placement::OneRankPerNode,
        WorldConfig::builder().poll(poll).build(),
        |comm| {
            const WARM: usize = 32;
            const ITERS: u64 = 16;
            if comm.rank() == 0 {
                let data = vec![0u8; 4];
                for _ in 0..WARM {
                    comm.endpoint().send(&data, 1, 0).unwrap();
                    comm.endpoint()
                        .recv::<Vec<u8>>(4, Some(1), Some(0))
                        .unwrap();
                }
                let t0 = marcel::now();
                for _ in 0..ITERS {
                    comm.endpoint().send(&data, 1, 0).unwrap();
                    comm.endpoint()
                        .recv::<Vec<u8>>(4, Some(1), Some(0))
                        .unwrap();
                }
                Some((marcel::now() - t0) / (2 * ITERS))
            } else if comm.rank() == 1 {
                for _ in 0..WARM + ITERS as usize {
                    let (data, _) = comm
                        .endpoint()
                        .recv::<Vec<u8>>(4, Some(0), Some(0))
                        .unwrap();
                    comm.endpoint().send(&data, 0, 0).unwrap();
                }
                None
            } else {
                None
            }
        },
    )
    .expect("fig9 world failed");
    results
        .into_iter()
        .flatten()
        .next()
        .expect("rank 0 measured")
        .as_micros_f64()
}

fn main() {
    let iters: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(4);
    let rounds = 12 * iters;

    let (msgs, allocs) = storm(rounds);
    println!("== hotpath — {RANKS}-rank all-to-all storm, {MSG} B x {rounds} rounds ==");
    println!("hotpath: messages={msgs} allocs={allocs}");

    println!("\n== §3.3 idle-channel impact — steady-state SCI one-way latency (us) ==");
    println!(
        "{:>10} {:>10} {:>14} {:>8}",
        "policy", "SCI only", "SCI+idle TCP", "tax"
    );
    let mut parked_tax = 0.0;
    for poll in [PollPolicy::Seed, PollPolicy::Parking] {
        let alone = steady_sci_oneway_us(false, poll);
        let taxed = steady_sci_oneway_us(true, poll);
        let tax = taxed - alone;
        if poll == PollPolicy::Parking {
            parked_tax = tax;
        }
        println!(
            "{:>10} {:>10.2} {:>14.2} {:>8.2}",
            format!("{poll:?}"),
            alone,
            taxed,
            tax
        );
    }

    println!("\n{{\"messages\":{msgs},\"allocs\":{allocs},\"parking_tax_us\":{parked_tax:.3}}}");
}
