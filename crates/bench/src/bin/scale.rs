//! Scale sweep: how far up the rank count the stack goes, and what it
//! costs. Sweeps datacenter topologies (three-tier fat-trees and
//! dragonflies) from under a hundred to 8192 ranks running allreduce
//! (all sizes) and a small alltoall (small worlds only — its message
//! count is quadratic), reporting HOST wall-clock, scheduler events
//! per second, and PEAK committed memory per rank.
//!
//! Big worlds run the scale configuration: fused progress (one polling
//! thread per rank serving all of its lanes) — 8192 ranks ≈ 16.4k
//! simulated threads, two kernel mappings per fiber stack, which fits
//! the default `vm.max_map_count`.
//!
//! Three gates ride on the output (`ci/check_scale.py`):
//! * every row's scheduling-event count must equal the committed
//!   baseline exactly;
//! * peak memory per rank must stay flat (within tolerance) from 1k to
//!   8k ranks — the lazy per-peer state promise: O(active pairs), not
//!   O(n²);
//! * bytes requested from the allocator per scheduling event must stay
//!   flat from the smallest to the largest fat-tree — host work per
//!   message independent of the world's size, counted rather than timed.
//!
//! Output is line-oriented:
//!   `scale: topo=<t> ranks=<n> coll=<c> wall_ms=<w> events=<e> events_per_sec=<r> peak_mib=<m> peak_kib_per_rank=<k> alloc_bytes_per_event=<b>`
//! plus a JSON summary on the final line.
//!
//! `cargo run -p bench --bin scale --release [-- --quick]`

use std::time::Instant;

use bench::alloc;
use mpich::{run_world, Placement, ReduceOp, WorldConfig};
use simnet::Topology;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

#[derive(Clone, Copy, PartialEq)]
enum Coll {
    Allreduce,
    Alltoall,
}

impl Coll {
    fn name(self) -> &'static str {
        match self {
            Coll::Allreduce => "allreduce",
            Coll::Alltoall => "alltoall",
        }
    }
}

struct Row {
    topo: String,
    ranks: usize,
    coll: &'static str,
    wall_s: f64,
    events: u64,
    peak_bytes: i64,
    /// Bytes requested from the allocator over the whole world.
    alloc_bytes: u64,
}

impl Row {
    fn eps(&self) -> f64 {
        self.events as f64 / self.wall_s
    }
    fn kib_per_rank(&self) -> f64 {
        self.peak_bytes as f64 / 1024.0 / self.ranks as f64
    }
    fn alloc_bytes_per_event(&self) -> f64 {
        self.alloc_bytes as f64 / self.events as f64
    }
    fn print(&self) {
        println!(
            "scale: topo={} ranks={} coll={} wall_ms={:.0} events={} events_per_sec={:.0} peak_mib={:.1} peak_kib_per_rank={:.1} alloc_bytes_per_event={:.0}",
            self.topo,
            self.ranks,
            self.coll,
            self.wall_s * 1e3,
            self.events,
            self.eps(),
            self.peak_bytes as f64 / (1024.0 * 1024.0),
            self.kib_per_rank(),
            self.alloc_bytes_per_event(),
        );
    }
    fn json(&self) -> String {
        format!(
            "{{\"topo\":\"{}\",\"ranks\":{},\"coll\":\"{}\",\"wall_ms\":{:.1},\"events\":{},\"events_per_sec\":{:.0},\"peak_kib_per_rank\":{:.2},\"alloc_bytes_per_event\":{:.1}}}",
            self.topo,
            self.ranks,
            self.coll,
            self.wall_s * 1e3,
            self.events,
            self.eps(),
            self.kib_per_rank(),
            self.alloc_bytes_per_event(),
        )
    }
}

/// The scale configuration: fused progress (one poller per rank).
fn scale_config() -> WorldConfig {
    WorldConfig::builder().fused_progress(true).build()
}

/// Run `coll` once on `topology` and measure the window. `events` is
/// the kernel's last dispatch ticket — the global count of scheduling
/// decisions.
fn measure(topo: String, topology: Topology, coll: Coll) -> Row {
    let live_start = alloc::reset_peak();
    let bytes_start = alloc::alloc_bytes();
    let t0 = Instant::now();
    let tickets = run_world(
        topology,
        Placement::OneRankPerNode,
        scale_config(),
        move |comm| {
            let me = comm.rank();
            let n = comm.size();
            match coll {
                Coll::Allreduce => {
                    let sum = comm.allreduce(&[me as i64 + 1], ReduceOp::Sum);
                    assert_eq!(sum[0] as usize, n * (n + 1) / 2);
                    let max = comm.allreduce(&[me as i64], ReduceOp::Max);
                    assert_eq!(max[0] as usize, n - 1);
                }
                Coll::Alltoall => {
                    let parts: Vec<Vec<u8>> =
                        (0..n).map(|d| vec![(me ^ d) as u8, me as u8]).collect();
                    let got = comm.alltoall(parts).unwrap();
                    for (s, part) in got.iter().enumerate() {
                        assert_eq!(part[..], [(s ^ me) as u8, s as u8]);
                    }
                }
            }
            marcel::dispatch_ticket()
        },
    )
    .expect("scale world failed");
    let wall_s = t0.elapsed().as_secs_f64();
    let events = tickets.into_iter().max().unwrap_or(0);
    let peak_bytes = alloc::peak() - live_start;
    Row {
        topo,
        ranks: 0, // filled by caller (topology was moved)
        coll: coll.name(),
        wall_s,
        events,
        peak_bytes,
        alloc_bytes: alloc::alloc_bytes() - bytes_start,
    }
}

fn run_case(topo: &str, topology: Topology, coll: Coll) -> Row {
    let ranks = topology.nodes().len();
    let mut row = measure(topo.to_string(), topology, coll);
    row.ranks = ranks;
    row.print();
    row
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    if std::env::args().any(|a| a == "--probe") {
        // Attribution probe: empty workload isolates world-bootstrap
        // memory (topology, session, engines, devices) from the
        // collective-call transients. Two reps per shape: peak
        // concurrent live bytes is timing-sensitive (thread overlap
        // only ever inflates it), so the min is the stable floor.
        for k in [8usize, 16, 24] {
            for rep in 0..2 {
                let live_start = alloc::reset_peak();
                let n = Topology::fat_tree(k).nodes().len();
                let t0 = Instant::now();
                let tickets = run_world(
                    Topology::fat_tree(k),
                    Placement::OneRankPerNode,
                    scale_config(),
                    |comm| {
                        comm.barrier();
                        marcel::dispatch_ticket()
                    },
                )
                .expect("probe world failed");
                let peak = alloc::peak() - live_start;
                let events = tickets.into_iter().max().unwrap_or(0);
                println!(
                    "probe: topo=fat_tree({k}) ranks={n} rep={rep} empty wall_ms={:.0} events={events} events_per_rank={:.0} peak_kib_per_rank={:.1} max_alloc_kib={:.1}",
                    t0.elapsed().as_secs_f64() * 1e3,
                    events as f64 / n as f64,
                    peak as f64 / 1024.0 / n as f64,
                    alloc::max_alloc() as f64 / 1024.0
                );
            }
        }
        return;
    }
    let mode = if quick { "quick" } else { "full" };
    println!("== scale sweep ({mode}) — fused progress ==");

    // Sweep shapes. fat_tree(k) has k³/4 hosts: 128, 1024, 8192.
    // dragonfly(a,p,h) has (a·h+1)·a·p hosts: 72, 544, 2112.
    let fat: &[usize] = if quick { &[8, 16] } else { &[8, 16, 32] };
    let fly: &[(usize, usize, usize)] = if quick {
        &[(4, 2, 2), (8, 4, 2)]
    } else {
        &[(4, 2, 2), (8, 4, 2), (8, 8, 4)]
    };

    let mut rows = Vec::new();
    for &k in fat {
        rows.push(run_case(
            &format!("fat_tree({k})"),
            Topology::fat_tree(k),
            Coll::Allreduce,
        ));
    }
    for &(a, p, h) in fly {
        rows.push(run_case(
            &format!("dragonfly({a},{p},{h})"),
            Topology::dragonfly(a, p, h),
            Coll::Allreduce,
        ));
    }
    // Alltoall is quadratic in messages: capped at the small shapes
    // (the sweep's point is rank scaling, not message-count scaling).
    println!("note: alltoall capped at the <600-rank shapes (quadratic message count)");
    rows.push(run_case(
        "fat_tree(8)",
        Topology::fat_tree(8),
        Coll::Alltoall,
    ));
    rows.push(run_case(
        "dragonfly(4,2,2)",
        Topology::dragonfly(4, 2, 2),
        Coll::Alltoall,
    ));

    // Memory-flatness pair: the largest two fat-trees in the sweep
    // (1k → 8k ranks in full mode). Lazy per-peer state means peak
    // committed bytes per rank must not grow with the world.
    let pair: Vec<&Row> = rows
        .iter()
        .filter(|r| r.topo.starts_with("fat_tree") && r.coll == "allreduce")
        .collect();
    let (small, big) = (pair[pair.len() - 2], pair[pair.len() - 1]);
    // Allocation-flatness pair: the smallest and the largest fat-tree.
    // Bytes requested per scheduling event must not grow with the world
    // (a per-message scan of world-sized tables would show up here as
    // one world-sized buffer per event).
    let least = pair[0];
    println!(
        "scale-alloc: ranks_small={} bytes_small={:.0} ranks_big={} bytes_big={:.0} growth={:.3}",
        least.ranks,
        least.alloc_bytes_per_event(),
        big.ranks,
        big.alloc_bytes_per_event(),
        big.alloc_bytes_per_event() / least.alloc_bytes_per_event()
    );
    println!(
        "scale-mem: ranks_small={} kib_small={:.1} ranks_big={} kib_big={:.1} growth={:.3}",
        small.ranks,
        small.kib_per_rank(),
        big.ranks,
        big.kib_per_rank(),
        big.kib_per_rank() / small.kib_per_rank()
    );

    let rows_json: Vec<String> = rows.iter().map(Row::json).collect();
    println!(
        "{{\"mode\":\"{mode}\",\"rows\":[{}],\"mem\":{{\"ranks_small\":{},\"kib_small\":{:.2},\"ranks_big\":{},\"kib_big\":{:.2},\"growth\":{:.4}}},\"alloc\":{{\"ranks_small\":{},\"bytes_small\":{:.1},\"ranks_big\":{},\"bytes_big\":{:.1},\"growth\":{:.4}}}}}",
        rows_json.join(","),
        small.ranks,
        small.kib_per_rank(),
        big.ranks,
        big.kib_per_rank(),
        big.kib_per_rank() / small.kib_per_rank(),
        least.ranks,
        least.alloc_bytes_per_event(),
        big.ranks,
        big.alloc_bytes_per_event(),
        big.alloc_bytes_per_event() / least.alloc_bytes_per_event()
    );
}
