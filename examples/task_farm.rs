//! A master/worker task farm across the heterogeneous meta-cluster:
//! the master hands out work units and collects results with
//! `MPI_Waitany`-style completion, so fast workers (SCI cluster, low
//! latency to the master) naturally get more units than the ones
//! reachable only over Fast-Ethernet — demonstrating how network
//! heterogeneity shapes load balance.
//!
//! ```sh
//! cargo run --example task_farm
//! ```

use mpich::{run_world_report, Placement, WorldConfig};
use simnet::Topology;

const UNITS: usize = 60;
const TAG_WORK: i32 = 1;
const TAG_RESULT: i32 = 2;
const TAG_STOP: i32 = 3;

fn main() {
    // Master on an SCI-cluster node; workers spread across both
    // clusters (SCI neighbours + Myrinet nodes across TCP).
    let report = run_world_report(
        Topology::meta_cluster(3),
        Placement::OneRankPerNode,
        WorldConfig::default(),
        |comm| {
            let me = comm.rank();
            let n = comm.size();
            if me == 0 {
                // ---- master ----
                let mut next_unit = 0usize;
                let mut done = 0usize;
                let mut per_worker = vec![0usize; n];
                // Prime every worker with one unit.
                for w in 1..n {
                    comm.endpoint()
                        .send(&[next_unit as i64], w, TAG_WORK)
                        .unwrap();
                    next_unit += 1;
                }
                while done < UNITS {
                    // Collect any result, then refill that worker.
                    let (data, status) = comm
                        .endpoint()
                        .recv::<Vec<u8>>(16, None, Some(TAG_RESULT))
                        .unwrap();
                    let result: Vec<i64> = mpich::from_bytes(&data);
                    assert_eq!(result[0] % 2, 1, "workers produce odd results");
                    done += 1;
                    per_worker[status.source] += 1;
                    if next_unit < UNITS {
                        comm.endpoint()
                            .send(&[next_unit as i64], status.source, TAG_WORK)
                            .unwrap();
                        next_unit += 1;
                    } else {
                        comm.endpoint()
                            .send(&[0u8; 0], status.source, TAG_STOP)
                            .unwrap();
                    }
                }
                per_worker
            } else {
                // ---- worker ----
                let mut handled = 0usize;
                loop {
                    let status = comm.endpoint().probe(Some(0), None).unwrap();
                    if status.tag == TAG_STOP {
                        comm.endpoint()
                            .recv::<Vec<u8>>(0, Some(0), Some(TAG_STOP))
                            .unwrap();
                        break;
                    }
                    let (data, _) = comm
                        .endpoint()
                        .recv::<Vec<u8>>(16, Some(0), Some(TAG_WORK))
                        .unwrap();
                    let unit = mpich::from_bytes::<i64>(&data)[0];
                    // "Compute": virtual work proportional to the unit.
                    marcel::advance(marcel::VirtualDuration::from_micros(120));
                    let result = unit * 2 + 1;
                    comm.endpoint().send(&[result], 0, TAG_RESULT).unwrap();
                    handled += 1;
                }
                vec![handled]
            }
        },
    )
    .expect("task farm completes");

    let per_worker = &report.results[0];
    println!("units completed per worker (master view):");
    let mut total = 0;
    for (w, count) in per_worker.iter().enumerate().skip(1) {
        let cluster = if w <= 2 {
            "SCI cluster "
        } else {
            "Myrinet/TCP"
        };
        println!("  worker {w} [{cluster}]: {count:>3} units");
        total += count;
    }
    assert_eq!(total, UNITS);
    // Workers' own counts must agree with the master's bookkeeping.
    for (w, counts) in report.results.iter().enumerate().skip(1) {
        assert_eq!(counts[0], per_worker[w], "worker {w} disagrees");
    }
    let sci: usize = per_worker[1..=2].iter().sum();
    let far: usize = per_worker[3..].iter().sum();
    println!("\nSCI-cluster workers: {sci} units; cross-cluster (TCP) workers: {far} units");
    println!(
        "total virtual time: {:.3} ms",
        report.kernel.end_time().as_secs_f64() * 1e3
    );
    println!(
        "\nlow-latency workers get more units: {}",
        sci / 2 >= far / 3
    );
}
