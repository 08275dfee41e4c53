//! Parallel sample sort across the meta-cluster: a collective-heavy
//! workload (gather, bcast, alltoall) whose exchange phase moves real
//! bulk data across all three networks at once.
//!
//! ```sh
//! cargo run --example sample_sort
//! ```

use mpich::{run_world_report, Placement, ReduceOp, WorldConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::Topology;

const KEYS_PER_RANK: usize = 20_000;

fn main() {
    let report = run_world_report(
        Topology::meta_cluster(2),
        Placement::OneRankPerCpu, // 8 ranks
        WorldConfig::default(),
        |comm| {
            let me = comm.rank();
            let n = comm.size();
            // 1) Local keys (deterministic per rank).
            let mut rng = StdRng::seed_from_u64(0xBEEF ^ me as u64);
            let mut keys: Vec<i64> = (0..KEYS_PER_RANK)
                .map(|_| rng.gen_range(0..1_000_000))
                .collect();
            keys.sort_unstable();
            // Model the local sort cost (~n log n comparisons at ~5ns).
            marcel::advance(marcel::VirtualDuration::from_nanos(
                (KEYS_PER_RANK as f64 * (KEYS_PER_RANK as f64).log2() * 5.0) as u64,
            ));

            // 2) Sample splitters: every rank contributes n-1 samples;
            //    rank 0 picks global splitters and broadcasts them.
            let samples: Vec<i64> = (1..n).map(|i| keys[i * KEYS_PER_RANK / n]).collect();
            let gathered = comm.gather(0, &samples).unwrap();
            let splitters = comm
                .bcast::<i64>(
                    0,
                    gathered.map(|all| {
                        let mut flat: Vec<i64> = all.into_iter().flatten().collect();
                        flat.sort_unstable();
                        (1..n).map(|i| flat[i * flat.len() / n]).collect()
                    }),
                )
                .unwrap();

            // 3) Partition local keys by splitter and alltoall them.
            let mut parts: Vec<Vec<u8>> = Vec::with_capacity(n);
            let mut start = 0usize;
            #[allow(clippy::needless_range_loop)]
            for d in 0..n {
                let end = if d + 1 == n {
                    keys.len()
                } else {
                    keys.partition_point(|&k| k < splitters[d])
                };
                parts.push(mpich::to_bytes(&keys[start..end]));
                start = end;
            }
            let incoming = comm.alltoall(parts).unwrap();

            // 4) Merge the received runs.
            let mut mine: Vec<i64> = incoming
                .iter()
                .flat_map(|p| mpich::from_bytes::<i64>(p))
                .collect();
            mine.sort_unstable();

            // 5) Verify the global order: my max <= next rank's min.
            let boundaries = comm.allgather(&[
                *mine.first().unwrap_or(&i64::MAX),
                *mine.last().unwrap_or(&i64::MIN),
            ]);
            let sorted_globally = boundaries
                .windows(2)
                .all(|w| w[0][1] <= w[1][0] || w[1][0] == i64::MAX);
            let total = comm.allreduce(&[mine.len() as i64], ReduceOp::Sum)[0];
            (mine.len(), sorted_globally, total)
        },
    )
    .expect("sample sort completes");

    println!("rank  keys-after-exchange  globally-sorted");
    for (r, (len, sorted, _)) in report.results.iter().enumerate() {
        println!("{r:>4}  {len:>19}  {sorted}");
    }
    let total: i64 = report.results[0].2;
    assert_eq!(
        total as usize,
        KEYS_PER_RANK * report.results.len(),
        "no key lost"
    );
    assert!(report.results.iter().all(|(_, sorted, _)| *sorted));
    println!(
        "\nsorted {} keys across 8 ranks / 3 networks in {:.3} ms of virtual time",
        total,
        report.kernel.end_time().as_secs_f64() * 1e3
    );
}
