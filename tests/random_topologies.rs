//! Property tests over *randomly generated* cluster topologies: any
//! connected mix of networks, node counts and SMP widths must run MPI
//! correctly (with forwarding enabled so partial connectivity is fine).

use mpich::{run_world, Placement, ReduceOp, WorldConfig};
use proptest::prelude::*;
use simnet::{NodeId, Protocol, Topology};

#[derive(Debug, Clone)]
struct TopoSpec {
    /// Per-node CPU count (1 or 2), up to 6 nodes.
    cpus: Vec<usize>,
    /// Networks: (protocol index, sorted member set as a bitmask).
    networks: Vec<(usize, u8)>,
}

fn arb_topo() -> impl Strategy<Value = TopoSpec> {
    (
        proptest::collection::vec(1usize..3, 2..6),
        proptest::collection::vec((0usize..3, 0u8..64), 1..4),
    )
        .prop_map(|(cpus, networks)| TopoSpec { cpus, networks })
}

/// Build a topology from the spec, then add a chain of SCI links so the
/// graph is always connected (forwarding handles indirect pairs).
fn build(spec: &TopoSpec) -> Topology {
    let mut t = Topology::new();
    let nodes: Vec<NodeId> = spec
        .cpus
        .iter()
        .enumerate()
        .map(|(i, &c)| t.add_node(format!("n{i}"), c))
        .collect();
    let protos = [Protocol::Tcp, Protocol::Sisci, Protocol::Bip];
    for (p, mask) in &spec.networks {
        let members: Vec<NodeId> = nodes
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, n)| *n)
            .collect();
        if members.len() >= 2 {
            t.add_network(protos[*p], members);
        }
    }
    // Connectivity backbone.
    for w in nodes.windows(2) {
        t.add_network(Protocol::Sisci, [w[0], w[1]]);
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn allreduce_works_on_any_connected_topology(spec in arb_topo()) {
        let topology = build(&spec);
        prop_assume!(topology.validate_connected().is_ok());
        let results = run_world(
            topology,
            Placement::OneRankPerCpu,
            WorldConfig::with_forwarding(),
            |comm| {
                let me = comm.rank() as i64;
                comm.allreduce(&[me, 1], ReduceOp::Sum)
            },
        )
        .expect("world must complete on any connected topology");
        let n = results.len() as i64;
        let expected = vec![n * (n - 1) / 2, n];
        for r in results {
            prop_assert_eq!(&r, &expected);
        }
    }

    #[test]
    fn point_to_point_all_pairs(spec in arb_topo()) {
        let topology = build(&spec);
        prop_assume!(topology.validate_connected().is_ok());
        // Every rank sends its rank to every other rank; everyone
        // verifies all receipts — exercising every pairwise path
        // (ch_self, smp_plug, direct ch_mad, forwarded ch_mad).
        let results = run_world(
            topology,
            Placement::OneRankPerCpu,
            WorldConfig::with_forwarding(),
            |comm| {
                let ep = comm.endpoint();
                let me = comm.rank();
                let n = comm.size();
                let sends: Vec<_> = (0..n)
                    .map(|dst| ep.isend(vec![me as u8; 5], dst, me as i32).unwrap())
                    .collect();
                let mut ok = true;
                for src in 0..n {
                    let (data, status) = ep.recv::<Vec<u8>>(8, Some(src), Some(src as i32)).unwrap();
                    ok &= data == vec![src as u8; 5] && status.source == src;
                }
                for s in sends {
                    s.wait_send();
                }
                ok
            },
        )
        .expect("all-pairs world completes");
        prop_assert!(results.into_iter().all(|ok| ok));
    }
}
