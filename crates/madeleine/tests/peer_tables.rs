//! The session's peer-resolution tables against the searches they
//! replaced on the send path: for every ordered rank pair, the route
//! and next hop must equal `Topology::node_route` mapped to ranks, and
//! the rails must equal `networks_between` + a stable priority sort.

use std::cmp::Reverse;
use std::sync::Arc;

use madeleine::{Session, SessionBuilder};
use marcel::{CostModel, Kernel};
use proptest::prelude::*;
use simnet::{NodeId, Protocol, Topology};

#[derive(Debug, Clone)]
enum Shape {
    Meta(usize),
    FatTree(usize),
    Dragonfly(usize, usize, usize),
    /// a —SCI— b —BIP— c: the forwarding bench's gateway chain.
    Chain,
    /// Random networks (protocol index, member bitmask) over `nodes`
    /// nodes plus an SCI backbone chain, so indirect pairs abound.
    Random(usize, Vec<(usize, u8)>),
}

impl Shape {
    fn topology(&self) -> Topology {
        match self {
            Shape::Meta(k) => Topology::meta_cluster(*k),
            Shape::FatTree(k) => Topology::fat_tree(*k),
            Shape::Dragonfly(a, p, h) => Topology::dragonfly(*a, *p, *h),
            Shape::Chain => {
                let mut t = Topology::new();
                let nodes = ["a", "b", "c"].map(|name| t.add_node(name, 1));
                t.add_network(Protocol::Sisci, [nodes[0], nodes[1]]);
                t.add_network(Protocol::Bip, [nodes[1], nodes[2]]);
                t
            }
            Shape::Random(n, networks) => {
                let mut t = Topology::new();
                let nodes: Vec<NodeId> = (0..*n).map(|i| t.add_node(format!("n{i}"), 1)).collect();
                let protocols = [Protocol::Tcp, Protocol::Sisci, Protocol::Bip];
                for (p, mask) in networks {
                    let members: Vec<NodeId> = (0..*n)
                        .filter(|i| mask & (1 << i) != 0)
                        .map(|i| nodes[i])
                        .collect();
                    if members.len() >= 2 {
                        t.add_network(protocols[*p], members);
                    }
                }
                for w in nodes.windows(2) {
                    t.add_network(Protocol::Sisci, [w[0], w[1]]);
                }
                t
            }
        }
    }
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        (2usize..5).prop_map(Shape::Meta),
        (2usize..5).prop_map(|half| Shape::FatTree(2 * half)),
        prop_oneof![Just((2, 2, 1)), Just((4, 2, 2))]
            .prop_map(|(a, p, h)| Shape::Dragonfly(a, p, h)),
        Just(Shape::Chain),
        (
            2usize..7,
            proptest::collection::vec((0usize..3, 0u8..64), 0..4)
        )
            .prop_map(|(n, nets)| Shape::Random(n, nets)),
    ]
}

/// One or two ranks on every node (a gateway must host a rank), dealt
/// to the nodes in an order drawn from `seed` so a node's ranks are
/// neither contiguous nor in node order.
fn placement(nodes: usize, seed: u64) -> Vec<NodeId> {
    let mut rng = proptest::TestRng::from_seed(seed);
    let mut placement: Vec<NodeId> = (0..nodes)
        .flat_map(|n| std::iter::repeat_n(NodeId(n), 1 + (rng.next_u64() % 2) as usize))
        .collect();
    for i in (1..placement.len()).rev() {
        placement.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    placement
}

fn build(topology: &Topology, placement: &[NodeId], forwarding: bool) -> Option<Arc<Session>> {
    let kernel = Kernel::new(CostModel::free());
    let builder = SessionBuilder::new(topology.clone()).place(placement.to_vec());
    let builder = if forwarding {
        builder.allow_forwarding()
    } else {
        builder
    };
    builder.build(&kernel).ok()
}

/// Every ordered rank pair of `session` against the reference.
fn check(session: &Session, topology: &Topology, placement: &[NodeId]) {
    let lowest_rank_on = |node: NodeId| {
        placement
            .iter()
            .position(|n| *n == node)
            .expect("a rank per node")
    };
    for (a, &na) in placement.iter().enumerate() {
        for (b, &nb) in placement.iter().enumerate() {
            let node_path = topology.node_route(na, nb).expect("validated reachable");
            let mut route = vec![a];
            if node_path.len() > 2 {
                route.extend(
                    node_path[1..node_path.len() - 1]
                        .iter()
                        .map(|n| lowest_rank_on(*n)),
                );
            }
            if b != a {
                route.push(b);
            }
            prop_assert_eq!(
                session.route_between(a, b).collect::<Vec<_>>(),
                route.clone()
            );
            if a != b {
                prop_assert_eq!(session.next_hop(a, b), (route[1], route.len() == 2));
            }

            let mut rails = topology.networks_between(na, nb);
            rails.sort_by_key(|net| Reverse(topology.network(*net).protocol.transfer_priority()));
            let rails: Vec<&str> = rails
                .iter()
                .map(|net| session.channel_for_network(*net).name())
                .collect();
            let table: Vec<&str> = session.channels_between(a, b).map(|c| c.name()).collect();
            prop_assert_eq!(&table, &rails, "rails between ranks {} and {}", a, b);
            // No rail ever died here, so the live view is the full one.
            let live: Vec<&str> = session
                .live_channels_between(a, b)
                .map(|c| c.name())
                .collect();
            prop_assert_eq!(&live, &rails);
            prop_assert_eq!(
                session.best_channel_between(a, b).map(|c| c.name()),
                rails.first().copied()
            );
        }
    }
    for (node, _) in topology.nodes().iter().enumerate() {
        let ranks: Vec<usize> = (0..placement.len())
            .filter(|r| placement[*r] == NodeId(node))
            .collect();
        prop_assert_eq!(session.ranks_on_node(NodeId(node)), &ranks[..]);
    }
    for rank in 0..placement.len() {
        let member_of: Vec<&str> = session
            .channels()
            .iter()
            .filter(|c| c.members().contains(&rank))
            .map(|c| c.name())
            .collect();
        let table: Vec<&str> = session.channels_of_rank(rank).map(|c| c.name()).collect();
        prop_assert_eq!(table, member_of);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tables_match_the_topology_search(shape in arb_shape(), seed in any::<u64>()) {
        let topology = shape.topology();
        let placement = placement(topology.nodes().len(), seed);
        // All-pairs-direct shapes build both ways; the forwarding build
        // then answers direct routes from its predecessor trees.
        let strict = build(&topology, &placement, false);
        prop_assert_eq!(strict.is_some(), topology.validate().is_ok());
        if let Some(session) = strict {
            check(&session, &topology, &placement);
        }
        let forwarding = build(&topology, &placement, true).expect("connected by construction");
        check(&forwarding, &topology, &placement);
    }
}
