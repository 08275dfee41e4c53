//! Session bootstrap: map ranks onto cluster nodes and build one channel
//! per network (plus optional extra channels — Madeleine explicitly
//! allows several channels over the same protocol, e.g. to split the
//! traffic of two software modules; §3.1).

use std::cmp::{Ordering as CmpOrdering, Reverse};
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};

use marcel::{Counter, Kernel};
use simnet::{NetworkId, NodeId, Protocol, Topology};

use crate::channel::{Channel, FaultCounters};
use crate::error::MadError;

/// Declarative session description; build with [`SessionBuilder::build`].
pub struct SessionBuilder {
    topology: Topology,
    placement: Vec<NodeId>,
    extra_channels: Vec<(NetworkId, String)>,
    forwarding: bool,
    vcis: usize,
}

impl SessionBuilder {
    pub fn new(topology: Topology) -> Self {
        SessionBuilder {
            topology,
            placement: Vec::new(),
            extra_channels: Vec::new(),
            forwarding: false,
            vcis: 1,
        }
    }

    /// Build every channel with `vcis` independent VCI lanes (default
    /// 1). See [`Channel::new`].
    pub fn vcis(mut self, vcis: usize) -> Self {
        assert!(vcis >= 1, "a session needs at least one VCI lane");
        self.vcis = vcis;
        self
    }

    /// Allow topologies whose node pairs are only *transitively*
    /// connected: messages between them will cross gateway nodes (the
    /// forwarding mechanism of the paper's §6 future work). Validation
    /// relaxes from "pairwise direct link" to "connected graph".
    pub fn allow_forwarding(mut self) -> Self {
        self.forwarding = true;
        self
    }

    /// Place one rank per node, in node order.
    pub fn one_rank_per_node(mut self) -> Self {
        self.placement = (0..self.topology.nodes().len()).map(NodeId).collect();
        self
    }

    /// Place one rank per CPU on every node (SMP nodes get several).
    pub fn one_rank_per_cpu(mut self) -> Self {
        self.placement = self
            .topology
            .nodes()
            .iter()
            .enumerate()
            .flat_map(|(i, n)| std::iter::repeat_n(NodeId(i), n.cpus))
            .collect();
        self
    }

    /// Explicit rank -> node placement.
    pub fn place(mut self, placement: Vec<NodeId>) -> Self {
        self.placement = placement;
        self
    }

    /// Open an additional channel over an existing network.
    pub fn extra_channel(mut self, network: NetworkId, name: impl Into<String>) -> Self {
        self.extra_channels.push((network, name.into()));
        self
    }

    /// Validate the topology and instantiate channels and connections.
    pub fn build(self, kernel: &Kernel) -> Result<Arc<Session>, MadError> {
        if self.forwarding {
            self.topology.validate_connected()?;
        } else {
            self.topology.validate()?;
        }
        if self.placement.is_empty() {
            return Err(MadError::EmptyPlacement);
        }
        for (rank, node) in self.placement.iter().enumerate() {
            if node.0 >= self.topology.nodes().len() {
                return Err(MadError::RankOnUnknownNode { rank, node: node.0 });
            }
        }
        let topology = self.topology;
        let n_nodes = topology.nodes().len();
        let node_ranks = Csr::build(
            n_nodes,
            self.placement
                .iter()
                .enumerate()
                .map(|(rank, node)| (node.0, rank)),
        );
        // Primary channels first, in network order — the primary channel
        // of network `i` is `channels[i]` — then the extras.
        let specs: Vec<(NetworkId, String)> = topology
            .networks()
            .iter()
            .enumerate()
            .map(|(i, net)| (NetworkId(i), format!("{}#{}", net.protocol.name(), i)))
            .chain(self.extra_channels)
            .collect();
        let channel_networks: Vec<NetworkId> = specs.iter().map(|(net, _)| *net).collect();
        let channels: Vec<Arc<Channel>> = specs
            .into_iter()
            .map(|(net_id, name)| {
                let net = topology.network(net_id);
                let members = net.members.iter();
                Channel::new(
                    kernel,
                    name,
                    net.protocol,
                    net.model.clone(),
                    net.fault.clone(),
                    members.flat_map(|m| node_ranks.row(m.0).iter().copied()),
                    self.vcis,
                )
            })
            .collect();
        let node_channels = Csr::build(
            n_nodes,
            channel_networks.iter().enumerate().flat_map(|(ci, net)| {
                topology
                    .network(*net)
                    .members
                    .iter()
                    .map(move |m| (m.0, ci))
            }),
        );
        let mut by_priority: Vec<usize> = (0..topology.networks().len()).collect();
        by_priority.sort_by_key(|&net| rail_key(&channels, net));
        let node_rails = Csr::build(
            n_nodes,
            by_priority.iter().flat_map(|&net| {
                topology.networks()[net]
                    .members
                    .iter()
                    .map(move |m| (m.0, net))
            }),
        );
        let route_trees = if self.forwarding {
            (0..n_nodes).map(|_| OnceLock::new()).collect()
        } else {
            Vec::new()
        };
        Ok(Arc::new(Session {
            topology,
            placement: self.placement,
            channels,
            node_ranks,
            node_channels,
            node_rails,
            route_trees,
            forwarding: self.forwarding,
            vcis: self.vcis,
            kernel: kernel.clone(),
            failovers: kernel.register_counter("chmad/failovers"),
            rndv_reissues: kernel.register_counter("chmad/rndv_reissues"),
            rndv_stale_chunks: kernel.register_counter("chmad/rndv_stale_chunks"),
        }))
    }
}

/// The order rails between two nodes are tried in: highest transfer
/// priority first, then network id. `net` indexes the primary channels.
fn rail_key(channels: &[Arc<Channel>], net: usize) -> (Reverse<u32>, usize) {
    (Reverse(channels[net].protocol().transfer_priority()), net)
}

/// Compressed sparse rows: `row(k)` is every value filed under key `k`,
/// in the order the pairs were produced. Two allocations whatever the
/// number of keys.
struct Csr {
    start: Vec<usize>,
    items: Vec<usize>,
}

impl Csr {
    fn build(keys: usize, pairs: impl Iterator<Item = (usize, usize)> + Clone) -> Csr {
        let mut start = vec![0usize; keys + 1];
        for (k, _) in pairs.clone() {
            start[k + 1] += 1;
        }
        for k in 0..keys {
            start[k + 1] += start[k];
        }
        let mut items = vec![0usize; start[keys]];
        let mut fill = start.clone();
        for (k, v) in pairs {
            items[fill[k]] = v;
            fill[k] += 1;
        }
        Csr { start, items }
    }

    fn row(&self, k: usize) -> &[usize] {
        &self.items[self.start[k]..self.start[k + 1]]
    }
}

/// The rails two ranks share, best first: an allocation-free merge of
/// their nodes' rows of the session's `node_rails` table.
#[derive(Clone)]
pub struct Rails<'a> {
    channels: &'a [Arc<Channel>],
    xs: &'a [usize],
    ys: &'a [usize],
    /// Skip rails on which this rank pair is dead in either direction,
    /// as of the moment the iterator reaches them.
    live_for: Option<(usize, usize)>,
}

impl<'a> Iterator for Rails<'a> {
    type Item = &'a Arc<Channel>;

    fn next(&mut self) -> Option<Self::Item> {
        while let (Some(&x), Some(&y)) = (self.xs.first(), self.ys.first()) {
            match rail_key(self.channels, x).cmp(&rail_key(self.channels, y)) {
                CmpOrdering::Less => self.xs = &self.xs[1..],
                CmpOrdering::Greater => self.ys = &self.ys[1..],
                CmpOrdering::Equal => {
                    self.xs = &self.xs[1..];
                    self.ys = &self.ys[1..];
                    let rail = &self.channels[x];
                    match self.live_for {
                        Some((a, b)) if rail.is_dead_pair(a, b) || rail.is_dead_pair(b, a) => {}
                        _ => return Some(rail),
                    }
                }
            }
        }
        None
    }
}

/// A running Madeleine session: ranks placed on nodes, channels built.
pub struct Session {
    topology: Topology,
    placement: Vec<NodeId>,
    /// Primary channels in network order (network `i` -> `channels[i]`),
    /// then the extra channels.
    channels: Vec<Arc<Channel>>,
    /// node -> ranks placed on it, ascending.
    node_ranks: Csr,
    /// node -> indices into `channels` of every channel its ranks are
    /// members of, ascending.
    node_channels: Csr,
    /// node -> networks it is attached to, in [`rail_key`] order, so the
    /// rails two nodes share are a merge of two rows.
    node_rails: Csr,
    /// Forwarding sessions only: per source node, the breadth-first
    /// predecessor of every other node (see [`Session::route_tree`]),
    /// built when a rank on the node first resolves a peer — O(nodes)
    /// per node that ever sends. Empty otherwise: a validated
    /// non-forwarding session is all-pairs direct and needs no routes.
    route_trees: Vec<OnceLock<Vec<usize>>>,
    forwarding: bool,
    /// VCI lanes every channel was built with.
    vcis: usize,
    /// The kernel the session was built on: its metrics registry holds
    /// the device-level counts and every channel's counts.
    kernel: Kernel,
    /// The device-level counts (`chmad/*`), which devices report
    /// through the session's `note_*` methods.
    failovers: Counter,
    rndv_reissues: Counter,
    rndv_stale_chunks: Counter,
}

/// What a session counted, as [`Session::counters`] reads it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SessionCounters {
    /// Reliable-delivery counters summed over every channel.
    pub faults: FaultCounters,
    /// Wire injections on every network (`net/{name}/messages`).
    pub wire_messages: u64,
    /// Payload bytes of those injections (`net/{name}/bytes`).
    pub wire_bytes: u64,
    /// Rail failovers recorded by devices.
    pub failovers: u64,
    /// Rendezvous REQUEST re-issues recorded by devices.
    pub rndv_reissues: u64,
    /// Per-channel reliable-delivery counters, sorted by channel name
    /// (not channel order), so reports print identically no matter how
    /// the topology enumerated its networks.
    pub channels: Vec<(String, FaultCounters)>,
}

impl Session {
    /// Shortcut: `n` ranks, one per node, over a single network of the
    /// given protocol.
    pub fn single_network(kernel: &Kernel, n: usize, protocol: Protocol) -> Arc<Session> {
        SessionBuilder::new(Topology::single_network(n, protocol))
            .one_rank_per_node()
            .build(kernel)
            .expect("single-network topology is always valid")
    }

    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    pub fn n_ranks(&self) -> usize {
        self.placement.len()
    }

    pub fn node_of(&self, rank: usize) -> NodeId {
        self.placement[rank]
    }

    /// Ranks placed on `node`, ascending.
    pub fn ranks_on_node(&self, node: NodeId) -> &[usize] {
        self.node_ranks.row(node.0)
    }

    /// All channels (primary per-network channels first, then extras).
    pub fn channels(&self) -> &[Arc<Channel>] {
        &self.channels
    }

    /// The primary channel of a network.
    pub fn channel_for_network(&self, net: NetworkId) -> &Arc<Channel> {
        &self.channels[net.0]
    }

    /// Channels whose membership includes `rank`, in channel order.
    pub fn channels_of_rank(&self, rank: usize) -> impl Iterator<Item = &Arc<Channel>> + '_ {
        self.node_channels
            .row(self.node_of(rank).0)
            .iter()
            .map(|&c| &self.channels[c])
    }

    /// Primary channels connecting two distinct ranks on different
    /// nodes, best (highest transfer priority) first.
    pub fn channels_between(&self, a: usize, b: usize) -> Rails<'_> {
        let (na, nb) = (self.node_of(a), self.node_of(b));
        let row = |n: NodeId| self.node_rails.row(n.0);
        Rails {
            channels: &self.channels,
            xs: if na == nb { &[] } else { row(na) },
            ys: row(nb),
            live_for: None,
        }
    }

    /// Like [`Session::channels_between`], but excluding channels whose
    /// `(a, b)` pair was declared dead by the reliable sublayer — the
    /// surviving rails the `ch_mad` device re-resolves its protocol
    /// policy against after a failure. Liveness is read as the iterator
    /// advances: clone it to look again later, collect it to pin a
    /// point in virtual time.
    pub fn live_channels_between(&self, a: usize, b: usize) -> Rails<'_> {
        Rails {
            live_for: Some((a, b)),
            ..self.channels_between(a, b)
        }
    }

    /// The preferred channel between two ranks (the `ch_mad` selection
    /// rule: the fastest network both nodes share).
    pub fn best_channel_between(&self, a: usize, b: usize) -> Option<&Arc<Channel>> {
        self.channels_between(a, b).next()
    }

    /// Number of VCI lanes every channel of this session carries.
    pub fn vcis(&self) -> usize {
        self.vcis
    }

    /// Every count the session keeps, read through its and its channels'
    /// handles, so [`marcel::obs::reset_metrics`] restarts them at zero.
    pub fn counters(&self) -> SessionCounters {
        let mut counters = SessionCounters {
            failovers: self.kernel.counter(self.failovers),
            rndv_reissues: self.kernel.counter(self.rndv_reissues),
            ..SessionCounters::default()
        };
        for c in &self.channels {
            let faults = c.counters();
            let (messages, bytes) = c.wire();
            counters.faults += faults;
            counters.wire_messages += messages;
            counters.wire_bytes += bytes;
            counters.channels.push((c.name().to_string(), faults));
        }
        counters.channels.sort_by(|a, b| a.0.cmp(&b.0));
        counters
    }

    /// Record that a device moved traffic off a dead rail.
    pub fn note_failover(&self) {
        marcel::obs::counter_add(self.failovers, 1);
    }

    /// Record that an in-flight rendezvous REQUEST was re-issued.
    pub fn note_rndv_reissue(&self) {
        marcel::obs::counter_add(self.rndv_reissues, 1);
    }

    /// Record that a stale rendezvous DATA chunk was dropped.
    pub fn note_rndv_stale_chunk(&self) {
        marcel::obs::counter_add(self.rndv_stale_chunks, 1);
    }

    /// The rank path from `a` to `b`: `a, gateways..., b`. One rank per
    /// gateway node (the lowest-numbered rank hosted there, a
    /// deterministic choice).
    pub fn route_between(&self, a: usize, b: usize) -> impl Iterator<Item = usize> + '_ {
        let (na, nb) = (self.node_of(a), self.node_of(b));
        let hops = self.hops(na, nb);
        // Routes are a handful of hops: re-walking the tree per gateway
        // keeps the forward-order view allocation-free.
        let gateways = (1..hops).map(move |i| self.gateway(self.ancestor(na, nb, hops - i)));
        std::iter::once(a)
            .chain(gateways)
            .chain((a != b).then_some(b))
    }

    /// The next hop from `from` toward `final_dst` plus whether that hop
    /// is the final one.
    pub fn next_hop(&self, from: usize, final_dst: usize) -> (usize, bool) {
        assert!(from != final_dst, "next_hop requires distinct ranks");
        let (na, nb) = (self.node_of(from), self.node_of(final_dst));
        match self.hops(na, nb) {
            0 | 1 => (final_dst, true),
            hops => (self.gateway(self.ancestor(na, nb, hops - 1)), false),
        }
    }

    fn gateway(&self, node: NodeId) -> usize {
        *self
            .ranks_on_node(node)
            .first()
            .expect("gateway node hosts at least one rank")
    }

    /// Network hops on the route between two nodes. Session build
    /// validated that every pair is direct, or (forwarding) reachable.
    fn hops(&self, from: NodeId, to: NodeId) -> usize {
        if from == to {
            0
        } else if !self.forwarding {
            1
        } else {
            let prev = self.route_tree(from);
            let mut hops = 1;
            let mut cur = prev[to.0];
            while cur != from.0 {
                cur = prev[cur];
                hops += 1;
            }
            hops
        }
    }

    /// The node `steps` hops before `to` on the route from `from`.
    fn ancestor(&self, from: NodeId, to: NodeId, steps: usize) -> NodeId {
        let prev = self.route_tree(from);
        NodeId((0..steps).fold(to.0, |cur, _| prev[cur]))
    }

    /// Breadth-first predecessor tree rooted at `from`, with the
    /// tie-breaks of [`Topology::node_route`] (the reference the tests
    /// compare against): a node's networks by priority then id — its
    /// `node_rails` row — and a network's members by ascending node id.
    fn route_tree(&self, from: NodeId) -> &[usize] {
        self.route_trees[from.0].get_or_init(|| {
            let mut prev = vec![usize::MAX; self.topology.nodes().len()];
            prev[from.0] = from.0;
            let mut frontier = VecDeque::from([from.0]);
            while let Some(u) = frontier.pop_front() {
                for &net in self.node_rails.row(u) {
                    for m in &self.topology.networks()[net].members {
                        if prev[m.0] == usize::MAX {
                            prev[m.0] = u;
                            frontier.push_back(m.0);
                        }
                    }
                }
            }
            prev
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marcel::CostModel;

    #[test]
    fn single_network_session() {
        let k = Kernel::new(CostModel::free());
        let s = Session::single_network(&k, 4, Protocol::Tcp);
        assert_eq!(s.n_ranks(), 4);
        assert_eq!(s.channels().len(), 1);
        assert_eq!(s.channels()[0].members(), &[0, 1, 2, 3]);
    }

    #[test]
    fn meta_cluster_channel_membership() {
        let k = Kernel::new(CostModel::free());
        let s = SessionBuilder::new(Topology::meta_cluster(2))
            .one_rank_per_node()
            .build(&k)
            .unwrap();
        // Networks: SCI {0,1}, BIP {2,3}, TCP {0,1,2,3}.
        assert_eq!(s.channels().len(), 3);
        let sci = s.channel_for_network(NetworkId(0));
        assert_eq!(sci.members(), &[0, 1]);
        let bip = s.channel_for_network(NetworkId(1));
        assert_eq!(bip.members(), &[2, 3]);
        let tcp = s.channel_for_network(NetworkId(2));
        assert_eq!(tcp.members(), &[0, 1, 2, 3]);
    }

    #[test]
    fn best_channel_selection() {
        let k = Kernel::new(CostModel::free());
        let s = SessionBuilder::new(Topology::meta_cluster(2))
            .one_rank_per_node()
            .build(&k)
            .unwrap();
        assert_eq!(
            s.best_channel_between(0, 1).unwrap().protocol(),
            Protocol::Sisci
        );
        assert_eq!(
            s.best_channel_between(2, 3).unwrap().protocol(),
            Protocol::Bip
        );
        assert_eq!(
            s.best_channel_between(0, 2).unwrap().protocol(),
            Protocol::Tcp
        );
        assert_eq!(
            s.best_channel_between(1, 3).unwrap().protocol(),
            Protocol::Tcp
        );
    }

    #[test]
    fn smp_placement() {
        let k = Kernel::new(CostModel::free());
        let s = SessionBuilder::new(Topology::meta_cluster(2))
            .one_rank_per_cpu()
            .build(&k)
            .unwrap();
        // 4 dual-CPU nodes -> 8 ranks.
        assert_eq!(s.n_ranks(), 8);
        assert_eq!(s.ranks_on_node(NodeId(0)), [0, 1]);
        assert_eq!(s.node_of(7), NodeId(3));
    }

    #[test]
    fn extra_channel_over_same_network() {
        let k = Kernel::new(CostModel::free());
        let s = SessionBuilder::new(Topology::single_network(2, Protocol::Sisci))
            .one_rank_per_node()
            .extra_channel(NetworkId(0), "module-b")
            .build(&k)
            .unwrap();
        assert_eq!(s.channels().len(), 2);
        assert_eq!(s.channels()[1].name(), "module-b");
        assert_eq!(s.channels()[0].protocol(), s.channels()[1].protocol());
    }

    #[test]
    fn invalid_topology_is_rejected() {
        let mut t = Topology::new();
        let a = t.add_node("a", 1);
        let b = t.add_node("b", 1);
        let c = t.add_node("c", 1);
        t.add_network(Protocol::Sisci, [a, b]);
        t.add_network(Protocol::Bip, [b, c]);
        let k = Kernel::new(CostModel::free());
        let err = SessionBuilder::new(t).one_rank_per_node().build(&k);
        assert!(err.is_err());
    }
}

#[cfg(test)]
mod forwarding_tests {
    use super::*;
    use marcel::CostModel;
    use simnet::Protocol;

    fn chain_session(kernel: &Kernel) -> Arc<Session> {
        let mut t = Topology::new();
        let a = t.add_node("a", 1);
        let b = t.add_node("b", 2);
        let c = t.add_node("c", 1);
        t.add_network(Protocol::Sisci, [a, b]);
        t.add_network(Protocol::Bip, [b, c]);
        SessionBuilder::new(t)
            .one_rank_per_cpu() // ranks: 0 on a; 1,2 on b; 3 on c
            .allow_forwarding()
            .build(kernel)
            .unwrap()
    }

    #[test]
    fn chain_requires_forwarding_flag() {
        let k = Kernel::new(CostModel::free());
        let mut t = Topology::new();
        let a = t.add_node("a", 1);
        let b = t.add_node("b", 1);
        let c = t.add_node("c", 1);
        t.add_network(Protocol::Sisci, [a, b]);
        t.add_network(Protocol::Bip, [b, c]);
        assert!(SessionBuilder::new(t)
            .one_rank_per_node()
            .build(&k)
            .is_err());
    }

    #[test]
    fn route_uses_lowest_rank_gateway() {
        let k = Kernel::new(CostModel::free());
        let s = chain_session(&k);
        let route = |a, b| s.route_between(a, b).collect::<Vec<_>>();
        assert_eq!(route(0, 3), [0, 1, 3]);
        assert_eq!(route(3, 0), [3, 1, 0]);
        assert_eq!(route(0, 2), [0, 2]);
        assert_eq!(route(1, 2), [1, 2], "same node is direct");
    }

    #[test]
    fn next_hop_walks_the_route() {
        let k = Kernel::new(CostModel::free());
        let s = chain_session(&k);
        assert_eq!(s.next_hop(0, 3), (1, false));
        assert_eq!(s.next_hop(1, 3), (3, true));
        assert_eq!(s.next_hop(3, 0), (1, false));
        assert_eq!(s.next_hop(1, 0), (0, true));
    }

    #[test]
    fn direct_pairs_have_two_rank_routes_without_the_flag() {
        let k = Kernel::new(CostModel::free());
        let s = Session::single_network(&k, 3, Protocol::Tcp);
        assert_eq!(s.route_between(0, 2).collect::<Vec<_>>(), [0, 2]);
    }
}
