//! Cluster topology: nodes, intra-node cost model, and the networks that
//! connect node subsets ("clusters of clusters", the paper's motivating
//! configuration).
//!
//! The current MPICH/Madeleine prototype cannot forward packets across
//! heterogeneous networks (paper §6: "all nodes have to be connected
//! two-by-two by a direct network link"), so [`Topology::validate`]
//! enforces exactly that property.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use crate::fault::FaultPlan;
use crate::model::{per_byte, LinkModel};
use crate::protocol::Protocol;
use marcel::VirtualDuration;

/// Identifier of a physical node (host) in the cluster.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub usize);

/// Identifier of a network (one protocol instance over one adapter set).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NetworkId(pub usize);

/// A physical host.
#[derive(Clone, Debug)]
pub struct Node {
    pub name: String,
    /// Number of processors (the paper's nodes are dual Pentium II).
    pub cpus: usize,
}

/// One network: a protocol with a calibrated model, connecting a set of
/// nodes through one adapter per node.
#[derive(Clone, Debug)]
pub struct Network {
    pub protocol: Protocol,
    pub model: LinkModel,
    pub members: BTreeSet<NodeId>,
    /// Deterministic fault injection for this network (None = the
    /// paper's perfectly reliable wire).
    pub fault: Option<FaultPlan>,
}

/// Intra-node costs (loop-back and shared-memory paths, used by the
/// `ch_self` and `smp_plug` devices).
#[derive(Clone, Debug)]
pub struct NodeModel {
    /// Fixed cost of an intra-process (loop-back) message.
    pub self_fixed: VirtualDuration,
    /// Per-byte cost of the loop-back memcpy.
    pub self_per_byte_ns: f64,
    /// Fixed cost of an intra-node (shared-memory) message.
    pub smp_fixed: VirtualDuration,
    /// Per-byte cost of the shared-memory double copy.
    pub smp_per_byte_ns: f64,
}

impl NodeModel {
    /// Calibrated for a dual Pentium II 450 with ~100 MB/s usable copy
    /// bandwidth.
    pub fn calibrated() -> Self {
        NodeModel {
            self_fixed: VirtualDuration::from_nanos(700),
            self_per_byte_ns: 5.0,
            smp_fixed: VirtualDuration::from_micros(3),
            smp_per_byte_ns: 9.0,
        }
    }

    pub fn self_cost(&self, bytes: usize) -> VirtualDuration {
        self.self_fixed + per_byte(self.self_per_byte_ns, bytes)
    }

    pub fn smp_cost(&self, bytes: usize) -> VirtualDuration {
        self.smp_fixed + per_byte(self.smp_per_byte_ns, bytes)
    }
}

impl Default for NodeModel {
    fn default() -> Self {
        NodeModel::calibrated()
    }
}

/// Errors from [`Topology::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// Two nodes share no network: the prototype cannot forward.
    Disconnected(NodeId, NodeId),
    /// A network references a node that does not exist.
    UnknownNode(NetworkId, NodeId),
    /// A network connects fewer than two nodes.
    DegenerateNetwork(NetworkId),
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::Disconnected(a, b) => write!(
                f,
                "nodes {} and {} share no direct network (MPICH/Madeleine cannot forward across gateways)",
                a.0, b.0
            ),
            TopologyError::UnknownNode(n, node) => {
                write!(f, "network {} references unknown node {}", n.0, node.0)
            }
            TopologyError::DegenerateNetwork(n) => {
                write!(f, "network {} connects fewer than two nodes", n.0)
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// The full cluster description.
#[derive(Clone, Debug, Default)]
pub struct Topology {
    nodes: Vec<Node>,
    networks: Vec<Network>,
    node_model: NodeModel,
    /// Lazily built adjacency index: `node id -> attached networks`
    /// (ascending network id). Built on first query, dropped by every
    /// mutation, so the query methods keep their by-value signatures
    /// while an 8k-node sweep stops re-scanning the network table.
    adjacency: OnceLock<Vec<Vec<NetworkId>>>,
}

impl Topology {
    pub fn new() -> Self {
        Topology {
            nodes: Vec::new(),
            networks: Vec::new(),
            node_model: NodeModel::calibrated(),
            adjacency: OnceLock::new(),
        }
    }

    /// Drop the lazily built adjacency index; every mutation calls this
    /// so queries never observe a stale view.
    fn invalidate_adjacency(&mut self) {
        self.adjacency = OnceLock::new();
    }

    /// The adjacency index, building it on first use. Sized to cover
    /// every node id a network references (even not-yet-validated ones)
    /// so the indexed queries answer exactly like the old full scans.
    fn adjacency(&self) -> &[Vec<NetworkId>] {
        self.adjacency.get_or_init(|| {
            let max_member = self
                .networks
                .iter()
                .flat_map(|n| n.members.iter())
                .map(|m| m.0 + 1)
                .max()
                .unwrap_or(0);
            let mut at = vec![Vec::new(); self.nodes.len().max(max_member)];
            for (i, net) in self.networks.iter().enumerate() {
                for m in &net.members {
                    at[m.0].push(NetworkId(i));
                }
            }
            at
        })
    }

    /// Add a host; returns its id.
    pub fn add_node(&mut self, name: impl Into<String>, cpus: usize) -> NodeId {
        self.invalidate_adjacency();
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            name: name.into(),
            cpus,
        });
        id
    }

    /// Add a network with the protocol's calibrated default model.
    pub fn add_network(
        &mut self,
        protocol: Protocol,
        members: impl IntoIterator<Item = NodeId>,
    ) -> NetworkId {
        self.add_network_with_model(protocol, protocol.model(), members)
    }

    /// Add a network with an explicit (e.g. customized) link model.
    pub fn add_network_with_model(
        &mut self,
        protocol: Protocol,
        model: LinkModel,
        members: impl IntoIterator<Item = NodeId>,
    ) -> NetworkId {
        self.invalidate_adjacency();
        let id = NetworkId(self.networks.len());
        self.networks.push(Network {
            protocol,
            model,
            members: members.into_iter().collect(),
            fault: None,
        });
        id
    }

    /// Add a network with the protocol's calibrated model plus a
    /// deterministic fault plan.
    pub fn add_network_with_fault(
        &mut self,
        protocol: Protocol,
        fault: FaultPlan,
        members: impl IntoIterator<Item = NodeId>,
    ) -> NetworkId {
        let id = self.add_network(protocol, members);
        self.networks[id.0].fault = Some(fault);
        id
    }

    /// Attach (or replace) the fault plan of an existing network.
    pub fn set_fault(&mut self, net: NetworkId, fault: FaultPlan) {
        self.networks[net.0].fault = Some(fault);
    }

    /// Convenience: `n` single-CPU nodes all connected by one network.
    pub fn single_network(n: usize, protocol: Protocol) -> Self {
        let mut t = Topology::new();
        let nodes: Vec<NodeId> = (0..n).map(|i| t.add_node(format!("node{i}"), 1)).collect();
        t.add_network(protocol, nodes);
        t
    }

    /// Convenience: the paper's meta-cluster — one SCI cluster and one
    /// Myrinet cluster of `per_cluster` dual-CPU nodes each, with
    /// Fast-Ethernet connecting everything.
    pub fn meta_cluster(per_cluster: usize) -> Self {
        let mut t = Topology::new();
        let sci: Vec<NodeId> = (0..per_cluster)
            .map(|i| t.add_node(format!("sci{i}"), 2))
            .collect();
        let myri: Vec<NodeId> = (0..per_cluster)
            .map(|i| t.add_node(format!("myri{i}"), 2))
            .collect();
        t.add_network(Protocol::Sisci, sci.clone());
        t.add_network(Protocol::Bip, myri.clone());
        t.add_network(Protocol::Tcp, sci.into_iter().chain(myri));
        t
    }

    /// A three-tier k-ary fat-tree, expressed in the paper's
    /// networks-of-direct-links vocabulary: `k` pods, each with `k/2`
    /// edge switches of `k/2` hosts — `k³/4` hosts total. Each edge
    /// switch's hosts share a *rail* network on the fastest protocol
    /// (BIP), each pod's hosts share a pod-level network (SCI), and one
    /// spanning core network (TCP) connects everything — so the strict
    /// all-pairs-direct validation passes while [`cluster_levels`]
    /// recovers the rail → pod → cluster hierarchy purely from
    /// protocol speeds. `k` must be even and at least 4 (a rail needs
    /// two members).
    ///
    /// [`cluster_levels`]: Topology::cluster_levels
    pub fn fat_tree(k: usize) -> Self {
        assert!(
            k >= 4 && k.is_multiple_of(2),
            "fat_tree requires even k >= 4"
        );
        let (pods, edges, leaf) = (k, k / 2, k / 2);
        let mut t = Topology::new();
        let mut all = Vec::with_capacity(pods * edges * leaf);
        for p in 0..pods {
            let mut pod_hosts = Vec::with_capacity(edges * leaf);
            for e in 0..edges {
                let rail: Vec<NodeId> = (0..leaf)
                    .map(|h| t.add_node(format!("p{p}e{e}h{h}"), 1))
                    .collect();
                t.add_network(Protocol::Bip, rail.clone());
                pod_hosts.extend(rail);
            }
            t.add_network(Protocol::Sisci, pod_hosts.clone());
            all.extend(pod_hosts);
        }
        t.add_network(Protocol::Tcp, all);
        t
    }

    /// A dragonfly: `a` routers per group, `p` hosts per router, `h`
    /// global links per router, giving the standard maximum of
    /// `a·h + 1` groups and `a·p·(a·h + 1)` hosts. Each router's hosts
    /// share a rail network (BIP), each group's hosts a group network
    /// (SCI), and one spanning global network (TCP) stands in for the
    /// all-to-all inter-group links. `p` must be at least 2 (a rail
    /// needs two members) and `a`, `h` at least 1.
    pub fn dragonfly(a: usize, p: usize, h: usize) -> Self {
        assert!(
            a >= 1 && p >= 2 && h >= 1,
            "dragonfly requires a >= 1, p >= 2, h >= 1"
        );
        let groups = a * h + 1;
        let mut t = Topology::new();
        let mut all = Vec::with_capacity(groups * a * p);
        for g in 0..groups {
            let mut group_hosts = Vec::with_capacity(a * p);
            for r in 0..a {
                let rail: Vec<NodeId> = (0..p)
                    .map(|i| t.add_node(format!("g{g}r{r}h{i}"), 1))
                    .collect();
                t.add_network(Protocol::Bip, rail.clone());
                group_hosts.extend(rail);
            }
            t.add_network(Protocol::Sisci, group_hosts.clone());
            all.extend(group_hosts);
        }
        t.add_network(Protocol::Tcp, all);
        t
    }

    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    pub fn networks(&self) -> &[Network] {
        &self.networks
    }

    pub fn network(&self, id: NetworkId) -> &Network {
        &self.networks[id.0]
    }

    pub fn node_model(&self) -> &NodeModel {
        &self.node_model
    }

    /// All networks directly connecting `a` and `b` (excludes `a == b`,
    /// which is intra-node territory). Answered from the lazily built
    /// adjacency index: a sorted-merge intersection of the two nodes'
    /// attachment lists — O(degree), not O(networks) — in the same
    /// ascending network-id order the old full scan produced.
    pub fn networks_between(&self, a: NodeId, b: NodeId) -> Vec<NetworkId> {
        if a == b {
            return Vec::new();
        }
        let adj = self.adjacency();
        let (Some(xs), Some(ys)) = (adj.get(a.0), adj.get(b.0)) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < xs.len() && j < ys.len() {
            match xs[i].0.cmp(&ys[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(xs[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }

    /// The preferred (highest transfer priority) network between two
    /// distinct nodes.
    pub fn best_network_between(&self, a: NodeId, b: NodeId) -> Option<NetworkId> {
        self.networks_between(a, b)
            .into_iter()
            .max_by_key(|id| self.networks[id.0].protocol.transfer_priority())
    }

    /// Networks a node is attached to (from the adjacency index; same
    /// ascending order as the old scan).
    pub fn networks_at(&self, node: NodeId) -> Vec<NetworkId> {
        self.adjacency().get(node.0).cloned().unwrap_or_default()
    }

    /// The distinct protocols present in the whole configuration.
    pub fn protocols(&self) -> Vec<Protocol> {
        let mut ps: Vec<Protocol> = self.networks.iter().map(|n| n.protocol).collect();
        ps.sort();
        ps.dedup();
        ps
    }

    /// Partition the nodes into *clusters*: connected components over
    /// the "fast" networks — every network whose protocol outranks the
    /// slowest protocol present in the configuration (by
    /// [`Protocol::transfer_priority`]). On the paper's meta-cluster
    /// this yields one cluster per SAN (the SCI island and the Myrinet
    /// island), with the spanning Fast-Ethernet excluded; nodes attached
    /// only to slow networks become singleton clusters. A homogeneous
    /// configuration (one protocol everywhere) has no fast network at
    /// all, so every node is its own cluster — the degenerate case
    /// topology-aware collectives treat as "flat".
    ///
    /// Clusters are deterministic: ordered by their lowest node id, each
    /// member list ascending.
    pub fn clusters(&self) -> Vec<Vec<NodeId>> {
        let floor = self
            .networks
            .iter()
            .map(|net| net.protocol.transfer_priority())
            .min();
        match floor {
            Some(floor) => self.components_over(|p| p > floor),
            None => (0..self.nodes.len()).map(|i| vec![NodeId(i)]).collect(),
        }
    }

    /// Connected components over the networks whose protocol priority
    /// satisfies `keep`, via size-ranked, path-compressed union-find —
    /// near-linear in nodes + memberships, so 8k-node topologies
    /// cluster in microseconds. The output contract matches
    /// [`Topology::clusters`]: components ordered by their lowest node
    /// id, members ascending (independent of union order).
    fn components_over(&self, keep: impl Fn(u32) -> bool) -> Vec<Vec<NodeId>> {
        let n = self.nodes.len();
        let mut parent: Vec<usize> = (0..n).collect();
        let mut size = vec![1usize; n];
        fn find(parent: &mut [usize], x: usize) -> usize {
            let mut r = x;
            while parent[r] != r {
                // Path halving: every probed node re-points to its
                // grandparent, flattening the tree as we walk it.
                parent[r] = parent[parent[r]];
                r = parent[r];
            }
            r
        }
        for net in &self.networks {
            if !keep(net.protocol.transfer_priority()) {
                continue;
            }
            let mut it = net.members.iter().filter(|m| m.0 < n);
            if let Some(first) = it.next() {
                let mut a = find(&mut parent, first.0);
                for m in it {
                    let b = find(&mut parent, m.0);
                    if a == b {
                        continue;
                    }
                    // Union by size keeps trees logarithmic regardless
                    // of id order; the output is root-independent.
                    let (big, small) = if size[a] >= size[b] { (a, b) } else { (b, a) };
                    parent[small] = big;
                    size[big] += size[small];
                    a = big;
                }
            }
        }
        // Group by root in ascending node order: each component's
        // member list comes out ascending, and because the first
        // member appended to a group is its minimum, sorting groups by
        // first member orders components by lowest node id.
        let mut group_of_root: Vec<usize> = vec![usize::MAX; n];
        let mut groups: Vec<Vec<NodeId>> = Vec::new();
        for node in 0..n {
            let r = find(&mut parent, node);
            if group_of_root[r] == usize::MAX {
                group_of_root[r] = groups.len();
                groups.push(Vec::new());
            }
            groups[group_of_root[r]].push(NodeId(node));
        }
        groups
    }

    /// Multi-level clustering for hierarchical collectives: one
    /// partition per "speed tier", finest first. With the distinct
    /// protocol priorities present sorted ascending as `p0 < p1 < ...
    /// < p_{k-1}`, level `i` is the connected components over networks
    /// strictly faster than `p_{k-2-i}` — so level 0 groups nodes
    /// joined by the fastest tier only (e.g. one group per fat-tree
    /// rail), and the last level equals [`Topology::clusters`]
    /// (everything above the slowest tier, e.g. pods over the spanning
    /// core). A configuration with fewer than two tiers has no
    /// non-trivial level and returns an empty vec.
    pub fn cluster_levels(&self) -> Vec<Vec<Vec<NodeId>>> {
        let mut prios: Vec<u32> = self
            .networks
            .iter()
            .map(|net| net.protocol.transfer_priority())
            .collect();
        prios.sort_unstable();
        prios.dedup();
        if prios.len() < 2 {
            return Vec::new();
        }
        // Thresholds from fastest-but-one down to slowest: strictly
        // finer to strictly coarser partitions.
        prios[..prios.len() - 1]
            .iter()
            .rev()
            .map(|&t| self.components_over(|p| p > t))
            .collect()
    }

    /// The cluster index (into [`Topology::clusters`]) of each node, as
    /// a dense `node id -> cluster id` map.
    pub fn node_clusters(&self) -> Vec<usize> {
        let clusters = self.clusters();
        let mut of = vec![0usize; self.nodes.len()];
        for (ci, members) in clusters.iter().enumerate() {
            for m in members {
                of[m.0] = ci;
            }
        }
        of
    }

    /// Shortest node path from `a` to `b` over the networks (BFS, ties
    /// broken by preferring higher-priority protocols for the first
    /// differing edge and then lower node ids — deterministic). Returns
    /// the inclusive node sequence, or `None` when disconnected.
    pub fn node_route(&self, a: NodeId, b: NodeId) -> Option<Vec<NodeId>> {
        if a == b {
            return Some(vec![a]);
        }
        let prev = self.bfs_tree(a, Some(b));
        prev[b.0]?;
        let mut path = vec![b];
        let mut cur = b;
        while let Some(p) = prev[cur.0] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        debug_assert_eq!(path.first(), Some(&a));
        Some(path)
    }

    /// Breadth-first predecessor tree from `a` (`None` for `a` itself
    /// and for unreached nodes), stopping once `until` has been reached.
    /// A node's networks are expanded by protocol priority (descending,
    /// then network id) and a network's members by ascending node id.
    fn bfs_tree(&self, a: NodeId, until: Option<NodeId>) -> Vec<Option<NodeId>> {
        let adj = self.adjacency();
        let mut prev: Vec<Option<NodeId>> = vec![None; self.nodes.len()];
        let mut nets: Vec<NetworkId> = Vec::new();
        let mut frontier = std::collections::VecDeque::from([a]);
        while let Some(u) = frontier.pop_front() {
            nets.clear();
            nets.extend_from_slice(&adj[u.0]);
            nets.sort_by_key(|id| {
                std::cmp::Reverse(self.networks[id.0].protocol.transfer_priority())
            });
            for net in &nets {
                for &v in &self.networks[net.0].members {
                    if v != a && prev[v.0].is_none() {
                        prev[v.0] = Some(u);
                        frontier.push_back(v);
                    }
                }
            }
            if until.is_some_and(|b| prev[b.0].is_some()) {
                break;
            }
        }
        prev
    }

    /// Weaker validation for forwarding-enabled sessions (the extension
    /// implementing the paper's §6 future work): every node pair must be
    /// *reachable*, possibly through gateway nodes, rather than directly
    /// connected.
    pub fn validate_connected(&self) -> Result<(), TopologyError> {
        self.validate_networks()?;
        if self.nodes.len() < 2 {
            return Ok(());
        }
        let prev = self.bfs_tree(NodeId(0), None);
        match (1..self.nodes.len()).find(|&b| prev[b].is_none()) {
            Some(b) => Err(TopologyError::Disconnected(NodeId(0), NodeId(b))),
            None => Ok(()),
        }
    }

    fn validate_networks(&self) -> Result<(), TopologyError> {
        for (i, net) in self.networks.iter().enumerate() {
            if net.members.len() < 2 {
                return Err(TopologyError::DegenerateNetwork(NetworkId(i)));
            }
            for m in &net.members {
                if m.0 >= self.nodes.len() {
                    return Err(TopologyError::UnknownNode(NetworkId(i), *m));
                }
            }
        }
        Ok(())
    }

    /// Enforce the prototype's structural requirements (see module docs).
    ///
    /// All-pairs-direct is checked per *node* rather than per pair: mark
    /// every co-member of every network `a` belongs to, then the first
    /// unmarked higher node is exactly the first pair the old
    /// pair-by-pair scan would have reported. O(nodes · memberships)
    /// with no per-pair allocation, which is what keeps an 8k-host
    /// fat-tree validation tractable.
    pub fn validate(&self) -> Result<(), TopologyError> {
        self.validate_networks()?;
        let n = self.nodes.len();
        let adj = self.adjacency();
        let mut direct = vec![false; n];
        for (a, nets) in adj.iter().enumerate() {
            // A network spanning every node (members are distinct and
            // known) makes `a` direct to all of them: the usual shape,
            // and what keeps this linear on big fat-trees.
            if nets
                .iter()
                .any(|net| self.networks[net.0].members.len() == n)
            {
                continue;
            }
            for d in direct.iter_mut() {
                *d = false;
            }
            for net in nets {
                for m in &self.networks[net.0].members {
                    direct[m.0] = true;
                }
            }
            if let Some(b) = (a + 1..n).find(|&b| !direct[b]) {
                return Err(TopologyError::Disconnected(NodeId(a), NodeId(b)));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_network_validates() {
        let t = Topology::single_network(4, Protocol::Tcp);
        t.validate().unwrap();
        assert_eq!(t.nodes().len(), 4);
        assert_eq!(t.protocols(), vec![Protocol::Tcp]);
    }

    #[test]
    fn meta_cluster_is_fully_connected() {
        let t = Topology::meta_cluster(3);
        t.validate().unwrap();
        assert_eq!(t.nodes().len(), 6);
        assert_eq!(
            t.protocols(),
            vec![Protocol::Tcp, Protocol::Sisci, Protocol::Bip]
        );
    }

    #[test]
    fn best_network_prefers_fast_protocol() {
        let t = Topology::meta_cluster(2);
        // Within the SCI cluster: SCI preferred over TCP.
        let best = t.best_network_between(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(t.network(best).protocol, Protocol::Sisci);
        // Across clusters: only TCP.
        let best = t.best_network_between(NodeId(0), NodeId(2)).unwrap();
        assert_eq!(t.network(best).protocol, Protocol::Tcp);
        // Within the Myrinet cluster: BIP preferred.
        let best = t.best_network_between(NodeId(2), NodeId(3)).unwrap();
        assert_eq!(t.network(best).protocol, Protocol::Bip);
    }

    #[test]
    fn disconnected_pair_is_rejected() {
        let mut t = Topology::new();
        let a = t.add_node("a", 1);
        let b = t.add_node("b", 1);
        let c = t.add_node("c", 1);
        t.add_network(Protocol::Sisci, [a, b]);
        t.add_network(Protocol::Bip, [b, c]);
        // a and c share no network; b would need to forward — unsupported.
        assert_eq!(t.validate(), Err(TopologyError::Disconnected(a, c)));
    }

    #[test]
    fn degenerate_network_is_rejected() {
        let mut t = Topology::new();
        let a = t.add_node("a", 1);
        t.add_network(Protocol::Tcp, [a]);
        assert!(matches!(
            t.validate(),
            Err(TopologyError::DegenerateNetwork(_))
        ));
    }

    #[test]
    fn unknown_member_is_rejected() {
        let mut t = Topology::new();
        let a = t.add_node("a", 1);
        t.add_network(Protocol::Tcp, [a, NodeId(7)]);
        assert!(matches!(
            t.validate(),
            Err(TopologyError::UnknownNode(_, NodeId(7)))
        ));
    }

    #[test]
    fn networks_between_same_node_is_empty() {
        let t = Topology::single_network(2, Protocol::Tcp);
        assert!(t.networks_between(NodeId(0), NodeId(0)).is_empty());
    }

    #[test]
    fn networks_at_lists_attachments() {
        let t = Topology::meta_cluster(2);
        // SCI node 0 is on SCI + TCP.
        let nets = t.networks_at(NodeId(0));
        let protos: Vec<Protocol> = nets.iter().map(|n| t.network(*n).protocol).collect();
        assert!(protos.contains(&Protocol::Sisci));
        assert!(protos.contains(&Protocol::Tcp));
        assert!(!protos.contains(&Protocol::Bip));
    }

    #[test]
    fn meta_cluster_has_two_fast_islands() {
        let t = Topology::meta_cluster(3);
        let clusters = t.clusters();
        assert_eq!(
            clusters,
            vec![
                vec![NodeId(0), NodeId(1), NodeId(2)],
                vec![NodeId(3), NodeId(4), NodeId(5)],
            ]
        );
        assert_eq!(t.node_clusters(), vec![0, 0, 0, 1, 1, 1]);
    }

    #[test]
    fn homogeneous_network_is_all_singletons() {
        // One protocol everywhere: no network outranks the floor, so
        // clustering degenerates to one node per cluster ("flat").
        for p in Protocol::ALL {
            let t = Topology::single_network(4, p);
            assert_eq!(t.clusters().len(), 4, "{p:?}");
        }
    }

    #[test]
    fn slow_only_node_is_a_singleton_cluster() {
        // Two SCI nodes plus one node reachable only over TCP.
        let mut t = Topology::new();
        let a = t.add_node("a", 1);
        let b = t.add_node("b", 1);
        let c = t.add_node("c", 1);
        t.add_network(Protocol::Sisci, [a, b]);
        t.add_network(Protocol::Tcp, [a, b, c]);
        assert_eq!(t.clusters(), vec![vec![a, b], vec![c]]);
        assert_eq!(t.node_clusters(), vec![0, 0, 1]);
    }

    #[test]
    fn fast_chains_merge_into_one_cluster() {
        // SCI a-b and BIP b-c chain into one fast island over TCP floor.
        let mut t = Topology::new();
        let a = t.add_node("a", 1);
        let b = t.add_node("b", 1);
        let c = t.add_node("c", 1);
        let d = t.add_node("d", 1);
        t.add_network(Protocol::Sisci, [a, b]);
        t.add_network(Protocol::Bip, [b, c]);
        t.add_network(Protocol::Tcp, [a, b, c, d]);
        assert_eq!(t.clusters(), vec![vec![a, b, c], vec![d]]);
    }

    #[test]
    fn empty_topology_has_no_clusters() {
        assert!(Topology::new().clusters().is_empty());
    }

    #[test]
    fn fat_tree_structure() {
        let k = 4;
        let t = Topology::fat_tree(k);
        t.validate().unwrap();
        assert_eq!(t.nodes().len(), k * k * k / 4);
        // k pods of k/2 rails + k pod nets + 1 core net.
        assert_eq!(t.networks().len(), k * k / 2 + k + 1);
        // Finest level: one group per rail (k/2 hosts); coarsest: one
        // per pod (k²/4 hosts) — and it equals clusters().
        let levels = t.cluster_levels();
        assert_eq!(levels.len(), 2);
        assert_eq!(levels[0].len(), k * k / 2);
        assert!(levels[0].iter().all(|g| g.len() == k / 2));
        assert_eq!(levels[1].len(), k);
        assert!(levels[1].iter().all(|g| g.len() == k * k / 4));
        assert_eq!(levels[1], t.clusters());
        // Every level nests in the next: a rail never straddles pods.
        let pod_of = t.node_clusters();
        for rail in &levels[0] {
            assert!(rail.iter().all(|m| pod_of[m.0] == pod_of[rail[0].0]));
        }
    }

    #[test]
    fn fat_tree_routes_and_diameter() {
        let t = Topology::fat_tree(4);
        // All-pairs-direct: every route is at most one hop.
        let last = NodeId(t.nodes().len() - 1);
        assert_eq!(t.node_route(NodeId(0), last).unwrap().len(), 2);
        // Same-rail pairs prefer the rail protocol; same-pod pairs the
        // pod net; cross-pod pairs fall back to the core.
        let best = |a, b| t.network(t.best_network_between(a, b).unwrap()).protocol;
        assert_eq!(best(NodeId(0), NodeId(1)), Protocol::Bip);
        assert_eq!(best(NodeId(0), NodeId(2)), Protocol::Sisci);
        assert_eq!(best(NodeId(0), last), Protocol::Tcp);
    }

    #[test]
    fn dragonfly_structure() {
        let (a, p, h) = (2, 2, 1);
        let t = Topology::dragonfly(a, p, h);
        t.validate().unwrap();
        let groups = a * h + 1;
        assert_eq!(t.nodes().len(), groups * a * p);
        assert_eq!(t.networks().len(), groups * a + groups + 1);
        let levels = t.cluster_levels();
        assert_eq!(levels.len(), 2);
        assert_eq!(levels[0].len(), groups * a, "one rail per router");
        assert_eq!(levels[1].len(), groups, "one cluster per group");
        assert!(levels[1].iter().all(|g| g.len() == a * p));
    }

    #[test]
    fn two_tier_topology_has_one_level() {
        let t = Topology::meta_cluster(3);
        let levels = t.cluster_levels();
        // SCI/BIP are distinct tiers above TCP: finest = the two SAN
        // islands separately... but SCI and BIP differ in priority, so
        // three tiers are present and two levels emerge; the coarsest
        // equals clusters().
        assert_eq!(levels.last().unwrap(), &t.clusters());
        for pair in levels.windows(2) {
            assert!(pair[0].len() >= pair[1].len(), "levels must coarsen");
        }
    }

    #[test]
    fn single_tier_has_no_levels() {
        assert!(Topology::single_network(4, Protocol::Tcp)
            .cluster_levels()
            .is_empty());
    }

    #[test]
    fn adjacency_cache_invalidates_on_mutation() {
        let mut t = Topology::new();
        let a = t.add_node("a", 1);
        let b = t.add_node("b", 1);
        t.add_network(Protocol::Tcp, [a, b]);
        assert_eq!(t.networks_between(a, b).len(), 1);
        // Mutate after the cache was built: the new network must show.
        t.add_network(Protocol::Sisci, [a, b]);
        assert_eq!(t.networks_between(a, b).len(), 2);
        assert_eq!(t.networks_at(a).len(), 2);
        let c = t.add_node("c", 1);
        assert!(t.networks_at(c).is_empty());
        assert!(t.networks_between(a, c).is_empty());
    }

    #[test]
    fn node_model_costs() {
        let m = NodeModel::calibrated();
        assert_eq!(m.self_cost(0), m.self_fixed);
        assert!(m.smp_cost(1024) > m.smp_cost(0));
        assert!(
            m.self_cost(4096) < m.smp_cost(4096),
            "loop-back beats shm copy"
        );
    }
}

#[cfg(test)]
mod route_tests {
    use super::*;

    /// Chain: a -SCI- b -BIP- c (no common network for a and c).
    fn chain() -> Topology {
        let mut t = Topology::new();
        let a = t.add_node("a", 1);
        let b = t.add_node("b", 1);
        let c = t.add_node("c", 1);
        t.add_network(Protocol::Sisci, [a, b]);
        t.add_network(Protocol::Bip, [b, c]);
        t
    }

    #[test]
    fn route_through_gateway() {
        let t = chain();
        assert_eq!(
            t.node_route(NodeId(0), NodeId(2)),
            Some(vec![NodeId(0), NodeId(1), NodeId(2)])
        );
        assert_eq!(t.node_route(NodeId(0), NodeId(0)), Some(vec![NodeId(0)]));
        assert_eq!(
            t.node_route(NodeId(2), NodeId(0)),
            Some(vec![NodeId(2), NodeId(1), NodeId(0)])
        );
    }

    #[test]
    fn direct_route_is_single_hop() {
        let t = Topology::meta_cluster(2);
        let r = t.node_route(NodeId(0), NodeId(3)).unwrap();
        assert_eq!(r.len(), 2, "TCP connects them directly: {r:?}");
    }

    #[test]
    fn connected_validation_accepts_chains() {
        let t = chain();
        assert!(t.validate().is_err(), "strict validation rejects the chain");
        t.validate_connected().unwrap();
    }

    #[test]
    fn connected_validation_rejects_islands() {
        let mut t = chain();
        let d = t.add_node("d", 1);
        let e = t.add_node("e", 1);
        t.add_network(Protocol::Tcp, [d, e]);
        assert!(t.validate_connected().is_err());
    }

    #[test]
    fn route_is_deterministic() {
        // Diamond: two equal-length routes; the tie-break must be stable.
        let mut t = Topology::new();
        let a = t.add_node("a", 1);
        let b1 = t.add_node("b1", 1);
        let b2 = t.add_node("b2", 1);
        let c = t.add_node("c", 1);
        t.add_network(Protocol::Sisci, [a, b1]);
        t.add_network(Protocol::Sisci, [a, b2]);
        t.add_network(Protocol::Bip, [b1, c]);
        t.add_network(Protocol::Bip, [b2, c]);
        let r1 = t.node_route(NodeId(0), NodeId(3)).unwrap();
        let r2 = t.node_route(NodeId(0), NodeId(3)).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(r1.len(), 3);
    }
}
