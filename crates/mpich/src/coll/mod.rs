//! The collective algorithm engine (paper Fig. 1/3: "Generic part —
//! collective operations", grown into a topology-aware, size-adaptive
//! selection layer).
//!
//! The seed implemented every collective as one fixed binomial-tree
//! pattern over point-to-point sends — topology-blind, so on the
//! heterogeneous meta-cluster every tree round may cross the slow TCP
//! inter-cluster link. This module keeps that implementation, byte for
//! byte, as the [`CollAlgorithm::Binomial`] catalog entry (and as the
//! [`CollPolicy::Seed`] default, so all historical outputs stay
//! bit-identical), and adds:
//!
//! * **multi-level hierarchical collectives** ([`hierarchical`]): one
//!   leader per fast cluster (SCI / BIP island); inter-cluster traffic
//!   crosses the slow spanning link exactly once per direction while
//!   intra-cluster rounds stay on the fast rails. On datacenter
//!   topologies ([`simnet::Topology::fat_tree`],
//!   [`simnet::Topology::dragonfly`]) the same kernels recurse over the
//!   full nesting chain (rail → pod → world), so every tier's traffic
//!   stays on the fastest link that spans it;
//! * **recursive-doubling allreduce** ([`rdouble`]): log₂(n) rounds of
//!   pairwise exchange, half the rounds of the seed's reduce+bcast;
//! * **Rabenseifner allreduce** ([`rabenseifner`]): reduce-scatter by
//!   recursive halving followed by an allgather, bandwidth-optimal for
//!   large payloads;
//! * **ring allgather** ([`ring`]): n−1 neighbor rounds moving one
//!   block each, bandwidth-optimal and contention-free;
//! * **scatter-gather broadcast** ([`sg_bcast`]): the root scatters n
//!   chunks which a ring allgather reassembles — ~2·len bytes per node
//!   instead of the binomial tree's log₂(n)·len.
//!
//! Selection mirrors PR 1's `ProtocolPolicy` design: the policy is a
//! [`crate::WorldConfig`] knob ([`CollPolicy`]), resolved per
//! (operation, payload size, communicator topology) by [`CollEngine`].
//! Every operation emits a [`marcel::SpanKind::Coll`] span and a
//! `coll.<op>.<algorithm>` metrics counter, so traces and the registry
//! show which algorithm ran.

mod api;
mod binomial;
mod hierarchical;
mod rabenseifner;
mod rdouble;
mod ring;
mod sg_bcast;
mod topo;
mod vgroup;

pub use topo::CommClusters;
pub(crate) use vgroup::Vgroup;

use std::fmt;
use std::sync::Arc;

/// Which collective is being performed (selects the algorithm table
/// row, the span label and the metrics counter family).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CollOp {
    Barrier,
    Bcast,
    Reduce,
    Allreduce,
    Gather,
    Scatter,
    Allgather,
    Alltoall,
    Scan,
    Exscan,
    ReduceScatter,
}

impl CollOp {
    pub fn name(self) -> &'static str {
        match self {
            CollOp::Barrier => "barrier",
            CollOp::Bcast => "bcast",
            CollOp::Reduce => "reduce",
            CollOp::Allreduce => "allreduce",
            CollOp::Gather => "gather",
            CollOp::Scatter => "scatter",
            CollOp::Allgather => "allgather",
            CollOp::Alltoall => "alltoall",
            CollOp::Scan => "scan",
            CollOp::Exscan => "exscan",
            CollOp::ReduceScatter => "reduce_scatter",
        }
    }

    /// The `coll.<op>.<algorithm>` metrics counter key, spelled at
    /// compile time so a dispatched collective formats nothing.
    pub(crate) fn counter_key(self, alg: CollAlgorithm) -> &'static str {
        /// One operation's keys, in [`CollAlgorithm`] order.
        macro_rules! keys {
            ($op:literal) => {
                [
                    concat!("coll.", $op, ".binomial"),
                    concat!("coll.", $op, ".hierarchical"),
                    concat!("coll.", $op, ".recursive_doubling"),
                    concat!("coll.", $op, ".rabenseifner"),
                    concat!("coll.", $op, ".ring"),
                    concat!("coll.", $op, ".scatter_gather"),
                ]
            };
        }
        const KEYS: [[&str; 6]; 11] = [
            keys!("barrier"),
            keys!("bcast"),
            keys!("reduce"),
            keys!("allreduce"),
            keys!("gather"),
            keys!("scatter"),
            keys!("allgather"),
            keys!("alltoall"),
            keys!("scan"),
            keys!("exscan"),
            keys!("reduce_scatter"),
        ];
        KEYS[self as usize][alg as usize]
    }
}

/// One entry of the algorithm catalog. Not every algorithm applies to
/// every operation — see [`CollEngine::select`] for the fallback rules.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CollAlgorithm {
    /// The seed's binomial-tree implementations (every operation).
    Binomial,
    /// Multi-level: intra-cluster on the fast rails, one leader per
    /// cluster across the slow link, recursing over nested cluster
    /// tiers where the topology has them (bcast, reduce, allreduce,
    /// allgather; needs ≥ 2 clusters inside the communicator).
    Hierarchical,
    /// Recursive doubling (allreduce).
    RecursiveDoubling,
    /// Reduce-scatter + allgather (allreduce, large payloads).
    Rabenseifner,
    /// Ring allgather (allgather, large payloads).
    Ring,
    /// Scatter + ring-allgather broadcast (bcast, large payloads).
    ScatterGather,
}

impl CollAlgorithm {
    pub fn name(self) -> &'static str {
        match self {
            CollAlgorithm::Binomial => "binomial",
            CollAlgorithm::Hierarchical => "hierarchical",
            CollAlgorithm::RecursiveDoubling => "recursive_doubling",
            CollAlgorithm::Rabenseifner => "rabenseifner",
            CollAlgorithm::Ring => "ring",
            CollAlgorithm::ScatterGather => "scatter_gather",
        }
    }
}

/// How the engine picks algorithms — the collective analogue of the
/// point-to-point `ProtocolPolicy` ([`crate::ProtocolPolicy`]), exposed
/// as [`crate::WorldConfig::coll`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CollPolicy {
    /// The seed's binomial algorithms for everything. The default: all
    /// historical bench outputs stay bit-identical.
    #[default]
    Seed,
    /// Per-operation, per-payload-size, per-topology selection (the
    /// headline mode; see [`CollEngine::select`] for the table).
    Adaptive,
    /// Force one catalog entry everywhere it applies; operations it
    /// does not apply to fall back as [`CollEngine::select`] documents.
    Fixed(CollAlgorithm),
}

/// A typed error from the collective layer (replaces the seed's
/// panicking `Option<Vec<u8>>` root-data convention, in the spirit of
/// the madeleine layer's `ChannelError`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CollError {
    /// The root rank argument is outside the communicator.
    RootOutOfRange {
        op: &'static str,
        root: usize,
        size: usize,
    },
    /// The root rank did not provide the operation's input data
    /// (`what` names it: "data" or "parts").
    MissingRootData {
        op: &'static str,
        what: &'static str,
    },
    /// A per-rank part list had the wrong number of entries.
    WrongPartCount {
        op: &'static str,
        got: usize,
        want: usize,
    },
    /// A buffer's byte length does not match what the operation's
    /// shape requires.
    LengthMismatch {
        op: &'static str,
        len: usize,
        want: usize,
    },
}

impl fmt::Display for CollError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollError::RootOutOfRange { op, root, size } => {
                write!(
                    f,
                    "{op} root {root} out of range (communicator size {size})"
                )
            }
            CollError::MissingRootData { op, what } => {
                write!(f, "{op} root must provide the {what}")
            }
            CollError::WrongPartCount { op, got, want } => {
                write!(f, "{op} needs one part per rank (got {got}, want {want})")
            }
            CollError::LengthMismatch { op, len, want } => {
                write!(f, "{op} buffer holds {len} bytes, needs exactly {want}")
            }
        }
    }
}

impl std::error::Error for CollError {}

/// Payload size (own contribution, in bytes) at which Adaptive
/// allreduce switches from recursive doubling to Rabenseifner.
pub const RABENSEIFNER_MIN_BYTES: usize = 32 * 1024;
/// Payload size at which Adaptive broadcast switches from the binomial
/// tree to scatter-gather on flat topologies.
pub const SG_BCAST_MIN_BYTES: usize = 128 * 1024;

/// The per-world collective engine: the configured policy plus the
/// world-rank → cluster maps derived from the simnet topology
/// ([`simnet::Topology::clusters`] and
/// [`simnet::Topology::cluster_levels`]).
#[derive(Debug)]
pub struct CollEngine {
    policy: CollPolicy,
    /// Nested world-rank → cluster-index maps, finest → coarsest (each
    /// dense). The last entry is the classic cluster map that drives
    /// algorithm selection; finer entries (rails inside a pod, routers
    /// inside a dragonfly group) only deepen the hierarchical
    /// collectives' recursion. Always non-empty.
    rank_levels: Vec<Vec<usize>>,
    /// The pruned cluster chain of the world communicator, computed
    /// once here so the common case (collectives on `MPI_COMM_WORLD`)
    /// shares one allocation across all ranks and all calls instead of
    /// rebuilding O(n) cluster views per call — at 8k ranks that
    /// rebuild dominated peak memory per rank.
    world_chain: Arc<Vec<CommClusters>>,
}

impl CollEngine {
    pub fn new(policy: CollPolicy, rank_cluster: Vec<usize>) -> CollEngine {
        CollEngine::with_levels(policy, vec![rank_cluster])
    }

    /// An engine with the full nesting chain, finest → coarsest. The
    /// coarsest level must be the map [`CollEngine::new`] would get —
    /// selection behaves identically, only the hierarchical kernels see
    /// the inner levels.
    pub fn with_levels(policy: CollPolicy, rank_levels: Vec<Vec<usize>>) -> CollEngine {
        assert!(
            !rank_levels.is_empty(),
            "CollEngine needs at least one cluster level"
        );
        let n = rank_levels[0].len();
        assert!(
            rank_levels.iter().all(|l| l.len() == n),
            "every cluster level must map the same rank count"
        );
        let world_chain = Arc::new(prune_chain(
            rank_levels.iter().rev().map(|l| CommClusters::from_ids(l)),
        ));
        CollEngine {
            policy,
            rank_levels,
            world_chain,
        }
    }

    /// An engine for a flat (cluster-blind) world — unit tests and
    /// manually assembled environments.
    pub fn flat(policy: CollPolicy, n_ranks: usize) -> CollEngine {
        CollEngine::new(policy, (0..n_ranks).collect())
    }

    pub fn policy(&self) -> CollPolicy {
        self.policy
    }

    /// Ranks in the world this engine was built for.
    pub fn n_ranks(&self) -> usize {
        self.rank_levels[0].len()
    }

    /// The precomputed, shared cluster chain of the world communicator
    /// (finest → coarsest, pruned like the per-communicator chain).
    pub(crate) fn world_chain(&self) -> Arc<Vec<CommClusters>> {
        self.world_chain.clone()
    }

    /// The cluster index of a world rank (coarsest level — the one
    /// algorithm selection keys on).
    pub fn cluster_of(&self, world_rank: usize) -> usize {
        self.rank_levels[self.rank_levels.len() - 1][world_rank]
    }

    /// The nested world-rank → cluster maps, finest → coarsest.
    pub fn levels(&self) -> &[Vec<usize>] {
        &self.rank_levels
    }

    /// Resolve the algorithm for one operation. `payload` is the
    /// caller's own contribution in bytes (for a bcast only the root
    /// knows it — the bcast entry point handles that asymmetry, see
    /// [`api`]); `reducible_elems` is the number of reduction units the
    /// payload holds (0 for non-reductions). `clusters` is the
    /// communicator-local cluster view.
    ///
    /// Selection rules (Adaptive):
    ///
    /// | op         | multi-cluster            | flat                                   |
    /// |------------|--------------------------|----------------------------------------|
    /// | bcast      | hierarchical             | scatter-gather ≥ 128 KB, else binomial |
    /// | reduce     | hierarchical             | binomial                               |
    /// | allreduce  | hierarchical             | Rabenseifner ≥ 32 KB, else rec-doubling|
    /// | allgather  | hierarchical             | ring                                   |
    /// | others     | binomial                 | binomial                               |
    ///
    /// `Fixed(alg)` forces `alg` wherever it applies to the operation
    /// and is feasible (hierarchical needs ≥ 2 clusters inside the
    /// communicator; Rabenseifner needs at least one reduction unit per
    /// participant), falling back to the closest applicable entry
    /// otherwise (Rabenseifner → recursive doubling → binomial).
    pub fn select(
        &self,
        op: CollOp,
        payload: usize,
        reducible_elems: usize,
        clusters: &CommClusters,
    ) -> CollAlgorithm {
        let n = clusters.n_ranks();
        let hier_ok = clusters.hierarchy_pays() && applies_hier(op);
        match self.policy {
            CollPolicy::Seed => CollAlgorithm::Binomial,
            CollPolicy::Fixed(alg) => self.check_fixed(alg, op, reducible_elems, n, hier_ok),
            CollPolicy::Adaptive => match op {
                CollOp::Bcast => {
                    if hier_ok {
                        CollAlgorithm::Hierarchical
                    } else if payload >= SG_BCAST_MIN_BYTES && n > 2 {
                        CollAlgorithm::ScatterGather
                    } else {
                        CollAlgorithm::Binomial
                    }
                }
                CollOp::Reduce => {
                    if hier_ok {
                        CollAlgorithm::Hierarchical
                    } else {
                        CollAlgorithm::Binomial
                    }
                }
                CollOp::Allreduce => {
                    if hier_ok {
                        CollAlgorithm::Hierarchical
                    } else if payload >= RABENSEIFNER_MIN_BYTES
                        && rabenseifner_ok(reducible_elems, n)
                    {
                        CollAlgorithm::Rabenseifner
                    } else {
                        CollAlgorithm::RecursiveDoubling
                    }
                }
                CollOp::Allgather => {
                    if hier_ok {
                        CollAlgorithm::Hierarchical
                    } else {
                        CollAlgorithm::Ring
                    }
                }
                _ => CollAlgorithm::Binomial,
            },
        }
    }

    /// Feasibility check for `Fixed` mode, with documented fallbacks.
    fn check_fixed(
        &self,
        alg: CollAlgorithm,
        op: CollOp,
        reducible_elems: usize,
        n: usize,
        hier_ok: bool,
    ) -> CollAlgorithm {
        match alg {
            CollAlgorithm::Binomial => CollAlgorithm::Binomial,
            CollAlgorithm::Hierarchical => {
                if hier_ok {
                    CollAlgorithm::Hierarchical
                } else {
                    CollAlgorithm::Binomial
                }
            }
            CollAlgorithm::RecursiveDoubling => {
                if op == CollOp::Allreduce {
                    CollAlgorithm::RecursiveDoubling
                } else {
                    CollAlgorithm::Binomial
                }
            }
            CollAlgorithm::Rabenseifner => {
                if op != CollOp::Allreduce {
                    CollAlgorithm::Binomial
                } else if rabenseifner_ok(reducible_elems, n) {
                    CollAlgorithm::Rabenseifner
                } else {
                    CollAlgorithm::RecursiveDoubling
                }
            }
            CollAlgorithm::Ring => {
                if op == CollOp::Allgather {
                    CollAlgorithm::Ring
                } else {
                    CollAlgorithm::Binomial
                }
            }
            CollAlgorithm::ScatterGather => {
                if op == CollOp::Bcast && n > 1 {
                    CollAlgorithm::ScatterGather
                } else {
                    CollAlgorithm::Binomial
                }
            }
        }
    }
}

/// Does `fine` usefully refine `coarse` inside one communicator —
/// i.e. does some fine cluster of ≥ 2 ranks sit strictly inside its
/// enclosing coarse cluster, giving the hierarchical recursion a
/// non-trivial extra tier?
pub(crate) fn refines(fine: &CommClusters, coarse: &CommClusters) -> bool {
    (0..fine.n_clusters()).any(|c| {
        let m = fine.members(c);
        m.len() >= 2 && m.len() < coarse.members(coarse.cluster_of(m[0])).len()
    })
}

/// Prune a coarsest-first walk of cluster views down to the tiers that
/// still refine the picture, returning the kept chain finest →
/// coarsest (never empty for non-empty input). Shared by the
/// per-communicator chain built in [`api`] and the engine's
/// precomputed world chain.
pub(crate) fn prune_chain<I: Iterator<Item = CommClusters>>(
    coarsest_first: I,
) -> Vec<CommClusters> {
    let mut chain: Vec<CommClusters> = Vec::new();
    for view in coarsest_first {
        match chain.last() {
            None => chain.push(view),
            Some(coarser) if refines(&view, coarser) => chain.push(view),
            Some(_) => {}
        }
    }
    chain.reverse();
    chain
}

/// Operations with a hierarchical (multi-level) variant.
fn applies_hier(op: CollOp) -> bool {
    matches!(
        op,
        CollOp::Bcast | CollOp::Reduce | CollOp::Allreduce | CollOp::Allgather
    )
}

/// Rabenseifner needs at least one reduction unit per power-of-two
/// participant, so every reduce-scatter block is non-empty.
fn rabenseifner_ok(reducible_elems: usize, n: usize) -> bool {
    let pof2 = if n == 0 { 1 } else { prev_pow2(n) };
    reducible_elems >= pof2 && n > 1
}

/// Largest power of two ≤ n (n ≥ 1).
pub(crate) fn prev_pow2(n: usize) -> usize {
    debug_assert!(n >= 1);
    1 << (usize::BITS - 1 - n.leading_zeros())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta_clusters() -> CommClusters {
        // 6 ranks, clusters {0,1,2} and {3,4,5}.
        CommClusters::from_ids(&[0, 0, 0, 1, 1, 1])
    }

    fn flat_clusters(n: usize) -> CommClusters {
        CommClusters::from_ids(&(0..n).collect::<Vec<_>>())
    }

    #[test]
    fn counter_keys_spell_op_and_algorithm_names() {
        use CollAlgorithm as A;
        use CollOp as O;
        let ops = [
            O::Barrier,
            O::Bcast,
            O::Reduce,
            O::Allreduce,
            O::Gather,
            O::Scatter,
            O::Allgather,
            O::Alltoall,
            O::Scan,
            O::Exscan,
            O::ReduceScatter,
        ];
        let algs = [
            A::Binomial,
            A::Hierarchical,
            A::RecursiveDoubling,
            A::Rabenseifner,
            A::Ring,
            A::ScatterGather,
        ];
        for op in ops {
            for alg in algs {
                let want = format!("coll.{}.{}", op.name(), alg.name());
                assert_eq!(op.counter_key(alg), want);
            }
        }
    }

    #[test]
    fn seed_policy_always_binomial() {
        let e = CollEngine::flat(CollPolicy::Seed, 6);
        for op in [CollOp::Bcast, CollOp::Allreduce, CollOp::Allgather] {
            assert_eq!(
                e.select(op, 1 << 20, 1 << 17, &meta_clusters()),
                CollAlgorithm::Binomial
            );
        }
    }

    #[test]
    fn adaptive_goes_hierarchical_on_the_meta_cluster() {
        let e = CollEngine::flat(CollPolicy::Adaptive, 6);
        for op in [
            CollOp::Bcast,
            CollOp::Reduce,
            CollOp::Allreduce,
            CollOp::Allgather,
        ] {
            assert_eq!(
                e.select(op, 64, 8, &meta_clusters()),
                CollAlgorithm::Hierarchical,
                "{op:?}"
            );
        }
        // Ops without a hierarchical variant stay binomial.
        assert_eq!(
            e.select(CollOp::Alltoall, 1 << 20, 0, &meta_clusters()),
            CollAlgorithm::Binomial
        );
    }

    #[test]
    fn adaptive_is_size_adaptive_on_flat_topologies() {
        let e = CollEngine::flat(CollPolicy::Adaptive, 6);
        let flat = flat_clusters(6);
        // Allreduce: recursive doubling small, Rabenseifner large.
        assert_eq!(
            e.select(CollOp::Allreduce, 1024, 128, &flat),
            CollAlgorithm::RecursiveDoubling
        );
        assert_eq!(
            e.select(CollOp::Allreduce, 256 * 1024, 32 * 1024, &flat),
            CollAlgorithm::Rabenseifner
        );
        // ...but never Rabenseifner with fewer elements than ranks.
        assert_eq!(
            e.select(CollOp::Allreduce, RABENSEIFNER_MIN_BYTES, 2, &flat),
            CollAlgorithm::RecursiveDoubling
        );
        // Bcast: binomial small, scatter-gather large.
        assert_eq!(
            e.select(CollOp::Bcast, 1024, 0, &flat),
            CollAlgorithm::Binomial
        );
        assert_eq!(
            e.select(CollOp::Bcast, 1 << 20, 0, &flat),
            CollAlgorithm::ScatterGather
        );
        // Allgather: ring at every size.
        assert_eq!(
            e.select(CollOp::Allgather, 1, 0, &flat),
            CollAlgorithm::Ring
        );
    }

    #[test]
    fn fixed_falls_back_where_infeasible() {
        let e = CollEngine::flat(CollPolicy::Fixed(CollAlgorithm::Hierarchical), 6);
        // Hierarchical on a flat communicator degrades to binomial.
        assert_eq!(
            e.select(CollOp::Allreduce, 64, 8, &flat_clusters(6)),
            CollAlgorithm::Binomial
        );
        assert_eq!(
            e.select(CollOp::Allreduce, 64, 8, &meta_clusters()),
            CollAlgorithm::Hierarchical
        );
        // Rabenseifner with too few elements degrades to rec-doubling.
        let e = CollEngine::flat(CollPolicy::Fixed(CollAlgorithm::Rabenseifner), 6);
        assert_eq!(
            e.select(CollOp::Allreduce, 16, 2, &flat_clusters(6)),
            CollAlgorithm::RecursiveDoubling
        );
        // Ring on a reduce degrades to binomial.
        let e = CollEngine::flat(CollPolicy::Fixed(CollAlgorithm::Ring), 6);
        assert_eq!(
            e.select(CollOp::Reduce, 64, 8, &flat_clusters(6)),
            CollAlgorithm::Binomial
        );
    }

    #[test]
    fn with_levels_selects_on_the_coarsest_tier() {
        // 8 ranks: 4 rails of 2 inside 2 pods of 4.
        let rails = vec![0, 0, 1, 1, 2, 2, 3, 3];
        let pods = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let e = CollEngine::with_levels(CollPolicy::Adaptive, vec![rails.clone(), pods.clone()]);
        assert_eq!(e.levels(), &[rails, pods.clone()]);
        // cluster_of (and thus selection) keys on the pod tier.
        assert_eq!(e.cluster_of(0), 0);
        assert_eq!(e.cluster_of(7), 1);
        let clusters = CommClusters::from_ids(&pods);
        assert_eq!(
            e.select(CollOp::Allreduce, 64, 8, &clusters),
            CollAlgorithm::Hierarchical
        );
    }

    #[test]
    fn prev_pow2_values() {
        assert_eq!(prev_pow2(1), 1);
        assert_eq!(prev_pow2(2), 2);
        assert_eq!(prev_pow2(3), 2);
        assert_eq!(prev_pow2(6), 4);
        assert_eq!(prev_pow2(8), 8);
        assert_eq!(prev_pow2(9), 8);
    }

    #[test]
    fn coll_error_display_matches_seed_panics() {
        // The legacy byte wrappers panic with these Display strings; the
        // bcast one preserves the seed's exact message.
        assert_eq!(
            CollError::MissingRootData {
                op: "bcast",
                what: "data"
            }
            .to_string(),
            "bcast root must provide the data"
        );
        assert_eq!(
            CollError::MissingRootData {
                op: "scatter",
                what: "parts"
            }
            .to_string(),
            "scatter root must provide the parts"
        );
        assert!(CollError::RootOutOfRange {
            op: "bcast",
            root: 9,
            size: 4
        }
        .to_string()
        .starts_with("bcast root 9 out of range"));
    }
}
