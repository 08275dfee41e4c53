//! World bootstrap: build the kernel, the Madeleine session and the
//! world table of the MPI layer (`MpiWorld`); run one simulated main
//! thread per rank through `MPI_Init` → user code → `MPI_Finalize`.

use std::sync::Arc;

use bytes::Bytes;
use madeleine::Session;
use marcel::{
    CostModel, ExecPolicy, JoinHandle, Kernel, PollPolicy, SimBarrier, SimError, SimMutex,
};
use simnet::{NodeId, NodeModel, Topology};

use crate::adi::{AdiCosts, Locality};
use crate::coll::{CollEngine, CollPolicy};
use crate::comm::Communicator;
use crate::device::{local, ChMad, ChMadConfig, ChP4, ChP4Costs};
use crate::engine::Engine;
use crate::group::Group;
use crate::types::Envelope;

/// How ranks are placed on the topology's nodes.
#[derive(Clone, Debug)]
pub enum Placement {
    /// One rank per node, in node order.
    OneRankPerNode,
    /// One rank per CPU (SMP nodes host several ranks).
    OneRankPerCpu,
    /// Explicit rank -> node map.
    Explicit(Vec<NodeId>),
}

/// Which inter-node device carries remote traffic.
#[derive(Clone, Debug)]
pub enum RemoteDeviceKind {
    /// The paper's multi-protocol device over Madeleine.
    ChMad(ChMadConfig),
    /// The classical TCP device (Figure 6 baseline). Requires a
    /// topology where every node pair shares a TCP network.
    ChP4(ChP4Costs),
}

/// Full world configuration.
///
/// Construct it with [`WorldConfig::builder`], which validates knob
/// combinations at construction time; the struct is `#[non_exhaustive]`
/// so adding future knobs is not a breaking change. It is not `Clone`:
/// a [`StreamHook`] owns its sink, and a world consumes its config, so
/// a caller that runs several worlds builds one config per run.
#[non_exhaustive]
#[derive(Debug)]
pub struct WorldConfig {
    pub cost_model: CostModel,
    pub adi: AdiCosts,
    /// The inter-node device; gateway forwarding is
    /// [`ChMadConfig::forwarding`].
    pub remote: RemoteDeviceKind,
    /// Record the kernel's deterministic event trace (retrieve it with
    /// `Kernel::take_trace` off [`WorldReport::kernel`]; export it with
    /// [`marcel::chrome_trace_json`] and [`thread_metas`]). Tracing
    /// never advances virtual time, so enabling it cannot change
    /// results, end times, or any benchmark output. The metrics
    /// registry ([`Kernel::metrics_snapshot`]) is always on, independent of
    /// this flag.
    pub trace: bool,
    /// How the collective layer picks algorithms — the collective
    /// analogue of [`crate::ProtocolPolicy`]. `Seed` (the default)
    /// reproduces the seed's binomial trees bit for bit; `Adaptive`
    /// selects per operation, payload size, and topology (two-level
    /// hierarchical collectives on the meta-cluster, recursive-doubling
    /// / Rabenseifner allreduce, ring allgather, scatter-gather bcast);
    /// `Fixed(alg)` forces one catalog entry wherever it applies. See
    /// [`crate::coll`].
    pub coll: CollPolicy,
    /// Record the kernel's decision log ([`marcel::Decision`] per
    /// committed ticket; retrieve with `Kernel::take_decisions` after
    /// the run). Like tracing it never advances virtual time. The
    /// journal records these streams so `replay diff` can name the
    /// exact first ticket where two campaigns differ.
    pub decisions: bool,
    /// Stream the trace/decision buffers out of the kernel in bounded
    /// chunks instead of accumulating them for the whole run: when set,
    /// the hook's sink is installed via [`marcel::Kernel::set_event_sink`]
    /// (after `trace`/`decisions` are enabled — streaming drains those
    /// buffers, it does not replace them) and finalized with
    /// `Kernel::finish_event_sink` as soon as the kernel quiesces, so
    /// the `journal.stream.hwm` gauge lands in the run's metrics
    /// snapshot; [`WorldReport::sink`] hands the sink back. The sink
    /// receives host-side copies inside a kernel operation and never
    /// advances virtual time, so streaming cannot change results.
    pub stream: Option<StreamHook>,
    /// Number of VCIs (virtual communication interfaces) per rank: the
    /// matching engine is sharded into `vcis` independent stores and
    /// every madeleine channel runs `vcis` lanes (own polling thread,
    /// sequence space, dedup window and fault counters per lane), with
    /// a deterministic `(communicator context, tag)` hash routing each
    /// stream to one lane — disjoint streams touch disjoint locks and
    /// queues (the MPI+threads VCI design; see DESIGN §13). `1` (the
    /// default) is bit-identical to the pre-VCI stack.
    pub vcis: usize,
}

/// The event sink [`run_world_report`] installs when
/// [`WorldConfig::stream`] is set: `chunk` is the drain threshold in
/// buffered records, `sink` the receiver (e.g. a journal
/// `StreamRecorder`). The hook owns its sink, one per world, which is
/// why neither it nor [`WorldConfig`] is `Clone`.
pub struct StreamHook {
    pub chunk: usize,
    pub sink: Box<dyn marcel::EventSink>,
}

impl std::fmt::Debug for StreamHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamHook")
            .field("chunk", &self.chunk)
            .finish_non_exhaustive()
    }
}

/// Build the Chrome-exporter thread table for a finished world run: one
/// entry per Marcel thread (in tid order), each mapped to the virtual
/// "process" of the cluster node hosting it. The node is recovered from
/// the `rank{N}` prefix every world thread name carries; kernel-internal
/// threads (none today) would fall back to node 0.
pub fn thread_metas(kernel: &Kernel, session: &madeleine::Session) -> Vec<marcel::ThreadMeta> {
    kernel
        .thread_names()
        .into_iter()
        .map(|name| {
            let rank = name.strip_prefix("rank").and_then(|rest| {
                rest.split(|c: char| !c.is_ascii_digit())
                    .next()?
                    .parse()
                    .ok()
            });
            let pid = match rank {
                Some(r) if r < session.n_ranks() => session.node_of(r).0 as u32,
                _ => 0,
            };
            marcel::ThreadMeta { name, pid }
        })
        .collect()
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            cost_model: CostModel::calibrated(),
            adi: AdiCosts::calibrated(),
            remote: RemoteDeviceKind::ChMad(ChMadConfig::default()),
            trace: false,
            coll: CollPolicy::Seed,
            decisions: false,
            stream: None,
            vcis: 1,
        }
    }
}

impl WorldConfig {
    /// Start building a configuration from the defaults. The builder
    /// validates cross-knob constraints (`vcis ≥ 1`) when it finishes.
    pub fn builder() -> WorldConfigBuilder {
        WorldConfigBuilder {
            cfg: WorldConfig::default(),
        }
    }

    /// Default ch_mad configuration with gateway forwarding enabled.
    pub fn with_forwarding() -> Self {
        WorldConfig {
            remote: RemoteDeviceKind::ChMad(ChMadConfig {
                forwarding: true,
                ..ChMadConfig::default()
            }),
            ..WorldConfig::default()
        }
    }

    pub fn ch_p4() -> Self {
        WorldConfig {
            remote: RemoteDeviceKind::ChP4(ChP4Costs::default()),
            ..WorldConfig::default()
        }
    }
}

/// A [`WorldConfig`] knob combination the builder rejects.
#[non_exhaustive]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `vcis = 0`: a world needs at least one communication lane.
    ZeroVcis,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroVcis => write!(f, "vcis must be at least 1"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Builder for [`WorldConfig`]: one setter per knob, with cross-knob
/// validation in [`WorldConfigBuilder::try_build`] instead of asserts
/// at world-start time.
///
/// ```
/// use mpich::WorldConfig;
///
/// let config = WorldConfig::builder().vcis(4).build();
/// assert_eq!(config.vcis, 4);
/// assert!(WorldConfig::builder().vcis(0).try_build().is_err());
/// ```
#[derive(Debug)]
pub struct WorldConfigBuilder {
    cfg: WorldConfig,
}

impl WorldConfigBuilder {
    /// Replace the whole cost model, including the polling policy
    /// [`Self::poll`] writes into it.
    pub fn cost_model(mut self, v: CostModel) -> Self {
        self.cfg.cost_model = v;
        self
    }

    pub fn adi(mut self, v: AdiCosts) -> Self {
        self.cfg.adi = v;
        self
    }

    pub fn remote(mut self, v: RemoteDeviceKind) -> Self {
        self.cfg.remote = v;
        self
    }

    pub fn trace(mut self, v: bool) -> Self {
        self.cfg.trace = v;
        self
    }

    pub fn coll(mut self, v: CollPolicy) -> Self {
        self.cfg.coll = v;
        self
    }

    /// Idle-channel handling in the factorized polling loop: sets
    /// `cost_model.poll_policy`. `Seed` (the default) polls every open
    /// channel on every cycle, so an idle TCP channel taxes every SCI
    /// detection (the Figure 9 effect); `Parking` parks a channel after
    /// [`marcel::cost::PARK_AFTER`] consecutive empty detections and re-arms
    /// it on the next incoming message. [`Self::cost_model`] replaces
    /// the whole model, so call it before this setter.
    pub fn poll(mut self, v: PollPolicy) -> Self {
        self.cfg.cost_model.poll_policy = v;
        self
    }

    /// Execution-policy label, stored in the cost model and read by
    /// nothing: `Seed` and `Ticketed` run the same userland hand-off.
    /// Kept only because the host benchmark still sets it.
    pub fn exec(mut self, v: ExecPolicy) -> Self {
        self.cfg.cost_model.exec_policy = v;
        self
    }

    pub fn decisions(mut self, v: bool) -> Self {
        self.cfg.decisions = v;
        self
    }

    pub fn stream(mut self, v: Option<StreamHook>) -> Self {
        self.cfg.stream = v;
        self
    }

    pub fn vcis(mut self, v: usize) -> Self {
        self.cfg.vcis = v;
        self
    }

    /// Fuse each rank's per-(channel, VCI) polling threads into one
    /// progress thread (see `ChMadConfig::fused_progress`). Only
    /// meaningful for the ch_mad remote device; ignored for ch_p4.
    pub fn fused_progress(mut self, v: bool) -> Self {
        if let RemoteDeviceKind::ChMad(cfg) = &mut self.cfg.remote {
            cfg.fused_progress = v;
        }
        self
    }

    /// Validate the knob combination and produce the configuration.
    pub fn try_build(self) -> Result<WorldConfig, ConfigError> {
        if self.cfg.vcis == 0 {
            return Err(ConfigError::ZeroVcis);
        }
        Ok(self.cfg)
    }

    /// [`WorldConfigBuilder::try_build`], panicking on an invalid
    /// combination — for tests and binaries whose configuration is
    /// static.
    pub fn build(self) -> WorldConfig {
        self.try_build()
            .unwrap_or_else(|e| panic!("invalid WorldConfig: {e}"))
    }
}

/// Everything a finished world run yields: per-rank results in rank
/// order, the drained kernel (end time, trace, decisions, metrics), the
/// shared Madeleine session (reliability counters) and the stream
/// hook's sink, flushed and handed back.
pub struct WorldReport<T> {
    pub results: Vec<T>,
    pub kernel: Kernel,
    pub session: Arc<madeleine::Session>,
    /// [`StreamHook::sink`], back from [`Kernel::finish_event_sink`];
    /// `None` without a hook.
    pub sink: Option<Box<dyn marcel::EventSink>>,
}

/// A world that failed: the kernel's error and, as in [`WorldReport`],
/// the stream hook's sink, so a caller that lent the world its sink
/// gets it back either way. `?` converts it into the [`SimError`].
pub struct WorldFailure {
    pub error: SimError,
    pub sink: Option<Box<dyn marcel::EventSink>>,
}

impl From<WorldFailure> for SimError {
    fn from(failure: WorldFailure) -> SimError {
        failure.error
    }
}

impl std::fmt::Debug for WorldFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&self.error, f)
    }
}

/// One world's MPI layer, indexed by world rank and shared by every
/// communicator through one `Arc`. It owns, by value, each rank's
/// matching engine, the node map and intra-node costs the locality
/// dispatch reads, the inter-node device, the world group, the
/// context-id allocator and the collective engine.
pub(crate) struct MpiWorld {
    /// One matching engine per rank.
    pub(crate) engines: Vec<Engine>,
    /// rank -> node index, for locality decisions.
    pub(crate) rank_node: Vec<usize>,
    /// Loop-back and shared-memory costs of the intra-node paths.
    node_model: NodeModel,
    remote: Remote,
    /// The world group: one allocation per world, not per rank (at 8k
    /// ranks a per-rank copy is 64 KiB × 8k of pure duplication).
    pub(crate) group: Arc<Group>,
    /// Global context-id allocator (roots allocate, then broadcast).
    ctx_alloc: SimMutex<u32>,
    /// The collective algorithm engine (policy + world cluster map).
    pub(crate) coll: CollEngine,
}

/// The inter-node device of a world (§4.1).
enum Remote {
    ChMad(ChMad),
    ChP4(ChP4),
}

impl MpiWorld {
    /// Build the Madeleine session over `topology` and the world table
    /// on it. Simulated primitives are created in a fixed order — the
    /// session's, the engines', the remote device's per-rank state, then
    /// the context allocator — because semaphore ids appear in traces.
    pub(crate) fn build(
        kernel: &Kernel,
        topology: Topology,
        placement: &Placement,
        config: &WorldConfig,
    ) -> (Arc<Session>, Arc<MpiWorld>) {
        let vcis = config.vcis.max(1);
        let builder = madeleine::SessionBuilder::new(topology);
        let builder = match placement {
            Placement::OneRankPerNode => builder.one_rank_per_node(),
            Placement::OneRankPerCpu => builder.one_rank_per_cpu(),
            Placement::Explicit(map) => builder.place(map.clone()),
        };
        let builder = match &config.remote {
            RemoteDeviceKind::ChMad(cfg) if cfg.forwarding => builder.allow_forwarding(),
            _ => builder,
        };
        let session = builder
            .vcis(vcis)
            .build(kernel)
            .expect("invalid topology for an MPI world");
        let n = session.n_ranks();
        let engines = (0..n)
            .map(|r| Engine::new(kernel, r, config.adi.clone(), vcis))
            .collect();
        let remote = match &config.remote {
            RemoteDeviceKind::ChMad(cfg) => Remote::ChMad(ChMad::new(
                kernel,
                session.clone(),
                config.adi.clone(),
                cfg.clone(),
            )),
            RemoteDeviceKind::ChP4(costs) => Remote::ChP4(ChP4::new(kernel, n, costs.clone())),
        };
        let ctx_alloc = SimMutex::new(kernel, 2);
        let world = MpiWorld {
            engines,
            rank_node: (0..n).map(|r| session.node_of(r).0).collect(),
            node_model: session.topology().node_model().clone(),
            remote,
            group: Group::world(n),
            ctx_alloc,
            coll: CollEngine::with_levels(kernel, config.coll, rank_levels(&session)),
        };
        (session, Arc::new(world))
    }

    /// Which device carries traffic from world rank `from` to `to`.
    pub(crate) fn locality(&self, from: usize, to: usize) -> Locality {
        if from == to {
            Locality::IntraProcess
        } else if self.rank_node[from] == self.rank_node[to] {
            Locality::IntraNode
        } else {
            Locality::InterNode
        }
    }

    /// The ADI dispatch: blocking send of one MPI message from world
    /// rank `from` to `dst` over the device their locality selects. With
    /// `sync` set (`MPI_Ssend`) the send does not complete before a
    /// matching receive is posted. `lane` is an endpoint's VCI pin; only
    /// ch_mad has lanes, the other paths' parallelism comes from the
    /// engine's matching shards alone.
    pub(crate) fn send(
        &self,
        from: usize,
        dst: usize,
        env: Envelope,
        data: Bytes,
        sync: bool,
        lane: Option<usize>,
    ) {
        let engine = &self.engines[dst];
        match self.locality(from, dst) {
            // ch_self: the loop-back memcpy covers the copy, so nothing
            // is charged at match time.
            Locality::IntraProcess => {
                marcel::advance(self.node_model.self_cost(data.len()));
                local::deliver(engine, env, data, sync, 0.0);
            }
            // smp_plug: the sender copies into the shared segment, the
            // receiver copies out when it matches.
            Locality::IntraNode => {
                marcel::advance(self.node_model.smp_cost(data.len()));
                let copy_ns = self.node_model.smp_per_byte_ns;
                local::deliver(engine, env, data, sync, copy_ns);
            }
            Locality::InterNode => match &self.remote {
                Remote::ChMad(dev) => dev.send(from, dst, env, data, sync, lane),
                Remote::ChP4(dev) => dev.send(from, dst, env, data, sync),
            },
        }
    }

    /// The ch_mad device, for the service threads it spawned.
    pub(crate) fn ch_mad(&self) -> &ChMad {
        match &self.remote {
            Remote::ChMad(dev) => dev,
            Remote::ChP4(_) => unreachable!("a ch_mad thread in a ch_p4 world"),
        }
    }

    /// The ch_p4 device, for the polling threads it spawned.
    pub(crate) fn ch_p4(&self) -> &ChP4 {
        match &self.remote {
            Remote::ChP4(dev) => dev,
            Remote::ChMad(_) => unreachable!("a ch_p4 thread in a ch_mad world"),
        }
    }

    /// `MPI_Init` of one rank: start the inter-node device's service
    /// threads, which keep a clone of `world`.
    pub(crate) fn start_rank(world: &Arc<MpiWorld>, rank: usize) -> Vec<JoinHandle<()>> {
        match &world.remote {
            Remote::ChMad(dev) => dev.start_rank(world, rank),
            Remote::ChP4(dev) => dev.start_rank(world, rank),
        }
    }

    /// Stop one rank's service threads. Called after the shutdown
    /// barrier.
    pub(crate) fn finalize_rank(&self, rank: usize) {
        match &self.remote {
            Remote::ChMad(dev) => dev.finalize_rank(rank),
            Remote::ChP4(dev) => dev.finalize_rank(rank),
        }
    }

    /// Reserve a fresh pair of context ids: point-to-point, then
    /// collective.
    pub(crate) fn alloc_contexts(&self) -> u32 {
        let mut next = self.ctx_alloc.lock();
        let base = *next;
        *next += 2;
        base
    }
}

/// The collective engine's fast-island structure in rank space.
/// `cluster_levels` is the full nesting chain (finest → coarsest, e.g.
/// fat-tree rails inside pods); its coarsest tier equals
/// `node_clusters`, which stays the selection key. A topology with fewer
/// than two tiers has no levels of its own: the classic cluster map is
/// then the whole chain.
fn rank_levels(session: &Session) -> Vec<Vec<usize>> {
    let topology = session.topology();
    let node_clusters = topology.node_clusters();
    let ranks = 0..session.n_ranks();
    let mut levels: Vec<Vec<usize>> = topology
        .cluster_levels()
        .iter()
        .map(|level| {
            let mut of = vec![0usize; node_clusters.len()];
            for (ci, members) in level.iter().enumerate() {
                for m in members {
                    of[m.0] = ci;
                }
            }
            ranks.clone().map(|r| of[session.node_of(r).0]).collect()
        })
        .collect();
    if levels.is_empty() {
        levels.push(ranks.map(|r| node_clusters[session.node_of(r).0]).collect());
    }
    levels
}

/// Run an MPI program: spawn one main thread per rank executing `f` with
/// that rank's `MPI_COMM_WORLD`, then run the simulation to completion.
/// Returns the per-rank results in rank order.
///
/// ```
/// use mpich::{run_world, Placement, WorldConfig};
/// use simnet::{Protocol, Topology};
///
/// let results = run_world(
///     Topology::single_network(4, Protocol::Tcp),
///     Placement::OneRankPerNode,
///     WorldConfig::default(),
///     |comm| comm.allreduce(&[comm.rank() as i64], mpich::ReduceOp::Sum)[0],
/// )
/// .unwrap();
/// assert_eq!(results, vec![6, 6, 6, 6]);
/// ```
pub fn run_world<T, F>(
    topology: Topology,
    placement: Placement,
    config: WorldConfig,
    f: F,
) -> Result<Vec<T>, SimError>
where
    T: Send + 'static,
    F: Fn(&Communicator) -> T + Send + Sync + 'static,
{
    Ok(run_world_report(topology, placement, config, f)?.results)
}

/// [`run_world`], returning the whole [`WorldReport`], or on failure
/// the [`WorldFailure`] that carries the stream hook's sink back too.
pub fn run_world_report<T, F>(
    topology: Topology,
    placement: Placement,
    mut config: WorldConfig,
    f: F,
) -> Result<WorldReport<T>, WorldFailure>
where
    T: Send + 'static,
    F: Fn(&Communicator) -> T + Send + Sync + 'static,
{
    let kernel = Kernel::new(config.cost_model.clone());
    if config.trace {
        kernel.enable_trace();
    }
    if config.decisions {
        kernel.enable_decision_log();
    }
    if let Some(StreamHook { chunk, sink }) = config.stream.take() {
        kernel.set_event_sink(sink, chunk);
    }
    let (session, world) = MpiWorld::build(&kernel, topology, &placement, &config);
    let n = session.n_ranks();
    // Kernel-level (non-MPI) quiescence barrier: no rank may terminate
    // its polling threads before EVERY rank has finished its MPI
    // traffic. The MPI barrier alone is not enough with forwarding:
    // its own broadcast messages can still be transiting a gateway
    // whose barrier participation already ended — the gateway's TERM
    // would kill the polling thread with the relay still in flight.
    let shutdown = SimBarrier::new(&kernel, n);
    let f = Arc::new(f);
    let mut handles = Vec::with_capacity(n);
    for rank in 0..n {
        let world = world.clone();
        let f = f.clone();
        let shutdown = shutdown.clone();
        handles.push(kernel.spawn(format!("rank{rank}"), move || {
            // MPI_Init: start the inter-node device's service threads.
            let pollers = MpiWorld::start_rank(&world, rank);
            let comm = Communicator::comm_world(world.clone(), rank);
            let result = f(&comm);
            // MPI_Finalize: synchronize at the MPI level, then wait for
            // global quiescence before terminating the pollers (see the
            // shutdown barrier's comment above).
            comm.barrier();
            shutdown.wait();
            world.finalize_rank(rank);
            for p in pollers {
                p.join();
            }
            result
        }));
    }
    let ran = kernel.run();
    // Flush the last partial chunk through the sink and publish the
    // stream high-water-mark gauge before anyone reads the metrics.
    let sink = kernel.finish_event_sink();
    if let Err(error) = ran {
        return Err(WorldFailure { error, sink });
    }
    let results = handles
        .into_iter()
        .map(|h| h.join_outcome().expect("rank finished without a result"))
        .collect();
    Ok(WorldReport {
        results,
        kernel,
        session,
        sink,
    })
}
