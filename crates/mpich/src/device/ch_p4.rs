//! `ch_p4`: the classical MPICH TCP device, reproduced as the baseline
//! of the paper's Figure 6. It talks straight to the TCP link model
//! (no Madeleine, no multi-protocol support) and always pays the
//! buffered-copy path, which is why its bandwidth ceiling sits below
//! `ch_mad`'s rendezvous mode (≈10 vs ≈11.2 MB/s).

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use marcel::{JoinHandle, Kernel, PollSource, ProcId, SimMutex, VirtualDuration, VirtualTime};
use simnet::{LinkModel, Protocol};

use crate::engine::Engine;
use crate::types::Envelope;
use crate::world::MpiWorld;

/// Software overheads of the p4 layer (on top of the raw TCP path).
/// Calibrated so the small-message latency lands slightly above
/// `ch_mad`'s, as in Fig. 6a.
#[derive(Clone, Debug)]
pub struct ChP4Costs {
    pub sw_send: VirtualDuration,
    pub sw_recv: VirtualDuration,
}

impl Default for ChP4Costs {
    fn default() -> Self {
        ChP4Costs {
            sw_send: VirtualDuration::from_micros_f64(16.0),
            sw_recv: VirtualDuration::from_micros_f64(17.0),
        }
    }
}

/// The device's per-rank state. p4's large-message protocol still copies
/// through socket buffers, so every size is sent eagerly.
pub(crate) struct ChP4 {
    model: LinkModel,
    costs: ChP4Costs,
    sources: Vec<PollSource<(Envelope, Bytes)>>,
    floors: HashMap<(usize, usize), SimMutex<VirtualTime>>,
}

impl ChP4 {
    /// The device of an `n`-rank world.
    pub(crate) fn new(kernel: &Kernel, n: usize, costs: ChP4Costs) -> ChP4 {
        let model = Protocol::Tcp.model();
        let sources = (0..n)
            .map(|r| PollSource::new(kernel, ProcId(r as u32), model.poll_cost))
            .collect();
        let mut floors = HashMap::new();
        for a in 0..n {
            for b in 0..n {
                floors.insert((a, b), SimMutex::new(kernel, VirtualTime::ZERO));
            }
        }
        ChP4 {
            model,
            costs,
            sources,
            floors,
        }
    }

    fn poll_loop(&self, rank: usize, engine: &Engine) {
        let eager_copy_ns = self.model.eager_copy_per_byte_ns;
        while let Some(polled) = self.sources[rank].poll_wait() {
            let (env, data) = polled.payload;
            marcel::advance(self.model.receiver_occupancy(data.len()) + self.costs.sw_recv);
            engine.deliver_eager(env, data, eager_copy_ns, None);
        }
        self.sources[rank].detach();
    }

    /// Blocking send of one message from world rank `from` to `dst`.
    pub(crate) fn send(&self, from: usize, dst: usize, env: Envelope, data: Bytes, sync: bool) {
        assert!(
            !sync,
            "the ch_p4 baseline does not implement synchronous sends"
        );
        marcel::advance(self.costs.sw_send);
        let floor = &self.floors[&(from, dst)];
        let mut floor = floor.lock();
        marcel::advance(self.model.sender_occupancy(data.len(), 1));
        let mut arrival = self.model.arrival(marcel::now(), data.len());
        let min =
            *floor + (self.model.wire_serialization(data.len()) + VirtualDuration::from_nanos(1));
        if arrival < min {
            arrival = min;
        }
        *floor = arrival;
        self.sources[dst].post(arrival, (env, data));
    }

    /// `MPI_Init` of one rank: spawn its polling thread.
    pub(crate) fn start_rank(&self, world: &Arc<MpiWorld>, rank: usize) -> Vec<JoinHandle<()>> {
        self.sources[rank].attach();
        let world = world.clone();
        vec![marcel::spawn(format!("rank{rank}-poll-p4"), move || {
            world.ch_p4().poll_loop(rank, &world.engines[rank]);
        })]
    }

    /// `MPI_Finalize` of one rank: close its poll source.
    pub(crate) fn finalize_rank(&self, rank: usize) {
        self.sources[rank].close();
    }
}
