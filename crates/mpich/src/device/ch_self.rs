//! `ch_self`: the loop-back device for intra-process communication
//! (paper §4.1). Delivery is synchronous — a memcpy at loop-back cost —
//! so the device needs no service thread.

use std::sync::Arc;

use bytes::Bytes;
use simnet::NodeModel;

use crate::adi::{Device, ProtocolPolicy};
use crate::engine::Engine;
use crate::types::Envelope;

pub struct ChSelf {
    engines: Vec<Arc<Engine>>,
    node_model: NodeModel,
    /// Loop-back copies either way; eager always.
    policy: ProtocolPolicy,
}

impl ChSelf {
    pub fn new(engines: Vec<Arc<Engine>>, node_model: NodeModel) -> Arc<ChSelf> {
        Arc::new(ChSelf {
            engines,
            node_model,
            policy: ProtocolPolicy::always_eager(),
        })
    }
}

impl Device for ChSelf {
    fn name(&self) -> &'static str {
        "ch_self"
    }

    fn policy(&self) -> &ProtocolPolicy {
        &self.policy
    }

    fn send(&self, from: usize, dst: usize, env: Envelope, data: Bytes, sync: bool) {
        assert_eq!(from, dst, "ch_self only carries messages to self");
        marcel::advance(self.node_model.self_cost(data.len()));
        if sync {
            // Synchronous semantics: complete only once the receive is
            // posted, through the engine's rendezvous offer. Note the
            // MPI-mandated consequence: a self-ssend without a prior
            // irecv deadlocks (and the kernel reports it).
            let slot = marcel::OneShot::current();
            let s2 = slot.clone();
            self.engines[dst].deliver_rndv_offer(env, Box::new(move |token| s2.put(token)));
            let token = slot.take();
            self.engines[dst]
                .rndv_complete(token, env, data)
                .expect("loop-back rendezvous rhandle is engine-issued");
        } else {
            // The loop-back cost above covers the copy; no per-byte
            // charge at match time.
            self.engines[dst].deliver_eager(env, data, 0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adi::AdiCosts;
    use crate::request::Request;
    use crate::types::MatchSpec;
    use marcel::{CostModel, Kernel};

    #[test]
    fn send_to_self_completes_posted_recv() {
        let k = Kernel::new(CostModel::free());
        let k2 = k.clone();
        let h = k.spawn("rank0", move || {
            let engine = Engine::new(&k2, 0, AdiCosts::free());
            let dev = ChSelf::new(vec![engine.clone()], NodeModel::calibrated());
            let req = marcel::OneShot::current();
            engine.post_recv(
                MatchSpec {
                    src: Some(0),
                    tag: Some(1),
                    context: 0,
                },
                16,
                req.clone(),
            );
            dev.send(
                0,
                0,
                Envelope {
                    src: 0,
                    tag: 1,
                    context: 0,
                    len: 3,
                },
                Bytes::from_static(&[1, 2, 3]),
                false,
            );
            let (data, _) = Request::new(req).wait();
            (data.unwrap(), marcel::now())
        });
        k.run().unwrap();
        let (data, t) = h.join_outcome().unwrap();
        assert_eq!(data, vec![1, 2, 3]);
        // Loop-back fixed cost is ~0.7us.
        assert!(t.as_micros_f64() < 2.0, "loop-back should be fast: {t}");
        assert!(t.as_nanos() > 0);
    }

    #[test]
    #[should_panic(expected = "only carries messages to self")]
    fn cross_rank_rejected() {
        let k = Kernel::new(CostModel::free());
        let k2 = k.clone();
        k.spawn("rank0", move || {
            let e0 = Engine::new(&k2, 0, AdiCosts::free());
            let e1 = Engine::new(&k2, 1, AdiCosts::free());
            let dev = ChSelf::new(vec![e0, e1], NodeModel::calibrated());
            dev.send(
                0,
                1,
                Envelope {
                    src: 0,
                    tag: 0,
                    context: 0,
                    len: 0,
                },
                Bytes::new(),
                false,
            );
        });
        if let Err(marcel::SimError::ThreadPanicked(msg)) = k.run() {
            panic!("{msg}");
        }
    }
}
