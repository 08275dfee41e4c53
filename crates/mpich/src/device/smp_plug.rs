//! `smp_plug`: the intra-node (inter-processor) device for SMP nodes
//! (paper §4.1, from the MPI-BIP SMP work). Processes on the same node
//! exchange messages through shared memory: a double copy at memory
//! bandwidth, synchronously delivered into the peer's engine.

use std::sync::Arc;

use bytes::Bytes;
use simnet::NodeModel;

use crate::adi::{Device, ProtocolPolicy};
use crate::engine::Engine;
use crate::types::Envelope;

pub struct SmpPlug {
    engines: Vec<Arc<Engine>>,
    /// rank -> node index, to enforce intra-node use only.
    rank_node: Vec<usize>,
    node_model: NodeModel,
    /// Shared-memory transfers copy either way; eager always.
    policy: ProtocolPolicy,
}

impl SmpPlug {
    pub fn new(
        engines: Vec<Arc<Engine>>,
        rank_node: Vec<usize>,
        node_model: NodeModel,
    ) -> Arc<SmpPlug> {
        Arc::new(SmpPlug {
            engines,
            rank_node,
            node_model,
            policy: ProtocolPolicy::always_eager(),
        })
    }
}

impl Device for SmpPlug {
    fn name(&self) -> &'static str {
        "smp_plug"
    }

    fn policy(&self) -> &ProtocolPolicy {
        &self.policy
    }

    fn send(&self, from: usize, dst: usize, env: Envelope, data: Bytes, sync: bool) {
        assert_ne!(from, dst, "intra-process messages belong to ch_self");
        assert_eq!(
            self.rank_node[from], self.rank_node[dst],
            "smp_plug only carries intra-node messages (ranks {from} and {dst} are on different nodes)"
        );
        // Sender copies into the shared segment.
        marcel::advance(self.node_model.smp_cost(data.len()));
        if sync {
            // Synchronous semantics through the engine's rendezvous
            // offer: the peer's posted receive releases the sender.
            let slot = marcel::OneShot::current();
            let s2 = slot.clone();
            self.engines[dst].deliver_rndv_offer(env, Box::new(move |token| s2.put(token)));
            let token = slot.take();
            self.engines[dst]
                .rndv_complete(token, env, data)
                .expect("intra-node rendezvous rhandle is engine-issued");
        } else {
            // Receiver-side copy out of the segment at match time.
            let copy_ns = self.node_model.smp_per_byte_ns;
            self.engines[dst].deliver_eager(env, data, copy_ns);
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
    fn intra_node_delivery() {
        let k = Kernel::new(CostModel::free());
        let k2 = k.clone();
        let h = k.spawn("rank0", move || {
            let e0 = Engine::new(&k2, 0, AdiCosts::free());
            let e1 = Engine::new(&k2, 1, AdiCosts::free());
            let dev = SmpPlug::new(vec![e0, e1.clone()], vec![0, 0], NodeModel::calibrated());
            let req = marcel::OneShot::current();
            e1.post_recv(
                MatchSpec {
                    src: Some(0),
                    tag: None,
                    context: 0,
                },
                1 << 20,
                req.clone(),
            );
            let n = 64 * 1024;
            dev.send(
                0,
                1,
                Envelope {
                    src: 0,
                    tag: 0,
                    context: 0,
                    len: n,
                },
                Bytes::from(vec![5u8; n]),
                false,
            );
            let (data, status) = Request::new(req).wait();
            (data.unwrap().len(), status.len, marcel::now())
        });
        k.run().unwrap();
        let (len, slen, t) = h.join_outcome().unwrap();
        assert_eq!(len, 64 * 1024);
        assert_eq!(slen, 64 * 1024);
        // Double copy of 64KB at 9ns/B each ~ 1.2ms total.
        let us = t.as_micros_f64();
        assert!(us > 1_000.0 && us < 2_000.0, "smp 64KB took {us}us");
    }

    #[test]
    fn cross_node_rejected() {
        let k = Kernel::new(CostModel::free());
        let k2 = k.clone();
        k.spawn("rank0", move || {
            let e0 = Engine::new(&k2, 0, AdiCosts::free());
            let e1 = Engine::new(&k2, 1, AdiCosts::free());
            let dev = SmpPlug::new(vec![e0, e1], vec![0, 1], NodeModel::calibrated());
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
        match k.run() {
            Err(marcel::SimError::ThreadPanicked(msg)) => {
                assert!(msg.contains("different nodes"), "{msg}");
            }
            other => panic!("expected panic, got {other:?}"),
        }
    }
}
