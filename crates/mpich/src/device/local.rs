//! The intra-node paths of the ADI (paper §4.1): `ch_self` carries the
//! messages a rank sends itself, `smp_plug` those between ranks sharing
//! an SMP node (from the MPI-BIP SMP work). Both deliver synchronously
//! from the sender's thread straight into the destination engine, so
//! neither needs a service thread. They differ only in the `NodeModel`
//! costs the locality dispatch charges before delivering: loop-back is
//! one memcpy; shared memory is a copy in by the sender and a copy out
//! when the receiver matches.

use bytes::Bytes;

use crate::engine::Engine;
use crate::types::Envelope;

/// Deliver one message into `engine` from the sender's thread. With
/// `sync` set (`MPI_Ssend`) the send completes only once a matching
/// receive is posted, through the engine's rendezvous offer — so a
/// self-ssend without a prior irecv deadlocks, as MPI mandates, and the
/// kernel reports it. Otherwise the message lands eagerly and `copy_ns`
/// per byte is charged when it is matched.
pub(crate) fn deliver(engine: &Engine, env: Envelope, data: Bytes, sync: bool, copy_ns: f64) {
    if sync {
        let slot = marcel::OneShot::current();
        let s2 = slot.clone();
        engine.deliver_rndv_offer(env, Box::new(move |token| s2.put(token)));
        let token = slot.take();
        engine
            .rndv_complete(token, env, data)
            .expect("local rendezvous rhandle is engine-issued");
    } else {
        engine.deliver_eager(env, data, copy_ns);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use marcel::{CostModel, Kernel};
    use simnet::{NodeId, Protocol, Topology};

    use crate::adi::AdiCosts;
    use crate::request::Request;
    use crate::types::MatchSpec;
    use crate::world::{MpiWorld, Placement, WorldConfig};

    use super::*;

    /// A world with free ADI costs whose ranks sit on the given nodes of
    /// a two-node TCP cluster.
    fn world(kernel: &Kernel, nodes: Vec<NodeId>) -> Arc<MpiWorld> {
        let config = WorldConfig::builder().adi(AdiCosts::free()).build();
        let topology = Topology::single_network(2, Protocol::Tcp);
        MpiWorld::build(kernel, topology, &Placement::Explicit(nodes), &config).1
    }

    #[test]
    fn send_to_self_completes_posted_recv() {
        let k = Kernel::new(CostModel::free());
        let world = world(&k, vec![NodeId(0)]);
        let h = k.spawn("rank0", move || {
            let req = marcel::OneShot::current();
            world.engines[0].post_recv(
                MatchSpec {
                    src: Some(0),
                    tag: Some(1),
                    context: 0,
                },
                16,
                req.clone(),
            );
            world.send(
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
                None,
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
    fn intra_node_delivery() {
        let k = Kernel::new(CostModel::free());
        let world = world(&k, vec![NodeId(0), NodeId(0)]);
        let h = k.spawn("rank0", move || {
            let req = marcel::OneShot::current();
            world.engines[1].post_recv(
                MatchSpec {
                    src: Some(0),
                    tag: None,
                    context: 0,
                },
                1 << 20,
                req.clone(),
            );
            let n = 64 * 1024;
            world.send(
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
                None,
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
}
