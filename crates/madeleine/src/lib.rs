//! # madeleine — reproduction of the Madeleine II communication library
//!
//! Madeleine II (Aumage, Bougé, Namyst) is the multi-protocol
//! message-passing library underneath MPICH/Madeleine. This crate
//! reproduces its programming interface and performance behaviour over
//! the simulated networks of `simnet`:
//!
//! * **Channels** ([`Channel`]) — closed communication worlds bound to
//!   one protocol; in-order delivery per point-to-point connection
//!   within a channel.
//! * **Incremental message building** — `begin_packing` / `pack` /
//!   `end_packing` with per-block [`SendMode`]/[`ReceiveMode`] semantics
//!   (`EXPRESS` vs `CHEAPER`), and the symmetric unpacking side.
//! * **Sessions** ([`Session`]) — rank placement over a cluster
//!   [`simnet::Topology`] and channel construction per network.
//!
//! Timing faithfulness: raw one-way latency and bandwidth over each
//! protocol match the paper's Table 1 (see `tests/` and the `bench`
//! crate's `table1` binary), and each packing operation beyond the first
//! costs the protocol's measured `extra_segment` (§5.2–5.4).

pub mod channel;
pub mod error;
pub mod message;
pub mod modes;
pub mod session;

pub use channel::{
    Channel, Endpoint, FaultCounters, PackingConnection, UnpackingConnection, MAX_SEND_ATTEMPTS,
    PACK_CALL_CPU,
};
pub use error::{ChannelError, MadError};
pub use message::{Block, WireMessage};
pub use modes::{ReceiveMode, SendMode};
pub use session::{Rails, Session, SessionBuilder, SessionCounters};

use marcel::VirtualDuration;

/// `bytes * ns_per_byte`, rounded to whole nanoseconds (shared helper).
pub(crate) fn cost_per_byte(ns_per_byte: f64, bytes: usize) -> VirtualDuration {
    VirtualDuration::from_nanos((bytes as f64 * ns_per_byte).round() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use marcel::{CostModel, Kernel, VirtualTime};
    use simnet::Protocol;

    /// Fig. 2 of the paper: send an int size EXPRESS, then the array
    /// CHEAPER; the receiver extracts the size first, allocates, then
    /// extracts the payload.
    #[test]
    fn paper_figure_2_example() {
        let k = Kernel::new(CostModel::calibrated());
        let s = Session::single_network(&k, 2, Protocol::Tcp);
        let ch = s.channels()[0].clone();
        let tx = ch.endpoint(0).unwrap();
        let rx = ch.endpoint(1).unwrap();
        let payload: Vec<u8> = (0..777u32).map(|i| (i % 251) as u8).collect();
        let expected = payload.clone();
        k.spawn("sender", move || {
            let mut conn = tx.begin_packing(1).unwrap();
            let size = (payload.len() as u32).to_le_bytes();
            conn.pack(&size, SendMode::Cheaper, ReceiveMode::Express);
            conn.pack(&payload, SendMode::Cheaper, ReceiveMode::Cheaper);
            conn.end_packing().unwrap();
        });
        let h = k.spawn("receiver", move || {
            let mut conn = rx.begin_unpacking().unwrap();
            let mut size = [0u8; 4];
            conn.unpack(&mut size, SendMode::Cheaper, ReceiveMode::Express);
            let n = u32::from_le_bytes(size) as usize;
            let mut array = vec![0u8; n];
            conn.unpack(&mut array, SendMode::Cheaper, ReceiveMode::Cheaper);
            conn.end_unpacking();
            array
        });
        k.run().unwrap();
        assert_eq!(h.join_outcome().unwrap(), expected);
    }

    #[test]
    fn raw_latency_matches_table_1() {
        // One-pack 4-byte one-way message over each protocol must land
        // within a few percent of the paper's Table 1 latency.
        for (proto, target_us) in [
            (Protocol::Tcp, 121.0),
            (Protocol::Sisci, 4.4),
            (Protocol::Bip, 9.2),
        ] {
            let k = Kernel::new(CostModel::free());
            let s = Session::single_network(&k, 2, proto);
            let ch = s.channels()[0].clone();
            let tx = ch.endpoint(0).unwrap();
            let rx = ch.endpoint(1).unwrap();
            k.spawn("sender", move || {
                let mut conn = tx.begin_packing(1).unwrap();
                conn.pack(&[1, 2, 3, 4], SendMode::Cheaper, ReceiveMode::Cheaper);
                conn.end_packing().unwrap();
            });
            let h = k.spawn("receiver", move || {
                let mut conn = rx.begin_unpacking().unwrap();
                let mut buf = [0u8; 4];
                conn.unpack(&mut buf, SendMode::Cheaper, ReceiveMode::Cheaper);
                conn.end_unpacking();
                marcel::now()
            });
            k.run().unwrap();
            let got = h.join_outcome().unwrap().as_micros_f64();
            let err = (got - target_us).abs() / target_us;
            assert!(
                err < 0.06,
                "{}: one-way 4B latency {got}us vs Table 1 target {target_us}us",
                proto.name()
            );
        }
    }

    #[test]
    fn second_pack_costs_extra_segment() {
        // The ch_mad overhead decomposition (§5.2): the second packing
        // operation adds the protocol's extra_segment to the one-way
        // time.
        for proto in Protocol::ALL {
            let one = oneway_time(proto, 1);
            let two = oneway_time(proto, 2);
            let extra = proto.model().extra_segment.as_nanos() as i64;
            let delta = two.as_nanos() as i64 - one.as_nanos() as i64;
            // Within the extra pack-call CPU + rounding.
            assert!(
                (delta - extra).abs() < 2_000,
                "{}: delta {delta}ns vs extra_segment {extra}ns",
                proto.name()
            );
        }
    }

    fn oneway_time(proto: Protocol, segments: usize) -> VirtualTime {
        let k = Kernel::new(CostModel::free());
        let s = Session::single_network(&k, 2, proto);
        let ch = s.channels()[0].clone();
        let tx = ch.endpoint(0).unwrap();
        let rx = ch.endpoint(1).unwrap();
        k.spawn("sender", move || {
            let mut conn = tx.begin_packing(1).unwrap();
            for _ in 0..segments {
                conn.pack(&[0u8; 4], SendMode::Cheaper, ReceiveMode::Express);
            }
            conn.end_packing().unwrap();
        });
        let h = k.spawn("receiver", move || {
            let mut conn = rx.begin_unpacking().unwrap();
            for _ in 0..segments {
                let mut buf = [0u8; 4];
                conn.unpack(&mut buf, SendMode::Cheaper, ReceiveMode::Express);
            }
            conn.end_unpacking();
            marcel::now()
        });
        k.run().unwrap();
        h.join_outcome().unwrap()
    }

    #[test]
    fn per_connection_fifo_order() {
        let k = Kernel::new(CostModel::free());
        let s = Session::single_network(&k, 2, Protocol::Bip);
        let ch = s.channels()[0].clone();
        let tx = ch.endpoint(0).unwrap();
        let rx = ch.endpoint(1).unwrap();
        // A big message followed by a tiny one: the tiny one must NOT
        // overtake on the same connection.
        k.spawn("sender", move || {
            let mut big = tx.begin_packing(1).unwrap();
            big.pack(&vec![1u8; 100_000], SendMode::Cheaper, ReceiveMode::Cheaper);
            big.end_packing().unwrap();
            let mut small = tx.begin_packing(1).unwrap();
            small.pack(&[2u8], SendMode::Cheaper, ReceiveMode::Cheaper);
            small.end_packing().unwrap();
        });
        let h = k.spawn("receiver", move || {
            let mut order = Vec::new();
            for _ in 0..2 {
                let mut conn = rx.begin_unpacking().unwrap();
                let bytes = conn.unpack_bytes(SendMode::Cheaper, ReceiveMode::Cheaper);
                order.push(bytes[0]);
                conn.end_unpacking();
            }
            order
        });
        k.run().unwrap();
        assert_eq!(h.join_outcome().unwrap(), vec![1, 2]);
    }

    #[test]
    fn channels_are_independent_worlds() {
        // Two channels over the same network: a message on channel B is
        // not visible on channel A.
        let k = Kernel::new(CostModel::free());
        let s = SessionBuilder::new(simnet::Topology::single_network(2, Protocol::Sisci))
            .one_rank_per_node()
            .extra_channel(simnet::NetworkId(0), "b")
            .build(&k)
            .unwrap();
        let (cha, chb) = (s.channels()[0].clone(), s.channels()[1].clone());
        let (txa, txb) = (cha.endpoint(0).unwrap(), chb.endpoint(0).unwrap());
        let rxb = chb.endpoint(1).unwrap();
        let rxa = cha.endpoint(1).unwrap();
        k.spawn("sender", move || {
            let mut m = txb.begin_packing(1).unwrap();
            m.pack(&[9], SendMode::Cheaper, ReceiveMode::Cheaper);
            m.end_packing().unwrap();
            let mut m = txa.begin_packing(1).unwrap();
            m.pack(&[7], SendMode::Cheaper, ReceiveMode::Cheaper);
            m.end_packing().unwrap();
        });
        let h = k.spawn("receiver", move || {
            // Read channel A first even though B's message left first.
            let mut conn = rxa.begin_unpacking().unwrap();
            let a = conn.unpack_bytes(SendMode::Cheaper, ReceiveMode::Cheaper)[0];
            conn.end_unpacking();
            let mut conn = rxb.begin_unpacking().unwrap();
            let b = conn.unpack_bytes(SendMode::Cheaper, ReceiveMode::Cheaper)[0];
            conn.end_unpacking();
            (a, b)
        });
        k.run().unwrap();
        assert_eq!(h.join_outcome().unwrap(), (7, 9));
    }

    #[test]
    fn mode_mismatch_is_a_protocol_violation() {
        let k = Kernel::new(CostModel::free());
        let s = Session::single_network(&k, 2, Protocol::Tcp);
        let ch = s.channels()[0].clone();
        let tx = ch.endpoint(0).unwrap();
        let rx = ch.endpoint(1).unwrap();
        k.spawn("sender", move || {
            let mut conn = tx.begin_packing(1).unwrap();
            conn.pack(&[0u8; 8], SendMode::Cheaper, ReceiveMode::Cheaper);
            conn.end_packing().unwrap();
        });
        k.spawn("receiver", move || {
            let mut conn = rx.begin_unpacking().unwrap();
            let mut buf = [0u8; 8];
            // Wrong receive mode: must panic.
            conn.unpack(&mut buf, SendMode::Cheaper, ReceiveMode::Express);
            conn.end_unpacking();
        });
        assert!(matches!(k.run(), Err(marcel::SimError::ThreadPanicked(_))));
    }

    #[test]
    fn close_incoming_unblocks_receiver() {
        let k = Kernel::new(CostModel::free());
        let s = Session::single_network(&k, 2, Protocol::Tcp);
        let ch = s.channels()[0].clone();
        let rx = ch.endpoint(1).unwrap();
        let rx2 = ch.endpoint(1).unwrap();
        let h = k.spawn("receiver", move || rx.begin_unpacking().is_none());
        k.spawn("closer", move || {
            marcel::advance(marcel::VirtualDuration::from_micros(5));
            rx2.close_incoming();
        });
        k.run().unwrap();
        assert!(h.join_outcome().unwrap());
    }

    #[test]
    fn loopback_connection_delivers_to_self() {
        // Used by the ch_mad TERM shutdown path.
        let k = Kernel::new(CostModel::free());
        let s = Session::single_network(&k, 2, Protocol::Tcp);
        let ch = s.channels()[0].clone();
        let ep = ch.endpoint(0).unwrap();
        let h = k.spawn("rank0", move || {
            let mut m = ep.begin_packing(0).unwrap();
            m.pack(&[42], SendMode::Cheaper, ReceiveMode::Express);
            m.end_packing().unwrap();
            let mut conn = ep.begin_unpacking().unwrap();
            let v = conn.unpack_bytes(SendMode::Cheaper, ReceiveMode::Express)[0];
            conn.end_unpacking();
            v
        });
        k.run().unwrap();
        assert_eq!(h.join_outcome().unwrap(), 42);
    }

    #[test]
    fn safer_mode_charges_a_copy() {
        // send_SAFER forces a synchronous copy; with a large block the
        // pack call itself must get measurably more expensive.
        let k = Kernel::new(CostModel::free());
        let s = Session::single_network(&k, 2, Protocol::Sisci);
        let ch = s.channels()[0].clone();
        let tx = ch.endpoint(0).unwrap();
        let rx = ch.endpoint(1).unwrap();
        let h = k.spawn("sender", move || {
            let data = vec![0u8; 100_000];
            let t0 = marcel::now();
            let mut conn = tx.begin_packing(1).unwrap();
            conn.pack(&data, SendMode::Safer, ReceiveMode::Cheaper);
            let after_pack = marcel::now() - t0;
            conn.end_packing().unwrap();
            after_pack
        });
        k.spawn("receiver", move || {
            let mut conn = rx.begin_unpacking().unwrap();
            let _ = conn.unpack_bytes(SendMode::Safer, ReceiveMode::Cheaper);
            conn.end_unpacking();
        });
        k.run().unwrap();
        let pack_cost = h.join_outcome().unwrap();
        // 100 KB at 10 ns/B = 1 ms.
        assert!(pack_cost.as_micros_f64() > 900.0, "pack cost {pack_cost}");
    }

    #[test]
    fn bandwidth_matches_table_1_for_8mb() {
        for (proto, target) in [
            (Protocol::Tcp, 11.2),
            (Protocol::Sisci, 82.6),
            (Protocol::Bip, 122.0),
        ] {
            let k = Kernel::new(CostModel::free());
            let s = Session::single_network(&k, 2, proto);
            let ch = s.channels()[0].clone();
            let tx = ch.endpoint(0).unwrap();
            let rx = ch.endpoint(1).unwrap();
            let n = 8 * (1 << 20);
            k.spawn("sender", move || {
                let mut conn = tx.begin_packing(1).unwrap();
                conn.pack_bytes(
                    bytes::Bytes::from(vec![0u8; n]),
                    SendMode::Cheaper,
                    ReceiveMode::Cheaper,
                );
                conn.end_packing().unwrap();
            });
            let h = k.spawn("receiver", move || {
                let mut conn = rx.begin_unpacking().unwrap();
                let _ = conn.unpack_bytes(SendMode::Cheaper, ReceiveMode::Cheaper);
                conn.end_unpacking();
                marcel::now()
            });
            k.run().unwrap();
            let t = h.join_outcome().unwrap().as_secs_f64();
            let mb = n as f64 / (1 << 20) as f64;
            let bw = mb / t;
            let err = (bw - target).abs() / target;
            assert!(
                err < 0.03,
                "{}: 8MB bandwidth {bw:.1} MB/s vs Table 1 target {target}",
                proto.name()
            );
        }
    }
}
