//! The parametric link model.
//!
//! A [`LinkModel`] captures everything the reproduction needs to know
//! about one network protocol stack (e.g. BIP over Myrinet): fixed and
//! per-byte costs on the sender, the wire, and the receiver, the cost of
//! one poll attempt, and two behavioural quirks the paper's figures
//! depend on (the extra cost of each additional packing operation, and
//! BIP's internal protocol switch around 1 KB).
//!
//! The model deliberately splits one-way transfer time into three
//! *chargeable* parts, because the layers above charge them to different
//! clocks:
//!
//! ```text
//! sender clock   += sender_occupancy(bytes, segments)
//! arrival time    = sender clock + wire_delay(bytes)
//! receiver clock += receiver_occupancy(bytes)        (after notice)
//! ```
//!
//! For a ping-pong (the paper's benchmark) the three parts simply add up,
//! so the calibration constraint is on their sums: the fixed parts must
//! total the protocol's small-message latency and the per-byte parts must
//! total `1 / bandwidth`.

use marcel::{VirtualDuration, VirtualTime};

/// Cost/behaviour model for one network protocol stack.
#[derive(Clone, Debug)]
pub struct LinkModel {
    /// Human-readable protocol/network name ("TCP/Fast-Ethernet", ...).
    pub name: &'static str,
    /// Fixed per-message sender-side software + hardware overhead.
    pub send_fixed: VirtualDuration,
    /// Sender occupancy per byte, in nanoseconds (copies into socket
    /// buffers, PIO stores, DMA descriptor setup).
    pub send_per_byte_ns: f64,
    /// Fixed wire/NIC traversal latency.
    pub wire_latency: VirtualDuration,
    /// Wire serialization cost per byte, in nanoseconds.
    pub wire_per_byte_ns: f64,
    /// Fixed receiver-side overhead per message (interrupt/poll handler,
    /// protocol bookkeeping).
    pub recv_fixed: VirtualDuration,
    /// Receiver occupancy per byte, in nanoseconds (copy out of the
    /// receive ring / mapped segment).
    pub recv_per_byte_ns: f64,
    /// Cost of one poll attempt on this protocol (cheap for SCI mapped
    /// memory, expensive for TCP's `select`). Drives the paper's Fig. 9.
    pub poll_cost: VirtualDuration,
    /// Cost of each packing operation beyond the first in one Madeleine
    /// message (paper §5.2–5.4 measures it directly: ≈21 µs on TCP,
    /// ≈6.5 µs on SISCI, ≈4.5 µs on BIP).
    pub extra_segment: VirtualDuration,
    /// Per-byte cost of the eager-mode intermediate receive copy
    /// (memcpy through the cache on the receiving host).
    pub eager_copy_per_byte_ns: f64,
    /// `Some((threshold, extra))`: messages strictly larger than
    /// `threshold` bytes pay `extra` once — BIP switches internal
    /// protocols around 1 KB, producing the notch in Fig. 8b.
    pub internal_switch: Option<(usize, VirtualDuration)>,
    /// Deterministic arrival jitter (failure-injection/robustness
    /// testing): each message's wire delay is stretched by a
    /// pseudo-random amount in `[0, amplitude)`, derived from the seed,
    /// the per-connection sequence number and the size — identical on
    /// every run.
    pub jitter: Option<Jitter>,
}

/// Deterministic jitter parameters (see [`LinkModel::jitter`]).
#[derive(Clone, Copy, Debug)]
pub struct Jitter {
    pub amplitude_ns: u64,
    pub seed: u64,
}

impl LinkModel {
    /// Time the *sender's CPU* is busy injecting a message of
    /// `bytes` built from `segments` packing operations.
    pub fn sender_occupancy(&self, bytes: usize, segments: usize) -> VirtualDuration {
        let mut t = self.send_fixed + per_byte(self.send_per_byte_ns, bytes);
        if segments > 1 {
            t += self.extra_segment * (segments as u64 - 1);
        }
        if let Some((threshold, extra)) = self.internal_switch {
            if bytes > threshold {
                t += extra;
            }
        }
        t
    }

    /// Wire time from injection to availability at the receiving NIC.
    pub fn wire_delay(&self, bytes: usize) -> VirtualDuration {
        self.wire_latency + per_byte(self.wire_per_byte_ns, bytes)
    }

    /// Time the *receiver's CPU* is busy draining the message, without
    /// any MPI-level intermediate copy.
    pub fn receiver_occupancy(&self, bytes: usize) -> VirtualDuration {
        self.recv_fixed + per_byte(self.recv_per_byte_ns, bytes)
    }

    /// Absolute arrival time for a message injected when the sender's
    /// clock reads `send_done` (i.e. after `sender_occupancy`).
    pub fn arrival(&self, send_done: VirtualTime, bytes: usize) -> VirtualTime {
        send_done + self.wire_delay(bytes)
    }

    /// Deterministic pseudo-random extra delay for the `sequence`-th
    /// message of a connection (zero without a jitter model). The
    /// seeding scheme is documented in [`crate::rng`], which this
    /// shares with [`crate::FaultPlan`]; the hash is reduced to
    /// `[0, amplitude)` with the unbiased multiply-shift ([`crate::rng::bounded`])
    /// rather than a biased modulo.
    pub fn jitter_delay(&self, sequence: u64, bytes: usize) -> VirtualDuration {
        match self.jitter {
            None => VirtualDuration::ZERO,
            Some(Jitter {
                amplitude_ns: 0, ..
            }) => VirtualDuration::ZERO,
            Some(Jitter { amplitude_ns, seed }) => {
                let h = crate::rng::message_hash(seed, sequence, bytes);
                VirtualDuration::from_nanos(crate::rng::bounded(h, amplitude_ns))
            }
        }
    }

    /// Copy of `self` with deterministic jitter attached.
    pub fn with_jitter(mut self, amplitude_ns: u64, seed: u64) -> LinkModel {
        self.jitter = Some(Jitter { amplitude_ns, seed });
        self
    }

    /// Time the wire itself is busy with this message: back-to-back
    /// messages on one connection cannot arrive closer together than
    /// this (the transport layers enforce it through the per-connection
    /// FIFO floor). This is what keeps chunked transfers from exceeding
    /// the physical link rate.
    pub fn wire_serialization(&self, bytes: usize) -> VirtualDuration {
        per_byte(self.wire_per_byte_ns, bytes)
    }

    /// Analytic one-way small-message latency (single segment), assuming
    /// a dedicated polling thread on this protocol alone. Used by tests
    /// and by calibration checks; the *measured* value additionally
    /// includes the Madeleine/MPI software on top.
    pub fn oneway_latency(&self, bytes: usize) -> VirtualDuration {
        self.sender_occupancy(bytes, 1)
            + self.wire_delay(bytes)
            + self.poll_cost
            + self.receiver_occupancy(bytes)
    }

    /// Analytic asymptotic bandwidth in MB/s (1 MB = 2^20 bytes), i.e.
    /// the reciprocal of the summed per-byte costs.
    pub fn asymptotic_bandwidth_mb_s(&self) -> f64 {
        let per_byte_ns = self.send_per_byte_ns + self.wire_per_byte_ns + self.recv_per_byte_ns;
        1e9 / per_byte_ns / (1 << 20) as f64
    }
}

/// `bytes * ns_per_byte` rounded to whole nanoseconds.
pub(crate) fn per_byte(ns_per_byte: f64, bytes: usize) -> VirtualDuration {
    VirtualDuration::from_nanos((bytes as f64 * ns_per_byte).round() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> LinkModel {
        LinkModel {
            name: "toy",
            send_fixed: VirtualDuration::from_micros(2),
            send_per_byte_ns: 1.0,
            wire_latency: VirtualDuration::from_micros(5),
            wire_per_byte_ns: 8.0,
            recv_fixed: VirtualDuration::from_micros(1),
            recv_per_byte_ns: 1.0,
            poll_cost: VirtualDuration::from_micros(1),
            extra_segment: VirtualDuration::from_micros(4),
            eager_copy_per_byte_ns: 10.0,
            internal_switch: Some((1024, VirtualDuration::from_micros(12))),
            jitter: None,
        }
    }

    #[test]
    fn sender_occupancy_charges_segments() {
        let m = toy();
        assert_eq!(m.sender_occupancy(0, 1), VirtualDuration::from_micros(2));
        assert_eq!(m.sender_occupancy(0, 2), VirtualDuration::from_micros(6));
        assert_eq!(m.sender_occupancy(0, 3), VirtualDuration::from_micros(10));
        assert_eq!(
            m.sender_occupancy(100, 1),
            VirtualDuration::from_nanos(2_100)
        );
    }

    #[test]
    fn internal_switch_fires_above_threshold_only() {
        let m = toy();
        let below = m.sender_occupancy(1024, 1);
        let above = m.sender_occupancy(1025, 1);
        assert_eq!(
            above.as_nanos() - below.as_nanos(),
            12_000 + 1 // 12us switch penalty + 1ns for the extra byte
        );
    }

    #[test]
    fn wire_delay_scales_linearly() {
        let m = toy();
        assert_eq!(m.wire_delay(0), VirtualDuration::from_micros(5));
        assert_eq!(m.wire_delay(1000), VirtualDuration::from_micros(13));
    }

    #[test]
    fn oneway_latency_is_sum_of_parts() {
        let m = toy();
        // 2 + 5 + 1 + 1 = 9us fixed.
        assert_eq!(m.oneway_latency(0), VirtualDuration::from_micros(9));
    }

    #[test]
    fn asymptotic_bandwidth_matches_per_byte_sum() {
        let m = toy();
        // 10 ns/B -> 100 MB/s (decimal) = 95.37 MB/s binary.
        let bw = m.asymptotic_bandwidth_mb_s();
        assert!((bw - 95.367).abs() < 0.01, "bw={bw}");
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let m = toy().with_jitter(5_000, 42);
        for seq in 0..64u64 {
            let a = m.jitter_delay(seq, 100);
            let b = m.jitter_delay(seq, 100);
            assert_eq!(a, b, "same inputs, same jitter");
            assert!(a.as_nanos() < 5_000);
        }
        // Different sequences produce different delays somewhere.
        let distinct: std::collections::HashSet<u64> =
            (0..64).map(|s| m.jitter_delay(s, 100).as_nanos()).collect();
        assert!(distinct.len() > 10, "jitter should vary: {distinct:?}");
        assert_eq!(toy().jitter_delay(3, 100), VirtualDuration::ZERO);
    }

    #[test]
    fn arrival_adds_wire_delay() {
        let m = toy();
        let t = m.arrival(VirtualTime(1_000), 1000);
        assert_eq!(t, VirtualTime(1_000 + 13_000));
    }
}
