//! The Abstract Device Interface: the costs and protocol policy shared
//! by the generic MPI layer and the devices, and the locality that
//! picks a device per destination.
//!
//! Following the paper (§4.1), a configuration runs three devices
//! concurrently:
//!
//! * `ch_self` — intra-process (loop-back) communication;
//! * `smp_plug` — intra-node communication (SMP nodes);
//! * one inter-node device — `ch_mad` (the contribution) or `ch_p4`
//!   (the classical TCP device, used as the Figure 6 baseline).
//!
//! Device selection is purely locality-driven, as in every MPICH of the
//! time: the paper's point is that the *inter-node* device itself is
//! multi-protocol, so selection never needs to distinguish networks.
//! The dispatch is one `match` on [`Locality`] in the world table's
//! send (`world.rs`): `ch_self` and `smp_plug` are one delivery function
//! charged with their own costs (`device/local.rs`), and the inter-node
//! device is an enum variant, not a trait object.

use marcel::VirtualDuration;
use simnet::{elect_switch_point, Protocol};

/// ADI-level software costs, charged on top of the communication-library
/// costs. These produce the paper's "message handling" overhead
/// component (≈7 µs, §5.2–5.4).
#[derive(Clone, Debug)]
pub struct AdiCosts {
    /// Sender-side request construction and device dispatch.
    pub send_setup: VirtualDuration,
    /// Packet-type demultiplexing in a polling thread.
    pub demux: VirtualDuration,
    /// Posting a receive (queue search and insertion).
    pub post_recv: VirtualDuration,
    /// Completing a request (status fill-in, handle recycling).
    pub complete: VirtualDuration,
    /// Per-byte cost of the polling thread's handling of received
    /// payloads (descriptor-chain walking, cache pollution). This is
    /// the per-byte component of the paper's "message handling"
    /// overhead — the reason ch_mad delivers 115 MB/s over BIP where
    /// raw Madeleine reaches 122 (Table 2 vs Table 1).
    pub recv_touch_per_byte_ns: f64,
}

impl AdiCosts {
    pub fn calibrated() -> Self {
        AdiCosts {
            send_setup: VirtualDuration::from_nanos(1_300),
            demux: VirtualDuration::from_nanos(800),
            post_recv: VirtualDuration::from_nanos(900),
            complete: VirtualDuration::from_nanos(400),
            recv_touch_per_byte_ns: 0.45,
        }
    }

    /// All-zero costs for unit tests that assert exact times.
    pub fn free() -> Self {
        AdiCosts {
            send_setup: VirtualDuration::ZERO,
            demux: VirtualDuration::ZERO,
            post_recv: VirtualDuration::ZERO,
            complete: VirtualDuration::ZERO,
            recv_touch_per_byte_ns: 0.0,
        }
    }
}

impl Default for AdiCosts {
    fn default() -> Self {
        AdiCosts::calibrated()
    }
}

/// How a device maps message size to a transfer mode. The historical
/// ADI reserved exactly one integer per `MPID_Device` for the
/// eager→rendezvous switch point (§4.2.2), forcing multi-network
/// devices to *elect* a single compromise value. `ProtocolPolicy`
/// lifts that limitation: the threshold is resolved per (device, peer,
/// channel), with the election kept as a compatibility mode.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PolicyMode {
    /// The paper's single elected threshold for every network: SCI's
    /// 8 KB when SCI is present, else the fastest network's (§4.2.2).
    Elected,
    /// Each channel uses its own network's experimentally ideal
    /// threshold (TCP 64 KB, SCI 8 KB, BIP 7 KB).
    #[default]
    PerNetwork,
    /// Per-network thresholds, plus rendezvous DATA striped across all
    /// rails when several networks connect the same rank pair.
    Striped,
}

/// The resolved protocol policy of one device: mode, the elected
/// fallback value, and an optional flat override (ablations).
#[derive(Clone, Debug)]
pub struct ProtocolPolicy {
    mode: PolicyMode,
    override_threshold: Option<usize>,
    elected: usize,
}

impl ProtocolPolicy {
    /// Policy for a device supporting `protocols`. The elected value is
    /// precomputed so `Elected` mode never re-runs the election.
    pub fn new(
        mode: PolicyMode,
        protocols: &[Protocol],
        override_threshold: Option<usize>,
    ) -> ProtocolPolicy {
        ProtocolPolicy {
            mode,
            override_threshold,
            elected: elect_switch_point(protocols),
        }
    }

    /// Policy of devices whose transfers copy either way (loop-back,
    /// shared memory, buffered TCP): eager at every size.
    pub fn always_eager() -> ProtocolPolicy {
        ProtocolPolicy {
            mode: PolicyMode::PerNetwork,
            override_threshold: Some(usize::MAX),
            elected: usize::MAX,
        }
    }

    pub fn mode(&self) -> PolicyMode {
        self.mode
    }

    /// The single value the paper's election rule produces for this
    /// device (§4.2.2).
    pub fn elected_threshold(&self) -> usize {
        self.elected
    }

    /// The eager→rendezvous threshold for a message that will ride a
    /// channel of `protocol`. `None` (protocol unknown, e.g. no direct
    /// channel resolved yet) falls back to the elected value.
    pub fn threshold(&self, protocol: Option<Protocol>) -> usize {
        if let Some(t) = self.override_threshold {
            return t;
        }
        match self.mode {
            PolicyMode::Elected => self.elected,
            PolicyMode::PerNetwork | PolicyMode::Striped => {
                protocol.map(|p| p.switch_point()).unwrap_or(self.elected)
            }
        }
    }

    /// Whether rendezvous DATA should be striped across every rail
    /// connecting the pair.
    pub fn stripes(&self) -> bool {
        self.mode == PolicyMode::Striped
    }
}

/// Which device carries a message, given source and destination: the
/// one input of the ADI dispatch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Locality {
    /// `ch_self`: a rank sending to itself.
    IntraProcess,
    /// `smp_plug`: two ranks on one SMP node.
    IntraNode,
    /// The inter-node device, `ch_mad` or `ch_p4`.
    InterNode,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locality_dispatch() {
        use crate::world::{MpiWorld, Placement, WorldConfig};
        use marcel::{CostModel, Kernel};
        use simnet::{NodeId, Topology};

        // Ranks 0,1 on node 0; rank 2 on node 1.
        let kernel = Kernel::new(CostModel::free());
        let topology = Topology::single_network(2, Protocol::Tcp);
        let placement = Placement::Explicit(vec![NodeId(0), NodeId(0), NodeId(1)]);
        let (_, world) = MpiWorld::build(&kernel, topology, &placement, &WorldConfig::default());
        assert_eq!(world.locality(0, 0), Locality::IntraProcess);
        assert_eq!(world.locality(0, 1), Locality::IntraNode);
        assert_eq!(world.locality(1, 0), Locality::IntraNode);
        assert_eq!(world.locality(1, 2), Locality::InterNode);
    }

    #[test]
    fn calibrated_costs_total_single_digit_microseconds() {
        let c = AdiCosts::calibrated();
        let total = c.send_setup + c.demux + c.post_recv + c.complete;
        assert!(
            total.as_micros_f64() < 5.0,
            "ADI costs should stay small: {total}"
        );
        assert!(total.as_micros_f64() > 2.0);
    }

    #[test]
    fn elected_mode_picks_sci_when_present() {
        // §4.2.2: "the network with the most influent switch point
        // value is SCI" — its 8 KB wins over both BIP's and TCP's.
        use Protocol::*;
        for protocols in [vec![Tcp, Sisci, Bip], vec![Sisci, Bip], vec![Tcp, Sisci]] {
            let p = ProtocolPolicy::new(PolicyMode::Elected, &protocols, None);
            assert_eq!(p.elected_threshold(), 8 * 1024, "{protocols:?}");
            // In Elected mode every channel sees the same value.
            for proto in protocols {
                assert_eq!(p.threshold(Some(proto)), 8 * 1024);
            }
        }
    }

    #[test]
    fn elected_mode_falls_back_to_fastest_network() {
        // Without SCI, the most performant supported network's value is
        // elected: BIP's 7 KB over TCP's 64 KB.
        let p = ProtocolPolicy::new(PolicyMode::Elected, &[Protocol::Tcp, Protocol::Bip], None);
        assert_eq!(p.elected_threshold(), 7 * 1024);
        assert_eq!(p.threshold(Some(Protocol::Tcp)), 7 * 1024);
        let tcp_only = ProtocolPolicy::new(PolicyMode::Elected, &[Protocol::Tcp], None);
        assert_eq!(tcp_only.elected_threshold(), 64 * 1024);
    }

    #[test]
    fn per_network_mode_uses_each_networks_ideal_threshold() {
        for mode in [PolicyMode::PerNetwork, PolicyMode::Striped] {
            let p = ProtocolPolicy::new(mode, &Protocol::ALL, None);
            assert_eq!(p.threshold(Some(Protocol::Tcp)), 64 * 1024);
            assert_eq!(p.threshold(Some(Protocol::Sisci)), 8 * 1024);
            assert_eq!(p.threshold(Some(Protocol::Bip)), 7 * 1024);
            // Unknown channel: the elected compromise value.
            assert_eq!(p.threshold(None), 8 * 1024);
        }
        assert!(!ProtocolPolicy::new(PolicyMode::PerNetwork, &Protocol::ALL, None).stripes());
        assert!(ProtocolPolicy::new(PolicyMode::Striped, &Protocol::ALL, None).stripes());
    }

    #[test]
    fn override_beats_every_mode() {
        for mode in [
            PolicyMode::Elected,
            PolicyMode::PerNetwork,
            PolicyMode::Striped,
        ] {
            let p = ProtocolPolicy::new(mode, &Protocol::ALL, Some(1234));
            for proto in Protocol::ALL {
                assert_eq!(p.threshold(Some(proto)), 1234);
            }
            assert_eq!(p.threshold(None), 1234);
        }
    }

    #[test]
    fn always_eager_never_switches() {
        let p = ProtocolPolicy::always_eager();
        assert_eq!(p.threshold(None), usize::MAX);
        assert_eq!(p.threshold(Some(Protocol::Tcp)), usize::MAX);
        assert!(!p.stripes());
    }
}
