//! The deterministic RNG contract shared by jitter and fault injection.
//!
//! Everything pseudo-random in the simulation is derived from **message
//! identity**, never from call order or host entropy: a per-network
//! `seed`, the per-connection wire sequence number `seq` (each
//! transmission attempt, including retransmissions, gets a fresh one),
//! and the message size in bytes. The three are folded into a single
//! 64-bit hash:
//!
//! ```text
//! h = splitmix64(seed ^ seq * GOLDEN_GAMMA ^ bytes)
//! ```
//!
//! with `GOLDEN_GAMMA = 0x9E37_79B9_7F4A_7C15` (the SplitMix64
//! increment). Distinct consumers that must not correlate (jitter
//! amplitude vs. loss decision vs. ack loss) XOR a fixed *stream
//! constant* into the seed before hashing, which gives each consumer an
//! independent splitmix stream over the same message identities.
//!
//! Because the hash depends only on `(seed, seq, bytes)`, any run with
//! the same topology and program replays the exact same jitter, losses
//! and degradations — the seed-invariance tests in `tests/faults.rs`
//! assert this end to end.

/// SplitMix64 increment; also used to spread sequence numbers before
/// seeding so that consecutive `seq` values land far apart.
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64: a tiny, high-quality deterministic mixer (Steele,
/// Lea, Flood — "Fast splittable pseudorandom number generators").
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(GOLDEN_GAMMA);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The canonical per-message hash (see module docs). Both
/// [`crate::LinkModel::jitter_delay`] and [`crate::FaultPlan`] go
/// through this function so the contract lives in exactly one place.
pub fn message_hash(seed: u64, seq: u64, bytes: usize) -> u64 {
    splitmix64(seed ^ seq.wrapping_mul(GOLDEN_GAMMA) ^ bytes as u64)
}

/// Map a hash to `[0, bound)` without modulo bias: widen to 128 bits,
/// multiply, keep the high word (Lemire's multiply-shift reduction).
/// `bound = 0` maps everything to 0.
pub fn bounded(h: u64, bound: u64) -> u64 {
    ((h as u128 * bound as u128) >> 64) as u64
}

/// Map a hash to a uniform `f64` in `[0, 1)` (53 significant bits).
pub fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_mixing() {
        assert_eq!(splitmix64(0), splitmix64(0));
        // Low-entropy inputs must spread across the full word.
        let outs: std::collections::HashSet<u64> = (0..64).map(splitmix64).collect();
        assert_eq!(outs.len(), 64);
    }

    #[test]
    fn bounded_is_unbiased_in_range() {
        for h in [0, 1, u64::MAX / 2, u64::MAX] {
            assert!(bounded(h, 5_000) < 5_000);
        }
        assert_eq!(bounded(u64::MAX, 0), 0);
        // The multiply-shift maps the top of the hash range to the top
        // of the bound range.
        assert_eq!(bounded(u64::MAX, 100), 99);
        assert_eq!(bounded(0, 100), 0);
    }

    #[test]
    fn unit_f64_spans_the_interval() {
        assert_eq!(unit_f64(0), 0.0);
        assert!(unit_f64(u64::MAX) < 1.0);
        assert!(unit_f64(u64::MAX) > 0.9999);
        let mid = unit_f64(splitmix64(12345));
        assert!((0.0..1.0).contains(&mid));
    }

    #[test]
    fn message_hash_separates_streams() {
        const STREAM_A: u64 = 0x5157_4A2B_9D3E_0001;
        let base = message_hash(42, 7, 100);
        let other = message_hash(42 ^ STREAM_A, 7, 100);
        assert_ne!(base, other, "stream constants must decorrelate");
    }
}
