//! Ticketed execution: the deterministic per-ticket seeds of the
//! kernel's scheduling step.
//!
//! Every scheduling decision (see `kernel.rs`) picks the next thread
//! from the ready set, stamps it with a monotonically increasing
//! *ticket* and a seed derived from `(exec_seed, ticket, thread id)`,
//! and commits it in that same step — strict ticket order by
//! construction. The simulated threads themselves — fibers on one OS
//! thread — run user code between kernel operations; a commit ends with
//! a userland switch to the committed fiber.
//!
//! The seed derivation mirrors `simnet::rng`'s message-identity scheme
//! (`splitmix64` over inputs spread by the SplitMix64 golden gamma) so
//! that everything pseudo-random in the stack flows from one contract.
//! `simnet::rng::ticket_seed` delegates here — `simnet` depends on
//! `marcel`, not the other way around — and pins the exact values in
//! its unit tests.

/// SplitMix64 increment (same constant as `simnet::rng::GOLDEN_GAMMA`);
/// spreads tickets before seeding so consecutive tickets land far apart.
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 (Steele, Lea, Flood): identical, platform-stable output
/// to `simnet::rng::splitmix64` — pure integer arithmetic on `u64`.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deterministic seed the kernel assigns to scheduling ticket
/// `ticket` committed to thread `thread_id`:
///
/// ```text
/// seed = splitmix64(exec_seed ^ ticket * GOLDEN_GAMMA ^ thread_id)
/// ```
///
/// A pure function of its inputs — no call-order or host dependence —
/// so a replay that issues the same tickets to the same threads sees
/// the same seeds. Consumers needing an unbiased bounded value should
/// reduce it with `simnet::rng::bounded` (Lemire multiply-shift), never
/// with `%`.
pub fn ticket_seed(exec_seed: u64, ticket: u64, thread_id: u64) -> u64 {
    splitmix64(exec_seed ^ ticket.wrapping_mul(GOLDEN_GAMMA) ^ thread_id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticket_seed_is_pinned() {
        // Golden values: any change to the derivation is a
        // replay-compatibility break and must be deliberate.
        assert_eq!(ticket_seed(0, 0, 0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(ticket_seed(0, 1, 0), ticket_seed(0, 1, 0));
        assert_ne!(ticket_seed(0, 0, 0), ticket_seed(0, 1, 0));
        assert_ne!(ticket_seed(0, 0, 0), ticket_seed(0, 0, 1));
        assert_ne!(ticket_seed(0, 0, 0), ticket_seed(1, 0, 0));
    }

    #[test]
    fn consecutive_tickets_decorrelate() {
        // Low-entropy consecutive inputs must spread across the word:
        // no two of the first 256 tickets may collide, and the high bit
        // must be set for roughly half of them (a cheap whiteness check
        // that would catch e.g. an accidental modulo reduction).
        let seeds: Vec<u64> = (0..256).map(|t| ticket_seed(42, t, 3)).collect();
        let distinct: std::collections::HashSet<&u64> = seeds.iter().collect();
        assert_eq!(distinct.len(), seeds.len());
        let high = seeds.iter().filter(|s| *s >> 63 == 1).count();
        assert!((64..192).contains(&high), "high-bit count {high}");
    }
}
