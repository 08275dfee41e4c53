//! Deterministic fault injection: the [`FaultPlan`] attached to a
//! [`crate::Network`].
//!
//! The paper assumes perfectly reliable networks; this module is the
//! reproduction's robustness extension. A plan is pure data — seeded
//! per-message loss, latency-degradation windows, and hard link-down
//! intervals `[from, until)` in virtual time — and is queried by the
//! transport layer (madeleine's reliable channel sublayer) for every
//! transmission *attempt*:
//!
//! ```text
//! fate(seq, bytes, now) -> Deliver | Drop | Defer(t)
//! ```
//!
//! Determinism contract: the loss decision depends only on
//! `(seed, seq, bytes)` through [`crate::rng::message_hash`] (see the
//! `rng` module for the seeding scheme shared with
//! [`crate::LinkModel::jitter_delay`]); the window decisions depend only
//! on `now`. No state is kept, so a plan can be queried concurrently and
//! replayed bit-identically.

use crate::rng;
use marcel::{VirtualDuration, VirtualTime};

/// Stream constant decorrelating the loss hash from the jitter hash
/// (which uses the raw network seed).
const LOSS_STREAM: u64 = 0x4C4F_5353_0000_0001; // "LOSS"
/// Stream constant for the deliberate-duplicate ("ack lost") decision.
const ACK_STREAM: u64 = 0x4143_4B00_0000_0001; // "ACK"

/// What happens to one transmission attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fate {
    /// The attempt reaches the receiver (possibly with degraded delay).
    Deliver,
    /// The attempt vanishes on the wire; the sender must retransmit.
    Drop,
    /// The link is down but will come back: the sender should wait
    /// until the given virtual time and retry (the attempt does not
    /// occupy the wire).
    Defer(VirtualTime),
}

/// A seeded, fully deterministic fault plan for one network.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Seed for the per-message hash streams.
    pub seed: u64,
    /// Probability in `[0, 1]` that any given transmission attempt is
    /// dropped (outside down windows, which override it).
    pub loss: f64,
    /// Probability that a *delivered* attempt's acknowledgement is
    /// lost, forcing the sender to retransmit an already-delivered
    /// message — this is what exercises receiver-side deduplication.
    pub ack_loss: f64,
    /// Hard link-down intervals `[from, until)`. An `until` of
    /// `VirtualTime::MAX` means the link never comes back: attempts
    /// inside such a window are dropped outright (no point deferring).
    pub down: Vec<(VirtualTime, VirtualTime)>,
    /// Latency-degradation windows `(from, until, extra_delay)`:
    /// attempts delivered while `from <= now < until` arrive
    /// `extra_delay` later than the clean model predicts.
    pub degraded: Vec<(VirtualTime, VirtualTime, VirtualDuration)>,
}

impl FaultPlan {
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Set the per-attempt loss probability (clamped to `[0, 1]`).
    pub fn with_loss(mut self, loss: f64) -> Self {
        self.loss = loss.clamp(0.0, 1.0);
        self
    }

    /// Set the ack-loss (forced-duplicate) probability.
    pub fn with_ack_loss(mut self, ack_loss: f64) -> Self {
        self.ack_loss = ack_loss.clamp(0.0, 1.0);
        self
    }

    /// Add a finite link-down window `[from, until)`.
    pub fn with_down(mut self, from: VirtualTime, until: VirtualTime) -> Self {
        assert!(from < until, "empty down window");
        self.down.push((from, until));
        self
    }

    /// Take the link down at `from` and never bring it back.
    pub fn link_down_from(self, from: VirtualTime) -> Self {
        self.with_down(from, VirtualTime(u64::MAX))
    }

    /// Add a latency-degradation window.
    pub fn with_degraded(
        mut self,
        from: VirtualTime,
        until: VirtualTime,
        extra: VirtualDuration,
    ) -> Self {
        assert!(from < until, "empty degradation window");
        self.degraded.push((from, until, extra));
        self
    }

    /// The fate of transmission attempt `seq` of `bytes` at virtual
    /// time `now`. See the module docs for the determinism contract.
    pub fn fate(&self, seq: u64, bytes: usize, now: VirtualTime) -> Fate {
        // Down windows override the loss process entirely.
        for &(from, until) in &self.down {
            if now >= from && now < until {
                return if until.0 == u64::MAX {
                    Fate::Drop
                } else {
                    Fate::Defer(until)
                };
            }
        }
        if self.loss > 0.0 {
            let h = rng::message_hash(self.seed ^ LOSS_STREAM, seq, bytes);
            if rng::unit_f64(h) < self.loss {
                return Fate::Drop;
            }
        }
        Fate::Deliver
    }

    /// Extra arrival delay from degradation windows active at `now`
    /// (summed if windows overlap).
    pub fn extra_delay(&self, now: VirtualTime) -> VirtualDuration {
        let mut total = VirtualDuration::ZERO;
        for &(from, until, extra) in &self.degraded {
            if now >= from && now < until {
                total += extra;
            }
        }
        total
    }

    /// Whether the acknowledgement of delivered attempt `seq` is lost,
    /// forcing the sender to retransmit a duplicate.
    pub fn ack_lost(&self, seq: u64, bytes: usize) -> bool {
        self.ack_loss > 0.0
            && rng::unit_f64(rng::message_hash(self.seed ^ ACK_STREAM, seq, bytes)) < self.ack_loss
    }

    /// True when the plan can never permanently kill the link: loss
    /// strictly below 1 and every down window finite. Transfers under
    /// such a plan always complete (given enough retries).
    pub fn is_survivable(&self) -> bool {
        self.loss < 1.0 && self.down.iter().all(|&(_, until)| until.0 != u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_delivers_everything() {
        let p = FaultPlan::new(7);
        for seq in 0..100 {
            assert_eq!(p.fate(seq, 64, VirtualTime(seq * 1000)), Fate::Deliver);
        }
        assert_eq!(p.extra_delay(VirtualTime(5)), VirtualDuration::ZERO);
        assert!(!p.ack_lost(3, 64));
        assert!(p.is_survivable());
    }

    #[test]
    fn loss_is_deterministic_and_roughly_calibrated() {
        let p = FaultPlan::new(42).with_loss(0.3);
        let dropped = (0..10_000)
            .filter(|&s| p.fate(s, 128, VirtualTime(0)) == Fate::Drop)
            .count();
        // Deterministic: exact same count every run.
        let again = (0..10_000)
            .filter(|&s| p.fate(s, 128, VirtualTime(0)) == Fate::Drop)
            .count();
        assert_eq!(dropped, again);
        // Statistically: within a few percent of 30%.
        assert!((2_700..=3_300).contains(&dropped), "dropped={dropped}");
    }

    #[test]
    fn loss_stream_is_independent_of_jitter_stream() {
        // Same (seed, seq, bytes): the jitter hash and the loss hash
        // must differ, otherwise lossy links would correlate loss with
        // large jitter.
        let p = FaultPlan::new(9).with_loss(0.5);
        let jitter_h = rng::message_hash(9, 3, 64);
        let loss_h = rng::message_hash(9 ^ LOSS_STREAM, 3, 64);
        assert_ne!(jitter_h, loss_h);
        let _ = p; // plan participates via fate(); streams asserted above
    }

    #[test]
    fn finite_down_window_defers_then_recovers() {
        let p = FaultPlan::new(1).with_down(VirtualTime(1_000), VirtualTime(2_000));
        assert_eq!(p.fate(0, 64, VirtualTime(999)), Fate::Deliver);
        assert_eq!(
            p.fate(0, 64, VirtualTime(1_000)),
            Fate::Defer(VirtualTime(2_000))
        );
        assert_eq!(
            p.fate(0, 64, VirtualTime(1_999)),
            Fate::Defer(VirtualTime(2_000))
        );
        assert_eq!(p.fate(0, 64, VirtualTime(2_000)), Fate::Deliver);
        assert!(p.is_survivable());
    }

    #[test]
    fn permanent_down_window_drops() {
        let p = FaultPlan::new(1).link_down_from(VirtualTime(500));
        assert_eq!(p.fate(9, 64, VirtualTime(499)), Fate::Deliver);
        assert_eq!(p.fate(9, 64, VirtualTime(500)), Fate::Drop);
        assert_eq!(p.fate(9, 64, VirtualTime(u64::MAX - 1)), Fate::Drop);
        assert!(!p.is_survivable());
    }

    #[test]
    fn degradation_windows_sum() {
        let p = FaultPlan::new(1)
            .with_degraded(
                VirtualTime(0),
                VirtualTime(100),
                VirtualDuration::from_nanos(10),
            )
            .with_degraded(
                VirtualTime(50),
                VirtualTime(150),
                VirtualDuration::from_nanos(5),
            );
        assert_eq!(
            p.extra_delay(VirtualTime(10)),
            VirtualDuration::from_nanos(10)
        );
        assert_eq!(
            p.extra_delay(VirtualTime(60)),
            VirtualDuration::from_nanos(15)
        );
        assert_eq!(
            p.extra_delay(VirtualTime(120)),
            VirtualDuration::from_nanos(5)
        );
        assert_eq!(p.extra_delay(VirtualTime(150)), VirtualDuration::ZERO);
    }

    #[test]
    fn ack_loss_forces_duplicates_deterministically() {
        let p = FaultPlan::new(11).with_ack_loss(0.5);
        let lost: Vec<bool> = (0..32).map(|s| p.ack_lost(s, 256)).collect();
        let again: Vec<bool> = (0..32).map(|s| p.ack_lost(s, 256)).collect();
        assert_eq!(lost, again);
        assert!(lost.iter().any(|&b| b) && lost.iter().any(|&b| !b));
    }
}
