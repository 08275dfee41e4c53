//! Cost model for kernel-level operations.
//!
//! The paper decomposes the `ch_mad` overhead over raw Madeleine into an
//! *extra packing operation* (network-dependent) and a *message handling*
//! part (§5.2–5.4: ≈7 µs on TCP, ≈8.5 µs on SCI, ≈6.5 µs on BIP). The
//! handling part is the price of going through the polling thread: a
//! semaphore release, a context switch back to the MPI control thread, and
//! queue bookkeeping. Those primitive costs live here so that the observed
//! handling overhead *emerges* from the implementation rather than being a
//! single fudge constant.
//!
//! Defaults are tuned for a late-90s dual Pentium-II 450 MHz running the
//! user-level Marcel threads the paper uses (thread operations are cheap —
//! no kernel crossing).

use crate::time::VirtualDuration;

/// Idle-channel handling in the factorized polling loop (§3.3).
///
/// Under `Seed`, every attached channel is polled on every loop
/// iteration forever — an idle TCP channel taxes every SCI detection by
/// the full `select` cost (the Figure 9 effect). Under `Parking`, a
/// channel whose poll has come up empty for [`PARK_AFTER`]
/// consecutive detections is *parked* out of the loop (its poll cost no
/// longer contributes to the cycle) and re-armed by the first `post`
/// aimed at it. `Seed` is the default and is bit-identical to the
/// pre-knob behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PollPolicy {
    /// Poll every attached channel on every cycle (paper-faithful).
    #[default]
    Seed,
    /// Park channels idle for [`PARK_AFTER`] cycles; re-arm on post.
    Parking,
}

/// Under [`PollPolicy::Parking`]: consecutive empty detections after
/// which an idle channel is parked out of the polling cycle.
pub const PARK_AFTER: u32 = 8;

/// Execution-policy label of a kernel. Nothing reads it: both values
/// run the same userland hand-off. The type survives only because the
/// host benchmark still sets it; `workers` sizes nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecPolicy {
    #[default]
    Seed,
    Ticketed {
        /// Inert: fibers leave no worker pool to size.
        workers: usize,
    },
}

/// Virtual cost of each kernel primitive, and the polling knobs that
/// shape detection delays. The last field moves no virtual time: it is
/// a write-only label.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Switching execution from one user-level thread to another
    /// (register save/restore + run-queue manipulation).
    pub ctx_switch: VirtualDuration,
    /// One semaphore P or V operation (uncontended part).
    pub sem_op: VirtualDuration,
    /// Extra latency for a cross-thread wake-up (the woken thread becomes
    /// runnable this long after the waker's V operation).
    pub wake: VirtualDuration,
    /// Creating a user-level thread (Marcel creation is advertised as very
    /// cheap; this also covers stack handoff).
    pub spawn: VirtualDuration,
    /// An explicit `yield` with no better thread to run.
    pub yield_op: VirtualDuration,
    /// Scale factor (percent) applied to every polling-cycle detection
    /// delay. 100 = the faithful model (a message is noticed one full
    /// polling cycle after arrival); 0 = oracle polling (ablation).
    pub poll_cycle_scale: u32,
    /// Idle-channel handling in the factorized polling loop.
    pub poll_policy: PollPolicy,
    /// Write-only label (see [`ExecPolicy`]).
    pub exec_policy: ExecPolicy,
}

impl CostModel {
    /// Calibrated defaults (see module docs).
    pub fn calibrated() -> Self {
        CostModel {
            ctx_switch: VirtualDuration::from_nanos(600),
            sem_op: VirtualDuration::from_nanos(250),
            wake: VirtualDuration::from_nanos(900),
            spawn: VirtualDuration::from_micros(2),
            yield_op: VirtualDuration::from_nanos(200),
            poll_cycle_scale: 100,
            poll_policy: PollPolicy::Seed,
            exec_policy: ExecPolicy::Seed,
        }
    }

    /// A zero-cost model: every kernel primitive is free. Useful for unit
    /// tests that want to assert exact virtual times without accounting
    /// for scheduling overheads.
    pub fn free() -> Self {
        CostModel {
            ctx_switch: VirtualDuration::ZERO,
            sem_op: VirtualDuration::ZERO,
            wake: VirtualDuration::ZERO,
            spawn: VirtualDuration::ZERO,
            yield_op: VirtualDuration::ZERO,
            ..CostModel::calibrated()
        }
    }

    /// Oracle-polling variant of `self` (ablation 1 in DESIGN.md):
    /// messages are noticed the instant they arrive.
    pub fn with_oracle_polling(mut self) -> Self {
        self.poll_cycle_scale = 0;
        self
    }

    /// Parking variant of `self`: idle channels leave the polling loop
    /// after [`PARK_AFTER`] empty detections (see [`PollPolicy`]).
    pub fn with_parking(mut self) -> Self {
        self.poll_policy = PollPolicy::Parking;
        self
    }

    /// `self` labelled [`ExecPolicy::Ticketed`] (inert).
    pub fn with_ticketed(mut self, workers: usize) -> Self {
        self.exec_policy = ExecPolicy::Ticketed { workers };
        self
    }

    /// Apply the polling scale to a raw cycle cost.
    pub(crate) fn scaled_cycle(&self, cycle: VirtualDuration) -> VirtualDuration {
        VirtualDuration::from_nanos(cycle.as_nanos() * self.poll_cycle_scale as u64 / 100)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_costs_are_positive() {
        let c = CostModel::calibrated();
        assert!(c.ctx_switch.as_nanos() > 0);
        assert!(c.sem_op.as_nanos() > 0);
        assert!(c.wake.as_nanos() > 0);
        assert!(c.spawn.as_nanos() > 0);
        assert_eq!(c.poll_cycle_scale, 100);
    }

    #[test]
    fn free_model_is_zero() {
        let c = CostModel::free();
        assert!(c.ctx_switch.is_zero());
        assert!(c.sem_op.is_zero());
        assert!(c.wake.is_zero());
        assert!(c.spawn.is_zero());
    }

    #[test]
    fn oracle_polling_zeroes_cycles() {
        let c = CostModel::calibrated().with_oracle_polling();
        assert_eq!(
            c.scaled_cycle(VirtualDuration::from_micros(5)),
            VirtualDuration::ZERO
        );
    }

    #[test]
    fn scaled_cycle_applies_percentage() {
        let mut c = CostModel::calibrated();
        c.poll_cycle_scale = 50;
        assert_eq!(
            c.scaled_cycle(VirtualDuration::from_micros(10)),
            VirtualDuration::from_micros(5)
        );
    }
}
