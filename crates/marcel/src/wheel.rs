//! Hierarchical timer wheel over scheduling keys.
//!
//! The scheduler's contract is "run the thread with the smallest
//! `SchedKey { at, tid }`". Recomputing that minimum with a linear scan
//! over every thread slot costs O(threads) per decision, which
//! dominates once worlds reach thousands of ranks (each with a main
//! thread and per-channel polling threads). This module indexes the
//! schedulable set in a hierarchical timer wheel with an **exact-min**
//! `peek`, so a decision costs O(levels) instead of O(threads) while
//! returning bit-for-bit the same key the scan would.
//!
//! # Structure
//!
//! Keys are `at` values (u64 nanoseconds) partitioned into 6-bit digit
//! groups: level `l` covers bits `[6l, 6l+6)`, 11 levels cover all 64
//! bits. The wheel tracks a monotone `cursor` — the `at` of the last
//! committed scheduling decision — and files each key by the *highest*
//! digit group in which it differs from the cursor:
//!
//! * level = highest `l` with `digit_l(at) != digit_l(cursor)` (0 if
//!   equal), i.e. how far in the future the key is;
//! * slot = `digit_l(at)` within that level.
//!
//! Every indexed key is `>= cursor` (threads become due at or after the
//! decision that made them due — virtual time never runs backwards), so
//! for a key at level `l > 0`: `digit_l(at) > digit_l(cursor)` and all
//! higher digits agree with the cursor. That yields the cross-level
//! order the exact-min peek relies on: **every key at a lower level
//! sorts before every key at a higher level**, because at the higher
//! key's level `l` the lower key carries the cursor's (smaller) digit.
//! Within one level, slots ascend by digit; within one slot keys share
//! all digits `>= l` and are ordered exactly by their full `(at, tid)`
//! pair, which each [`Slot`] maintains sorted. `peek` is therefore
//! "first element of the first occupied slot of the lowest occupied
//! level" — found with three bit-scans and one array read.
//!
//! # Cursor advance
//!
//! When a decision commits at time `t`, the cursor moves to `t`. If the
//! advance changes digit `l` of the cursor for some `l > 0`, keys filed
//! at level `l` whose slot equals the cursor's *new* digit now agree
//! with the cursor at `l` and above — they belong at a lower level, and
//! leaving them put would break the cross-level order. Exactly one slot
//! per advance can be affected (levels below the highest changed digit
//! must be empty: any key there would be `< t`, contradicting that `t`
//! was the minimum), so the advance drains that single slot and refiles
//! its keys. Each key is refiled at most once per level per advance
//! epoch, giving the classic amortized O(1) cascade.

/// Bits per digit group.
const BITS: usize = 6;
/// Slots per level.
const SLOTS: usize = 1 << BITS;
/// Levels needed to cover a u64 at 6 bits per level.
const LEVELS: usize = 64usize.div_ceil(BITS);
const DIGIT_MASK: u64 = (SLOTS - 1) as u64;

/// One wheel bucket: keys kept sorted ascending in a Vec, with a
/// consumed-prefix offset (`head`) marking keys already removed from
/// the front. Two properties matter for the kernel's hot path:
///
/// * **Front removal is O(1).** The dominant workload is the startup
///   pile-up — every thread files into one slot at time zero and is
///   committed in key order, i.e. removed from the front. A plain
///   sorted Vec would memmove the whole tail per removal (O(n²) total
///   over bootstrap); bumping `head` instead makes the drain linear.
/// * **Capacity is retained across empties**, so steady-state wheel
///   maintenance allocates nothing. A `BTreeSet` here allocates and
///   frees a tree node every time a slot flips empty ↔ non-empty,
///   which measured as ~8% of all hot-path allocations.
///
/// The dead prefix is compacted once it exceeds both a fixed floor and
/// the live region, keeping memory proportional to peak occupancy.
#[derive(Default)]
struct Slot {
    keys: Vec<(u64, usize)>,
    head: usize,
}

impl Slot {
    #[inline]
    fn live(&self) -> &[(u64, usize)] {
        &self.keys[self.head..]
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.head == self.keys.len()
    }

    #[inline]
    fn first(&self) -> Option<(u64, usize)> {
        self.keys.get(self.head).copied()
    }

    fn insert(&mut self, key: (u64, usize)) {
        if self.is_empty() {
            // Logically empty: recycle the dead prefix for free.
            self.keys.clear();
            self.head = 0;
        }
        match self.live().binary_search(&key) {
            // Each tid is filed at most once (upsert removes the old
            // filing first), so a duplicate key cannot occur.
            Ok(_) => debug_assert!(false, "duplicate wheel key {key:?}"),
            Err(i) => self.keys.insert(self.head + i, key),
        }
    }

    fn remove(&mut self, key: &(u64, usize)) {
        if let Ok(i) = self.live().binary_search(key) {
            if i == 0 {
                self.head += 1;
                // Compact once the dead prefix dominates; amortized
                // O(1) — each drained element was a front removal.
                if self.head > 64 && self.head * 2 >= self.keys.len() {
                    self.keys.drain(..self.head);
                    self.head = 0;
                }
            } else {
                self.keys.remove(self.head + i);
            }
        }
    }
}

/// The wheel. Owned by the scheduler (`Sched`) and maintained under the
/// scheduler lock alongside every `TState` transition, so it always
/// mirrors the schedulable set: exactly the threads that are `Ready`
/// (at their clock), `Sleeping` (at their wake time), or
/// `BlockedSemTimeout` (at their deadline).
pub(crate) struct TimerWheel {
    /// `at` of the last committed scheduling decision. Monotone; every
    /// indexed key is `>= cursor`.
    cursor: u64,
    /// `LEVELS * SLOTS` buckets, level-major.
    slots: Vec<Slot>,
    /// Bitmask of occupied slots per level.
    occupied: [u64; LEVELS],
    /// Bitmask of levels with at least one occupied slot.
    levels: u16,
    /// Per-tid location of the thread's indexed key, if any: (level,
    /// slot, at). O(1) removal without recomputing the filing.
    pos: Vec<Option<(u8, u8, u64)>>,
}

impl TimerWheel {
    pub(crate) fn new() -> Self {
        TimerWheel {
            cursor: 0,
            slots: (0..LEVELS * SLOTS).map(|_| Slot::default()).collect(),
            occupied: [0; LEVELS],
            levels: 0,
            pos: Vec::new(),
        }
    }

    /// Level and slot a key files under relative to the current cursor.
    #[inline]
    fn file(&self, at: u64) -> (usize, usize) {
        let diff = at ^ self.cursor;
        if diff == 0 {
            (0, (at & DIGIT_MASK) as usize)
        } else {
            let level = (63 - diff.leading_zeros() as usize) / BITS;
            let slot = ((at >> (level * BITS)) & DIGIT_MASK) as usize;
            (level, slot)
        }
    }

    #[inline]
    fn put(&mut self, tid: usize, at: u64) {
        let (level, slot) = self.file(at);
        self.slots[level * SLOTS + slot].insert((at, tid));
        self.occupied[level] |= 1 << slot;
        self.levels |= 1 << level;
        self.pos[tid] = Some((level as u8, slot as u8, at));
    }

    #[inline]
    fn take(&mut self, tid: usize, level: usize, slot: usize, at: u64) {
        let set = &mut self.slots[level * SLOTS + slot];
        set.remove(&(at, tid));
        if set.is_empty() {
            self.occupied[level] &= !(1 << slot);
            if self.occupied[level] == 0 {
                self.levels &= !(1 << level);
            }
        }
    }

    /// Index (or re-index) thread `tid` as due at `at`. Upsert: any
    /// previous filing is removed first, so callers never need to know
    /// whether the thread was already schedulable (e.g. a semaphore
    /// release re-keys a timed waiter from its deadline to its wake).
    pub(crate) fn upsert(&mut self, tid: usize, at: u64) {
        debug_assert!(
            at >= self.cursor,
            "wheel insert below cursor: at={at} cursor={}",
            self.cursor
        );
        if tid >= self.pos.len() {
            self.pos.resize(tid + 1, None);
        }
        if let Some((l, s, old)) = self.pos[tid] {
            if old == at {
                return;
            }
            self.take(tid, l as usize, s as usize, old);
        }
        self.put(tid, at);
    }

    /// Remove thread `tid` from the index (it stopped being
    /// schedulable: committed to run, or exited). No-op if absent.
    pub(crate) fn remove(&mut self, tid: usize) {
        if let Some(Some((l, s, at))) = self.pos.get(tid).copied() {
            self.take(tid, l as usize, s as usize, at);
            self.pos[tid] = None;
        }
    }

    /// The exact minimum `(at, tid)` over all indexed keys, or `None`
    /// when the schedulable set is empty. Read-only — no cascading.
    pub(crate) fn peek(&self) -> Option<(u64, usize)> {
        if self.levels == 0 {
            return None;
        }
        let level = self.levels.trailing_zeros() as usize;
        let slot = self.occupied[level].trailing_zeros() as usize;
        self.slots[level * SLOTS + slot].first()
    }

    /// Move the cursor to `at` (the key of the decision that just
    /// committed) and refile the one slot whose keys the advance may
    /// have re-leveled (see module docs). Called after the committed
    /// thread is removed, so every remaining key is `>= at`.
    pub(crate) fn advance_to(&mut self, at: u64) {
        if at <= self.cursor {
            return;
        }
        let diff = self.cursor ^ at;
        self.cursor = at;
        let top = (63 - diff.leading_zeros() as usize) / BITS;
        if top == 0 {
            return;
        }
        let slot = ((at >> (top * BITS)) & DIGIT_MASK) as usize;
        if self.occupied[top] & (1 << slot) == 0 {
            return;
        }
        let idx = top * SLOTS + slot;
        let mut drained = std::mem::take(&mut self.slots[idx].keys);
        let head = std::mem::replace(&mut self.slots[idx].head, 0);
        self.occupied[top] &= !(1 << slot);
        if self.occupied[top] == 0 {
            self.levels &= !(1 << top);
        }
        for &(a, tid) in &drained[head..] {
            debug_assert!(a >= at, "stale key below advanced cursor");
            self.put(tid, a);
        }
        // Refiled keys now agree with the cursor at digit `top` and
        // above, so they land strictly below level `top` — the drained
        // bucket is still empty and can take its capacity back.
        debug_assert!(self.slots[idx].is_empty());
        drained.clear();
        self.slots[idx].keys = drained;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference: linear scan over a shadow map.
    struct Shadow {
        due: Vec<Option<u64>>,
    }

    impl Shadow {
        fn min(&self) -> Option<(u64, usize)> {
            self.due
                .iter()
                .enumerate()
                .filter_map(|(tid, d)| d.map(|at| (at, tid)))
                .min()
        }
    }

    #[test]
    fn empty_wheel_peeks_none() {
        let w = TimerWheel::new();
        assert_eq!(w.peek(), None);
    }

    #[test]
    fn min_of_small_set_with_tie_break() {
        let mut w = TimerWheel::new();
        w.upsert(3, 100);
        w.upsert(1, 100);
        w.upsert(2, 50);
        assert_eq!(w.peek(), Some((50, 2)));
        w.remove(2);
        // Tie on at=100 resolves by tid.
        assert_eq!(w.peek(), Some((100, 1)));
    }

    #[test]
    fn upsert_rekeys() {
        let mut w = TimerWheel::new();
        w.upsert(0, 1_000_000);
        w.upsert(1, 2_000_000);
        assert_eq!(w.peek(), Some((1_000_000, 0)));
        // Timed waiter released early: re-key below the other thread.
        w.upsert(1, 500_000);
        assert_eq!(w.peek(), Some((500_000, 1)));
    }

    #[test]
    fn advance_refiles_across_level_boundary() {
        let mut w = TimerWheel::new();
        // cursor 0: both keys file at a high level.
        w.upsert(0, 0x40_0000);
        w.upsert(1, 0x40_0001);
        assert_eq!(w.peek(), Some((0x40_0000, 0)));
        w.remove(0);
        w.advance_to(0x40_0000);
        // After the advance the survivor must refile to a low level and
        // still be found.
        assert_eq!(w.peek(), Some((0x40_0001, 1)));
    }

    #[test]
    fn matches_linear_scan_on_random_workload() {
        // Deterministic LCG; simulates the kernel's usage pattern:
        // insert-at-or-after-cursor, remove-min, advance.
        let mut state = 0x243F6A8885A308D3u64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 16
        };
        let n = 200;
        let mut w = TimerWheel::new();
        let mut shadow = Shadow { due: vec![None; n] };
        // Everyone starts at zero (the kernel's startup shape).
        for tid in 0..n {
            w.upsert(tid, 0);
            shadow.due[tid] = Some(0);
        }
        let mut cursor = 0u64;
        for _ in 0..5_000 {
            assert_eq!(w.peek(), shadow.min());
            match rng() % 4 {
                // Commit the min: remove it and advance.
                0 | 1 => {
                    if let Some((at, tid)) = shadow.min() {
                        w.remove(tid);
                        shadow.due[tid] = None;
                        w.advance_to(at);
                        cursor = cursor.max(at);
                        // The committed thread usually comes back later.
                        let back = cursor + (rng() % (1 << (rng() % 30)));
                        w.upsert(tid, back);
                        shadow.due[tid] = Some(back);
                    }
                }
                // Wake / re-key a random thread at or after the cursor.
                2 => {
                    let tid = (rng() as usize) % n;
                    let at = cursor + (rng() % (1 << (rng() % 34)));
                    w.upsert(tid, at);
                    shadow.due[tid] = Some(at);
                }
                // Block a random thread (leave the schedulable set).
                _ => {
                    let tid = (rng() as usize) % n;
                    w.remove(tid);
                    shadow.due[tid] = None;
                }
            }
        }
        assert_eq!(w.peek(), shadow.min());
    }

    #[test]
    fn huge_jumps_and_top_levels() {
        let mut w = TimerWheel::new();
        w.upsert(0, u64::MAX);
        w.upsert(1, u64::MAX - 1);
        w.upsert(2, 0);
        assert_eq!(w.peek(), Some((0, 2)));
        w.remove(2);
        w.advance_to(u64::MAX - 1);
        assert_eq!(w.peek(), Some((u64::MAX - 1, 1)));
        w.remove(1);
        w.advance_to(u64::MAX);
        assert_eq!(w.peek(), Some((u64::MAX, 0)));
    }
}
