//! Hash-bucketed message-matching stores for the ADI progress engine.
//!
//! MPI matching semantics are FIFO *per matching pair*: among all
//! queued entries that match, the one queued earliest wins. The seed
//! implementation realized this with a linear scan over one `VecDeque`
//! — O(queue depth) per post/arrival/probe. These stores keep the
//! exact same match order (every entry carries a global FIFO sequence
//! number; a lookup returns the matching entry with the smallest
//! sequence) while making the common exact-match case O(1).
//!
//! Both stores file entries in FIFO buckets keyed by an exact
//! `(context, src, tag)`. Within one bucket sequences strictly
//! increase, so a bucket's front is its oldest entry, and a bucket is
//! removed the moment it empties.
//!
//! * [`PostedStore`]: posted receives, looked up by an arriving
//!   *envelope*. Fully-specified specs live in the buckets; specs with
//!   `ANY_SOURCE`/`ANY_TAG` wildcards live on a FIFO side-list that is
//!   scanned only when present (wildcards are the rare case on hot
//!   paths). A lookup compares the envelope's bucket front with the
//!   first matching wildcard and takes the smaller sequence.
//! * [`UnexpectedStore`]: unexpected arrivals, looked up by a receive
//!   *spec* (which may carry wildcards). Every arrival lives in its
//!   envelope's bucket and nowhere else. The entries of one bucket
//!   share their key, so the earliest arrival matching any spec is the
//!   front of some bucket: an exact spec reads one front, and a
//!   wildcard spec takes the smallest sequence among the fronts it
//!   matches — independent of hash order.
//!
//! A lookup returns a [`Handle`]: the entry's sequence and where it
//! sits. `take(handle)` removes the entry only while it is still there,
//! so a handle whose entry has gone is refused. The equivalence
//! proptest in `tests/matching_equivalence.rs` checks every lookup
//! against a reference linear scan across random interleavings.

use std::collections::{HashMap, VecDeque};

use crate::types::{Envelope, MatchSpec, Tag};

/// Exact-match bucket key: context, source, tag — all concrete.
type ExactKey = (u32, usize, Tag);

/// A matched entry of either store, as returned by its `find`. Handles
/// order by FIFO sequence, so the smaller of two is the earlier entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Handle {
    seq: u64,
    at: Slot,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Slot {
    /// The front of this bucket.
    Bucket(ExactKey),
    /// This position on the posted store's wildcard list.
    Wild(usize),
}

/// FIFO buckets keyed by an exact `(context, src, tag)`. Sequences
/// pushed into one bucket strictly increase, so each front is its
/// bucket's oldest entry.
struct Buckets<T>(HashMap<ExactKey, VecDeque<(u64, T)>>);

impl<T> Default for Buckets<T> {
    fn default() -> Self {
        Buckets(HashMap::new())
    }
}

impl<T> Buckets<T> {
    fn push(&mut self, key: ExactKey, seq: u64, item: T) {
        // A bucket rarely holds more than one entry: size it for one.
        self.0
            .entry(key)
            .or_insert_with(|| VecDeque::with_capacity(1))
            .push_back((seq, item));
    }

    fn front(&self, key: &ExactKey) -> Option<&(u64, T)> {
        self.0.get(key)?.front()
    }

    /// Every bucket's front, in hash order.
    fn fronts(&self) -> impl Iterator<Item = (ExactKey, &(u64, T))> {
        self.0
            .iter()
            .filter_map(|(key, q)| Some((*key, q.front()?)))
    }

    /// Pop `key`'s front if it is entry `seq`, and remove the bucket
    /// once it is empty.
    fn pop(&mut self, key: ExactKey, seq: u64) -> Option<T> {
        let q = self.0.get_mut(&key)?;
        if q.front()?.0 != seq {
            return None;
        }
        let (_, item) = q.pop_front()?;
        if q.is_empty() {
            self.0.remove(&key);
        }
        Some(item)
    }
}

/// Posted receives, matched against arriving envelopes.
#[derive(Default)]
pub struct PostedStore<P> {
    next_seq: u64,
    exact: Buckets<P>,
    wild: VecDeque<(u64, MatchSpec, P)>,
    len: usize,
}

impl<P> PostedStore<P> {
    pub fn new() -> Self {
        PostedStore {
            next_seq: 0,
            exact: Buckets::default(),
            wild: VecDeque::new(),
            len: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queue a posted receive.
    pub fn insert(&mut self, spec: MatchSpec, payload: P) {
        let seq = self.next_seq;
        self.insert_at(seq, spec, payload);
    }

    /// Queue a posted receive under an externally allocated FIFO
    /// sequence. Sequences must be strictly increasing per store — the
    /// sharded engine allocates them from one engine-global counter so
    /// FIFO order is comparable across shards.
    pub fn insert_at(&mut self, seq: u64, spec: MatchSpec, payload: P) {
        assert!(seq >= self.next_seq, "sequence {seq} not monotone");
        self.next_seq = seq + 1;
        match (spec.src, spec.tag) {
            (Some(src), Some(tag)) => self.exact.push((spec.context, src, tag), seq, payload),
            _ => self.wild.push_back((seq, spec, payload)),
        }
        self.len += 1;
    }

    /// The earliest-posted receive matching `env`, without removing it:
    /// the envelope's bucket front or the first matching wildcard,
    /// whichever was posted first.
    pub(crate) fn find(&self, env: &Envelope) -> Option<Handle> {
        let key = (env.context, env.src, env.tag);
        let exact = self.exact.front(&key).map(|&(seq, _)| Handle {
            seq,
            at: Slot::Bucket(key),
        });
        let wild = self
            .wild
            .iter()
            .position(|(_, spec, _)| spec.matches(env))
            .map(|pos| Handle {
                seq: self.wild[pos].0,
                at: Slot::Wild(pos),
            });
        exact.into_iter().chain(wild).min()
    }

    /// Remove a receive by handle (from a prior [`find`]). Returns
    /// `None` if it was already taken.
    ///
    /// [`find`]: PostedStore::find
    pub(crate) fn take(&mut self, handle: Handle) -> Option<P> {
        let payload = match handle.at {
            Slot::Bucket(key) => self.exact.pop(key, handle.seq)?,
            Slot::Wild(pos) => {
                if self.wild.get(pos)?.0 != handle.seq {
                    return None;
                }
                self.wild.remove(pos)?.2
            }
        };
        self.len -= 1;
        Some(payload)
    }

    /// Take the earliest-posted receive matching `env`, if any.
    pub fn take_match(&mut self, env: &Envelope) -> Option<P> {
        let handle = self.find(env)?;
        self.take(handle)
    }
}

/// Unexpected arrivals, matched against receive specs (possibly with
/// wildcards). `take` by handle supports probe-then-receive without a
/// second lookup.
#[derive(Default)]
pub struct UnexpectedStore<T> {
    next_seq: u64,
    buckets: Buckets<(Envelope, T)>,
    len: usize,
}

impl<T> UnexpectedStore<T> {
    pub fn new() -> Self {
        UnexpectedStore {
            next_seq: 0,
            buckets: Buckets::default(),
            len: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queue an arrival under the next FIFO sequence.
    pub fn insert(&mut self, env: Envelope, payload: T) {
        let seq = self.next_seq;
        self.insert_at(seq, env, payload);
    }

    /// Queue an arrival under an externally allocated sequence (see
    /// [`PostedStore::insert_at`]): the sharded engine draws sequences
    /// from one engine-global counter so arrival order is comparable
    /// across shards.
    pub fn insert_at(&mut self, seq: u64, env: Envelope, payload: T) {
        assert!(seq >= self.next_seq, "sequence {seq} not monotone");
        self.next_seq = seq + 1;
        self.buckets
            .push((env.context, env.src, env.tag), seq, (env, payload));
        self.len += 1;
    }

    /// Handle and envelope of the earliest arrival matching `spec`,
    /// without removing it (probe).
    pub fn find(&self, spec: &MatchSpec) -> Option<(Handle, Envelope)> {
        let (key, &(seq, (env, _))) = match (spec.src, spec.tag) {
            (Some(src), Some(tag)) => {
                let key = (spec.context, src, tag);
                (key, self.buckets.front(&key)?)
            }
            _ => self
                .buckets
                .fronts()
                .filter(|(_, (_, (env, _)))| spec.matches(env))
                .min_by_key(|(_, (seq, _))| *seq)?,
        };
        let at = Slot::Bucket(key);
        Some((Handle { seq, at }, env))
    }

    /// Remove an arrival by handle (from a prior [`find`]). Returns
    /// `None` if it was already taken.
    ///
    /// [`find`]: UnexpectedStore::find
    pub fn take(&mut self, handle: Handle) -> Option<(Envelope, T)> {
        let Slot::Bucket(key) = handle.at else {
            return None;
        };
        let entry = self.buckets.pop(key, handle.seq)?;
        self.len -= 1;
        Some(entry)
    }

    /// Take the earliest arrival matching `spec`, if any.
    pub fn take_match(&mut self, spec: &MatchSpec) -> Option<(Envelope, T)> {
        let (handle, _) = self.find(spec)?;
        self.take(handle)
    }

    /// Envelopes of all queued arrivals, in arrival order.
    pub fn envelopes(&self) -> Vec<Envelope> {
        self.envelopes_with_seq()
            .into_iter()
            .map(|(_, env)| env)
            .collect()
    }

    /// Envelopes with their FIFO sequences, in arrival order — what the
    /// sharded engine merges across shards to present one
    /// arrival-ordered view.
    pub fn envelopes_with_seq(&self) -> Vec<(u64, Envelope)> {
        let mut all: Vec<(u64, Envelope)> = self
            .buckets
            .0
            .values()
            .flatten()
            .map(|&(seq, (env, _))| (seq, env))
            .collect();
        all.sort_unstable_by_key(|&(seq, _)| seq);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(src: usize, tag: Tag, context: u32) -> Envelope {
        Envelope {
            src,
            tag,
            context,
            len: 8,
        }
    }

    fn spec(src: Option<usize>, tag: Option<Tag>, context: u32) -> MatchSpec {
        MatchSpec { src, tag, context }
    }

    #[test]
    fn posted_fifo_within_pair() {
        let mut s = PostedStore::new();
        s.insert(spec(Some(1), Some(7), 0), "a");
        s.insert(spec(Some(1), Some(7), 0), "b");
        assert_eq!(s.take_match(&env(1, 7, 0)), Some("a"));
        assert_eq!(s.take_match(&env(1, 7, 0)), Some("b"));
        assert_eq!(s.take_match(&env(1, 7, 0)), None);
        assert!(s.is_empty());
    }

    #[test]
    fn posted_wildcard_beats_later_exact() {
        let mut s = PostedStore::new();
        s.insert(spec(None, Some(7), 0), "wild");
        s.insert(spec(Some(1), Some(7), 0), "exact");
        // The wildcard was posted first; FIFO picks it.
        assert_eq!(s.take_match(&env(1, 7, 0)), Some("wild"));
        assert_eq!(s.take_match(&env(1, 7, 0)), Some("exact"));
    }

    #[test]
    fn posted_exact_beats_later_wildcard() {
        let mut s = PostedStore::new();
        s.insert(spec(Some(1), Some(7), 0), "exact");
        s.insert(spec(None, None, 0), "wild");
        assert_eq!(s.take_match(&env(1, 7, 0)), Some("exact"));
        assert_eq!(s.take_match(&env(2, 9, 0)), Some("wild"));
    }

    #[test]
    fn posted_context_isolation() {
        let mut s = PostedStore::new();
        s.insert(spec(None, None, 1), "ctx1");
        assert_eq!(s.take_match(&env(0, 0, 2)), None);
        assert_eq!(s.take_match(&env(0, 0, 1)), Some("ctx1"));
    }

    #[test]
    fn unexpected_wildcard_orders_across_buckets() {
        let mut s = UnexpectedStore::new();
        s.insert(env(2, 9, 0), "from2");
        s.insert(env(1, 7, 0), "from1");
        // ANY_SOURCE/ANY_TAG must take the earliest arrival, which
        // lives in a different exact bucket than the later one.
        let (e, p) = s.take_match(&spec(None, None, 0)).unwrap();
        assert_eq!((e.src, p), (2, "from2"));
        let (e, p) = s.take_match(&spec(None, None, 0)).unwrap();
        assert_eq!((e.src, p), (1, "from1"));
    }

    #[test]
    fn unexpected_probe_then_take_by_handle() {
        let mut s = UnexpectedStore::new();
        s.insert(env(1, 7, 0), "x");
        let (h, e) = s.find(&spec(Some(1), None, 0)).unwrap();
        assert_eq!(e.tag, 7);
        assert_eq!(s.take(h).unwrap().1, "x");
        assert_eq!(s.take(h), None, "double take is rejected");
        assert_eq!(s.find(&spec(Some(1), Some(7), 0)), None);
    }

    #[test]
    fn taken_arrivals_leave_no_buckets() {
        // Every arrival in a bucket of its own, each received by an
        // exact spec: the emptied store must hold no bucket at all.
        const N: Tag = 1_000;
        let mut s = UnexpectedStore::new();
        for tag in 0..N {
            s.insert(env(1, tag, 0), ());
        }
        for tag in 0..N {
            assert!(s.take_match(&spec(Some(1), Some(tag), 0)).is_some());
        }
        assert!(s.is_empty());
        assert_eq!(s.buckets.0.len(), 0, "stale buckets left behind");
    }

    #[test]
    fn unexpected_envelopes_in_arrival_order() {
        let mut s = UnexpectedStore::new();
        s.insert(env(3, 1, 0), ());
        s.insert(env(1, 2, 0), ());
        s.insert(env(2, 3, 5), ());
        let srcs: Vec<usize> = s.envelopes().iter().map(|e| e.src).collect();
        assert_eq!(srcs, vec![3, 1, 2]);
        s.take_match(&spec(Some(1), Some(2), 0));
        let srcs: Vec<usize> = s.envelopes().iter().map(|e| e.src).collect();
        assert_eq!(srcs, vec![3, 2]);
    }
}
