//! Equivalence proptest for the hash-bucketed matching stores
//! (`mpich::matching`) against the seed's linear-scan semantics.
//!
//! MPI matching is FIFO per matching pair: among all queued entries
//! that match, the earliest-queued wins. The seed realized this with a
//! linear scan over one `VecDeque`; the bucketed stores must pick the
//! *identical* entry for every lookup. This test drives both a
//! reference model (literal linear scans over `Vec`s) and the bucketed
//! stores through random interleavings of posts, arrivals, probes,
//! probe-then-take and take-after-consume by a stale handle — with
//! wildcard sources/tags and mixed contexts — and requires the full
//! transcripts to agree.

use mpich::{Envelope, MatchSpec, PostedStore, Tag, UnexpectedStore};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::BoxedStrategy;

#[derive(Clone, Debug)]
enum Op {
    /// Post a receive: consumes the earliest matching unexpected
    /// arrival, or queues.
    Post(MatchSpec),
    /// An envelope arrives: consumes the earliest matching posted
    /// receive, or queues as unexpected.
    Arrive { src: usize, tag: Tag, ctx: u32 },
    /// Probe: earliest matching unexpected arrival, not removed.
    Probe(MatchSpec),
    /// Probe, then take that exact arrival by handle (the
    /// probe/recv-dedup path in the engine).
    ProbeTake(MatchSpec),
    /// Probe, let a receive with the same spec consume the probed
    /// arrival, then take by the stale handle: it must be refused.
    ProbeStale(MatchSpec),
}

/// Linear-scan reference: the seed's matching semantics, verbatim.
#[derive(Default)]
struct Reference {
    posted: Vec<(MatchSpec, u32)>,
    unexpected: Vec<(Envelope, u32)>,
}

impl Reference {
    fn arrive(&mut self, env: Envelope) -> Option<u32> {
        let pos = self
            .posted
            .iter()
            .position(|(spec, _)| spec.matches(&env))?;
        Some(self.posted.remove(pos).1)
    }

    fn post(&mut self, spec: &MatchSpec) -> Option<(Envelope, u32)> {
        let pos = self
            .unexpected
            .iter()
            .position(|(env, _)| spec.matches(env))?;
        Some(self.unexpected.remove(pos))
    }

    fn probe(&self, spec: &MatchSpec) -> Option<Envelope> {
        self.unexpected
            .iter()
            .find(|(env, _)| spec.matches(env))
            .map(|(env, _)| *env)
    }

    fn probe_take(&mut self, spec: &MatchSpec) -> Option<(Envelope, u32)> {
        let pos = self
            .unexpected
            .iter()
            .position(|(env, _)| spec.matches(env))?;
        Some(self.unexpected.remove(pos))
    }
}

fn opt_src() -> BoxedStrategy<Option<usize>> {
    prop_oneof![Just(None), (0..3usize).prop_map(Some)].boxed()
}

fn opt_tag() -> BoxedStrategy<Option<Tag>> {
    prop_oneof![Just(None), (0..3 as Tag).prop_map(Some)].boxed()
}

fn spec() -> BoxedStrategy<MatchSpec> {
    (opt_src(), opt_tag(), 0..2u32)
        .prop_map(|(src, tag, context)| MatchSpec { src, tag, context })
        .boxed()
}

fn op() -> BoxedStrategy<Op> {
    prop_oneof![
        spec().prop_map(Op::Post),
        (0..3usize, 0..3 as Tag, 0..2u32).prop_map(|(src, tag, ctx)| Op::Arrive { src, tag, ctx }),
        spec().prop_map(Op::Probe),
        spec().prop_map(Op::ProbeTake),
        spec().prop_map(Op::ProbeStale),
    ]
    .boxed()
}

/// Run one interleaving through both implementations, comparing every
/// lookup result and the queue contents after every step.
fn check(ops: Vec<Op>) {
    let mut reference = Reference::default();
    let mut posted: PostedStore<u32> = PostedStore::new();
    let mut unexpected: UnexpectedStore<u32> = UnexpectedStore::new();

    for (id, op) in (0u32..).zip(ops) {
        match op {
            Op::Post(spec) => {
                let got = unexpected.take_match(&spec);
                let want = reference.post(&spec);
                assert_eq!(got, want, "post {spec:?}");
                if want.is_none() {
                    posted.insert(spec, id);
                    reference.posted.push((spec, id));
                }
            }
            Op::Arrive { src, tag, ctx } => {
                // `len` doubles as a unique arrival id so envelope
                // equality distinguishes otherwise-identical arrivals.
                let env = Envelope {
                    src,
                    tag,
                    context: ctx,
                    len: id as usize,
                };
                let got = posted.take_match(&env);
                let want = reference.arrive(env);
                assert_eq!(got, want, "arrive {env:?}");
                if want.is_none() {
                    unexpected.insert(env, id);
                    reference.unexpected.push((env, id));
                }
            }
            Op::Probe(spec) => {
                let got = unexpected.find(&spec).map(|(_, env)| env);
                let want = reference.probe(&spec);
                assert_eq!(got, want, "probe {spec:?}");
            }
            Op::ProbeTake(spec) => {
                let got = unexpected
                    .find(&spec)
                    .and_then(|(handle, _)| unexpected.take(handle));
                let want = reference.probe_take(&spec);
                assert_eq!(got, want, "probe-take {spec:?}");
            }
            Op::ProbeStale(spec) => {
                let handle = unexpected.find(&spec).map(|(handle, _)| handle);
                let got = unexpected.take_match(&spec);
                let want = reference.post(&spec);
                assert_eq!(got, want, "receive after probe {spec:?}");
                if let Some(handle) = handle {
                    assert_eq!(unexpected.take(handle), None, "stale take {spec:?}");
                }
            }
        }
        assert_eq!(posted.len(), reference.posted.len(), "posted depth");
        assert_eq!(
            unexpected.envelopes(),
            reference
                .unexpected
                .iter()
                .map(|(env, _)| *env)
                .collect::<Vec<_>>(),
            "unexpected queue contents/order"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bucketed_stores_match_linear_scan(ops in vec(op(), 0..120)) {
        check(ops.clone());
    }
}

/// A directed interleaving the random mix hits rarely: wildcard posts
/// racing exact posts for the same arrival stream across two contexts.
#[test]
fn wildcard_exact_races_stay_fifo() {
    let mut ops = Vec::new();
    for ctx in 0..2u32 {
        for i in 0..4usize {
            ops.push(Op::Post(MatchSpec {
                src: Some(i % 2),
                tag: Some(0),
                context: ctx,
            }));
            ops.push(Op::Post(MatchSpec {
                src: None,
                tag: Some(0),
                context: ctx,
            }));
        }
        for i in 0..8usize {
            ops.push(Op::Arrive {
                src: i % 3,
                tag: 0,
                ctx,
            });
        }
        ops.push(Op::ProbeTake(MatchSpec {
            src: None,
            tag: None,
            context: ctx,
        }));
    }
    check(ops);
}
