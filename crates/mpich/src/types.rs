//! Common MPI-level types: envelopes, match specifications, statuses.

use std::fmt;

/// Message tag. Non-negative in user messages; the collective layer uses
/// its own context, so tags never clash across layers.
pub type Tag = i32;

/// Matching key of a message: (source, tag, context). The context id
/// isolates communicators (and, within one communicator, point-to-point
/// from collective traffic).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Envelope {
    /// *World* rank of the sender.
    pub src: usize,
    pub tag: Tag,
    pub context: u32,
    /// Payload length in bytes.
    pub len: usize,
}

/// A posted receive's matching pattern (`None` = wildcard, i.e.
/// `MPI_ANY_SOURCE` / `MPI_ANY_TAG`). Source is in *world* ranks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MatchSpec {
    pub src: Option<usize>,
    pub tag: Option<Tag>,
    pub context: u32,
}

impl MatchSpec {
    pub fn matches(&self, env: &Envelope) -> bool {
        self.context == env.context
            && self.src.is_none_or(|s| s == env.src)
            && self.tag.is_none_or(|t| t == env.tag)
    }
}

/// Completion information of a receive (like `MPI_Status`). `source` is
/// a *world* rank at the engine level; [`crate::Request`]'s wait (and
/// the endpoint's probes) translate it to a communicator-local rank
/// before handing it out.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Status {
    pub source: usize,
    pub tag: Tag,
    pub len: usize,
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Status{{src={}, tag={}, len={}}}",
            self.source, self.tag, self.len
        )
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
            len: 0,
        }
    }

    #[test]
    fn exact_match() {
        let spec = MatchSpec {
            src: Some(2),
            tag: Some(7),
            context: 1,
        };
        assert!(spec.matches(&env(2, 7, 1)));
        assert!(!spec.matches(&env(3, 7, 1)));
        assert!(!spec.matches(&env(2, 8, 1)));
        assert!(!spec.matches(&env(2, 7, 2)));
    }

    #[test]
    fn wildcards() {
        let any_src = MatchSpec {
            src: None,
            tag: Some(7),
            context: 1,
        };
        assert!(any_src.matches(&env(0, 7, 1)));
        assert!(any_src.matches(&env(9, 7, 1)));
        assert!(!any_src.matches(&env(9, 6, 1)));
        let any_tag = MatchSpec {
            src: Some(1),
            tag: None,
            context: 1,
        };
        assert!(any_tag.matches(&env(1, 0, 1)));
        assert!(any_tag.matches(&env(1, 999, 1)));
        let any_any = MatchSpec {
            src: None,
            tag: None,
            context: 1,
        };
        assert!(any_any.matches(&env(5, 5, 1)));
        assert!(
            !any_any.matches(&env(5, 5, 2)),
            "context is never wildcarded"
        );
    }
}
