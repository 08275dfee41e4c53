//! Process groups (`MPI_Group`): ordered sets of world ranks with the
//! standard set operations. Communicators are built from groups plus a
//! context id.

use std::sync::Arc;

/// An ordered set of distinct world ranks.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Group {
    ranks: Vec<usize>,
    /// `ranks == 0..len`: local and world numbering coincide. Cached at
    /// construction so the per-collective world-communicator fast path
    /// (reusing the engine's precomputed cluster chain) and
    /// [`Group::local_rank`] are O(1).
    identity: bool,
}

impl Group {
    fn make(ranks: Vec<usize>) -> Arc<Group> {
        let identity = ranks.iter().enumerate().all(|(i, &r)| i == r);
        Arc::new(Group { ranks, identity })
    }

    /// The group of all `n` world ranks, in order.
    pub fn world(n: usize) -> Arc<Group> {
        Group::make((0..n).collect())
    }

    /// Build from an explicit rank list (must be distinct).
    pub fn from_ranks(ranks: Vec<usize>) -> Arc<Group> {
        let mut seen = std::collections::HashSet::new();
        for r in &ranks {
            assert!(seen.insert(*r), "duplicate world rank {r} in group");
        }
        Group::make(ranks)
    }

    /// Whether local rank `i` is world rank `i` for every member.
    pub fn is_identity(&self) -> bool {
        self.identity
    }

    pub fn size(&self) -> usize {
        self.ranks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ranks.is_empty()
    }

    /// World rank of local rank `local`.
    pub fn world_rank(&self, local: usize) -> usize {
        self.ranks[local]
    }

    /// Local rank of a world rank, if a member: O(1) on an identity
    /// group, a scan otherwise.
    pub fn local_rank(&self, world: usize) -> Option<usize> {
        if self.identity {
            return (world < self.ranks.len()).then_some(world);
        }
        self.ranks.iter().position(|&r| r == world)
    }

    pub fn contains(&self, world: usize) -> bool {
        self.ranks.contains(&world)
    }

    pub fn ranks(&self) -> &[usize] {
        &self.ranks
    }

    /// `MPI_Group_incl`: members at the given local positions, in that
    /// order.
    pub fn incl(&self, locals: &[usize]) -> Arc<Group> {
        Group::from_ranks(locals.iter().map(|&l| self.ranks[l]).collect())
    }

    /// `MPI_Group_excl`: all members except those at the given local
    /// positions, preserving order.
    pub fn excl(&self, locals: &[usize]) -> Arc<Group> {
        let drop: std::collections::HashSet<usize> = locals.iter().copied().collect();
        Group::make(
            self.ranks
                .iter()
                .enumerate()
                .filter(|(i, _)| !drop.contains(i))
                .map(|(_, &r)| r)
                .collect(),
        )
    }

    /// `MPI_Group_union`: all of `self`, then members of `other` not in
    /// `self`, in `other`'s order.
    pub fn union(&self, other: &Group) -> Arc<Group> {
        let mut ranks = self.ranks.clone();
        for &r in &other.ranks {
            if !ranks.contains(&r) {
                ranks.push(r);
            }
        }
        Group::make(ranks)
    }

    /// `MPI_Group_intersection`: members of `self` also in `other`, in
    /// `self`'s order.
    pub fn intersection(&self, other: &Group) -> Arc<Group> {
        Group::make(
            self.ranks
                .iter()
                .filter(|r| other.contains(**r))
                .copied()
                .collect(),
        )
    }

    /// `MPI_Group_difference`: members of `self` not in `other`.
    pub fn difference(&self, other: &Group) -> Arc<Group> {
        Group::make(
            self.ranks
                .iter()
                .filter(|r| !other.contains(**r))
                .copied()
                .collect(),
        )
    }

    /// `MPI_Group_translate_ranks`: map local ranks of `self` to local
    /// ranks in `other` (`None` where absent).
    pub fn translate(&self, locals: &[usize], other: &Group) -> Vec<Option<usize>> {
        locals
            .iter()
            .map(|&l| other.local_rank(self.ranks[l]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_group() {
        let g = Group::world(4);
        assert_eq!(g.size(), 4);
        assert_eq!(g.world_rank(2), 2);
        assert_eq!(g.local_rank(3), Some(3));
        assert_eq!(g.local_rank(4), None);
    }

    #[test]
    fn incl_excl() {
        let g = Group::world(6);
        let sub = g.incl(&[4, 1, 3]);
        assert_eq!(sub.ranks(), &[4, 1, 3]);
        assert_eq!(sub.local_rank(1), Some(1));
        assert_eq!(sub.local_rank(0), None);
        assert_eq!(g.incl(&[1, 0]).local_rank(0), Some(1));
        let rest = g.excl(&[0, 2]);
        assert_eq!(rest.ranks(), &[1, 3, 4, 5]);
    }

    #[test]
    fn set_operations() {
        let a = Group::from_ranks(vec![0, 1, 2, 3]);
        let b = Group::from_ranks(vec![2, 3, 4, 5]);
        assert_eq!(a.union(&b).ranks(), &[0, 1, 2, 3, 4, 5]);
        assert_eq!(a.intersection(&b).ranks(), &[2, 3]);
        assert_eq!(a.difference(&b).ranks(), &[0, 1]);
        assert_eq!(b.difference(&a).ranks(), &[4, 5]);
    }

    #[test]
    fn translate_ranks() {
        let a = Group::from_ranks(vec![5, 6, 7]);
        let b = Group::from_ranks(vec![7, 5]);
        assert_eq!(a.translate(&[0, 1, 2], &b), vec![Some(1), None, Some(0)]);
    }

    #[test]
    #[should_panic(expected = "duplicate world rank")]
    fn duplicates_rejected() {
        Group::from_ranks(vec![1, 2, 1]);
    }
}
