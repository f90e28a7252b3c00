//! Lattice states as bitmasks.

use serde::{Deserialize, Serialize};

/// Maximum cohort size representable by the dense lattice machinery.
///
/// States are `u64` bitmasks, and the dense posterior is an array of `2^N`
/// doubles, so the practical dense ceiling is memory (`N = 30` is 8 GiB);
/// 48 leaves headroom for sparse representations while keeping state
/// arithmetic in one word.
pub const MAX_SUBJECTS: usize = 48;

/// One lattice state: the set of subjects hypothesized positive, as a
/// bitmask (bit `i` set ⇔ subject `i` positive). The integer value of the
/// mask doubles as the state's index into dense posterior arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct State(pub u64);

impl State {
    /// The bottom of the lattice: no subject positive.
    pub const EMPTY: State = State(0);

    /// State from an iterator of subject indices.
    ///
    /// # Panics
    /// Panics if any index is `>= MAX_SUBJECTS`.
    pub fn from_subjects<I: IntoIterator<Item = usize>>(subjects: I) -> State {
        let mut mask = 0u64;
        for s in subjects {
            assert!(s < MAX_SUBJECTS, "subject index {s} out of range");
            mask |= 1u64 << s;
        }
        State(mask)
    }

    /// The top of the lattice for a cohort of `n`: all subjects positive.
    pub fn full(n: usize) -> State {
        assert!(n <= MAX_SUBJECTS);
        if n == 0 {
            State(0)
        } else {
            State(u64::MAX >> (64 - n))
        }
    }

    /// Raw bitmask.
    #[inline]
    pub fn bits(self) -> u64 {
        self.0
    }

    /// Dense-array index of this state.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Number of positive subjects (the state's rank in the lattice).
    #[inline]
    pub fn rank(self) -> u32 {
        self.0.count_ones()
    }

    /// Whether subject `i` is positive in this state.
    #[inline]
    pub fn contains(self, i: usize) -> bool {
        (self.0 >> i) & 1 == 1
    }

    /// Number of positives this state places in pool `pool` —
    /// `|s ∩ A|`, the quantity every dilution-aware likelihood is indexed by.
    #[inline]
    pub fn positives_in(self, pool: State) -> u32 {
        (self.0 & pool.0).count_ones()
    }

    /// Lattice meet: intersection.
    #[inline]
    pub fn meet(self, other: State) -> State {
        State(self.0 & other.0)
    }

    /// Lattice join: union.
    #[inline]
    pub fn join(self, other: State) -> State {
        State(self.0 | other.0)
    }

    /// Complement within a cohort of `n` subjects.
    #[inline]
    pub fn complement(self, n: usize) -> State {
        State(!self.0 & State::full(n).0)
    }

    /// Set-inclusion partial order: `self ⊆ other`.
    #[inline]
    pub fn is_subset_of(self, other: State) -> bool {
        self.0 & !other.0 == 0
    }

    /// Whether the two states are comparable in the lattice order.
    #[inline]
    pub fn comparable(self, other: State) -> bool {
        self.is_subset_of(other) || other.is_subset_of(self)
    }

    /// Add subject `i` (join with the atom for `i`).
    #[inline]
    pub fn with(self, i: usize) -> State {
        State(self.0 | (1u64 << i))
    }

    /// Remove subject `i`.
    #[inline]
    pub fn without(self, i: usize) -> State {
        State(self.0 & !(1u64 << i))
    }

    /// Iterate the indices of positive subjects, ascending.
    pub fn subjects(self) -> SubjectIter {
        SubjectIter(self.0)
    }

    /// Whether this state intersects `pool` (the pool contains at least one
    /// positive sample under this hypothesis).
    #[inline]
    pub fn intersects(self, pool: State) -> bool {
        self.0 & pool.0 != 0
    }

    /// Whether the state is the empty (all-negative) state.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl std::fmt::Display for State {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for s in self.subjects() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{s}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

/// Iterator over the set bits of a state, ascending.
#[derive(Debug, Clone)]
pub struct SubjectIter(u64);

impl Iterator for SubjectIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let idx = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1; // clear lowest set bit
        Some(idx)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for SubjectIter {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let s = State::from_subjects([0, 2, 5]);
        assert_eq!(s.bits(), 0b100101);
        assert_eq!(s.rank(), 3);
        assert!(s.contains(0) && s.contains(2) && s.contains(5));
        assert!(!s.contains(1));
        assert_eq!(s.index(), 37);
        assert_eq!(s.subjects().collect::<Vec<_>>(), vec![0, 2, 5]);
        assert_eq!(s.to_string(), "{0,2,5}");
    }

    #[test]
    fn full_and_empty() {
        assert_eq!(State::full(0), State::EMPTY);
        assert_eq!(State::full(3).bits(), 0b111);
        assert_eq!(State::full(MAX_SUBJECTS).rank() as usize, MAX_SUBJECTS);
        assert!(State::EMPTY.is_empty());
        assert!(!State::full(1).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_subjects_range_check() {
        let _ = State::from_subjects([MAX_SUBJECTS]);
    }

    #[test]
    fn lattice_ops() {
        let a = State::from_subjects([0, 1]);
        let b = State::from_subjects([1, 2]);
        assert_eq!(a.meet(b), State::from_subjects([1]));
        assert_eq!(a.join(b), State::from_subjects([0, 1, 2]));
        assert_eq!(a.complement(4), State::from_subjects([2, 3]));
    }

    #[test]
    fn order_relations() {
        let small = State::from_subjects([1]);
        let big = State::from_subjects([1, 3]);
        assert!(small.is_subset_of(big));
        assert!(!big.is_subset_of(small));
        assert!(small.comparable(big));
        let other = State::from_subjects([2]);
        assert!(!small.comparable(other));
        assert!(State::EMPTY.is_subset_of(small));
    }

    #[test]
    fn positives_in_pool() {
        let s = State::from_subjects([0, 2, 4]);
        let pool = State::from_subjects([2, 3, 4, 5]);
        assert_eq!(s.positives_in(pool), 2);
        assert!(s.intersects(pool));
        assert!(!s.intersects(State::from_subjects([1, 3])));
    }

    #[test]
    fn with_without() {
        let s = State::EMPTY.with(3).with(7);
        assert_eq!(s, State::from_subjects([3, 7]));
        assert_eq!(s.without(3), State::from_subjects([7]));
        assert_eq!(s.without(5), s); // removing absent subject is a no-op
    }

    #[test]
    fn subject_iter_len() {
        let s = State::from_subjects([0, 10, 40]);
        assert_eq!(s.subjects().len(), 3);
        assert_eq!(s.subjects().collect::<Vec<_>>(), vec![0, 10, 40]);
        assert_eq!(State::EMPTY.subjects().count(), 0);
    }
}
