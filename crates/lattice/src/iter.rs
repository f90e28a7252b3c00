//! Iterators over regions of the Boolean lattice.
//!
//! These are the reference enumerations: exhaustive pool search and the test
//! suite use them as ground truth against the fused kernels in
//! [`crate::dense`].

use crate::state::State;

/// Iterate every state of a cohort of `n` subjects in index order
/// (`0 ..= 2^n - 1`).
pub fn all_states(n: usize) -> impl Iterator<Item = State> {
    (0u64..(1u64 << n)).map(State)
}

/// Iterate all subsets of `mask` (including the empty set and `mask`
/// itself), in descending mask-value order except for the final empty set.
///
/// Uses the standard `sub = (sub - 1) & mask` walk: visits exactly the
/// `2^rank(mask)` subsets in O(1) per step with no allocation.
pub fn subsets_of(mask: State) -> SubsetIter {
    SubsetIter {
        mask: mask.bits(),
        current: mask.bits(),
        done: false,
    }
}

/// See [`subsets_of`].
#[derive(Debug, Clone)]
pub struct SubsetIter {
    mask: u64,
    current: u64,
    done: bool,
}

impl Iterator for SubsetIter {
    type Item = State;

    fn next(&mut self) -> Option<State> {
        if self.done {
            return None;
        }
        let out = State(self.current);
        if self.current == 0 {
            self.done = true;
        } else {
            self.current = (self.current - 1) & self.mask;
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn all_states_count() {
        assert_eq!(all_states(5).count(), 32);
        assert_eq!(all_states(0).count(), 1);
    }

    #[test]
    fn subsets_enumerate_exactly() {
        let mask = State::from_subjects([0, 2, 3]);
        let subs: HashSet<State> = subsets_of(mask).collect();
        assert_eq!(subs.len(), 8);
        for s in &subs {
            assert!(s.is_subset_of(mask));
        }
        assert!(subs.contains(&State::EMPTY));
        assert!(subs.contains(&mask));
    }

    #[test]
    fn subsets_of_empty() {
        let subs: Vec<State> = subsets_of(State::EMPTY).collect();
        assert_eq!(subs, vec![State::EMPTY]);
    }
}
