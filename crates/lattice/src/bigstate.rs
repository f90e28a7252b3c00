//! Subject sets beyond the one-word ceiling.
//!
//! [`State`] packs a cohort into a single `u64`, which caps exact-lattice
//! machinery at [`MAX_SUBJECTS`](crate::state::MAX_SUBJECTS) = 48. The approximate backends work on
//! cohorts of hundreds, so truths and pools there are [`BigState`]: the same
//! set-of-subjects semantics over an array of words. A `BigState` is *not* a
//! lattice index — there is no `2^N` array for it to index into — so the
//! dense-only operations (`index`, `complement`, down-set walks) deliberately
//! do not exist here.

use serde::{Deserialize, Serialize};

use crate::state::State;

/// A set of subject indices as a little-endian array of 64-bit words:
/// subject `i` lives in bit `i % 64` of word `i / 64`.
///
/// Unlike [`State`] there is no fixed capacity: the word array grows to fit
/// the highest set index. Two `BigState`s are equal iff they contain the same
/// subjects — trailing zero words are trimmed on construction so `Eq`/`Hash`
/// stay structural.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BigState {
    words: Vec<u64>,
}

impl BigState {
    /// The empty set.
    pub fn empty() -> BigState {
        BigState { words: Vec::new() }
    }

    /// Set from an iterator of subject indices (any order, duplicates ok).
    pub fn from_subjects<I: IntoIterator<Item = usize>>(subjects: I) -> BigState {
        let mut s = BigState::empty();
        for i in subjects {
            s.insert(i);
        }
        s
    }

    /// Set from a raw word array (bit `i % 64` of word `i / 64` ⇔ subject
    /// `i`). Trailing zero words are trimmed.
    pub fn from_words(words: Vec<u64>) -> BigState {
        let mut s = BigState { words };
        s.trim();
        s
    }

    /// All subjects of a cohort of `n`.
    pub fn full(n: usize) -> BigState {
        let mut words = vec![u64::MAX; n / 64];
        if !n.is_multiple_of(64) {
            words.push(u64::MAX >> (64 - n % 64));
        }
        BigState::from_words(words)
    }

    /// Widen a one-word [`State`] into a `BigState` with the same subjects.
    pub fn from_state(s: State) -> BigState {
        BigState::from_words(vec![s.bits()])
    }

    /// The backing words, little-endian, trailing zeros trimmed.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Add subject `i`.
    pub fn insert(&mut self, i: usize) {
        let w = i / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1u64 << (i % 64);
    }

    /// Whether subject `i` is in the set.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| (w >> (i % 64)) & 1 == 1)
    }

    /// Number of subjects in the set.
    #[inline]
    pub fn rank(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// `|self ∩ other|` — for a truth against a pool, the number of truly
    /// positive samples the pool contains, which is all any dilution-aware
    /// response model looks at.
    #[inline]
    pub fn positives_in(&self, pool: &BigState) -> u32 {
        self.words
            .iter()
            .zip(&pool.words)
            .map(|(a, b)| (a & b).count_ones())
            .sum()
    }

    /// Whether the two sets share a subject.
    #[inline]
    pub fn intersects(&self, other: &BigState) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Iterate the subject indices, ascending.
    pub fn subjects(&self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(|(w, &bits)| State(bits).subjects().map(move |b| w * 64 + b))
    }

    fn trim(&mut self) {
        while self.words.last() == Some(&0) {
            self.words.pop();
        }
    }
}

impl std::fmt::Display for BigState {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let s = BigState::from_subjects([0, 2, 130]);
        assert_eq!(s.rank(), 3);
        assert!(s.contains(0) && s.contains(2) && s.contains(130));
        assert!(!s.contains(64) && !s.contains(1000));
        assert_eq!(s.subjects().collect::<Vec<_>>(), vec![0, 2, 130]);
        assert_eq!(s.to_string(), "{0,2,130}");
        assert_eq!(s.words().len(), 3);
    }

    #[test]
    fn full_matches_per_subject_inserts() {
        for n in [0, 1, 63, 64, 65, 128, 200, 256] {
            let full = BigState::full(n);
            assert_eq!(full, BigState::from_subjects(0..n), "n={n}");
            assert_eq!(full.rank() as usize, n);
        }
    }

    #[test]
    fn trailing_zero_words_do_not_break_equality() {
        let a = BigState::from_subjects([3]);
        let b = BigState::from_words(vec![0b1000, 0, 0]);
        assert_eq!(a, b);
        assert_eq!(b.words().len(), 1);
        assert!(BigState::from_words(vec![0, 0]).is_empty());
    }

    #[test]
    fn positives_and_intersections_across_word_boundaries() {
        let truth = BigState::from_subjects([5, 63, 64, 200]);
        let pool = BigState::from_subjects([63, 64, 65, 199]);
        assert_eq!(truth.positives_in(&pool), 2);
        assert!(truth.intersects(&pool));
        assert!(!truth.intersects(&BigState::from_subjects([6, 66])));
        // Asymmetric word lengths zip safely.
        assert_eq!(pool.positives_in(&truth), 2);
        assert_eq!(BigState::empty().positives_in(&pool), 0);
    }

    #[test]
    fn state_bridge_round_trips() {
        let s = State::from_subjects([0, 7, 40]);
        let big = BigState::from_state(s);
        assert_eq!(big.rank(), s.rank());
        assert_eq!(
            big.subjects().collect::<Vec<_>>(),
            s.subjects().collect::<Vec<_>>()
        );
    }
}
