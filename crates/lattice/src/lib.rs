//! # sbgt-lattice — Boolean-lattice state space for Bayesian group testing
//!
//! The Bayesian group-testing framework of Tatsuoka, Chen & Lu maintains a
//! posterior distribution over the Boolean lattice `2^N`: each *state*
//! `s ⊆ {0..N-1}` is one hypothesis about which of the `N` subjects are
//! infected, ordered by set inclusion. The lattice order is load-bearing:
//! a pooled test on pool `A` partitions the state space into the *down-set*
//! `{s : s ∩ A = ∅}` (states under which the pool contains no positive
//! sample) and its complement, and the Bayesian Halving Algorithm picks the
//! pool whose down-set posterior mass is nearest ½.
//!
//! This crate provides:
//!
//! * [`State`] — a state as a `u64` bitmask with the lattice operations
//!   (meet/join/complement, inclusion, rank, covers);
//! * [`order`] — order-theoretic helpers (up-sets, down-sets, comparability);
//! * [`iter`] — subset/superset/rank iterators used by exhaustive selection
//!   and by tests as ground truth;
//! * [`DensePosterior`] — the `Vec<f64>`-of-length-`2^N` posterior with the
//!   serial reference kernels (multiply-by-likelihood, normalize, marginals,
//!   down-set masses, entropy, top-k);
//! * [`SparsePosterior`] — the pruned representation (HiBGT-style) that
//!   drops negligible-mass states;
//! * [`kernels`] — the data-parallel versions of every dense kernel, chunked
//!   with rayon; these are what SBGT's distributed operators lower to;
//! * [`branch`] — the branch-fused look-ahead selection kernel
//!   ([`LookaheadKernel`]) that accumulates all `2^j` outcome-branch
//!   prefix-mass histograms in one traversal, shared by the serial, rayon,
//!   and engine-sharded selection paths;
//! * [`bytes`] — the workspace's one byte layer: the fail-closed
//!   `Reader`/`Writer` every binary format (SBGTSNAP, SBGTCKPT, SBGTPLAN,
//!   wire frames, ObsFrame) is written on, and the tamper harness each is
//!   tested with. It lives here because this is the one crate every codec
//!   owner already depends on.
//!
//! Throughout, the state integer doubles as the array index, so dense
//! kernels are gather-free linear passes — the layout property that lets the
//! partition-parallel engine shard the lattice by contiguous index ranges.

pub mod bigstate;
pub mod branch;
pub mod bytes;
pub mod dense;
pub mod hybrid;
pub mod iter;
pub mod kernels;
pub mod order;
pub mod simd;
pub mod sparse;
pub mod state;
pub mod transform;

pub use bigstate::BigState;
pub use branch::{BranchPool, LookaheadKernel};
pub use dense::DensePosterior;
pub use hybrid::{HybridPosterior, SparseSwitch};
pub use sparse::SparsePosterior;
pub use state::{State, MAX_SUBJECTS};

/// Number of lattice states for a cohort of `n` subjects (`2^n`).
///
/// # Panics
/// Panics if `n > MAX_SUBJECTS` (the dense representation would not fit an
/// address space / `u64` mask).
pub fn num_states(n: usize) -> usize {
    assert!(
        n <= MAX_SUBJECTS,
        "cohort of {n} subjects exceeds MAX_SUBJECTS={MAX_SUBJECTS}"
    );
    1usize << n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn num_states_powers() {
        assert_eq!(num_states(0), 1);
        assert_eq!(num_states(1), 2);
        assert_eq!(num_states(10), 1024);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_SUBJECTS")]
    fn num_states_overflow_guard() {
        let _ = num_states(MAX_SUBJECTS + 1);
    }
}
