//! Globally optimal Bayesian halving via the zeta transform.
//!
//! The prefix rule ([`crate::halving`]) is near-optimal and `Θ(2^N)`; the
//! naive exhaustive rule is exactly optimal but `Θ(4^N)`. This module gets
//! exact global optimality at `Θ(N · 2^N)`: one subset-sum (zeta)
//! transform prices the pool-negative mass of *every* possible pool at
//! once, after which the argmin over admissible pools is a linear scan.
//!
//! This is the strongest form of the paper's "lattice-model manipulation"
//! operations — the lattice algebra itself (not per-candidate rescans)
//! does the selection work.

use sbgt_lattice::transform::all_pool_negative_masses;
use sbgt_lattice::{DensePosterior, State};

use crate::halving::Selection;

/// Exact global BHA: the best pool among **all** subsets of `eligible`
/// with `1 <= |pool| <= max_pool_size`, in `Θ(N · 2^N)`.
///
/// Ties break toward smaller pools, then lexicographically (matching the
/// exhaustive rule). Returns `None` for an empty eligible set or a
/// degenerate posterior.
pub fn select_halving_global(
    posterior: &DensePosterior,
    eligible: &[usize],
    max_pool_size: usize,
) -> Option<Selection> {
    if eligible.is_empty() || max_pool_size == 0 {
        return None;
    }
    let total = posterior.total();
    if !(total.is_finite() && total > 0.0) {
        return None;
    }
    let masses = all_pool_negative_masses(posterior);
    let eligible_mask = State::from_subjects(eligible.iter().copied());

    let mut best: Option<Selection> = None;
    // Enumerate subsets of the eligible mask directly (2^|eligible| pools,
    // not 2^N) — the mass lookup is O(1) thanks to the transform.
    let mut sub = eligible_mask.bits();
    loop {
        if sub != 0 {
            let pool = State(sub);
            let r = pool.rank() as usize;
            if r <= max_pool_size {
                let mass = masses[pool.index()] / total;
                let cand = Selection {
                    pool,
                    negative_mass: mass,
                    distance: (mass - 0.5).abs(),
                };
                let better = match &best {
                    None => true,
                    Some(b) => {
                        const EPS: f64 = 1e-12;
                        if cand.distance + EPS < b.distance {
                            true
                        } else if b.distance + EPS < cand.distance {
                            false
                        } else {
                            (cand.pool.rank(), cand.pool.bits()) < (b.pool.rank(), b.pool.bits())
                        }
                    }
                };
                if better {
                    best = Some(cand);
                }
            }
        }
        if sub == 0 {
            break;
        }
        sub = (sub - 1) & eligible_mask.bits();
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::CandidateStrategy;
    use crate::halving::{select_halving_exhaustive, select_halving_prefix};

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn global_matches_naive_exhaustive() {
        let risks = [0.04, 0.11, 0.02, 0.3, 0.17, 0.08, 0.22];
        let post = DensePosterior::from_risks(&risks);
        let eligible: Vec<usize> = (0..risks.len()).collect();
        for cap in [2usize, 4, 7] {
            let candidates =
                CandidateStrategy::Exhaustive { max_pool_size: cap }.generate(&eligible);
            let naive = select_halving_exhaustive(&post, &candidates).unwrap();
            let fast = select_halving_global(&post, &eligible, cap).unwrap();
            assert_eq!(naive.pool, fast.pool, "cap={cap}");
            assert!(close(naive.negative_mass, fast.negative_mass));
        }
    }

    #[test]
    fn global_never_worse_than_prefix() {
        let risks = [0.02, 0.04, 0.07, 0.11, 0.16, 0.22, 0.3];
        let post = DensePosterior::from_risks(&risks);
        let order: Vec<usize> = (0..risks.len()).collect();
        let prefix = select_halving_prefix(&post, &order, 7).unwrap();
        let global = select_halving_global(&post, &order, 7).unwrap();
        assert!(global.distance <= prefix.distance + 1e-12);
    }

    #[test]
    fn global_respects_eligible_subset() {
        let risks = [0.1, 0.2, 0.3, 0.4, 0.25];
        let post = DensePosterior::from_risks(&risks);
        // Only subjects 1 and 3 are still unclassified.
        let sel = select_halving_global(&post, &[1, 3], 5).unwrap();
        assert!(sel.pool.is_subset_of(State::from_subjects([1, 3])));
        assert!(!sel.pool.is_empty());
    }

    #[test]
    fn degenerate_cases() {
        let post = DensePosterior::from_risks(&[0.2, 0.3]);
        assert!(select_halving_global(&post, &[], 2).is_none());
        assert!(select_halving_global(&post, &[0, 1], 0).is_none());
        let zero = DensePosterior::from_probs(2, vec![0.0; 4]);
        assert!(select_halving_global(&zero, &[0, 1], 2).is_none());
    }

    #[test]
    fn global_can_beat_prefix_strictly() {
        // The regression case the prefix rule misses: a non-prefix subset
        // lands closer to 1/2 than any prefix.
        let risks = [0.02, 0.04, 0.07, 0.11, 0.16, 0.22, 0.3];
        let post = DensePosterior::from_risks(&risks);
        let order: Vec<usize> = (0..risks.len()).collect();
        let prefix = select_halving_prefix(&post, &order, 7).unwrap();
        let global = select_halving_global(&post, &order, 7).unwrap();
        assert!(
            global.distance < prefix.distance - 1e-6,
            "expected strict improvement: global {global:?} vs prefix {prefix:?}"
        );
    }
}
