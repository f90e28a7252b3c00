//! Zeta and Möbius transforms on the Boolean lattice (subset-sum DP).
//!
//! The *zeta transform* of a mass vector `f` is
//! `ζf(t) = Σ_{s ⊆ t} f(s)` — the cumulative mass of every principal
//! down-set — computed for **all** `2^N` sets simultaneously in
//! `Θ(N · 2^N)` by the Yates/SOS dynamic program. The *Möbius transform*
//! inverts it.
//!
//! Why this matters here: the pool-negative mass of pool `A` is
//! `m(A) = Σ_{s ∩ A = ∅} π(s) = ζπ(complement(A))`. One zeta transform
//! therefore prices **every possible pool at once**, turning the exhaustive
//! Bayesian-halving search from `Θ(4^N)` (one `Θ(2^N)` scan per subset)
//! into `Θ(N · 2^N)` — the lattice-algebra speedup that makes globally
//! optimal selection feasible wherever the posterior fits in memory.

use crate::dense::DensePosterior;

/// In-place zeta transform: `f[t] ← Σ_{s ⊆ t} f[s]`.
///
/// # Panics
/// Panics if `f.len()` is not `2^n`.
pub fn zeta_in_place(f: &mut [f64], n: usize) {
    assert_eq!(f.len(), crate::num_states(n), "length must be 2^n");
    for i in 0..n {
        let bit = 1usize << i;
        // Standard SOS DP level: every set containing subject i absorbs
        // the mass of the same set without i.
        for t in 0..f.len() {
            if t & bit != 0 {
                f[t] += f[t ^ bit];
            }
        }
    }
}

/// In-place Möbius transform (inverse of [`zeta_in_place`]):
/// `f[t] ← Σ_{s ⊆ t} (−1)^{|t\s|} f[s]`.
pub fn mobius_in_place(f: &mut [f64], n: usize) {
    assert_eq!(f.len(), crate::num_states(n), "length must be 2^n");
    for i in 0..n {
        let bit = 1usize << i;
        for t in 0..f.len() {
            if t & bit != 0 {
                f[t] -= f[t ^ bit];
            }
        }
    }
}

/// Pool-negative masses of **every** pool of a cohort in `Θ(N · 2^N)`:
/// `out[pool] = Σ_{s ∩ pool = ∅} π(s)`.
///
/// One zeta transform prices all `2^N` candidate pools simultaneously;
/// `out[pool] = ζπ(complement(pool))`.
pub fn all_pool_negative_masses(posterior: &DensePosterior) -> Vec<f64> {
    let n = posterior.n_subjects();
    let mut zeta = posterior.probs().to_vec();
    zeta_in_place(&mut zeta, n);
    let full = crate::num_states(n) - 1;
    (0..=full).map(|pool| zeta[pool ^ full]).collect()
}

/// Up-set (superset) masses of every set in `Θ(N · 2^N)`:
/// `out[t] = Σ_{s ⊇ t} π(s)` — e.g. `out[{i}]` is subject `i`'s marginal
/// times the total, and `out[t]` the probability that *all* of `t` is
/// positive (joint infection probability of a contact cluster).
pub fn up_set_masses(posterior: &DensePosterior) -> Vec<f64> {
    let n = posterior.n_subjects();
    let len = posterior.len();
    // Superset-sum = subset-sum on the complemented index.
    let full = len - 1;
    let mut g = vec![0.0f64; len];
    for (idx, &p) in posterior.probs().iter().enumerate() {
        g[idx ^ full] = p;
    }
    zeta_in_place(&mut g, n);
    let mut out = vec![0.0f64; len];
    for (idx, slot) in out.iter_mut().enumerate() {
        *slot = g[idx ^ full];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iter::all_states;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9 * (1.0 + a.abs() + b.abs())
    }

    fn example(n: usize) -> DensePosterior {
        let risks: Vec<f64> = (0..n).map(|i| 0.03 + 0.07 * i as f64 / n as f64).collect();
        DensePosterior::from_risks(&risks)
    }

    #[test]
    fn zeta_matches_naive() {
        let d = example(6);
        let mut f = d.probs().to_vec();
        zeta_in_place(&mut f, 6);
        for t in all_states(6) {
            let naive: f64 = all_states(6)
                .filter(|s| s.is_subset_of(t))
                .map(|s| d.get(s))
                .sum();
            assert!(close(f[t.index()], naive), "t={t}");
        }
    }

    #[test]
    fn mobius_inverts_zeta() {
        let d = example(7);
        let mut f = d.probs().to_vec();
        zeta_in_place(&mut f, 7);
        mobius_in_place(&mut f, 7);
        for (a, b) in f.iter().zip(d.probs()) {
            assert!(close(*a, *b));
        }
    }

    #[test]
    fn all_pool_masses_match_per_pool_scans() {
        let d = example(7);
        let all = all_pool_negative_masses(&d);
        assert_eq!(all.len(), 128);
        for pool in all_states(7) {
            assert!(
                close(all[pool.index()], d.pool_negative_mass(pool)),
                "pool={pool}"
            );
        }
        // The empty pool's negative mass is the total.
        assert!(close(all[0], d.total()));
    }

    #[test]
    fn up_set_masses_give_marginals_and_joints() {
        let risks = [0.2, 0.35, 0.1, 0.05];
        let d = DensePosterior::from_risks(&risks);
        let up = up_set_masses(&d);
        // Singletons: marginals (prior is normalized).
        for (i, &p) in risks.iter().enumerate() {
            assert!(close(up[1 << i], p), "subject {i}");
        }
        // Pairs: product under independence.
        assert!(close(up[0b11], 0.2 * 0.35));
        // Empty set: total mass.
        assert!(close(up[0], 1.0));
        // Full set: all-positive probability.
        assert!(close(up[0b1111], risks.iter().product()));
    }

    #[test]
    #[should_panic(expected = "length must be 2^n")]
    fn zeta_validates_length() {
        let mut f = vec![0.0; 6];
        zeta_in_place(&mut f, 3);
    }
}
