//! Marginal-driven halving selection over [`BigState`] pools.
//!
//! The exact Bayesian Halving search scores a candidate pool `A` by the
//! posterior mass of its all-negative down-set and picks the prefix (in
//! ascending-marginal order) closest to mass ½. Beyond the `2^N` wall there
//! is no down-set to sum, so the approximate backends score the same
//! prefix candidates under an independence approximation: the probability
//! that the first `k` ordered subjects are all negative is
//! `∏_{i<k} (1 − m_i)` over the approximate marginals `m_i`. For the
//! concentrated, near-independent posteriors group testing produces this
//! tracks the exact negative mass closely (the accuracy harness pins how
//! closely, end to end).
//!
//! Tie-breaking mirrors `sbgt_select::halving::Selection::better_than` —
//! distances within [`DISTANCE_EPS`] are ties, resolved toward the smaller
//! pool — so the approximate search degrades into the exact one's
//! preferences, not a different policy.

use sbgt_lattice::BigState;

/// Distances within this epsilon count as ties (same value as the exact
/// halving search).
pub const DISTANCE_EPS: f64 = 1e-12;

/// A selected pool with its approximate all-negative mass (`negative_mass`)
/// and halving objective `|negative_mass − ½|` (`distance`): the exact
/// search's selection record over a [`BigState`] pool.
pub type BigSelection = sbgt::prelude::Selection<BigState>;

/// Pick the prefix of `order` (ascending-marginal candidate ordering)
/// whose approximate all-negative mass is closest to ½, capped at
/// `max_pool_size`. Returns `None` when `order` is empty.
pub fn select_halving_marginals(
    order: &[usize],
    marginals: &[f64],
    max_pool_size: usize,
) -> Option<BigSelection> {
    if order.is_empty() || max_pool_size == 0 {
        return None;
    }
    let mut best: Option<(usize, f64, f64)> = None; // (k, mass, distance)
    let mut mass = 1.0f64;
    for (idx, &subject) in order.iter().enumerate().take(max_pool_size) {
        mass *= 1.0 - marginals[subject];
        let distance = (mass - 0.5).abs();
        // Strict improvement beyond the epsilon replaces; ascending-k
        // iteration makes ties keep the earlier (smaller) pool, matching
        // the exact search's rank tie-break.
        let better = match best {
            None => true,
            Some((_, _, best_distance)) => distance < best_distance - DISTANCE_EPS,
        };
        if better {
            best = Some((idx + 1, mass, distance));
        }
    }
    best.map(|(k, negative_mass, distance)| BigSelection {
        pool: BigState::from_subjects(order[..k].iter().copied()),
        negative_mass,
        distance,
    })
}

/// Select up to `width` disjoint pools for one lab round: each subsequent
/// pool runs the same halving search over the subjects the earlier pools
/// did not claim — look-ahead over the approximate marginals, with the
/// stage's pools testable concurrently because they are disjoint.
pub fn select_stage_marginals(
    order: &[usize],
    marginals: &[f64],
    max_pool_size: usize,
    width: usize,
) -> Vec<BigSelection> {
    let mut selections = Vec::new();
    let mut remaining: Vec<usize> = order.to_vec();
    for _ in 0..width {
        let Some(sel) = select_halving_marginals(&remaining, marginals, max_pool_size) else {
            break;
        };
        let taken = sel.pool.rank() as usize;
        remaining.drain(..taken);
        selections.push(sel);
        if remaining.is_empty() {
            break;
        }
    }
    selections
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_the_prefix_closest_to_half() {
        // Marginals 0.2 each: masses 0.8, 0.64, 0.512, 0.4096 — the 3-prefix
        // is closest to ½.
        let marginals = vec![0.2; 8];
        let order: Vec<usize> = (0..8).collect();
        let sel = select_halving_marginals(&order, &marginals, 16).unwrap();
        assert_eq!(sel.pool.rank(), 3);
        assert!((sel.negative_mass - 0.512).abs() < 1e-12);
        assert!((sel.distance - 0.012).abs() < 1e-12);
    }

    #[test]
    fn respects_the_pool_cap_and_empty_order() {
        let marginals = vec![0.01; 64];
        let order: Vec<usize> = (0..64).collect();
        // Tiny marginals want a huge pool; the cap binds.
        let sel = select_halving_marginals(&order, &marginals, 16).unwrap();
        assert_eq!(sel.pool.rank(), 16);
        assert!(select_halving_marginals(&[], &marginals, 16).is_none());
        assert!(select_halving_marginals(&order, &marginals, 0).is_none());
    }

    #[test]
    fn ties_keep_the_smaller_pool() {
        // A subject with marginal ~1.0 makes every following prefix mass
        // identical (0.0): the first prefix reaching it must win.
        let marginals = vec![0.5, 1.0 - 1e-15, 0.3, 0.3];
        let order: Vec<usize> = (0..4).collect();
        let sel = select_halving_marginals(&order, &marginals, 4).unwrap();
        assert_eq!(sel.pool.rank(), 1, "tie at distance ½ resolves small");
    }

    #[test]
    fn stage_pools_are_disjoint_and_ordered() {
        let marginals = vec![0.2; 12];
        let order: Vec<usize> = (0..12).collect();
        let stage = select_stage_marginals(&order, &marginals, 16, 3);
        assert_eq!(stage.len(), 3);
        let mut seen = BigState::empty();
        for sel in &stage {
            assert!(!seen.intersects(&sel.pool), "stage pools overlap");
            for s in sel.pool.subjects() {
                seen.insert(s);
            }
        }
        assert_eq!(seen.rank(), 9, "three 3-prefixes of identical marginals");
        // Width beyond the candidate supply stops early.
        let wide = select_stage_marginals(&order[..4], &marginals, 16, 8);
        assert!(wide.len() < 8);
    }
}
