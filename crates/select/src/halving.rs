//! The Bayesian Halving Algorithm.
//!
//! For a candidate pool `A`, let `m(A) = P(s ∩ A = ∅ | data)` be the
//! posterior mass of the pool-negative down-set. The BHA selects the `A`
//! minimizing the *halving distance* `|m(A) − ½|`: the test that most
//! evenly bisects the posterior with respect to the lattice order, which
//! the method paper shows yields optimally convergent classification even
//! under dilution.
//!
//! Ties are broken toward smaller pools (cheaper wet-lab handling), then
//! lexicographically for determinism.

use sbgt_lattice::{DensePosterior, ExecMode, ParConfig, SparsePosterior, State};

/// The outcome of a selection rule. The pool is a one-word [`State`] for
/// every exact rule in this crate; the approximate backends past the
/// 48-subject `State` ceiling select `Selection<BigState>`s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Selection<P = State> {
    /// The chosen pool.
    pub pool: P,
    /// Posterior probability that the pool is truly negative, `m(A)`.
    pub negative_mass: f64,
    /// Halving distance `|m(A) − ½|`.
    pub distance: f64,
}

impl Selection {
    /// Tolerance within which two halving distances count as tied.
    pub const DISTANCE_EPS: f64 = 1e-12;

    /// The one tie-breaking rule every selection path uses: a candidate
    /// wins if its distance is smaller by more than [`Self::DISTANCE_EPS`];
    /// within the tolerance, the smaller pool wins, then the
    /// lexicographically smallest bitmask. Exhaustive and prefix BHA share
    /// this comparison, so they cannot disagree on near-tied candidates.
    pub fn better_than(&self, other: &Selection) -> bool {
        if self.distance + Self::DISTANCE_EPS < other.distance {
            return true;
        }
        if other.distance + Self::DISTANCE_EPS < self.distance {
            return false;
        }
        (self.pool.rank(), self.pool.bits()) < (other.pool.rank(), other.pool.bits())
    }
}

/// Exhaustive BHA: score every candidate with a full `O(2^N)` down-set mass
/// scan. `posterior` need not be normalized; masses are normalized by the
/// posterior total. Returns `None` when `candidates` is empty or the
/// posterior total is degenerate.
///
/// This is the baseline framework's selection path (and the ground truth
/// the fast path is tested against).
pub fn select_halving_exhaustive(
    posterior: &DensePosterior,
    candidates: &[State],
) -> Option<Selection> {
    let total = posterior.total();
    if !(total.is_finite() && total > 0.0) {
        return None;
    }
    let mut best: Option<Selection> = None;
    for &pool in candidates {
        if pool.is_empty() {
            continue;
        }
        let mass = posterior.pool_negative_mass(pool) / total;
        let cand = Selection {
            pool,
            negative_mass: mass,
            distance: (mass - 0.5).abs(),
        };
        if best.as_ref().is_none_or(|b| cand.better_than(b)) {
            best = Some(cand);
        }
    }
    best
}

/// Fast BHA over prefix pools of `order` (subjects in ascending-marginal
/// order), using the one-pass all-prefix mass kernel. Considers prefixes of
/// length `1..=max_pool_size` and returns the best.
///
/// ```
/// use sbgt_lattice::DensePosterior;
/// use sbgt_select::select_halving_prefix;
/// // Eight subjects at ~8% risk: (1-p)^8 ≈ 0.513 — pool them all.
/// let post = DensePosterior::from_risks(&[0.08; 8]);
/// let order: Vec<usize> = (0..8).collect();
/// let sel = select_halving_prefix(&post, &order, 16).unwrap();
/// assert_eq!(sel.pool.rank(), 8);
/// assert!((sel.negative_mass - 0.92f64.powi(8)).abs() < 1e-9);
/// ```
///
/// For an independent posterior, a pool's negative mass is the product of
/// its members' negative-marginals, so ascending-marginal prefixes sweep
/// that product monotonically from `max_i (1 - p_i)` down to `∏ (1 - p_i)`
/// with the finest steps available, and consecutive prefixes bracket ½.
/// The selected prefix is therefore near-optimal — exhaustive search can
/// improve the halving distance by at most the bracketing gap (tested) —
/// at `O(2^N)` total cost instead of `O(|C| · 2^N)`.
pub fn select_halving_prefix(
    posterior: &DensePosterior,
    order: &[usize],
    max_pool_size: usize,
) -> Option<Selection> {
    select_halving_prefix_on(posterior, order, max_pool_size, ExecMode::Serial)
}

/// [`select_halving_prefix`] with the mass pass's blocks on rayon; the
/// same selection, bit for bit.
pub fn select_halving_prefix_par(
    posterior: &DensePosterior,
    order: &[usize],
    max_pool_size: usize,
    par: ParConfig,
) -> Option<Selection> {
    select_halving_prefix_on(posterior, order, max_pool_size, ExecMode::Parallel(par))
}

/// [`select_halving_prefix`] with the mass pass's blocks run where `exec`
/// says.
pub fn select_halving_prefix_on(
    posterior: &DensePosterior,
    order: &[usize],
    max_pool_size: usize,
    exec: ExecMode,
) -> Option<Selection> {
    let masses = posterior.prefix_negative_masses_on(order, exec);
    select_halving_from_masses(order, &masses, max_pool_size)
}

/// Sparse-posterior variant of [`select_halving_prefix`].
pub fn select_halving_prefix_sparse(
    posterior: &SparsePosterior,
    order: &[usize],
    max_pool_size: usize,
) -> Option<Selection> {
    let masses = posterior.prefix_negative_masses(order);
    select_halving_from_masses(order, &masses, max_pool_size)
}

/// Best prefix pool given precomputed all-prefix negative masses
/// (`masses[k]` = unnormalized mass of "first `k` subjects of `order` all
/// negative"; `masses[0]` = posterior total). This is the driver-side half
/// of the prefix rule, shared by the dense, sparse, parallel, and
/// engine-sharded selection paths.
///
/// Candidates are compared with [`Selection::better_than`] — the same
/// EPS-tolerant, smaller-pool-then-lex rule the exhaustive search uses —
/// so near-tied prefixes resolve identically everywhere.
pub fn select_halving_from_masses(
    order: &[usize],
    masses: &[f64],
    max_pool_size: usize,
) -> Option<Selection> {
    let total = masses.first().copied()?;
    if !(total.is_finite() && total > 0.0) {
        return None;
    }
    let cap = max_pool_size.min(order.len());
    if cap == 0 {
        return None;
    }
    // masses[k] is non-increasing in k, so the best prefix is where the
    // normalized mass crosses 1/2 — but with a size cap and ties we simply
    // scan the <= N+1 values (negligible next to the O(2^N) mass pass).
    let mut best: Option<Selection> = None;
    for k in 1..=cap {
        let mass = masses[k] / total;
        let cand = Selection {
            pool: State::from_subjects(order[..k].iter().copied()),
            negative_mass: mass,
            distance: (mass - 0.5).abs(),
        };
        if best.as_ref().is_none_or(|b| cand.better_than(b)) {
            best = Some(cand);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::CandidateStrategy;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn exhaustive_finds_exact_half_when_available() {
        // Two subjects at risk ~0.2929 make the pool {0,1} have negative
        // mass (1-p)^2 = 0.5 exactly.
        let p = 1.0 - 0.5f64.sqrt();
        let post = DensePosterior::from_risks(&[p, p]);
        let candidates = CandidateStrategy::Exhaustive { max_pool_size: 2 }.generate(&[0, 1]);
        let sel = select_halving_exhaustive(&post, &candidates).unwrap();
        assert_eq!(sel.pool, State::from_subjects([0, 1]));
        assert!(close(sel.negative_mass, 0.5));
        assert!(sel.distance < 1e-9);
    }

    #[test]
    fn prefix_is_near_exhaustive_on_independent_prior() {
        // The prefix rule is optimal among prefixes and within the
        // bracketing gap of the exhaustive optimum over all subsets.
        let risks = [0.02, 0.04, 0.07, 0.11, 0.16, 0.22, 0.3];
        let post = DensePosterior::from_risks(&risks);
        let order: Vec<usize> = (0..risks.len()).collect();
        let all = CandidateStrategy::Exhaustive { max_pool_size: 7 }.generate(&order);
        let ex = select_halving_exhaustive(&post, &all).unwrap();
        let fast = select_halving_prefix(&post, &order, 7).unwrap();
        // Exhaustive can only be better.
        assert!(ex.distance <= fast.distance + 1e-12);
        // ...and by no more than the bracketing gap between consecutive
        // prefix masses around 1/2.
        let masses = post.prefix_negative_masses(&order);
        let gap = masses
            .windows(2)
            .map(|w| w[0] - w[1])
            .fold(0.0f64, f64::max);
        assert!(
            fast.distance - ex.distance <= gap + 1e-12,
            "exhaustive {ex:?} vs prefix {fast:?} (gap {gap})"
        );
        // The prefix rule is exactly optimal among prefix candidates.
        let prefixes = CandidateStrategy::SortedPrefix { max_pool_size: 7 }.generate(&order);
        let best_prefix = select_halving_exhaustive(&post, &prefixes).unwrap();
        assert!(close(best_prefix.distance, fast.distance));
    }

    #[test]
    fn prefix_and_parallel_prefix_are_bitwise_equal() {
        let risks: Vec<f64> = (0..17).map(|i| 0.01 + 0.02 * (i % 9) as f64).collect();
        let post = DensePosterior::from_risks(&risks);
        let mut order: Vec<usize> = (0..risks.len()).collect();
        order.sort_by(|&a, &b| risks[a].total_cmp(&risks[b]).then(a.cmp(&b)));
        let a = select_halving_prefix(&post, &order, 16).unwrap();
        let b = select_halving_prefix_par(&post, &order, 16, ParConfig).unwrap();
        assert_eq!(a.pool, b.pool);
        assert_eq!(a.negative_mass.to_bits(), b.negative_mass.to_bits());
    }

    #[test]
    fn sparse_prefix_matches_dense_when_unpruned() {
        let risks = [0.05, 0.1, 0.15, 0.2, 0.25];
        let post = DensePosterior::from_risks(&risks);
        let sparse = SparsePosterior::from_dense(&post, 0.0);
        let order: Vec<usize> = (0..risks.len()).collect();
        let a = select_halving_prefix(&post, &order, 5).unwrap();
        let b = select_halving_prefix_sparse(&sparse, &order, 5).unwrap();
        assert_eq!(a.pool, b.pool);
        assert!(close(a.negative_mass, b.negative_mass));
    }

    #[test]
    fn max_pool_size_is_respected() {
        let risks = [0.01; 10];
        let post = DensePosterior::from_risks(&risks);
        let order: Vec<usize> = (0..10).collect();
        let sel = select_halving_prefix(&post, &order, 4).unwrap();
        assert!(sel.pool.rank() <= 4);
        // With very low prevalence, bigger pools are better; the cap binds.
        assert_eq!(sel.pool.rank(), 4);
    }

    #[test]
    fn tie_break_prefers_smaller_pool() {
        // Uniform posterior: every pool of rank r has negative mass 2^-r,
        // so ranks 1 gives 0.5 exactly — multiple rank-1 pools tie; the
        // lexicographically smallest must win.
        let post = DensePosterior::new_uniform(4);
        let candidates = CandidateStrategy::Exhaustive { max_pool_size: 4 }.generate(&[0, 1, 2, 3]);
        let sel = select_halving_exhaustive(&post, &candidates).unwrap();
        assert_eq!(sel.pool, State::from_subjects([0]));
        assert!(close(sel.negative_mass, 0.5));
    }

    #[test]
    fn exact_half_half_tie_pins_smaller_pool() {
        // Subject 0 at risk 0.5, subject 1 at risk 0: prefixes {0} and
        // {0,1} both have negative mass exactly 0.5 (distance 0). The
        // unified tie-break must pin the smaller pool — in both the
        // prefix path and the exhaustive path.
        let post = DensePosterior::from_risks(&[0.5, 0.0]);
        let order = [0usize, 1];
        let masses = post.prefix_negative_masses(&order);
        assert_eq!(masses[1], 0.5, "prefix {{0}} mass is exactly 1/2");
        assert_eq!(masses[2], 0.5, "prefix {{0,1}} mass is exactly 1/2");

        let prefix = select_halving_prefix(&post, &order, 2).unwrap();
        assert_eq!(prefix.pool, State::from_subjects([0]));
        assert_eq!(prefix.negative_mass, 0.5);

        let candidates = vec![State::from_subjects([0]), State::from_subjects([0, 1])];
        let exhaustive = select_halving_exhaustive(&post, &candidates).unwrap();
        assert_eq!(exhaustive.pool, prefix.pool, "paths must agree on the tie");

        // And within equal rank the lexicographically smaller mask wins.
        let a = Selection {
            pool: State::from_subjects([1]),
            negative_mass: 0.5,
            distance: 0.0,
        };
        let b = Selection {
            pool: State::from_subjects([0]),
            negative_mass: 0.5,
            distance: 0.0,
        };
        assert!(b.better_than(&a));
        assert!(!a.better_than(&b));
    }

    #[test]
    fn empty_candidates_give_none() {
        let post = DensePosterior::new_uniform(3);
        assert!(select_halving_exhaustive(&post, &[]).is_none());
        assert!(select_halving_prefix(&post, &[], 3).is_none());
        assert!(select_halving_prefix(&post, &[0, 1], 0).is_none());
    }

    #[test]
    fn degenerate_posterior_gives_none() {
        let post = DensePosterior::from_probs(2, vec![0.0; 4]);
        let candidates = vec![State::from_subjects([0])];
        assert!(select_halving_exhaustive(&post, &candidates).is_none());
        assert!(select_halving_prefix(&post, &[0, 1], 2).is_none());
    }

    #[test]
    fn unnormalized_posterior_is_handled() {
        let mut post = DensePosterior::from_risks(&[0.2, 0.3, 0.1]);
        for p in post.probs_mut() {
            *p *= 17.0;
        }
        let order = [2usize, 0, 1];
        let sel = select_halving_prefix(&post, &order, 3).unwrap();
        assert!(sel.negative_mass <= 1.0 + 1e-12);
    }
}
