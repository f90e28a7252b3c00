//! The Bayesian posterior update.
//!
//! Observing outcome `y` of a pooled test on pool `A` multiplies each
//! state's mass by the likelihood `f(y | |s ∩ A|, |A|)` and renormalizes.
//! This is the "lattice-model manipulation" operation class of the SBGT
//! paper — the `Θ(2^N)` workhorse. The implementations here fuse the
//! multiply with the normalization sum (one pass instead of three:
//! multiply, sum, scale becomes multiply+sum, scale) and delegate the
//! per-state likelihood to a `|A|+1`-entry broadcast table.

use sbgt_lattice::{DensePosterior, SparsePosterior, State};
use sbgt_response::ResponseModel;

/// One observed pooled test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation<O> {
    /// The tested pool (set of subject indices).
    pub pool: State,
    /// The assay outcome.
    pub outcome: O,
}

impl<O> Observation<O> {
    /// Convenience constructor.
    pub fn new(pool: State, outcome: O) -> Self {
        Observation { pool, outcome }
    }
}

/// Errors from posterior updates.
#[derive(Debug, Clone, PartialEq)]
pub enum BayesError {
    /// The observation has zero likelihood under every state with posterior
    /// mass — the posterior would be identically zero. For a dense
    /// posterior this only happens with degenerate (0/1-probability)
    /// response models; for a pruned sparse posterior it can also mean the
    /// truth was pruned away.
    ImpossibleObservation,
    /// An empty pool was tested.
    EmptyPool,
}

impl std::fmt::Display for BayesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BayesError::ImpossibleObservation => {
                write!(f, "observation impossible under current posterior")
            }
            BayesError::EmptyPool => write!(f, "pool must contain at least one subject"),
        }
    }
}

impl std::error::Error for BayesError {}

fn likelihood_table<M: ResponseModel>(
    model: &M,
    obs: &Observation<M::Outcome>,
) -> Result<Vec<f64>, BayesError> {
    let pool_size = obs.pool.rank();
    if pool_size == 0 {
        return Err(BayesError::EmptyPool);
    }
    Ok(model.likelihood_table(obs.outcome, pool_size))
}

/// Serial dense update. Returns the model evidence
/// `P(y | data so far) = Σ_s π(s) f(y | ...)` (the pre-normalization total).
pub fn update_dense<M: ResponseModel>(
    posterior: &mut DensePosterior,
    model: &M,
    obs: &Observation<M::Outcome>,
) -> Result<f64, BayesError> {
    let table = likelihood_table(model, obs)?;
    let z = posterior.mul_likelihood_fused(obs.pool, &table);
    if !(z.is_finite() && z > 0.0) {
        return Err(BayesError::ImpossibleObservation);
    }
    let inv = 1.0 / z;
    for p in posterior.probs_mut() {
        *p *= inv;
    }
    Ok(z)
}

/// Sparse update with optional re-pruning: after the multiply, the retained
/// vector is rescaled so that `total() + pruned_mass() == 1`, then states
/// whose mass dropped below `prune_epsilon` of the retained total are
/// discarded (pass `0.0` to keep everything).
///
/// The rescale targets `1 - pruned_mass`, not `1`: renormalizing the
/// retained vector alone to 1 after every prune (the pre-fix behavior)
/// silently re-inflates the discarded share back into the retained states
/// while `pruned_mass` keeps growing in stale units, so
/// `total() + pruned_mass()` drifts above 1 without bound over long
/// sessions. With the conservation rescale the pruned record stays in the
/// same units as the live vector and the invariant holds exactly after
/// every round; at `prune_epsilon = 0` nothing is ever pruned and this
/// degenerates to the plain normalize-to-1 of the dense path.
pub fn update_sparse<M: ResponseModel>(
    posterior: &mut SparsePosterior,
    model: &M,
    obs: &Observation<M::Outcome>,
    prune_epsilon: f64,
) -> Result<f64, BayesError> {
    let table = likelihood_table(model, obs)?;
    update_sparse_with_table(posterior, obs.pool, &table, prune_epsilon)
}

/// [`update_sparse`] with the likelihood table already materialized. The
/// engine-backed sparse round builds the table driver-side (it only depends
/// on the outcome and pool size) so the stage closure captures plain `Send`
/// data instead of the response model.
pub fn update_sparse_with_table(
    posterior: &mut SparsePosterior,
    pool: State,
    table: &[f64],
    prune_epsilon: f64,
) -> Result<f64, BayesError> {
    if pool.rank() == 0 {
        return Err(BayesError::EmptyPool);
    }
    let z = posterior.mul_likelihood_fused(pool, table);
    if !(z.is_finite() && z > 0.0) {
        return Err(BayesError::ImpossibleObservation);
    }
    posterior
        .renormalize_retained()
        .ok_or(BayesError::ImpossibleObservation)?;
    if prune_epsilon > 0.0 {
        // Pruning moves mass from the retained vector into `pruned_mass`
        // one-for-one, so the conservation invariant survives with no
        // further rescale.
        posterior.prune(prune_epsilon);
        if posterior.support() == 0 {
            return Err(BayesError::ImpossibleObservation);
        }
    }
    Ok(z)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbgt_lattice::{ExecMode, ParConfig, State};
    use sbgt_response::{BinaryDilutionModel, Dilution, GaussianResponse};

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9 * (1.0 + a.abs() + b.abs())
    }

    fn prior(risks: &[f64]) -> DensePosterior {
        DensePosterior::from_risks(risks)
    }

    #[test]
    fn perfect_negative_pool_clears_members() {
        let mut post = prior(&[0.3, 0.3, 0.3]);
        let model = BinaryDilutionModel::perfect();
        let obs = Observation::new(State::from_subjects([0, 1]), false);
        let z = update_dense(&mut post, &model, &obs).unwrap();
        // Evidence = prior mass of the pool-negative set = 0.7^2.
        assert!(close(z, 0.49));
        let m = post.marginals();
        assert!(close(m[0], 0.0));
        assert!(close(m[1], 0.0));
        assert!(close(m[2], 0.3)); // untested subject unchanged
        assert!(close(post.total(), 1.0));
    }

    #[test]
    fn perfect_positive_pool_raises_members() {
        let mut post = prior(&[0.1, 0.1]);
        let model = BinaryDilutionModel::perfect();
        let obs = Observation::new(State::from_subjects([0]), true);
        update_dense(&mut post, &model, &obs).unwrap();
        let m = post.marginals();
        assert!(close(m[0], 1.0));
        assert!(close(m[1], 0.1));
    }

    #[test]
    fn bayes_rule_hand_computed() {
        // Single subject, imperfect test: classic posterior odds check.
        let mut post = prior(&[0.2]);
        let model = BinaryDilutionModel::new(0.9, 0.95, Dilution::None);
        let obs = Observation::new(State::from_subjects([0]), true);
        let z = update_dense(&mut post, &model, &obs).unwrap();
        // P(+) = 0.2*0.9 + 0.8*0.05 = 0.22
        assert!(close(z, 0.22));
        // P(pos | +) = 0.18 / 0.22
        assert!(close(post.marginals()[0], 0.18 / 0.22));
    }

    /// The update on rayon blocks, normalised by the same scale loop, is
    /// `update_dense` bit for bit past one 2^16-state block.
    #[test]
    fn serial_and_parallel_updates_are_bitwise_equal() {
        let risks: Vec<f64> = (0..17).map(|i| 0.01 + 0.03 * (i % 5) as f64).collect();
        let model = BinaryDilutionModel::pcr_like();
        let obs = [
            Observation::new(State::from_subjects([0, 1, 2, 3]), true),
            Observation::new(State::from_subjects([4, 5, 16]), false),
            Observation::new(State::from_subjects([1]), true),
        ];
        let mut serial = prior(&risks);
        let mut parallel = prior(&risks);
        for o in &obs {
            let zs = update_dense(&mut serial, &model, o).unwrap();
            let table = model.likelihood_table(o.outcome, o.pool.rank());
            let zp = parallel.scale_mul_likelihood_fused(
                1.0,
                o.pool,
                &table,
                ExecMode::Parallel(ParConfig),
            );
            assert_eq!(zs.to_bits(), zp.to_bits());
            let inv = 1.0 / zp;
            for p in parallel.probs_mut() {
                *p *= inv;
            }
        }
        for (a, b) in serial.probs().iter().zip(parallel.probs()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn sparse_unpruned_matches_dense() {
        let risks = [0.1, 0.25, 0.4, 0.07];
        let model = BinaryDilutionModel::pcr_like();
        let mut dense = prior(&risks);
        let mut sparse = SparsePosterior::from_dense(&dense, 0.0);
        let obs = Observation::new(State::from_subjects([1, 2]), true);
        let zd = update_dense(&mut dense, &model, &obs).unwrap();
        let zs = update_sparse(&mut sparse, &model, &obs, 0.0).unwrap();
        assert!(close(zd, zs));
        for (a, b) in dense.marginals().iter().zip(sparse.marginals()) {
            assert!(close(*a, b));
        }
    }

    #[test]
    fn sparse_pruning_shrinks_support() {
        let risks = vec![0.02; 12];
        let model = BinaryDilutionModel::pcr_like();
        let mut sparse = SparsePosterior::from_dense(&prior(&risks), 0.0);
        let before = sparse.support();
        let obs = Observation::new(State::from_subjects([0, 1, 2, 3, 4, 5]), false);
        update_sparse(&mut sparse, &model, &obs, 1e-9).unwrap();
        assert!(sparse.support() < before);
        // Conservation, not normalization-to-1: what pruning discarded is
        // still accounted for in pruned_mass.
        assert!(close(sparse.total() + sparse.pruned_mass(), 1.0));
        assert!(sparse.pruned_mass() > 0.0);
    }

    #[test]
    fn sparse_mass_is_conserved_across_many_prune_cycles() {
        // Regression: the pre-fix flow (normalize-to-1, prune, normalize-
        // to-1 again) let total() + pruned_mass() drift above 1 by the
        // accumulated pruned share every round.
        let risks = vec![0.03; 10];
        let model = BinaryDilutionModel::pcr_like();
        let mut sparse = SparsePosterior::from_dense(&prior(&risks), 0.0);
        for t in 0..120u64 {
            let a = (t % 10) as usize;
            let b = ((t * 7 + 3) % 10) as usize;
            let pool = if a == b {
                State::from_subjects([a])
            } else {
                State::from_subjects([a, b])
            };
            let outcome = t % 5 == 0;
            if update_sparse(&mut sparse, &model, &Observation::new(pool, outcome), 1e-6).is_err() {
                break;
            }
            let conserved = sparse.total() + sparse.pruned_mass();
            assert!(
                (conserved - 1.0).abs() < 1e-12,
                "round {t}: total+pruned = {conserved}"
            );
        }
        assert!(sparse.pruned_mass() > 0.0, "campaign never pruned");
    }

    #[test]
    fn impossible_observation_is_error() {
        // Perfect test, pool already proven all-negative, then a positive
        // outcome on the same pool: zero posterior mass everywhere.
        let mut post = prior(&[0.3, 0.3]);
        let model = BinaryDilutionModel::perfect();
        let pool = State::from_subjects([0, 1]);
        update_dense(&mut post, &model, &Observation::new(pool, false)).unwrap();
        let err = update_dense(&mut post, &model, &Observation::new(pool, true)).unwrap_err();
        assert_eq!(err, BayesError::ImpossibleObservation);
    }

    #[test]
    fn empty_pool_is_error() {
        let mut post = prior(&[0.3]);
        let model = BinaryDilutionModel::perfect();
        let err =
            update_dense(&mut post, &model, &Observation::new(State::EMPTY, true)).unwrap_err();
        assert_eq!(err, BayesError::EmptyPool);
    }

    #[test]
    fn order_of_observations_does_not_matter() {
        let risks = [0.1, 0.3, 0.22, 0.18];
        let model = BinaryDilutionModel::pcr_like();
        let a = Observation::new(State::from_subjects([0, 1]), true);
        let b = Observation::new(State::from_subjects([2, 3]), false);
        let mut ab = prior(&risks);
        let mut ba = prior(&risks);
        update_dense(&mut ab, &model, &a).unwrap();
        update_dense(&mut ab, &model, &b).unwrap();
        update_dense(&mut ba, &model, &b).unwrap();
        update_dense(&mut ba, &model, &a).unwrap();
        for (x, y) in ab.probs().iter().zip(ba.probs()) {
            assert!(close(*x, *y));
        }
    }

    #[test]
    fn continuous_outcome_update() {
        let mut post = prior(&[0.3, 0.3]);
        let model = GaussianResponse::pcr_like();
        // Strong signal on the pool of both subjects: at least one positive
        // becomes much more likely.
        let obs = Observation::new(State::from_subjects([0, 1]), 11.5);
        update_dense(&mut post, &model, &obs).unwrap();
        let m = post.marginals();
        assert!(m[0] > 0.45, "marginal {}", m[0]);
        assert!(close(post.total(), 1.0));
    }
}
