//! Observed-test factors on the specimen↔pool graph.
//!
//! Both approximate backends exploit the same structure the exact lattice
//! update does: a pooled test's outcome distribution depends on the state
//! hypothesis only through `k = |s ∩ A|`, so one observed outcome induces a
//! likelihood table of `|A| + 1` values. A [`Factor`] is that table plus
//! the pool membership — the entire footprint of one observation, O(|A|)
//! instead of one multiply per `2^N` state.

use sbgt_lattice::BigState;
use sbgt_response::ResponseModel;

/// Floor applied to likelihood-table entries. Perfect (0/1-probability)
/// response models produce exact zeros, which would drive BP messages to
/// infinite log-likelihood ratios and particle log-weights to `-∞` with no
/// way back; the floor keeps both backends numerically alive while leaving
/// realistic (noisy) models untouched.
pub const MIN_LIKELIHOOD: f64 = 1e-12;

/// One observed pooled test: the pool's members, the outcome, and the
/// floored likelihood table `table[k] = max(f(y | k, |A|), MIN_LIKELIHOOD)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Factor {
    /// Sorted subject indices of the pool.
    pub members: Vec<u32>,
    /// Observed outcome.
    pub outcome: bool,
    /// Floored likelihood of `outcome` given `k` positives, `k = 0..=|A|`.
    pub table: Vec<f64>,
    /// The pool as bit-words, cached so particle↔pool intersection counts
    /// are word-parallel without rebuilding the mask per use.
    words: Vec<u64>,
}

impl Factor {
    /// Build the factor for `pool` observed as `outcome` under `model`.
    pub fn new<M: ResponseModel<Outcome = bool>>(
        pool: &BigState,
        outcome: bool,
        model: &M,
    ) -> Factor {
        let members: Vec<u32> = pool.subjects().map(|i| i as u32).collect();
        let n = members.len() as u32;
        let table = (0..=n)
            .map(|k| model.likelihood(outcome, k, n).max(MIN_LIKELIHOOD))
            .collect();
        Factor {
            members,
            outcome,
            table,
            words: pool.words().to_vec(),
        }
    }

    /// The pool's bit-words.
    pub fn pool_words(&self) -> &[u64] {
        &self.words
    }

    /// Pool size.
    pub fn size(&self) -> usize {
        self.members.len()
    }
}

/// The Poisson-binomial count distribution of independent Bernoulli bits
/// `probs`: returns `d` with `d[k] = P(k of them are 1)`, built by one
/// `bernoulli_step` per bit.
pub fn count_distribution(probs: &[f64]) -> Vec<f64> {
    let mut d = vec![0.0; probs.len() + 1];
    let mut next = d.clone();
    d[0] = 1.0;
    for (t, &p) in probs.iter().enumerate() {
        bernoulli_step(&d[..=t], &mut next[..t + 2], p);
        std::mem::swap(&mut d, &mut next);
    }
    d
}

/// Fold one Bernoulli(`p`) bit into the count distribution `d`, writing
/// the `d.len() + 1` counts to `next`: `next[k] = d[k]·(1 − p) + d[k−1]·p`,
/// the missing term dropped at either end. The one step every
/// Poisson-binomial table in this crate is built from — BP's prefix/suffix
/// rows and [`count_distribution`] — so they share its bits.
pub(crate) fn bernoulli_step(d: &[f64], next: &mut [f64], p: f64) {
    let t = d.len();
    next[0] = d[0] * (1.0 - p);
    for (nk, pair) in next[1..t].iter_mut().zip(d.windows(2)) {
        *nk = pair[1] * (1.0 - p) + pair[0] * p;
    }
    next[t] = d[t - 1] * p;
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbgt_response::BinaryDilutionModel;

    #[test]
    fn factor_tables_are_floored_and_sized() {
        let pool = BigState::from_subjects([0, 70, 130]);
        let model = BinaryDilutionModel::pcr_like();
        let f = Factor::new(&pool, true, &model);
        assert_eq!(f.members, vec![0, 70, 130]);
        assert_eq!(f.table.len(), 4);
        assert!(f.table.iter().all(|&v| v >= MIN_LIKELIHOOD));
        assert_eq!(f.pool_words(), pool.words());
        assert_eq!(f.size(), 3);
    }

    #[test]
    fn count_distribution_matches_hand_rolled_cases() {
        let d = count_distribution(&[]);
        assert_eq!(d, vec![1.0]);
        let d = count_distribution(&[0.5, 0.5]);
        for (got, want) in d.iter().zip([0.25, 0.5, 0.25]) {
            assert!((got - want).abs() < 1e-12);
        }
        // Sums to one for arbitrary probabilities.
        let probs = [0.1, 0.7, 0.3, 0.9, 0.02];
        let d = count_distribution(&probs);
        assert_eq!(d.len(), 6);
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Mean equals the sum of probabilities.
        let mean: f64 = d.iter().enumerate().map(|(k, p)| k as f64 * p).sum();
        assert!((mean - probs.iter().sum::<f64>()).abs() < 1e-12);
    }
}
