//! Cohort priors.
//!
//! The framework's priors are independent per-subject infection risks
//! (dependence enters only through the shared test outcomes). Heterogeneous
//! risks are a headline feature of the Bayesian approach: a surveillance
//! program can pool a high-risk clinic cohort differently from routine
//! screening, and the halving rule exploits the asymmetry automatically.

use serde::{Deserialize, Serialize};

use sbgt_lattice::{DensePosterior, SparsePosterior, MAX_SUBJECTS};

/// Independent-risk prior for a cohort.
///
/// ```
/// use sbgt_bayes::Prior;
/// let prior = Prior::from_groups(&[(3, 0.01), (1, 0.2)]);
/// assert_eq!(prior.n_subjects(), 4);
/// let dense = prior.to_dense();
/// assert!((dense.total() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Prior {
    risks: Vec<f64>,
}

impl Prior {
    /// Every subject shares the prevalence `p`.
    ///
    /// # Panics
    /// Panics when `p ∉ (0, 1)` or `n` is zero or exceeds the lattice limit.
    pub fn flat(n: usize, p: f64) -> Self {
        assert!(
            (1..=MAX_SUBJECTS).contains(&n),
            "cohort size {n} out of range"
        );
        assert!(p > 0.0 && p < 1.0, "prevalence {p} must be in (0,1)");
        Prior { risks: vec![p; n] }
    }

    /// Arbitrary per-subject risks.
    ///
    /// # Panics
    /// Panics on an empty slice, out-of-range cohort size, or any risk
    /// outside `(0, 1)` (degenerate 0/1 risks make subjects untestable and
    /// are rejected here; the lattice layer itself tolerates them).
    pub fn from_risks(risks: &[f64]) -> Self {
        assert!(
            !risks.is_empty() && risks.len() <= MAX_SUBJECTS,
            "cohort size out of range"
        );
        for (i, &p) in risks.iter().enumerate() {
            assert!(p > 0.0 && p < 1.0, "risk {i} = {p} must be in (0,1)");
        }
        Prior {
            risks: risks.to_vec(),
        }
    }

    /// Risk-group prior: `groups` is a list of `(count, risk)` blocks laid
    /// out consecutively (e.g. `[(12, 0.01), (4, 0.2)]` = twelve routine
    /// subjects then four high-risk contacts).
    pub fn from_groups(groups: &[(usize, f64)]) -> Self {
        let mut risks = Vec::new();
        for &(count, p) in groups {
            risks.extend(std::iter::repeat_n(p, count));
        }
        Prior::from_risks(&risks)
    }

    /// Cohort size.
    pub fn n_subjects(&self) -> usize {
        self.risks.len()
    }

    /// Per-subject risks.
    pub fn risks(&self) -> &[f64] {
        &self.risks
    }

    /// Expected number of positives under the prior.
    pub fn expected_positives(&self) -> f64 {
        self.risks.iter().sum()
    }

    /// Materialize the dense lattice prior.
    pub fn to_dense(&self) -> DensePosterior {
        DensePosterior::from_risks(&self.risks)
    }

    /// Materialize a pruned sparse prior (drop states below `epsilon` of
    /// the total prior mass).
    pub fn to_sparse(&self, epsilon: f64) -> SparsePosterior {
        SparsePosterior::from_dense(&self.to_dense(), epsilon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_prior() {
        let p = Prior::flat(8, 0.03);
        assert_eq!(p.n_subjects(), 8);
        assert!(p.risks().iter().all(|&r| r == 0.03));
        assert!((p.expected_positives() - 0.24).abs() < 1e-12);
    }

    #[test]
    fn groups_concatenate() {
        let p = Prior::from_groups(&[(3, 0.01), (2, 0.3)]);
        assert_eq!(p.risks(), &[0.01, 0.01, 0.01, 0.3, 0.3]);
    }

    #[test]
    fn dense_matches_risks() {
        let p = Prior::from_risks(&[0.2, 0.4]);
        let d = p.to_dense();
        assert!((d.get(sbgt_lattice::State::EMPTY) - 0.8 * 0.6).abs() < 1e-12);
        assert!((d.total() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sparse_prior_prunes() {
        let p = Prior::from_groups(&[(10, 0.01)]);
        let s = p.to_sparse(1e-6);
        assert!(s.support() < 1 << 10);
        assert!(s.total() > 0.999);
    }

    #[test]
    #[should_panic(expected = "must be in (0,1)")]
    fn rejects_degenerate_risk() {
        let _ = Prior::from_risks(&[0.2, 1.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_empty() {
        let _ = Prior::from_risks(&[]);
    }

    #[test]
    #[should_panic(expected = "prevalence")]
    fn flat_rejects_bad_prevalence() {
        let _ = Prior::flat(4, 0.0);
    }
}
