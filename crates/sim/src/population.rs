//! Ground-truth populations.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

use sbgt_bayes::Prior;
use sbgt_lattice::State;
use sbgt_response::ResponseModel;

use crate::outcome::run_test;

/// Risk structure of a cohort, used both to build the prior and to draw the
/// ground truth (so the prior is well-specified — the regime the method
/// papers analyze; misspecification experiments perturb the prior
/// afterwards).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RiskProfile {
    /// Every subject at prevalence `p`.
    Flat {
        /// Cohort size.
        n: usize,
        /// Prevalence in `(0, 1)`.
        p: f64,
    },
    /// Consecutive risk blocks `(count, risk)`.
    Groups(Vec<(usize, f64)>),
}

impl RiskProfile {
    /// The implied per-subject risks.
    pub fn risks(&self) -> Vec<f64> {
        match self {
            RiskProfile::Flat { n, p } => vec![*p; *n],
            RiskProfile::Groups(groups) => {
                let mut risks = Vec::new();
                for &(count, p) in groups {
                    risks.extend(std::iter::repeat_n(p, count));
                }
                risks
            }
        }
    }

    /// Cohort size.
    pub fn n_subjects(&self) -> usize {
        match self {
            RiskProfile::Flat { n, .. } => *n,
            RiskProfile::Groups(groups) => groups.iter().map(|(c, _)| c).sum(),
        }
    }

    /// The matching (well-specified) prior.
    pub fn prior(&self) -> Prior {
        Prior::from_risks(&self.risks())
    }
}

/// A cohort with known ground truth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Population {
    risks: Vec<f64>,
    truth: State,
}

impl Population {
    /// Draw a ground truth: subject `i` is positive with probability
    /// `risks[i]`, independently, from a seeded RNG.
    pub fn sample(profile: &RiskProfile, seed: u64) -> Self {
        let risks = profile.risks();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut truth = State::EMPTY;
        for (i, &p) in risks.iter().enumerate() {
            if rng.random::<f64>() < p {
                truth = truth.with(i);
            }
        }
        Population { risks, truth }
    }

    /// A cohort with a fixed, known truth (for deterministic tests).
    pub fn with_truth(profile: &RiskProfile, truth: State) -> Self {
        let risks = profile.risks();
        assert!(
            truth.is_subset_of(State::full(risks.len())),
            "truth mentions subjects outside the cohort"
        );
        Population { risks, truth }
    }

    /// Cohort size.
    pub fn n_subjects(&self) -> usize {
        self.risks.len()
    }

    /// Per-subject risks used for the prior.
    pub fn risks(&self) -> &[f64] {
        &self.risks
    }

    /// The true infection state.
    pub fn truth(&self) -> State {
        self.truth
    }

    /// Number of truly positive subjects.
    pub fn n_positive(&self) -> usize {
        self.truth.rank() as usize
    }

    /// The well-specified prior for this cohort.
    pub fn prior(&self) -> Prior {
        Prior::from_risks(&self.risks)
    }

    /// Number of true positives a given pool contains.
    pub fn positives_in(&self, pool: State) -> u32 {
        self.truth.positives_in(pool)
    }

    /// The seeded virtual lab for one episode: each pool it is handed runs
    /// through [`run_test`] against this cohort's truth, every draw coming
    /// from one `StdRng::seed_from_u64(seed)` stream in the order the pools
    /// arrive. Hand it to a session's `run_to_classification`:
    ///
    /// ```
    /// use sbgt::{SbgtConfig, SbgtSession};
    /// use sbgt_response::BinaryDilutionModel;
    /// use sbgt_sim::{ConfusionMatrix, Population, RiskProfile};
    ///
    /// let pop = Population::sample(&RiskProfile::Flat { n: 8, p: 0.05 }, 42);
    /// let model = BinaryDilutionModel::perfect();
    /// let outcome = SbgtSession::new(pop.prior(), model, SbgtConfig::default())
    ///     .run_to_classification(pop.lab(&model, 42));
    /// let confusion = ConfusionMatrix::from_statuses(&outcome.classification.statuses, pop.truth());
    /// assert!(outcome.classification.is_terminal());
    /// assert_eq!(confusion.accuracy(), 1.0); // perfect assay
    /// ```
    pub fn lab<'a, M: ResponseModel>(
        &'a self,
        model: &'a M,
        seed: u64,
    ) -> impl FnMut(State) -> M::Outcome + 'a {
        let mut rng = StdRng::seed_from_u64(seed);
        move |pool| run_test(self, model, pool, &mut rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_profile() {
        let p = RiskProfile::Flat { n: 6, p: 0.1 };
        assert_eq!(p.n_subjects(), 6);
        assert_eq!(p.risks(), vec![0.1; 6]);
        assert_eq!(p.prior().n_subjects(), 6);
    }

    #[test]
    fn group_profile_layout() {
        let p = RiskProfile::Groups(vec![(2, 0.01), (3, 0.2)]);
        assert_eq!(p.n_subjects(), 5);
        assert_eq!(p.risks(), vec![0.01, 0.01, 0.2, 0.2, 0.2]);
    }

    #[test]
    fn sampling_is_reproducible() {
        let profile = RiskProfile::Flat { n: 20, p: 0.3 };
        let a = Population::sample(&profile, 7);
        let b = Population::sample(&profile, 7);
        assert_eq!(a.truth(), b.truth());
        let c = Population::sample(&profile, 8);
        // Different seeds almost surely differ for n=20, p=0.3.
        assert_ne!(a.truth(), c.truth());
    }

    #[test]
    fn sampling_matches_prevalence_statistically() {
        let profile = RiskProfile::Flat { n: 30, p: 0.2 };
        let mut total = 0usize;
        let reps = 400;
        for seed in 0..reps {
            total += Population::sample(&profile, seed).n_positive();
        }
        let rate = total as f64 / (reps as usize * 30) as f64;
        assert!((rate - 0.2).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn fixed_truth_and_pool_counts() {
        let profile = RiskProfile::Flat { n: 5, p: 0.1 };
        let pop = Population::with_truth(&profile, State::from_subjects([1, 4]));
        assert_eq!(pop.n_positive(), 2);
        assert_eq!(pop.positives_in(State::from_subjects([0, 1])), 1);
        assert_eq!(pop.positives_in(State::from_subjects([2, 3])), 0);
    }

    #[test]
    fn lab_draws_one_stream_in_call_order() {
        let profile = RiskProfile::Flat { n: 6, p: 0.3 };
        let pop = Population::sample(&profile, 3);
        let model = sbgt_response::BinaryDilutionModel::pcr_like();
        let pools = [0b11_1111, 0b11, 0b1, 0b11_0000].map(State);
        let mut lab = pop.lab(&model, 9);
        let mut rng = StdRng::seed_from_u64(9);
        for pool in pools {
            assert_eq!(lab(pool), run_test(&pop, &model, pool, &mut rng));
        }
    }

    #[test]
    #[should_panic(expected = "outside the cohort")]
    fn fixed_truth_validated() {
        let profile = RiskProfile::Flat { n: 3, p: 0.1 };
        let _ = Population::with_truth(&profile, State::from_subjects([5]));
    }
}
