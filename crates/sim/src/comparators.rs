//! The classical comparator procedures: [`run_individual`] (one assay per
//! subject) and [`run_dorfman`] (the two-stage pooling of Dorfman 1943).
//! They anchor the efficiency experiments (E7) against the Bayesian
//! episode, which is a session driven by [`Population::lab`].

use rand::rngs::StdRng;
use rand::SeedableRng;

use sbgt_bayes::{CohortClassification, SubjectStatus};
use sbgt_lattice::State;
use sbgt_response::BinaryOutcomeModel;

use crate::metrics::{ConfusionMatrix, EpisodeStats};
use crate::outcome::run_test;
use crate::population::Population;

/// Outcome of a comparator episode.
#[derive(Debug, Clone)]
pub struct EpisodeResult {
    /// Cost metrics.
    pub stats: EpisodeStats,
    /// Confusion against the ground truth.
    pub confusion: ConfusionMatrix,
    /// Final classification.
    pub classification: CohortClassification,
    /// Final per-subject positive indicators (`1.0` read positive).
    pub marginals: Vec<f64>,
    /// Every `(pool, outcome)` in execution order.
    pub history: Vec<(State, bool)>,
}

/// Comparator: one assay per subject, classification by the raw outcome.
/// Always `n` tests in one stage; accuracy limited by the assay's neat
/// sensitivity/specificity.
pub fn run_individual<M: BinaryOutcomeModel>(
    population: &Population,
    model: &M,
    seed: u64,
) -> EpisodeResult {
    let n = population.n_subjects();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut history = Vec::with_capacity(n);
    let mut statuses = Vec::with_capacity(n);
    let mut marginals = Vec::with_capacity(n);
    for i in 0..n {
        let pool = State::EMPTY.with(i);
        let outcome = run_test(population, model, pool, &mut rng);
        history.push((pool, outcome));
        statuses.push(if outcome {
            SubjectStatus::Positive
        } else {
            SubjectStatus::Negative
        });
        marginals.push(if outcome { 1.0 } else { 0.0 });
    }
    let classification = CohortClassification { statuses };
    EpisodeResult {
        stats: EpisodeStats {
            tests: n,
            stages: 1,
            subjects: n,
        },
        confusion: ConfusionMatrix::from_statuses(&classification.statuses, population.truth()),
        classification,
        marginals,
        history,
    }
}

/// Comparator: Dorfman two-stage pooling with pools of size `group_size`.
/// Stage 1 tests disjoint pools; members of positive pools are retested
/// individually in stage 2 and classified by their individual outcome;
/// members of negative pools are classified negative.
pub fn run_dorfman<M: BinaryOutcomeModel>(
    population: &Population,
    model: &M,
    group_size: usize,
    seed: u64,
) -> EpisodeResult {
    assert!(group_size >= 1, "group size must be at least 1");
    let n = population.n_subjects();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut history = Vec::new();
    let mut statuses = vec![SubjectStatus::Undetermined; n];
    let mut marginals = vec![0.0f64; n];
    let mut any_retest = false;

    for start in (0..n).step_by(group_size) {
        let members: Vec<usize> = (start..(start + group_size).min(n)).collect();
        let pool = State::from_subjects(members.iter().copied());
        let outcome = run_test(population, model, pool, &mut rng);
        history.push((pool, outcome));
        if outcome {
            any_retest = true;
            for &i in &members {
                let single = State::EMPTY.with(i);
                let o = run_test(population, model, single, &mut rng);
                history.push((single, o));
                statuses[i] = if o {
                    SubjectStatus::Positive
                } else {
                    SubjectStatus::Negative
                };
                marginals[i] = if o { 1.0 } else { 0.0 };
            }
        } else {
            for &i in &members {
                statuses[i] = SubjectStatus::Negative;
            }
        }
    }
    let classification = CohortClassification { statuses };
    EpisodeResult {
        stats: EpisodeStats {
            tests: history.len(),
            stages: if any_retest { 2 } else { 1 },
            subjects: n,
        },
        confusion: ConfusionMatrix::from_statuses(&classification.statuses, population.truth()),
        classification,
        marginals,
        history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::RiskProfile;
    use sbgt_response::BinaryDilutionModel;

    fn low_prev_profile(n: usize) -> RiskProfile {
        RiskProfile::Flat { n, p: 0.05 }
    }

    #[test]
    fn individual_testing_costs_exactly_n() {
        let profile = low_prev_profile(9);
        let pop = Population::sample(&profile, 4);
        let model = BinaryDilutionModel::perfect();
        let r = run_individual(&pop, &model, 4);
        assert_eq!(r.stats.tests, 9);
        assert_eq!(r.stats.stages, 1);
        assert_eq!(r.confusion.accuracy(), 1.0);
    }

    #[test]
    fn dorfman_structure() {
        let profile = low_prev_profile(10);
        let pop = Population::with_truth(&profile, State::from_subjects([4]));
        let model = BinaryDilutionModel::perfect();
        let r = run_dorfman(&pop, &model, 5, 7);
        // Two stage-1 pools + five retests of the positive pool.
        assert_eq!(r.stats.tests, 7);
        assert_eq!(r.stats.stages, 2);
        assert_eq!(r.confusion.tp, 1);
        assert_eq!(r.confusion.tn, 9);
        assert!(r.classification.is_terminal());
    }

    #[test]
    fn dorfman_all_negative_is_one_stage() {
        let profile = low_prev_profile(8);
        let pop = Population::with_truth(&profile, State::EMPTY);
        let model = BinaryDilutionModel::perfect();
        let r = run_dorfman(&pop, &model, 4, 7);
        assert_eq!(r.stats.tests, 2);
        assert_eq!(r.stats.stages, 1);
    }
}
