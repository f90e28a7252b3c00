//! Prior-misspecification robustness (experiment E11).
//!
//! Surveillance priors are estimates: the assumed prevalence rarely equals
//! the true one. The Bayesian procedure's guarantees are stated for a
//! well-specified prior, so a reproduction must check how gracefully cost
//! and accuracy degrade when the assumed risk is off by a factor. This
//! module sweeps `assumed prevalence = bias × true prevalence` and reports
//! the accuracy/efficiency envelope. The episode itself is the caller's:
//! the experiments drive a session against [`Population::lab`].

use serde::{Deserialize, Serialize};

use sbgt_bayes::{CohortClassification, Prior};

use crate::metrics::{ConfusionMatrix, EpisodeStats, SummaryStats};
use crate::population::{Population, RiskProfile};

/// One row of the misspecification sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RobustnessRow {
    /// Multiplicative bias applied to the true prevalence when forming the
    /// assumed prior (`1.0` = well-specified).
    pub bias: f64,
    /// Assumed prevalence used by the prior.
    pub assumed_prevalence: f64,
    /// Pooled confusion over all replicates.
    pub confusion: ConfusionMatrix,
    /// Tests-per-subject summary.
    pub tests_per_subject: SummaryStats,
    /// Stage-count summary.
    pub stages: SummaryStats,
}

/// Sweep prior bias factors at a fixed true prevalence.
///
/// The population of replicate `seed` is drawn at `true_prevalence`, and
/// `episode(population, prior, seed)` runs it under a flat prior at
/// `bias × true_prevalence` (clamped into `(0, 0.95]`), returning its cost
/// and final classification.
pub fn misspecification_sweep(
    n: usize,
    true_prevalence: f64,
    biases: &[f64],
    replicates: u64,
    mut episode: impl FnMut(&Population, &Prior, u64) -> (EpisodeStats, CohortClassification),
) -> Vec<RobustnessRow> {
    assert!(true_prevalence > 0.0 && true_prevalence < 1.0);
    let profile = RiskProfile::Flat {
        n,
        p: true_prevalence,
    };
    biases
        .iter()
        .map(|&bias| {
            assert!(bias > 0.0, "bias must be positive");
            let assumed = (bias * true_prevalence).clamp(1e-6, 0.95);
            let prior = Prior::flat(n, assumed);
            let mut confusion = ConfusionMatrix::default();
            let mut tps = Vec::with_capacity(replicates as usize);
            let mut stages = Vec::with_capacity(replicates as usize);
            for seed in 0..replicates {
                let pop = Population::sample(&profile, 11_000 + seed);
                let (stats, classification) = episode(&pop, &prior, seed);
                confusion.merge(&ConfusionMatrix::from_statuses(
                    &classification.statuses,
                    pop.truth(),
                ));
                tps.push(stats.tests_per_subject());
                stages.push(stats.stages as f64);
            }
            RobustnessRow {
                bias,
                assumed_prevalence: assumed,
                confusion,
                tests_per_subject: SummaryStats::from_samples(&tps),
                stages: SummaryStats::from_samples(&stages),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbgt::{SbgtConfig, SbgtSession};
    use sbgt_bayes::ClassificationRule;
    use sbgt_response::BinaryDilutionModel;

    /// A perfect-assay session run against the replicate's lab.
    fn episode(pop: &Population, prior: &Prior, seed: u64) -> (EpisodeStats, CohortClassification) {
        let model = BinaryDilutionModel::perfect();
        let config = SbgtConfig {
            rule: ClassificationRule::new(0.99, 0.005),
            ..SbgtConfig::default()
        };
        let mut session = SbgtSession::new(prior.clone(), model, config);
        let outcome = session.run_to_classification(pop.lab(&model, seed));
        let stats = EpisodeStats {
            tests: outcome.tests,
            stages: outcome.stages,
            subjects: outcome.subjects,
        };
        (stats, outcome.classification)
    }

    #[test]
    fn well_specified_is_present_and_sane() {
        let rows = misspecification_sweep(10, 0.05, &[1.0], 20, episode);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!((r.assumed_prevalence - 0.05).abs() < 1e-12);
        // Perfect assay: classification must be exact regardless.
        assert_eq!(r.confusion.fp + r.confusion.fn_, 0);
        assert!(r.tests_per_subject.mean > 0.0);
    }

    #[test]
    fn misspecification_cannot_break_perfect_assay_accuracy() {
        let rows = misspecification_sweep(8, 0.05, &[0.2, 1.0, 5.0], 15, episode);
        for r in &rows {
            assert_eq!(
                r.confusion.fp + r.confusion.fn_,
                0,
                "bias {} misclassified",
                r.bias
            );
        }
        // Overestimating prevalence shrinks pools => more tests than the
        // well-specified prior on average.
        let well = rows[1].tests_per_subject.mean;
        let over = rows[2].tests_per_subject.mean;
        assert!(
            over >= well - 1e-9,
            "overestimate {over} unexpectedly cheaper than well-specified {well}"
        );
    }

    #[test]
    fn assumed_prevalence_is_clamped() {
        let rows = misspecification_sweep(6, 0.4, &[5.0], 3, episode);
        assert!(rows[0].assumed_prevalence <= 0.95);
    }

    #[test]
    #[should_panic(expected = "bias must be positive")]
    fn rejects_non_positive_bias() {
        let _ = misspecification_sweep(4, 0.1, &[0.0], 2, episode);
    }
}
