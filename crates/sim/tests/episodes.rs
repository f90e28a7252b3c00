//! Episodes: a session driven to classification against the population's
//! seeded lab ([`Population::lab`]), scored against the ground truth.

use sbgt::{SbgtConfig, SbgtSession, SessionOutcome};
use sbgt_lattice::State;
use sbgt_response::{BinaryDilutionModel, Dilution};
use sbgt_sim::{ConfusionMatrix, Population, RiskProfile};

/// Run one episode under the cohort's well-specified prior; returns the
/// session (for its history), the outcome and its confusion.
fn episode(
    pop: &Population,
    model: BinaryDilutionModel,
    config: SbgtConfig,
    seed: u64,
) -> (
    SbgtSession<BinaryDilutionModel>,
    SessionOutcome,
    ConfusionMatrix,
) {
    let mut session = SbgtSession::new(pop.prior(), model, config);
    let outcome = session.run_to_classification(pop.lab(&model, seed));
    let confusion = ConfusionMatrix::from_statuses(&outcome.classification.statuses, pop.truth());
    (session, outcome, confusion)
}

#[test]
fn perfect_test_episode_classifies_exactly() {
    let profile = RiskProfile::Flat { n: 10, p: 0.05 };
    let pop = Population::with_truth(&profile, State::from_subjects([3, 7]));
    let model = BinaryDilutionModel::perfect();
    let (session, r, confusion) = episode(&pop, model, SbgtConfig::default(), 1);
    assert!(r.classification.is_terminal());
    assert_eq!(confusion.tp, 2);
    assert_eq!(confusion.tn, 8);
    assert_eq!(confusion.fp + confusion.fn_, 0);
    assert_eq!(r.tests, session.history().len());
    assert!(r.stages >= 1);
}

#[test]
fn group_testing_beats_individual_at_low_prevalence() {
    let profile = RiskProfile::Flat { n: 12, p: 0.02 };
    let model = BinaryDilutionModel::perfect();
    let mut bayes_tests = 0usize;
    let mut reps = 0usize;
    for seed in 0..10 {
        let pop = Population::sample(&profile, seed);
        let (_, r, _) = episode(&pop, model, SbgtConfig::default(), seed);
        assert!(r.classification.is_terminal());
        bayes_tests += r.tests;
        reps += 1;
    }
    let avg = bayes_tests as f64 / reps as f64;
    assert!(avg < 12.0 * 0.6, "avg tests {avg} not < 60% of individual");
}

#[test]
fn all_negative_cohort_resolves_fast_with_perfect_test() {
    let profile = RiskProfile::Flat { n: 8, p: 0.05 };
    let pop = Population::with_truth(&profile, State::EMPTY);
    let model = BinaryDilutionModel::perfect();
    let (_, r, confusion) = episode(&pop, model, SbgtConfig::default(), 3);
    assert!(r.classification.is_terminal());
    assert_eq!(confusion.tn, 8);
    // A handful of all-negative pools suffice.
    assert!(r.tests <= 4, "expected few tests, used {}", r.tests);
}

#[test]
fn lookahead_uses_fewer_stages() {
    let profile = RiskProfile::Flat { n: 12, p: 0.08 };
    let model = BinaryDilutionModel::new(0.98, 0.99, Dilution::Exponential { alpha: 4.0 });
    let mut stages_plain = 0usize;
    let mut stages_look = 0usize;
    let mut tests_plain = 0usize;
    let mut tests_look = 0usize;
    for seed in 0..8 {
        let pop = Population::sample(&profile, 100 + seed);
        let (_, plain, _) = episode(&pop, model, SbgtConfig::default(), seed);
        let wide = SbgtConfig::default().with_stage_width(3);
        let (_, look, _) = episode(&pop, model, wide, seed);
        stages_plain += plain.stages;
        stages_look += look.stages;
        tests_plain += plain.tests;
        tests_look += look.tests;
    }
    assert!(
        stages_look < stages_plain,
        "lookahead stages {stages_look} !< plain {stages_plain}"
    );
    assert!(
        tests_look >= tests_plain,
        "lookahead should not use fewer tests ({tests_look} vs {tests_plain})"
    );
}

#[test]
fn noisy_assay_hits_stage_cap_gracefully() {
    // A nearly uninformative assay cannot reach 99% confidence.
    let profile = RiskProfile::Flat { n: 5, p: 0.05 };
    let pop = Population::sample(&profile, 2);
    let model = BinaryDilutionModel::new(0.55, 0.55, Dilution::None);
    let config = SbgtConfig {
        max_stages: 5,
        ..SbgtConfig::default()
    };
    let (_, r, confusion) = episode(&pop, model, config, 2);
    assert_eq!(r.stages, 5);
    assert!(!r.classification.is_terminal());
    assert!(confusion.undetermined > 0);
}

#[test]
fn episodes_are_reproducible() {
    let profile = RiskProfile::Flat { n: 10, p: 0.1 };
    let pop = Population::sample(&profile, 11);
    let model = BinaryDilutionModel::pcr_like();
    let (a, ra, _) = episode(&pop, model, SbgtConfig::default(), 11);
    let (b, rb, _) = episode(&pop, model, SbgtConfig::default(), 11);
    assert_eq!(a.history(), b.history());
    assert_eq!(ra, rb);
}
