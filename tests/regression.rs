//! Fixed-seed regression tests: pin down concrete numbers so refactors
//! that silently change semantics (kernel order, RNG consumption, selection
//! tie-breaks) are caught immediately.

use sbgt_repro::sbgt::prelude::*;
use sbgt_repro::sbgt_sim::{ConfusionMatrix, Population, RiskProfile};

#[test]
fn pinned_episode_low_prevalence() {
    let profile = RiskProfile::Flat { n: 10, p: 0.02 };
    let pop = Population::sample(&profile, 424242);
    let model = BinaryDilutionModel::perfect();
    let r = SbgtSession::new(pop.prior(), model, SbgtConfig::default())
        .run_to_classification(pop.lab(&model, 424242));
    let confusion = ConfusionMatrix::from_statuses(&r.classification.statuses, pop.truth());

    // Pin the ground truth drawn by this seed and the full cost profile.
    assert_eq!(pop.n_positive(), 0, "seed draws an all-negative cohort");
    assert!(r.classification.is_terminal());
    // The halving pool at p=0.02 is the whole cohort (0.98^10 is the
    // closest achievable negative mass to 1/2), and one perfect negative
    // outcome classifies everyone.
    assert_eq!(r.tests, 1, "one all-negative pool settles 10 subjects");
    assert_eq!(r.stages, 1);
    assert_eq!(confusion.tn, 10);
}

#[test]
fn pinned_episode_with_positives() {
    let profile = RiskProfile::Flat { n: 10, p: 0.15 };
    let pop = Population::sample(&profile, 77);
    let model = BinaryDilutionModel::perfect();
    let r = SbgtSession::new(pop.prior(), model, SbgtConfig::default())
        .run_to_classification(pop.lab(&model, 77));
    let confusion = ConfusionMatrix::from_statuses(&r.classification.statuses, pop.truth());
    assert!(r.classification.is_terminal());
    assert_eq!(confusion.fp + confusion.fn_, 0);
    assert_eq!(
        r.classification.positives(),
        pop.n_positive(),
        "classified positives must match the drawn truth"
    );
    // Pin the exact test count so selection changes surface.
    assert_eq!(
        r.tests, 5,
        "pinned test count changed: selection or RNG semantics moved"
    );
}

#[test]
fn pinned_first_selection() {
    // Ten subjects with ascending risks: the first halving pool must be a
    // prefix of the five lowest-risk subjects whose negative mass is
    // nearest 1/2 — pinned to the exact pool.
    let risks: Vec<f64> = (0..10).map(|i| 0.02 + 0.03 * i as f64).collect();
    let session = SbgtSession::new(
        Prior::from_risks(&risks),
        BinaryDilutionModel::pcr_like(),
        SbgtConfig::default().serial(),
    );
    let sel = session.select_next().unwrap();
    assert_eq!(sel.pool, State::from_subjects(0..6));
    let expected: f64 = (0..6).map(|i| 1.0 - (0.02 + 0.03 * i as f64)).product();
    assert!(
        (sel.negative_mass - expected).abs() < 1e-9,
        "{}",
        sel.negative_mass
    );
}

#[test]
fn pinned_posterior_after_observation() {
    let mut session = SbgtSession::new(
        Prior::from_risks(&[0.1, 0.2, 0.3]),
        BinaryDilutionModel::pcr_like(),
        SbgtConfig::default().serial(),
    );
    let z = session.observe(State::from_subjects([0, 1]), true).unwrap();
    // Pinned evidence: P(+) over the 8-state lattice under the PCR-like
    // model (sens 0.99, spec 0.995, exponential dilution alpha = 4).
    assert!((z - 0.250117167).abs() < 1e-6, "evidence {z}");
    let m = session.marginals();
    assert!((m[2] - 0.3).abs() < 1e-9, "untested subject unchanged");
    assert!(m[1] > m[0], "higher prior risk stays higher after pooling");
}

#[test]
fn pinned_report_shape() {
    let session = SbgtSession::new(
        Prior::flat(6, 0.5),
        BinaryDilutionModel::pcr_like(),
        SbgtConfig::default().serial(),
    );
    let r = session.report(4);
    assert!(
        (r.entropy - 64f64.ln()).abs() < 1e-9,
        "uniform prior entropy"
    );
    assert_eq!(r.top_states.len(), 4);
    assert!((r.expected_positives - 3.0).abs() < 1e-9);
    assert!((r.rank_distribution[3] - 0.3125).abs() < 1e-9, "C(6,3)/64");
}
