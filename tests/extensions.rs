//! Integration tests for the extension features: episode replay, Ct-value
//! outcomes, sparse sessions and zeta-transform joint queries.

use sbgt_repro::sbgt::prelude::*;
use sbgt_repro::sbgt_bayes::{update_dense, Observation};
use sbgt_repro::sbgt_lattice::transform::{all_pool_negative_masses, up_set_masses};
use sbgt_repro::sbgt_response::{CtOutcome, CtValueModel};
use sbgt_repro::sbgt_sim::runner::EpisodeConfig;
use sbgt_repro::sbgt_sim::{run_episode, Population, RiskProfile};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9 * (1.0 + a.abs() + b.abs())
}

/// A whole episode's recorded history, replayed through the dense update,
/// reproduces the episode's own marginals.
#[test]
fn recorded_history_replays_to_the_episode_marginals() {
    let model = BinaryDilutionModel::pcr_like();
    let pop = Population::sample(&RiskProfile::Flat { n: 5, p: 0.1 }, 42);
    let episode = run_episode(&pop, &model, &EpisodeConfig::standard(42));

    let mut linear = pop.prior().to_dense();
    for &(pool, outcome) in &episode.history {
        update_dense(&mut linear, &model, &Observation::new(pool, outcome)).unwrap();
    }
    for (a, b) in episode.marginals.iter().zip(linear.marginals()) {
        assert!(close(*a, b));
    }
}

/// Ct-value (censored continuous) outcomes drive a manual episode to a
/// confident classification through the generic update path.
#[test]
fn ct_value_episode_manual_loop() {
    let model = CtValueModel::pcr_like();
    let truth = State::from_subjects([1]);
    let mut post = Prior::flat(6, 0.1).to_dense();
    // Virtual lab with noiseless-mean Ct (deterministic).
    let lab = |pool: State| -> CtOutcome {
        let k = truth.positives_in(pool);
        if k == 0 {
            CtOutcome::NotDetected
        } else {
            CtOutcome::Detected(model.ct_mean(k, pool.rank()))
        }
    };
    let pools = [
        State::from_subjects([0, 1, 2]),
        State::from_subjects([3, 4, 5]),
        State::from_subjects([0, 1]),
        State::from_subjects([1]),
    ];
    for pool in pools {
        let outcome = lab(pool);
        update_dense(&mut post, &model, &Observation::new(pool, outcome)).unwrap();
    }
    let m = post.marginals();
    assert!(m[1] > 0.99, "marginal {}", m[1]);
    // Subjects in the all-censored pool are strongly ruled out; subjects 0
    // and 2 shared detected pools with the true positive, so explaining-
    // away pulls them below (but near) their prior of 0.1 — the Ct means
    // for k=1 vs k=2 differ by only ~1 cycle against σ=1.5, so the effect
    // is real but mild.
    for i in [3usize, 4, 5] {
        assert!(m[i] < 0.05, "subject {i}: {}", m[i]);
    }
    for i in [0usize, 2] {
        assert!(m[i] < 0.1, "subject {i}: {} not below prior", m[i]);
    }
}

/// Sparse session with realistic pruning classifies a 12-subject cohort
/// while holding a small working set.
#[test]
fn sparse_session_holds_small_support() {
    let truth = State::from_subjects([4, 9]);
    let mut s = SbgtSession::new_sparse(
        Prior::flat(12, 0.05),
        BinaryDilutionModel::perfect(),
        SbgtConfig::default().serial(),
        1e-9,
    )
    .unwrap();
    let out = s.run_to_classification(|pool| truth.intersects(pool));
    assert!(out.classification.is_terminal());
    assert_eq!(out.classification.positives(), 2);
    // 2^12 = 4096 states; the working set must have collapsed far below.
    let support = s.sparse_posterior().unwrap().support();
    assert!(support < 256, "support {support}");
}

/// The zeta transform's joint up-set masses answer contact-cluster
/// queries that marginals cannot: P(both members of a household positive).
#[test]
fn joint_infection_queries_via_up_sets() {
    let model = BinaryDilutionModel::pcr_like();
    let mut post = Prior::flat(6, 0.2).to_dense();
    // A strongly positive pool over subjects {0,1} correlates them.
    update_dense(
        &mut post,
        &model,
        &Observation::new(State::from_subjects([0, 1]), true),
    )
    .unwrap();
    let up = up_set_masses(&post);
    let marginals = post.marginals();
    let joint_01 = up[State::from_subjects([0, 1]).index()];
    // Joint must be consistent: P(0∧1) <= min(P(0), P(1)) and positive.
    assert!(joint_01 > 0.0);
    assert!(joint_01 <= marginals[0].min(marginals[1]) + 1e-12);
    // Against brute force.
    let brute: f64 = (0..post.len())
        .filter(|&idx| idx & 0b11 == 0b11)
        .map(|idx| post.probs()[idx])
        .sum();
    assert!(close(joint_01, brute));
    // And the all-pool masses agree with the marginal identity
    // m({i}) = 1 - P(i positive) for a normalized posterior.
    let all = all_pool_negative_masses(&post);
    for i in 0..6 {
        assert!(close(all[1 << i], 1.0 - marginals[i]));
    }
}
