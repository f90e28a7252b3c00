//! Integration tests for the extension features: episode replay,
//! zeta-transform global selection, credible sets, Ct-value outcomes,
//! sparse sessions, and engine fault tolerance under surveillance load.

use sbgt_repro::sbgt::prelude::*;
use sbgt_repro::sbgt_bayes::{credible_set, update_dense, Observation};
use sbgt_repro::sbgt_engine::{Engine, EngineConfig, RetryPolicy};
use sbgt_repro::sbgt_lattice::transform::{all_pool_negative_masses, up_set_masses};
use sbgt_repro::sbgt_lattice::DensePosterior;
use sbgt_repro::sbgt_response::{CtOutcome, CtValueModel};
use sbgt_repro::sbgt_sim::runner::{EpisodeConfig, SelectionMethod};
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

/// Episodes driven by the zeta-global rule classify exactly (perfect
/// assay) and never use more tests than the prefix rule on average.
#[test]
fn global_selection_episodes() {
    let profile = RiskProfile::Flat { n: 9, p: 0.08 };
    let model = BinaryDilutionModel::perfect();
    let mut prefix_tests = 0usize;
    let mut global_tests = 0usize;
    for seed in 0..10 {
        let pop = Population::sample(&profile, 600 + seed);
        let p = run_episode(&pop, &model, &EpisodeConfig::standard(seed));
        let g = run_episode(
            &pop,
            &model,
            &EpisodeConfig {
                selection: SelectionMethod::HalvingGlobal,
                ..EpisodeConfig::standard(seed)
            },
        );
        assert!(p.classification.is_terminal());
        assert!(g.classification.is_terminal());
        assert_eq!(g.confusion.accuracy(), 1.0);
        prefix_tests += p.stats.tests;
        global_tests += g.stats.tests;
    }
    // Exact bisection can only help (or tie) in expectation.
    assert!(
        global_tests <= prefix_tests + 2,
        "global {global_tests} vs prefix {prefix_tests}"
    );
}

/// The credible set of a session posterior shrinks to one state as a
/// perfect-assay episode resolves, and its certain positives match the
/// classification.
#[test]
fn credible_set_resolves_with_session() {
    let truth = State::from_subjects([3]);
    let mut session = SbgtSession::new(
        Prior::flat(7, 0.1),
        BinaryDilutionModel::perfect(),
        SbgtConfig::default().serial(),
    );
    let before = credible_set(session.posterior(), 0.95);
    session.run_to_classification(|pool| truth.intersects(pool));
    let after = credible_set(session.posterior(), 0.95);
    assert!(after.size() < before.size());
    assert_eq!(after.size(), 1);
    assert_eq!(after.states[0].0, truth);
    assert!(after.certain_positives().contains(3));
    assert!(after.certain_negatives(7).contains(0));
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
    let mut s = SparseSession::new(
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
    assert!(s.support() < 256, "support {}", s.support());
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

/// Engine retry keeps a surveillance-style job alive through transient
/// task failures.
#[test]
fn retry_survives_transient_surveillance_failures() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let engine = Engine::new(EngineConfig::default().with_threads(2));
    let flaky_counter = Arc::new(AtomicUsize::new(0));
    let profile = RiskProfile::Flat { n: 8, p: 0.05 };
    let model = BinaryDilutionModel::perfect();

    let tasks: Vec<_> = (0..6u64)
        .map(|cohort| {
            let counter = Arc::clone(&flaky_counter);
            let profile = profile.clone();
            move || {
                // Cohort 3's first attempt dies (simulated executor loss).
                if cohort == 3 && counter.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("executor lost");
                }
                let pop = Population::sample(&profile, cohort);
                run_episode(&pop, &model, &EpisodeConfig::standard(cohort))
                    .stats
                    .tests
            }
        })
        .collect();
    let (tests, retries) = engine
        .run_job_retrying("surveillance", tasks, RetryPolicy::default())
        .unwrap();
    assert_eq!(tests.len(), 6);
    assert_eq!(retries, 1);
    assert!(tests.iter().all(|&t| t >= 1));
}

/// Information-gain refinement and halving agree on which pools are
/// worth testing for an undiluted assay (IG is monotone in halving
/// distance there), and IG stays within the one-bit bound.
#[test]
fn information_gain_consistency() {
    use sbgt_repro::sbgt_select::select_information_gain;
    let risks = [0.02, 0.05, 0.09, 0.14, 0.2, 0.26];
    let post = DensePosterior::from_risks(&risks);
    let model = BinaryDilutionModel::new(0.99, 0.995, Dilution::None);
    let order: Vec<usize> = (0..risks.len()).collect();
    let sel = select_information_gain(&post, &model, &order, 6, 6).unwrap();
    assert!(sel.information_gain > 0.0);
    assert!(sel.information_gain <= 2f64.ln() + 1e-12);
    // For a near-perfect assay, the IG choice is the near-halving pool.
    let mass = post.pool_negative_mass(sel.pool);
    assert!((mass - 0.5).abs() < 0.2, "mass {mass}");
}
