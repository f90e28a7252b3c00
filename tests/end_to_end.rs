//! Cross-crate integration tests: full pipelines spanning the engine,
//! lattice, response, Bayes, selection, simulation, and session layers.

use sbgt_repro::sbgt::prelude::*;
use sbgt_repro::sbgt::{ExecMode, ParConfig, ShardedPosterior};
use sbgt_repro::sbgt_engine::{Engine, EngineConfig};
use sbgt_repro::sbgt_sim::{run_dorfman, run_individual, ConfusionMatrix, Population, RiskProfile};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9 * (1.0 + a.abs() + b.abs())
}

/// The three execution backends (blocks inline, blocks on rayon, engine
/// dataflow) must produce identical posteriors for an identical
/// observation sequence: inline and rayon to the bit, the engine to
/// rounding.
#[test]
fn all_three_backends_agree_end_to_end() {
    let risks = [0.02, 0.08, 0.01, 0.15, 0.05, 0.03, 0.11, 0.07, 0.02, 0.04];
    let model = BinaryDilutionModel::pcr_like();
    let observations = [
        (State::from_subjects([0, 1, 2, 3, 4]), false),
        (State::from_subjects([5, 6, 7]), true),
        (State::from_subjects([5]), false),
        (State::from_subjects([6, 7]), true),
    ];

    let mut serial = SbgtSession::new(
        Prior::from_risks(&risks),
        model,
        SbgtConfig::default().serial(),
    );
    let mut parallel = SbgtSession::new(
        Prior::from_risks(&risks),
        model,
        SbgtConfig {
            exec: ExecMode::Parallel(ParConfig),
            ..SbgtConfig::default()
        },
    );
    let engine = Engine::new(EngineConfig::default().with_threads(2));
    let mut sharded = ShardedPosterior::from_dense(&Prior::from_risks(&risks).to_dense(), 6);

    for (pool, outcome) in observations {
        let zs = serial.observe(pool, outcome).unwrap();
        let zp = parallel.observe(pool, outcome).unwrap();
        let ze = sharded.update(&engine, &model, pool, outcome).unwrap();
        assert_eq!(zs.to_bits(), zp.to_bits(), "{zs} vs {zp}");
        assert!(close(zs, ze), "{zs} vs {ze}");
    }

    let ms = serial.marginals();
    let mp = parallel.marginals();
    let me = sharded.marginals(&engine);
    for i in 0..risks.len() {
        assert_eq!(ms[i].to_bits(), mp[i].to_bits());
        assert!(close(ms[i], me[i]));
    }

    // Selections agree too.
    let ss = serial.select_next().unwrap();
    let sp = parallel.select_next().unwrap();
    assert_eq!(ss, sp);
    // Sharded prefix masses are unnormalized; normalize by the total.
    let masses = sharded.prefix_negative_masses(&engine, &serial.eligible_order());
    assert!(close(
        masses[ss.pool.rank() as usize] / masses[0],
        ss.negative_mass
    ));
}

/// The SBGT session and the baseline framework must classify identically
/// (same math, different cost model) against the same deterministic lab.
#[test]
fn sbgt_and_baseline_classify_identically() {
    let risks = [0.03, 0.07, 0.02, 0.12, 0.05, 0.08, 0.01];
    let truth = State::from_subjects([3, 5]);
    let model = BinaryDilutionModel::perfect();

    let mut fast = SbgtSession::new(
        Prior::from_risks(&risks),
        model,
        SbgtConfig::default().serial(),
    );
    let fast_out = fast.run_to_classification(|pool| truth.intersects(pool));

    let mut base = BaselineSession::new(
        Prior::from_risks(&risks),
        model,
        SbgtConfig::default().serial(),
    );
    let base_out = base.run_to_classification(|pool| truth.intersects(pool));

    assert_eq!(
        fast_out.classification.statuses,
        base_out.classification.statuses
    );
    assert_eq!(fast_out.tests, base_out.tests);
    // Both must be exactly right with a perfect assay.
    for (i, s) in fast_out.classification.statuses.iter().enumerate() {
        let expected = if truth.contains(i) {
            SubjectStatus::Positive
        } else {
            SubjectStatus::Negative
        };
        assert_eq!(*s, expected, "subject {i}");
    }
}

/// Group testing dominates individual testing in assay count at low
/// prevalence, and Dorfman sits in between — the classical ordering the
/// paper's efficiency experiments rest on.
#[test]
fn efficiency_ordering_holds_at_low_prevalence() {
    let profile = RiskProfile::Flat { n: 16, p: 0.01 };
    let model = BinaryDilutionModel::perfect();
    let reps = 20;
    let (mut bha, mut dorf, mut indiv) = (0usize, 0usize, 0usize);
    for seed in 0..reps {
        let pop = Population::sample(&profile, 7000 + seed);
        bha += SbgtSession::new(pop.prior(), model, SbgtConfig::default())
            .run_to_classification(pop.lab(&model, seed))
            .tests;
        dorf += run_dorfman(&pop, &model, 8, seed).stats.tests;
        indiv += run_individual(&pop, &model, seed).stats.tests;
    }
    assert!(bha < dorf, "BHA {bha} !< Dorfman {dorf}");
    assert!(dorf < indiv, "Dorfman {dorf} !< individual {indiv}");
}

/// Prefix halving and the look-ahead rule both terminate and classify
/// exactly with a perfect assay.
#[test]
fn selection_methods_all_terminate_correctly() {
    let profile = RiskProfile::Flat { n: 8, p: 0.1 };
    let model = BinaryDilutionModel::perfect();
    for seed in 0..6 {
        let pop = Population::sample(&profile, 300 + seed);
        for stage_width in [1, 2] {
            let config = SbgtConfig::default().with_stage_width(stage_width);
            let r = SbgtSession::new(pop.prior(), model, config)
                .run_to_classification(pop.lab(&model, seed));
            let confusion = ConfusionMatrix::from_statuses(&r.classification.statuses, pop.truth());
            assert!(
                r.classification.is_terminal(),
                "width {stage_width} seed {seed}"
            );
            assert_eq!(
                confusion.accuracy(),
                1.0,
                "width {stage_width} seed {seed}: perfect assay must classify perfectly"
            );
        }
    }
}

/// The session's evidence stream reconstructs the joint likelihood of the
/// observation sequence (chain rule), independent of backend.
#[test]
fn evidence_chain_rule() {
    let risks = [0.1, 0.2, 0.05];
    let model = BinaryDilutionModel::pcr_like();
    let observations = [
        (State::from_subjects([0, 1]), true),
        (State::from_subjects([2]), false),
        (State::from_subjects([0]), true),
    ];
    let mut session = SbgtSession::new(
        Prior::from_risks(&risks),
        model,
        SbgtConfig::default().serial(),
    );
    let mut joint = 1.0;
    for (pool, outcome) in observations {
        joint *= session.observe(pool, outcome).unwrap();
    }
    // Recompute the joint likelihood by brute force over all states.
    let prior = Prior::from_risks(&risks).to_dense();
    let mut brute = 0.0;
    for idx in 0..prior.len() {
        let s = State(idx as u64);
        let mut lik = prior.get(s);
        for (pool, outcome) in observations {
            lik *= model.likelihood(outcome, s.positives_in(pool), pool.rank());
        }
        brute += lik;
    }
    assert!(close(joint, brute), "chain {joint} vs brute {brute}");
}

/// Heterogeneous risk: with enough low-risk subjects to reach the halving
/// mass on their own, the rule pools low-risk subjects and leaves the
/// high-risk contacts for individual-ish follow-up. (With too few low-risk
/// subjects the optimal pool legitimately extends into the high-risk
/// group — the mass, not the labels, drives the rule.)
#[test]
fn halving_pools_low_risk_subjects_first() {
    // 0.95^12 ≈ 0.54 is the closest achievable mass to 1/2 and uses only
    // low-risk subjects; adding a 0.4-risk contact would overshoot to 0.32.
    let prior = Prior::from_groups(&[(12, 0.05), (2, 0.4)]);
    let session = SbgtSession::new(
        prior,
        BinaryDilutionModel::pcr_like(),
        SbgtConfig::default().serial(),
    );
    let sel = session.select_next().unwrap();
    assert_eq!(sel.pool, State::from_subjects(0..12));
    assert!((sel.negative_mass - 0.95f64.powi(12)).abs() < 1e-9);
}

use sbgt_repro::sbgt_response::ResponseModel;

/// Continuous (viral-load) outcomes flow through the same lattice update
/// path and concentrate the posterior on the right state.
#[test]
fn continuous_outcomes_classify() {
    let model = GaussianResponse::pcr_like();
    let mut post = Prior::flat(6, 0.1).to_dense();
    let truth = State::from_subjects([2]);
    // Simulate noiseless-mean outcomes for a few pools.
    let pools = [
        State::from_subjects([0, 1, 2]),
        State::from_subjects([2, 3]),
        State::from_subjects([4, 5]),
        State::from_subjects([2]),
    ];
    for pool in pools {
        let y = model.mean(truth.positives_in(pool), pool.rank());
        sbgt_repro::sbgt_bayes::update_dense(
            &mut post,
            &model,
            &sbgt_repro::sbgt_bayes::Observation::new(pool, y),
        )
        .unwrap();
    }
    let m = post.marginals();
    assert!(m[2] > 0.99, "subject 2 marginal {}", m[2]);
    for (i, &mi) in m.iter().enumerate() {
        if i != 2 {
            assert!(mi < 0.2, "subject {i} marginal {mi}");
        }
    }
}
