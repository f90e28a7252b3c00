//! Exact-vs-approx accuracy harness.
//!
//! For cohorts small enough that the dense `2^N` session is feasible
//! (`N <= 20` here), every approximate backend is held to the exact
//! posterior's decisions: a seeded campaign runs the same cohorts through
//! the dense reference, loopy BP, and the particle filter against the same
//! deterministic lab, then checks
//!
//! * per-specimen classification agreement >= 99% per backend,
//! * an assay budget no more than 5% above the dense reference, and
//! * BP marginals within a small tolerance of the exact posterior when
//!   both condition on the identical observation history —
//!
//! the acceptance bars for trusting the approximations past the wall.
//! The assay bound is one-sided: the approximate backends select by
//! marginal halving, which in noiseless campaigns runs slightly *under*
//! the dense session's look-ahead budget while agreeing on every
//! classification, and cheaper-with-equal-decisions is not a defect.
//! A separate test pins the particle filter's bit-for-bit reproducibility
//! from `(seed, config)`, including across a snapshot/restore boundary.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use sbgt::{RoundStep, SbgtConfig, SbgtSession, SessionOutcome};
use sbgt_approx::{BpBackend, BpConfig, ParticleBackend, ParticleConfig, ParticleSession};
use sbgt_bayes::{Prior, SubjectStatus};
use sbgt_lattice::{BigState, State};
use sbgt_response::{BinaryDilutionModel, Dilution};

/// Undiluted assay: large-pool negatives stay informative, so all three
/// backends converge on the evidence rather than on dilution artifacts.
fn model() -> BinaryDilutionModel {
    BinaryDilutionModel::new(0.99, 0.995, Dilution::None)
}

fn risks_from_seed(seed: u64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let h = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i as u64 + 1)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9);
            0.02 + (h >> 11) as f64 / (1u64 << 53) as f64 * 0.13
        })
        .collect()
}

/// Ground truth drawn at the prior risks, seeded.
fn truth_from_risks(risks: &[f64], seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_5A5A_DEAD_BEEF);
    risks
        .iter()
        .enumerate()
        .filter(|(_, &r)| rng.random_bool(r))
        .map(|(i, _)| i)
        .collect()
}

struct CampaignRun {
    dense: SessionOutcome,
    bp: SessionOutcome,
    particle: SessionOutcome,
}

/// One cohort through all three backends against the same noiseless lab
/// (a pool reads positive iff it touches the truth — a pure function of
/// the pool, so backends that select different pools still face the same
/// ground truth).
fn run_all_backends(seed: u64, n: usize) -> CampaignRun {
    let risks = risks_from_seed(seed, n);
    let infected = truth_from_risks(&risks, seed);
    let truth_small = State::from_subjects(infected.iter().copied());
    let truth_big = BigState::from_subjects(infected.iter().copied());
    let config = SbgtConfig::default().serial();

    let mut dense = SbgtSession::new(Prior::from_risks(&risks), model(), config);
    let dense_out = dense.run_to_classification(|pool| truth_small.intersects(pool));

    let mut bp = BpBackend::open(&risks, model(), config, BpConfig::default()).unwrap();
    let bp_out = bp.run(None, |pool| truth_big.intersects(pool));

    let pcfg = ParticleConfig {
        seed,
        ..ParticleConfig::default()
    };
    let mut particle = ParticleBackend::open(&risks, model(), config, pcfg).unwrap();
    let particle_out = particle.run((), |pool| truth_big.intersects(pool));

    CampaignRun {
        dense: dense_out,
        bp: bp_out,
        particle: particle_out,
    }
}

fn agreement(reference: &SessionOutcome, candidate: &SessionOutcome) -> (usize, usize) {
    assert_eq!(
        reference.classification.statuses.len(),
        candidate.classification.statuses.len()
    );
    let agree = reference
        .classification
        .statuses
        .iter()
        .zip(&candidate.classification.statuses)
        .filter(|(a, b)| a == b)
        .count();
    (agree, reference.classification.statuses.len())
}

#[test]
fn approx_backends_match_the_dense_reference() {
    let mut subjects = 0usize;
    let mut bp_agree = 0usize;
    let mut particle_agree = 0usize;
    let mut dense_tests = 0usize;
    let mut bp_tests = 0usize;
    let mut particle_tests = 0usize;

    for n in [8usize, 10, 12] {
        for seed in 1..=10u64 {
            let run = run_all_backends(seed.wrapping_mul(7919) + n as u64, n);
            let (a, total) = agreement(&run.dense, &run.bp);
            bp_agree += a;
            let (a, _) = agreement(&run.dense, &run.particle);
            particle_agree += a;
            subjects += total;
            dense_tests += run.dense.tests;
            bp_tests += run.bp.tests;
            particle_tests += run.particle.tests;
        }
    }

    let bp_frac = bp_agree as f64 / subjects as f64;
    let particle_frac = particle_agree as f64 / subjects as f64;
    assert!(
        bp_frac >= 0.99,
        "BP agreed with dense on {bp_agree}/{subjects} specimens ({bp_frac:.4})"
    );
    assert!(
        particle_frac >= 0.99,
        "particles agreed with dense on {particle_agree}/{subjects} specimens ({particle_frac:.4})"
    );

    let budget = dense_tests as f64 * 1.05;
    assert!(
        (bp_tests as f64) <= budget,
        "BP used {bp_tests} assays vs dense {dense_tests} (>5% over budget)"
    );
    assert!(
        (particle_tests as f64) <= budget,
        "particles used {particle_tests} assays vs dense {dense_tests} (>5% over budget)"
    );
}

#[test]
fn bp_marginals_track_the_exact_posterior() {
    // Replay every pool BP chose (and the outcome it saw) through the
    // exact dense posterior: conditioning on the identical history, the
    // loopy marginals must sit on top of the exact ones. Halving yields
    // near-tree factor graphs, where loopy BP is close to exact — this
    // pins that the assay savings in the campaign above come from the
    // selection policy, not from a drifting posterior.
    let mut worst = 0.0f64;
    for n in [8usize, 10, 12] {
        for seed in 1..=10u64 {
            let seed = seed.wrapping_mul(7919) + n as u64;
            let risks = risks_from_seed(seed, n);
            let infected = truth_from_risks(&risks, seed);
            let truth = BigState::from_subjects(infected.iter().copied());
            let config = SbgtConfig::default().serial();

            let mut bp = BpBackend::open(&risks, model(), config, BpConfig::default()).unwrap();
            let _ = bp.run(None, |pool| truth.intersects(pool));
            let history = bp
                .snapshot()
                .approx
                .expect("BP snapshot carries an approx section")
                .history;

            let mut dense = SbgtSession::new(Prior::from_risks(&risks), model(), config);
            for (members, outcome) in &history {
                let pool = State::from_subjects(members.iter().map(|&i| i as usize));
                dense.observe(pool, *outcome).unwrap();
            }
            let bp_m = bp.marginals();
            let dense_m = dense.marginals();
            for (b, d) in bp_m.iter().zip(&dense_m) {
                worst = worst.max((b - d).abs());
            }
        }
    }
    assert!(
        worst <= 0.05,
        "worst |BP - exact| marginal over identical histories: {worst:.6}"
    );
}

#[test]
fn particle_runs_are_reproducible_from_seed_and_config() {
    let n = 12usize;
    let seed = 41u64;
    let risks = risks_from_seed(seed, n);
    let infected = truth_from_risks(&risks, seed);
    let truth = BigState::from_subjects(infected.iter().copied());
    let config = SbgtConfig::default().serial();
    let pcfg = ParticleConfig {
        seed,
        ..ParticleConfig::default()
    };

    let drive = |session: &mut ParticleSession<BinaryDilutionModel>| {
        session.run((), |pool| truth.intersects(pool))
    };

    let mut a = ParticleBackend::open(&risks, model(), config, pcfg).unwrap();
    let out_a = drive(&mut a);
    let mut b = ParticleBackend::open(&risks, model(), config, pcfg).unwrap();
    let out_b = drive(&mut b);
    assert_eq!(out_a, out_b, "same (seed, config) must replay bit-for-bit");

    // Interrupt a third run after two rounds, freeze it, restore, finish:
    // the outcome must still be bit-identical — the snapshot carries the
    // cloud and RNG, so the sample path continues where it left off.
    let mut c = ParticleBackend::open(&risks, model(), config, pcfg).unwrap();
    for _ in 0..2 {
        if let RoundStep::Finished(out) = c.round((), |pool| truth.intersects(pool)) {
            // Cohort classified before the interruption point: the full-run
            // equality above already covers it.
            assert_eq!(out, out_a);
            return;
        }
    }
    let frozen = c.snapshot();
    let mut d = ParticleBackend::restore(&frozen, &risks, model(), config, pcfg).unwrap();
    let out_d = drive(&mut d);
    assert_eq!(
        out_d, out_a,
        "snapshot/restore must not perturb the sample path"
    );
}

#[test]
fn bp_handles_cohorts_far_past_the_exact_wall() {
    // 256 specimens: the dense session would need a 2^256 lattice. BP runs
    // rounds in O(specimens + pools) and drives the cohort to a terminal
    // classification that contains every planted positive.
    let n = 256usize;
    // 5% flat risk: above the symmetric rule's negative threshold, so the
    // cohort genuinely needs testing (1% priors classify instantly).
    let risks = vec![0.05; n];
    let infected = [3usize, 77, 200];
    let truth = BigState::from_subjects(infected.iter().copied());
    let config = SbgtConfig::default();

    let mut session = BpBackend::open(&risks, model(), config, BpConfig::default()).unwrap();
    let out = session.run(None, |pool| truth.intersects(pool));
    assert_eq!(out.subjects, n);
    assert_eq!(out.marginals.len(), n);
    assert!(out.classification.is_terminal(), "cohort must classify");
    for &i in &infected {
        assert_eq!(
            out.classification.statuses[i],
            SubjectStatus::Positive,
            "planted positive {i} missed"
        );
    }
    assert_eq!(out.classification.positives(), infected.len());
    assert!(
        out.tests < n,
        "pooling must beat individual testing ({} assays for {n})",
        out.tests
    );
}
