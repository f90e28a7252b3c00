//! Sequential testing episodes and comparator procedures.
//!
//! [`run_episode`] drives the full Bayesian loop the SBGT framework
//! executes: classify → select pool(s) → assay → posterior update, until
//! every subject is classified (or a stage cap is hit). The comparators —
//! [`run_individual`] (one assay per subject) and [`run_dorfman`] (the
//! classical two-stage pooling of Dorfman 1943) — anchor the efficiency
//! experiments (E7).

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use sbgt_bayes::{
    classify_marginals, update_dense, ClassificationRule, CohortClassification, Observation,
    SubjectStatus,
};
use sbgt_lattice::{DensePosterior, State};
use sbgt_response::BinaryOutcomeModel;
use sbgt_select::{select_halving_prefix, select_stage_lookahead_fused, LookaheadConfig};

use crate::metrics::{ConfusionMatrix, EpisodeStats};
use crate::outcome::run_test;
use crate::population::Population;

/// Configuration of one sequential episode.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpisodeConfig {
    /// Classification thresholds (the stopping rule).
    pub rule: ClassificationRule,
    /// Largest pool the assay supports.
    pub max_pool_size: usize,
    /// Pools selected per stage (`L ≥ 1`). `1` runs sorted-prefix Bayesian
    /// halving, one test per stage; larger widths run the branch-fused
    /// look-ahead rule, fewer stages for more tests (experiment E8).
    pub stage_width: usize,
    /// Hard cap on stages (guards against non-termination when the assay
    /// is so noisy the posterior cannot reach the thresholds).
    pub max_stages: usize,
    /// RNG seed for the virtual lab.
    pub seed: u64,
}

impl EpisodeConfig {
    /// A sensible default: symmetric 99% thresholds, pools up to 16,
    /// one pool per stage, generous stage cap.
    pub fn standard(seed: u64) -> Self {
        EpisodeConfig {
            rule: ClassificationRule::symmetric(0.99),
            max_pool_size: 16,
            stage_width: 1,
            max_stages: 200,
            seed,
        }
    }
}

/// Outcome of an episode.
#[derive(Debug, Clone)]
pub struct EpisodeResult {
    /// Cost metrics.
    pub stats: EpisodeStats,
    /// Confusion against the ground truth.
    pub confusion: ConfusionMatrix,
    /// Final classification.
    pub classification: CohortClassification,
    /// Final posterior marginals.
    pub marginals: Vec<f64>,
    /// Every `(pool, outcome)` in execution order.
    pub history: Vec<(State, bool)>,
}

/// Run one sequential Bayesian group-testing episode with the
/// well-specified prior (subject risks equal the generating risks).
///
/// ```
/// use sbgt_sim::{run_episode, Population, RiskProfile, EpisodeConfig};
/// use sbgt_response::BinaryDilutionModel;
/// let profile = RiskProfile::Flat { n: 8, p: 0.05 };
/// let pop = Population::sample(&profile, 42);
/// let model = BinaryDilutionModel::perfect();
/// let result = run_episode(&pop, &model, &EpisodeConfig::standard(42));
/// assert!(result.classification.is_terminal());
/// assert_eq!(result.confusion.accuracy(), 1.0); // perfect assay
///
/// // Three pools per stage: the look-ahead rule, in fewer stages.
/// let wide = EpisodeConfig { stage_width: 3, ..EpisodeConfig::standard(42) };
/// let staged = run_episode(&pop, &model, &wide);
/// assert!(staged.classification.is_terminal());
/// assert!(staged.stats.stages <= result.stats.stages);
/// ```
pub fn run_episode<M: BinaryOutcomeModel>(
    population: &Population,
    model: &M,
    cfg: &EpisodeConfig,
) -> EpisodeResult {
    run_episode_with_prior(population, &population.prior(), model, cfg)
}

/// Run one episode under an arbitrary (possibly misspecified) prior — the
/// robustness experiments (E11) perturb the assumed risks away from the
/// generating ones.
///
/// # Panics
/// Panics when the prior's cohort size differs from the population's.
pub fn run_episode_with_prior<M: BinaryOutcomeModel>(
    population: &Population,
    prior: &sbgt_bayes::Prior,
    model: &M,
    cfg: &EpisodeConfig,
) -> EpisodeResult {
    assert_eq!(
        prior.n_subjects(),
        population.n_subjects(),
        "prior and population cohort sizes differ"
    );
    let n = population.n_subjects();
    let mut posterior = prior.to_dense();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut history: Vec<(State, bool)> = Vec::new();
    let mut stages = 0usize;

    let (mut marginals, mut classification) = classify_now(&posterior, cfg.rule);
    while !classification.is_terminal() && stages < cfg.max_stages {
        let mut eligible = classification.undetermined();
        eligible.sort_by(|&a, &b| marginals[a].total_cmp(&marginals[b]).then(a.cmp(&b)));

        let pools = select_stage(&posterior, model, &eligible, cfg);
        if pools.is_empty() {
            break;
        }
        stages += 1;
        let mut progressed = false;
        for pool in pools {
            let outcome = run_test(population, model, pool, &mut rng);
            history.push((pool, outcome));
            match update_dense(&mut posterior, model, &Observation::new(pool, outcome)) {
                Ok(_) => progressed = true,
                // Impossible observation: only reachable with degenerate
                // (0/1-likelihood) models after contradictory outcomes.
                // Leave the posterior as-is and stop the stage.
                Err(_) => break,
            }
        }
        if !progressed {
            break;
        }
        (marginals, classification) = classify_now(&posterior, cfg.rule);
    }

    EpisodeResult {
        stats: EpisodeStats {
            tests: history.len(),
            stages,
            subjects: n,
        },
        confusion: ConfusionMatrix::from_statuses(&classification.statuses, population.truth()),
        classification,
        marginals,
        history,
    }
}

fn classify_now(
    posterior: &DensePosterior,
    rule: ClassificationRule,
) -> (Vec<f64>, CohortClassification) {
    let marginals = posterior.marginals();
    let classification = classify_marginals(&marginals, rule);
    (marginals, classification)
}

fn select_stage<M: BinaryOutcomeModel>(
    posterior: &DensePosterior,
    model: &M,
    eligible: &[usize],
    cfg: &EpisodeConfig,
) -> Vec<State> {
    if cfg.stage_width == 1 {
        return select_halving_prefix(posterior, eligible, cfg.max_pool_size)
            .map(|s| vec![s.pool])
            .unwrap_or_default();
    }
    let la = LookaheadConfig {
        width: cfg.stage_width,
        max_pool_size: cfg.max_pool_size,
    };
    // Branch-fused fast path: identical pools to the clone-per-branch rule
    // without materializing branches.
    select_stage_lookahead_fused(posterior, model, eligible, &la)
        .expect("an episode needs a stage width and a pool cap of at least 1")
        .into_iter()
        .map(|s| s.pool)
        .collect()
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
    use sbgt_response::{BinaryDilutionModel, Dilution};

    fn low_prev_profile(n: usize) -> RiskProfile {
        RiskProfile::Flat { n, p: 0.05 }
    }

    #[test]
    fn perfect_test_episode_classifies_exactly() {
        let profile = low_prev_profile(10);
        let pop = Population::with_truth(&profile, State::from_subjects([3, 7]));
        let model = BinaryDilutionModel::perfect();
        let cfg = EpisodeConfig::standard(1);
        let r = run_episode(&pop, &model, &cfg);
        assert!(r.classification.is_terminal());
        assert_eq!(r.confusion.tp, 2);
        assert_eq!(r.confusion.tn, 8);
        assert_eq!(r.confusion.fp + r.confusion.fn_, 0);
        assert_eq!(r.stats.tests, r.history.len());
        assert!(r.stats.stages >= 1);
    }

    #[test]
    fn group_testing_beats_individual_at_low_prevalence() {
        let profile = RiskProfile::Flat { n: 12, p: 0.02 };
        let model = BinaryDilutionModel::perfect();
        let mut bayes_tests = 0usize;
        let mut reps = 0usize;
        for seed in 0..10 {
            let pop = Population::sample(&profile, seed);
            let r = run_episode(&pop, &model, &EpisodeConfig::standard(seed));
            assert!(r.classification.is_terminal());
            bayes_tests += r.stats.tests;
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
        let r = run_episode(&pop, &model, &EpisodeConfig::standard(3));
        assert!(r.classification.is_terminal());
        assert_eq!(r.confusion.tn, 8);
        // A handful of all-negative pools suffice.
        assert!(
            r.stats.tests <= 4,
            "expected few tests, used {}",
            r.stats.tests
        );
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
            let plain = run_episode(&pop, &model, &EpisodeConfig::standard(seed));
            let look = run_episode(
                &pop,
                &model,
                &EpisodeConfig {
                    stage_width: 3,
                    ..EpisodeConfig::standard(seed)
                },
            );
            stages_plain += plain.stats.stages;
            stages_look += look.stats.stages;
            tests_plain += plain.stats.tests;
            tests_look += look.stats.tests;
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
        let profile = low_prev_profile(5);
        let pop = Population::sample(&profile, 2);
        let model = BinaryDilutionModel::new(0.55, 0.55, Dilution::None);
        let cfg = EpisodeConfig {
            max_stages: 5,
            ..EpisodeConfig::standard(2)
        };
        let r = run_episode(&pop, &model, &cfg);
        assert_eq!(r.stats.stages, 5);
        assert!(!r.classification.is_terminal());
        assert!(r.confusion.undetermined > 0);
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

    #[test]
    fn episodes_are_reproducible() {
        let profile = RiskProfile::Flat { n: 10, p: 0.1 };
        let pop = Population::sample(&profile, 11);
        let model = BinaryDilutionModel::pcr_like();
        let a = run_episode(&pop, &model, &EpisodeConfig::standard(11));
        let b = run_episode(&pop, &model, &EpisodeConfig::standard(11));
        assert_eq!(a.history, b.history);
        assert_eq!(a.stats, b.stats);
    }
}
