//! Property tests for the Bayesian machinery: update laws, classification
//! consistency, credible-set coverage, and log/linear domain agreement.

use proptest::prelude::*;

use sbgt_bayes::{
    classify_marginals, credible_set, update_dense, ClassificationRule, Observation, Prior,
};
use sbgt_lattice::{DensePosterior, State};
use sbgt_response::{BinaryDilutionModel, Dilution, ResponseModel};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9 * (1.0 + a.abs() + b.abs())
}

fn risks_strategy(max_n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.01f64..0.5, 2..=max_n)
}

fn model_strategy() -> impl Strategy<Value = BinaryDilutionModel> {
    (
        0.7f64..1.0,
        0.9f64..1.0,
        prop_oneof![
            Just(Dilution::None),
            Just(Dilution::Linear),
            (1.0f64..8.0).prop_map(|alpha| Dilution::Exponential { alpha }),
        ],
    )
        .prop_map(|(sens, spec, dilution)| BinaryDilutionModel::new(sens, spec, dilution))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Posterior stays normalized and marginals stay in [0,1] after any
    /// update sequence.
    #[test]
    fn update_preserves_probability_axioms(
        risks in risks_strategy(8),
        model in model_strategy(),
        pools in prop::collection::vec(any::<u64>(), 1..5),
        outcomes in prop::collection::vec(any::<bool>(), 5),
    ) {
        let n = risks.len();
        let mut post = Prior::from_risks(&risks).to_dense();
        for (raw, &outcome) in pools.iter().zip(&outcomes) {
            let mask = raw & State::full(n).bits();
            if mask == 0 {
                continue;
            }
            let obs = Observation::new(State(mask), outcome);
            if update_dense(&mut post, &model, &obs).is_err() {
                break;
            }
            prop_assert!(close(post.total(), 1.0));
        }
        for m in post.marginals() {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&m));
        }
        prop_assert!(post.entropy() >= -1e-9);
    }

    /// The evidence of an observation equals the prior predictive
    /// probability of that outcome (law of total probability).
    #[test]
    fn evidence_is_prior_predictive(
        risks in risks_strategy(7),
        model in model_strategy(),
        pool_raw in 1u64..128,
        outcome in any::<bool>(),
    ) {
        let n = risks.len();
        let mask = pool_raw & State::full(n).bits();
        prop_assume!(mask != 0);
        let pool = State(mask);
        let prior = Prior::from_risks(&risks).to_dense();
        let mut post = prior.clone();
        let z = update_dense(&mut post, &model, &Observation::new(pool, outcome)).unwrap();
        let predictive: f64 = prior
            .probs()
            .iter()
            .enumerate()
            .map(|(idx, &p)| {
                let k = State(idx as u64).positives_in(pool);
                p * model.likelihood(outcome, k, pool.rank())
            })
            .sum();
        prop_assert!(close(z, predictive));
    }

    /// The two outcomes' evidences sum to 1 for a binary model (the
    /// predictive distribution is a distribution).
    #[test]
    fn binary_evidences_sum_to_one(
        risks in risks_strategy(7),
        model in model_strategy(),
        pool_raw in 1u64..128,
    ) {
        let n = risks.len();
        let mask = pool_raw & State::full(n).bits();
        prop_assume!(mask != 0);
        let pool = State(mask);
        let mut z_sum = 0.0;
        for outcome in [true, false] {
            let mut post = Prior::from_risks(&risks).to_dense();
            if let Ok(z) = update_dense(&mut post, &model, &Observation::new(pool, outcome)) {
                z_sum += z;
            }
        }
        prop_assert!(close(z_sum, 1.0));
    }

    /// Classification partitions the cohort and respects thresholds.
    #[test]
    fn classification_respects_thresholds(
        marginals in prop::collection::vec(0.0f64..=1.0, 1..20),
        pos in 0.6f64..0.99,
        neg in 0.01f64..0.4,
    ) {
        let rule = ClassificationRule::new(pos, neg);
        let c = classify_marginals(&marginals, rule);
        prop_assert_eq!(c.statuses.len(), marginals.len());
        prop_assert_eq!(
            c.positives() + c.negatives() + c.undetermined().len(),
            marginals.len()
        );
        for (m, s) in marginals.iter().zip(&c.statuses) {
            use sbgt_bayes::SubjectStatus::*;
            match s {
                Positive => prop_assert!(*m >= pos),
                Negative => prop_assert!(*m <= neg),
                Undetermined => prop_assert!(*m > neg && *m < pos),
            }
        }
    }

    /// Credible sets cover at least the requested level and are minimal.
    #[test]
    fn credible_sets_cover_and_are_minimal(
        risks in risks_strategy(7),
        level in 0.1f64..1.0,
    ) {
        let post = DensePosterior::from_risks(&risks);
        let cs = credible_set(&post, level);
        prop_assert!(cs.coverage >= level - 1e-9);
        if cs.size() > 1 {
            let without_last: f64 = cs.states[..cs.size() - 1].iter().map(|(_, p)| p).sum();
            prop_assert!(without_last < level + 1e-12);
        }
        // States are in descending probability order.
        for w in cs.states.windows(2) {
            prop_assert!(w[0].1 >= w[1].1 - 1e-15);
        }
    }
}
