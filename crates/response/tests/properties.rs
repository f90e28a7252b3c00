//! Property tests for the response models: probability axioms and
//! dilution monotonicity.

use proptest::prelude::*;

use sbgt_response::{
    BinaryDilutionModel, BinaryOutcomeModel, CtOutcome, CtValueModel, Dilution, GaussianResponse,
    ResponseModel,
};

fn dilution_strategy() -> impl Strategy<Value = Dilution> {
    prop_oneof![
        Just(Dilution::None),
        Just(Dilution::Linear),
        (0.5f64..10.0).prop_map(|alpha| Dilution::Exponential { alpha }),
        ((0.5f64..4.0), (0.05f64..1.0)).prop_map(|(gamma, kappa)| Dilution::Hill { gamma, kappa }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Attenuation curves are valid: bounded, monotone in positives,
    /// anchored at 0 and 1.
    #[test]
    fn attenuation_axioms(d in dilution_strategy(), n in 1u32..40) {
        prop_assert_eq!(d.attenuation(0, n), 0.0);
        let full = d.attenuation(n, n);
        prop_assert!((full - 1.0).abs() < 1e-9);
        let mut prev = 0.0;
        for k in 0..=n {
            let v = d.attenuation(k, n);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&v));
            prop_assert!(v >= prev - 1e-12);
            prev = v;
        }
    }

    /// Binary model likelihoods are a distribution over outcomes for every
    /// (k, n), and single-positive detection decays with pool size.
    #[test]
    fn binary_model_axioms(
        sens in 0.5f64..1.0,
        spec in 0.5f64..1.0,
        d in dilution_strategy(),
        n in 1u32..32,
    ) {
        let m = BinaryDilutionModel::new(sens, spec, d);
        for k in 0..=n {
            let s = m.likelihood(true, k, n) + m.likelihood(false, k, n);
            prop_assert!((s - 1.0).abs() < 1e-12);
        }
        if n >= 2 {
            prop_assert!(m.positive_prob(1, n) <= m.positive_prob(1, 1) + 1e-12);
        }
        prop_assert!((m.base_sensitivity() - sens).abs() < 1e-12);
        prop_assert!((m.specificity() - spec).abs() < 1e-12);
    }

    /// Gaussian response density is positive, finite, and peaks at the
    /// conditional mean.
    #[test]
    fn gaussian_density_axioms(
        mu_pos in 1.0f64..30.0,
        slope in 0.0f64..3.0,
        sigma in 0.2f64..4.0,
        k in 1u32..8,
        n in 8u32..9,
    ) {
        let m = GaussianResponse::new(0.0, mu_pos, slope, sigma);
        let mean = m.mean(k, n);
        let at_mean = m.likelihood(mean, k, n);
        prop_assert!(at_mean.is_finite() && at_mean > 0.0);
        prop_assert!(at_mean >= m.likelihood(mean + sigma, k, n));
        prop_assert!(at_mean >= m.likelihood(mean - sigma, k, n));
    }

    /// Ct model outcome space integrates to one (mass + density) and the
    /// censored probability complements detection.
    #[test]
    fn ct_model_axioms(k in 0u32..6, n in 6u32..7) {
        let m = CtValueModel::pcr_like();
        let censored = m.likelihood(CtOutcome::NotDetected, k, n);
        prop_assert!((censored - (1.0 - m.detect_prob(k, n))).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&censored));
        // Detected densities are non-negative and finite.
        for ct in [10.0, 20.0, 30.0, 40.0] {
            let v = m.likelihood(CtOutcome::Detected(ct), k, n);
            prop_assert!(v.is_finite() && v >= 0.0);
        }
    }

    /// Likelihood tables always have pool_size + 1 entries matching the
    /// pointwise likelihoods.
    #[test]
    fn tables_match_pointwise(
        d in dilution_strategy(),
        n in 1u32..24,
        outcome in any::<bool>(),
    ) {
        let m = BinaryDilutionModel::new(0.9, 0.95, d);
        let t = m.likelihood_table(outcome, n);
        prop_assert_eq!(t.len(), n as usize + 1);
        for (k, &v) in t.iter().enumerate() {
            prop_assert_eq!(v, m.likelihood(outcome, k as u32, n));
        }
    }
}
