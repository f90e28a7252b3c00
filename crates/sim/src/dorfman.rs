//! Analytic Dorfman (two-stage) pooling theory.
//!
//! Dorfman 1943 is the classical comparator for every group-testing
//! paper: pools of size `g` are tested, and members of positive pools are
//! retested individually. Under a perfect assay and prevalence `p`, the
//! expected tests per subject are
//!
//! `E[T]/n = 1/g + 1 − (1−p)^g`,
//!
//! minimized near `g ≈ 1/√p`. These closed forms anchor the efficiency
//! experiments (E7): the simulated Dorfman runner must agree with them,
//! and the Bayesian procedure must beat them at low prevalence.

/// Expected tests per subject for Dorfman pooling with pool size `g` at
/// prevalence `p`, assuming a perfect assay and `n` divisible into pools
/// of `g` (the classical asymptotic form).
///
/// # Panics
/// Panics when `g == 0` or `p ∉ [0, 1]`.
pub fn dorfman_expected_tests_per_subject(g: usize, p: f64) -> f64 {
    assert!(g >= 1, "pool size must be at least 1");
    assert!((0.0..=1.0).contains(&p), "prevalence {p} outside [0,1]");
    if g == 1 {
        return 1.0;
    }
    1.0 / g as f64 + 1.0 - (1.0 - p).powi(g as i32)
}

/// The pool size minimizing [`dorfman_expected_tests_per_subject`] over
/// `1..=max_g`, with its expected tests per subject.
pub fn optimal_dorfman_pool(p: f64, max_g: usize) -> (usize, f64) {
    assert!(max_g >= 1);
    let mut best = (1usize, 1.0f64);
    for g in 2..=max_g {
        let e = dorfman_expected_tests_per_subject(g, p);
        if e < best.1 {
            best = (g, e);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comparators::run_dorfman;
    use crate::population::{Population, RiskProfile};
    use sbgt_response::BinaryDilutionModel;

    #[test]
    fn formula_basics() {
        // g=1 is individual testing.
        assert_eq!(dorfman_expected_tests_per_subject(1, 0.1), 1.0);
        // At p=0: only the pool tests remain.
        assert!((dorfman_expected_tests_per_subject(10, 0.0) - 0.1).abs() < 1e-12);
        // At p=1: every pool retests everyone.
        assert!((dorfman_expected_tests_per_subject(10, 1.0) - 1.1).abs() < 1e-12);
    }

    #[test]
    fn optimal_pool_tracks_inverse_sqrt_prevalence() {
        for &(p, expected_range) in &[(0.01f64, (8usize, 12usize)), (0.04, (4, 7)), (0.10, (3, 5))]
        {
            let (g, e) = optimal_dorfman_pool(p, 64);
            assert!(
                g >= expected_range.0 && g <= expected_range.1,
                "p={p}: g={g} outside {expected_range:?}"
            );
            assert!(e < 1.0);
            // Close to the 1/sqrt(p) rule of thumb.
            let rule = 1.0 / p.sqrt();
            assert!(
                (g as f64 - rule).abs() <= 2.0,
                "p={p}: g={g} vs rule {rule:.1}"
            );
        }
    }

    #[test]
    fn simulation_agrees_with_formula() {
        // Perfect assay, many replicates: the simulated Dorfman runner's
        // mean tests/subject must approach the closed form.
        let p = 0.05;
        let g = 5;
        let n = 20; // divisible by g
        let profile = RiskProfile::Flat { n, p };
        let model = BinaryDilutionModel::perfect();
        let reps = 400u64;
        let mut total = 0.0;
        for seed in 0..reps {
            let pop = Population::sample(&profile, 5000 + seed);
            total += run_dorfman(&pop, &model, g, seed).stats.tests_per_subject();
        }
        let mean = total / reps as f64;
        let expected = dorfman_expected_tests_per_subject(g, p);
        assert!(
            (mean - expected).abs() < 0.03,
            "simulated {mean:.4} vs formula {expected:.4}"
        );
    }
}
