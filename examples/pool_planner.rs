//! Pool planner — the reproduction of the method paper's web calculator.
//!
//! The Biostatistics companion paper ships a calculator that helps a lab
//! decide *whether and how to pool* under its local conditions: cohort
//! size, prevalence, assay sensitivity/specificity, dilution behaviour,
//! and confidence thresholds. This example does the same from the command
//! line: it simulates the Bayesian procedure at the given operating point,
//! compares it against individual testing and the analytically-optimal
//! Dorfman scheme, and prints a recommendation.
//!
//! Run (defaults shown):
//!   cargo run --release --example pool_planner -- \
//!       [n=12] [prevalence=0.02] [sensitivity=0.99] [specificity=0.995] [alpha=4.0]

use sbgt_repro::sbgt::{SbgtConfig, SbgtSession};
use sbgt_repro::sbgt_bayes::ClassificationRule;
use sbgt_repro::sbgt_response::{BinaryDilutionModel, Dilution};
use sbgt_repro::sbgt_sim::{
    dorfman_expected_tests_per_subject, optimal_dorfman_pool, ConfusionMatrix, Population,
    RiskProfile, SummaryStats,
};

fn arg(n: usize, default: f64) -> f64 {
    std::env::args()
        .nth(n)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let n = arg(1, 12.0) as usize;
    let prevalence = arg(2, 0.02);
    let sensitivity = arg(3, 0.99);
    let specificity = arg(4, 0.995);
    let alpha = arg(5, 4.0);
    assert!((2..=20).contains(&n), "cohort size must be in 2..=20");
    assert!(prevalence > 0.0 && prevalence < 0.5);

    let model = BinaryDilutionModel::new(sensitivity, specificity, Dilution::Exponential { alpha });
    println!("pool planner — operating point:");
    println!(
        "  cohort {n}, prevalence {prevalence}, sens {sensitivity}, spec {specificity}, \
         exponential dilution α={alpha}"
    );
    println!();

    // Bayesian procedure, simulated.
    let reps = 60u64;
    let profile = RiskProfile::Flat { n, p: prevalence };
    let config = SbgtConfig::default()
        .with_rule(ClassificationRule::new(0.99, (prevalence / 10.0).min(0.01)));
    let mut confusion = ConfusionMatrix::default();
    let mut tps = Vec::new();
    let mut stages = Vec::new();
    for seed in 0..reps {
        let pop = Population::sample(&profile, 31_000 + seed);
        let r = SbgtSession::new(pop.prior(), model, config)
            .run_to_classification(pop.lab(&model, seed));
        confusion.merge(&ConfusionMatrix::from_statuses(
            &r.classification.statuses,
            pop.truth(),
        ));
        tps.push(r.tests_per_subject());
        stages.push(r.stages as f64);
    }
    let t = SummaryStats::from_samples(&tps);
    let s = SummaryStats::from_samples(&stages);

    // Dorfman, analytic (idealized: no dilution penalty in the formula).
    let (g_opt, dorfman_tps) = optimal_dorfman_pool(prevalence, n);

    println!("strategy comparison (tests per subject; individual = 1.000):");
    println!(
        "  Bayesian halving : {:.3} ± {:.3}  in {:.1} ± {:.1} stages; \
         sens {:.3}, spec {:.3}, accuracy {:.1}%",
        t.mean,
        t.sd,
        s.mean,
        s.sd,
        confusion.sensitivity(),
        confusion.specificity(),
        100.0 * confusion.accuracy()
    );
    println!(
        "  Dorfman (g = {g_opt})   : {:.3}  (analytic, perfect-assay idealization)",
        dorfman_tps
    );
    println!("  individual       : 1.000  in 1 stage");
    println!();

    // Recommendation logic: pooling pays when the Bayesian tests/subject
    // undercuts individual testing with acceptable sensitivity.
    let sens_ok = confusion.sensitivity() >= 0.9;
    if t.mean < 0.8 && sens_ok {
        println!(
            "recommendation: POOL — expect ~{:.0}% assay savings at this operating point.",
            100.0 * (1.0 - t.mean)
        );
    } else if !sens_ok {
        println!(
            "recommendation: CAUTION — dilution at this pool size costs sensitivity \
             ({:.3}); consider smaller max pools or tighter thresholds.",
            confusion.sensitivity()
        );
    } else {
        println!(
            "recommendation: INDIVIDUAL TESTING — prevalence too high for pooling to pay \
             (Dorfman bound {:.3}, Bayesian {:.3}).",
            dorfman_expected_tests_per_subject(g_opt, prevalence),
            t.mean
        );
    }
}
