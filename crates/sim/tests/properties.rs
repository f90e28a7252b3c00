//! Property tests for the simulation substrate: comparator procedures,
//! episodes (a session against the population's lab) across stage widths
//! and pool caps, and the Dorfman formula.

use proptest::prelude::*;

use sbgt::{SbgtConfig, SbgtSession};
use sbgt_lattice::State;
use sbgt_response::BinaryDilutionModel;
use sbgt_sim::{
    dorfman_expected_tests_per_subject, run_array_testing, run_dorfman, run_individual,
    square_grid, ConfusionMatrix, Population, RiskProfile,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All comparator procedures classify every subject and count their
    /// tests consistently with their structure.
    #[test]
    fn comparators_account_consistently(
        n in 4usize..14,
        p in 0.01f64..0.3,
        seed in 0u64..300,
        g in 2usize..6,
    ) {
        let profile = RiskProfile::Flat { n, p };
        let pop = Population::sample(&profile, seed);
        let model = BinaryDilutionModel::perfect();

        let ind = run_individual(&pop, &model, seed);
        prop_assert_eq!(ind.stats.tests, n);
        prop_assert!(ind.classification.is_terminal());
        prop_assert_eq!(ind.confusion.accuracy(), 1.0);

        let dorf = run_dorfman(&pop, &model, g, seed);
        prop_assert!(dorf.classification.is_terminal());
        prop_assert_eq!(dorf.confusion.accuracy(), 1.0);
        let n_pools = n.div_ceil(g);
        prop_assert!(dorf.stats.tests >= n_pools);
        prop_assert!(dorf.stats.tests <= n_pools + n);

        let (rows, cols) = square_grid(n);
        let arr = run_array_testing(&pop, &model, rows, cols, seed);
        prop_assert!(arr.classification.is_terminal());
        prop_assert_eq!(arr.confusion.accuracy(), 1.0);
        prop_assert!(arr.stats.stages <= 2);
    }

    /// Prefix halving and the look-ahead rule terminate exactly with a
    /// perfect assay.
    #[test]
    fn all_selection_rules_exact_with_perfect_assay(
        n in 4usize..9,
        truth_bits in any::<u64>(),
        stage_width in 1usize..3,
    ) {
        let truth = State(truth_bits & ((1 << n) - 1));
        let profile = RiskProfile::Flat { n, p: 0.15 };
        let pop = Population::with_truth(&profile, truth);
        let model = BinaryDilutionModel::perfect();
        let config = SbgtConfig::default().with_stage_width(stage_width);
        let mut session = SbgtSession::new(pop.prior(), model, config);
        let outcome = session.run_to_classification(pop.lab(&model, 7));
        let confusion = ConfusionMatrix::from_statuses(&outcome.classification.statuses, truth);
        prop_assert!(outcome.classification.is_terminal(), "width {}", stage_width);
        prop_assert_eq!(confusion.fp + confusion.fn_, 0);
        prop_assert_eq!(confusion.tp, truth.rank() as usize);
    }

    /// The Dorfman closed form is an upper envelope consistency check:
    /// simulated means stay within a few standard errors for a perfect
    /// assay (coarse bound; the exact agreement test lives in the crate).
    #[test]
    fn dorfman_formula_brackets_simulation(
        g in 2usize..7,
        p in 0.02f64..0.25,
    ) {
        let n = g * 4;
        let profile = RiskProfile::Flat { n, p };
        let model = BinaryDilutionModel::perfect();
        let reps = 60u64;
        let mut total = 0.0;
        for seed in 0..reps {
            let pop = Population::sample(&profile, 40_000 + seed);
            total += run_dorfman(&pop, &model, g, seed).stats.tests_per_subject();
        }
        let mean = total / reps as f64;
        let expected = dorfman_expected_tests_per_subject(g, p);
        prop_assert!(
            (mean - expected).abs() < 0.12,
            "g={} p={}: simulated {} vs formula {}",
            g, p, mean, expected
        );
    }

    /// Episode histories never test classified-negative-by-construction
    /// empty pools, and per-pool sizes respect the cap.
    #[test]
    fn episode_pools_respect_cap(
        n in 4usize..11,
        p in 0.02f64..0.2,
        seed in 0u64..200,
        cap in 2usize..6,
    ) {
        let profile = RiskProfile::Flat { n, p };
        let pop = Population::sample(&profile, seed);
        let model = BinaryDilutionModel::pcr_like();
        let config = SbgtConfig::default().with_max_pool_size(cap);
        let mut session = SbgtSession::new(pop.prior(), model, config);
        session.run_to_classification(pop.lab(&model, seed));
        for (pool, _) in session.history() {
            prop_assert!(!pool.is_empty());
            prop_assert!(pool.rank() as usize <= cap);
        }
    }
}
