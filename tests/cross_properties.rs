//! Cross-crate property tests: invariants of full episodes and of the
//! backend-equivalence contract, under randomized cohorts and models.

use proptest::prelude::*;

use sbgt_repro::sbgt::prelude::*;
use sbgt_repro::sbgt::{ExecMode, ParConfig};
use sbgt_repro::sbgt_sim::runner::EpisodeConfig;
use sbgt_repro::sbgt_sim::{run_episode, Population, RiskProfile};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Episode bookkeeping invariants hold for arbitrary cohorts/seeds.
    #[test]
    fn episode_invariants(
        n in 4usize..10,
        p in 0.01f64..0.3,
        seed in 0u64..500,
    ) {
        let profile = RiskProfile::Flat { n, p };
        let pop = Population::sample(&profile, seed);
        let model = BinaryDilutionModel::pcr_like();
        let r = run_episode(&pop, &model, &EpisodeConfig::standard(seed));

        // Accounting: history length is the test count; confusion covers
        // the whole cohort; stages never exceed tests.
        prop_assert_eq!(r.stats.tests, r.history.len());
        prop_assert_eq!(r.confusion.total(), n);
        prop_assert!(r.stats.stages <= r.stats.tests.max(1));
        prop_assert_eq!(r.stats.subjects, n);
        prop_assert_eq!(r.marginals.len(), n);
        for &m in &r.marginals {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&m));
        }
        // Classification is consistent with the final marginals.
        for (i, s) in r.classification.statuses.iter().enumerate() {
            match s {
                SubjectStatus::Positive => prop_assert!(r.marginals[i] >= 0.99 - 1e-9),
                SubjectStatus::Negative => prop_assert!(r.marginals[i] <= 0.01 + 1e-9),
                SubjectStatus::Undetermined => {}
            }
        }
        // Every tested pool was non-empty and within the cohort.
        for (pool, _) in &r.history {
            prop_assert!(!pool.is_empty());
            prop_assert!(pool.is_subset_of(State::full(n)));
        }
    }

    /// Serial and parallel sessions stay bitwise equal over random
    /// observation sequences.
    #[test]
    fn backend_equivalence(
        n in 3usize..9,
        seed in 0u64..200,
        steps in 1usize..6,
    ) {
        let mut s = seed;
        let mut next = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) as usize
        };
        let risks: Vec<f64> = (0..n).map(|_| 0.01 + (next() % 40) as f64 / 100.0).collect();
        let model = BinaryDilutionModel::pcr_like();
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
        for _ in 0..steps {
            let mask = (next() as u64 % ((1 << n) - 1)) + 1; // non-empty
            let pool = State(mask);
            let outcome = next() % 2 == 0;
            let a = serial.observe(pool, outcome);
            let b = parallel.observe(pool, outcome);
            match (a, b) {
                (Ok(za), Ok(zb)) => prop_assert_eq!(za.to_bits(), zb.to_bits()),
                (Err(ea), Err(eb)) => prop_assert_eq!(ea, eb),
                (a, b) => prop_assert!(false, "backends diverged: {a:?} vs {b:?}"),
            }
        }
        for (a, b) in serial.marginals().iter().zip(parallel.marginals()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// With a perfect assay, the sequential procedure always terminates
    /// with an exactly correct classification and at most one test per
    /// subject plus a logarithmic overhead.
    #[test]
    fn perfect_assay_is_exact(
        n in 4usize..10,
        truth_bits in any::<u64>(),
    ) {
        let truth = State(truth_bits & ((1 << n) - 1));
        let profile = RiskProfile::Flat { n, p: 0.2 };
        let pop = Population::with_truth(&profile, truth);
        let model = BinaryDilutionModel::perfect();
        let r = run_episode(&pop, &model, &EpisodeConfig::standard(1));
        prop_assert!(r.classification.is_terminal());
        prop_assert_eq!(r.confusion.fp, 0);
        prop_assert_eq!(r.confusion.fn_, 0);
        prop_assert_eq!(r.confusion.tp, truth.rank() as usize);
        // Binary search information bound: a perfect strategy needs at
        // most n + |truth| * ceil(log2 n) + slack tests.
        let log_n = (n as f64).log2().ceil() as usize;
        let bound = n + (truth.rank() as usize + 1) * (log_n + 1);
        prop_assert!(
            r.stats.tests <= bound,
            "tests {} exceed bound {bound} (n={n}, truth {truth})",
            r.stats.tests
        );
    }
}
