//! Property tests for the selection rules: optimality relations between
//! prefix, global, and exhaustive halving; look-ahead sanity; candidate
//! generators.

use proptest::prelude::*;

use sbgt_lattice::{DensePosterior, ExecMode, LookaheadKernel, ParConfig, State};
use sbgt_response::{BinaryDilutionModel, Dilution, ResponseModel};
use sbgt_select::{
    drive_lookahead, select_halving_exhaustive, select_halving_global, select_halving_prefix,
    select_stage_lookahead, select_stage_lookahead_fused, select_stage_lookahead_par,
    CandidateStrategy, LookaheadConfig,
};

fn risks_strategy(max_n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.01f64..0.45, 2..=max_n)
}

fn ascending(risks: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..risks.len()).collect();
    order.sort_by(|&a, &b| risks[a].total_cmp(&risks[b]));
    order
}

/// The independent prior of `risks` after one observed pool, so subjects
/// are correlated and a projection is more than dropping factors.
fn observed_posterior(
    risks: &[f64],
    model: &BinaryDilutionModel,
    pool_mask: u64,
    outcome: bool,
) -> DensePosterior {
    let mut post = DensePosterior::from_risks(risks);
    let pool = State(pool_mask & State::full(risks.len()).bits());
    if !pool.is_empty() {
        post.mul_likelihood(pool, &model.likelihood_table(outcome, pool.rank()));
    }
    post
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The optimality chain: exhaustive ≡ global ≤ prefix, all with
    /// distances in [0, 1/2] and masses in [0, 1].
    #[test]
    fn optimality_chain(risks in risks_strategy(8), cap in 1usize..9) {
        let post = DensePosterior::from_risks(&risks);
        let order = ascending(&risks);
        let cap = cap.min(risks.len());

        let prefix = select_halving_prefix(&post, &order, cap).unwrap();
        let global = select_halving_global(&post, &order, cap).unwrap();
        let candidates = CandidateStrategy::Exhaustive { max_pool_size: cap }.generate(&order);
        let exhaustive = select_halving_exhaustive(&post, &candidates).unwrap();

        prop_assert_eq!(global.pool, exhaustive.pool);
        prop_assert!(global.distance <= prefix.distance + 1e-12);
        for s in [&prefix, &global, &exhaustive] {
            prop_assert!(s.distance >= -1e-12 && s.distance <= 0.5 + 1e-12);
            prop_assert!(s.negative_mass >= -1e-12 && s.negative_mass <= 1.0 + 1e-12);
            prop_assert!(s.pool.rank() as usize <= cap);
            prop_assert!(!s.pool.is_empty());
        }
    }

    /// Selected pools only ever contain eligible subjects.
    #[test]
    fn selection_respects_eligibility(
        risks in risks_strategy(8),
        eligible_mask in 1u64..255,
    ) {
        let n = risks.len();
        let mask = eligible_mask & State::full(n).bits();
        prop_assume!(mask != 0);
        let eligible: Vec<usize> = State(mask).subjects().collect();
        let post = DensePosterior::from_risks(&risks);
        if let Some(sel) = select_halving_global(&post, &eligible, n) {
            prop_assert!(sel.pool.is_subset_of(State(mask)));
        }
        if let Some(sel) = select_halving_prefix(&post, &eligible, n) {
            prop_assert!(sel.pool.is_subset_of(State(mask)));
        }
    }

    /// Look-ahead stages produce distinct, admissible pools with bounded
    /// expected quantities.
    #[test]
    fn lookahead_stage_well_formed(
        risks in risks_strategy(7),
        width in 1usize..4,
        cap in 1usize..8,
    ) {
        let post = DensePosterior::from_risks(&risks);
        let model = BinaryDilutionModel::pcr_like();
        let order = ascending(&risks);
        let cfg = LookaheadConfig {
            width,
            max_pool_size: cap,
        };
        let stage = select_stage_lookahead(&post, &model, &order, &cfg).unwrap();
        prop_assert!(stage.len() <= width);
        let mut seen = std::collections::HashSet::new();
        for s in &stage {
            prop_assert!(seen.insert(s.pool.bits()), "duplicate pool");
            prop_assert!(s.pool.rank() as usize <= cap);
            prop_assert!(s.distance >= -1e-12 && s.distance <= 0.5 + 1e-12);
        }
    }

    /// The branch-fused look-ahead paths select bit-for-bit identical pools
    /// to the clone-per-branch baseline across random priors, dilution
    /// strengths, widths, and pool caps — the contract that lets the fast
    /// paths replace the baseline everywhere.
    #[test]
    fn lookahead_fused_matches_baseline(
        risks in risks_strategy(7),
        width in 1usize..5,
        cap in 1usize..8,
        dilution_alpha in 1.0f64..8.0,
    ) {
        let post = DensePosterior::from_risks(&risks);
        let model = BinaryDilutionModel::new(
            0.95,
            0.99,
            Dilution::Exponential { alpha: dilution_alpha },
        );
        let order = ascending(&risks);
        let cfg = LookaheadConfig {
            width,
            max_pool_size: cap,
        };
        let base = select_stage_lookahead(&post, &model, &order, &cfg).unwrap();
        let fused = select_stage_lookahead_fused(&post, &model, &order, &cfg).unwrap();
        let par = select_stage_lookahead_par(&post, &model, &order, &cfg, ParConfig).unwrap();

        prop_assert_eq!(base.len(), fused.len());
        prop_assert_eq!(fused.len(), par.len());
        for (b, f) in base.iter().zip(&fused) {
            prop_assert_eq!(b.pool, f.pool);
            prop_assert!((b.negative_mass - f.negative_mass).abs() < 1e-9);
            prop_assert!((b.distance - f.distance).abs() < 1e-9);
        }
        for (f, p) in fused.iter().zip(&par) {
            prop_assert_eq!(f.pool, p.pool);
            prop_assert_eq!(f.negative_mass.to_bits(), p.negative_mass.to_bits());
            prop_assert_eq!(f.distance.to_bits(), p.distance.to_bits());
        }
    }

    /// With `order` a strict subset of the subjects, the in-memory
    /// look-ahead runs on the posterior projected onto `order` and still
    /// selects the clone-per-branch baseline's pools over the full lattice,
    /// with the same expected masses and distances up to rounding.
    #[test]
    fn projected_lookahead_matches_the_full_lattice_baseline(
        risks in prop::collection::vec(0.01f64..0.45, 2..=10),
        keep in any::<u64>(),
        pool_mask in any::<u64>(),
        outcome in any::<bool>(),
        width in 1usize..5,
        cap in 1usize..8,
        dilution_alpha in 1.0f64..8.0,
    ) {
        let n = risks.len();
        let keep = keep & State::full(n).bits();
        prop_assume!(keep != 0 && keep != State::full(n).bits());
        let model = BinaryDilutionModel::new(
            0.95,
            0.99,
            Dilution::Exponential { alpha: dilution_alpha },
        );
        let post = observed_posterior(&risks, &model, pool_mask, outcome);
        let order: Vec<usize> = ascending(&risks)
            .into_iter()
            .filter(|&subj| keep & (1 << subj) != 0)
            .collect();
        let cfg = LookaheadConfig {
            width,
            max_pool_size: cap,
        };
        let base = select_stage_lookahead(&post, &model, &order, &cfg).unwrap();
        let projected = select_stage_lookahead_fused(&post, &model, &order, &cfg).unwrap();
        let par = select_stage_lookahead_par(&post, &model, &order, &cfg, ParConfig).unwrap();

        prop_assert_eq!(base.len(), projected.len());
        for (b, p) in base.iter().zip(&projected) {
            prop_assert_eq!(b.pool, p.pool);
            prop_assert!(p.pool.is_subset_of(State(keep)));
            prop_assert!((b.negative_mass - p.negative_mass).abs() < 1e-9);
            prop_assert!((b.distance - p.distance).abs() < 1e-9);
        }
        prop_assert_eq!(projected, par);
    }

    /// With `order` covering every subject the projection is the identity:
    /// the in-memory look-ahead is bit for bit the driver over the
    /// unprojected posterior's histograms.
    #[test]
    fn lookahead_over_every_subject_is_the_unprojected_driver(
        risks in prop::collection::vec(0.01f64..0.45, 2..=10),
        pool_mask in any::<u64>(),
        outcome in any::<bool>(),
        width in 1usize..9,
        cap in 1usize..11,
    ) {
        let model = BinaryDilutionModel::pcr_like();
        let post = observed_posterior(&risks, &model, pool_mask, outcome);
        let order = ascending(&risks);
        let cfg = LookaheadConfig {
            width,
            max_pool_size: cap,
        };
        let kernel = LookaheadKernel::new(risks.len(), &order);
        let unprojected = drive_lookahead(&model, &order, &cfg, |pools| {
            post.lookahead_histograms(&kernel, pools, ExecMode::Serial)
        })
        .unwrap();
        let fused = select_stage_lookahead_fused(&post, &model, &order, &cfg).unwrap();

        prop_assert_eq!(unprojected.len(), fused.len());
        for (u, f) in unprojected.iter().zip(&fused) {
            prop_assert_eq!(u.pool, f.pool);
            prop_assert_eq!(u.negative_mass.to_bits(), f.negative_mass.to_bits());
            prop_assert_eq!(u.distance.to_bits(), f.distance.to_bits());
        }
    }

    /// Candidate generators only emit admissible pools, and the prefix
    /// family is nested.
    #[test]
    fn candidate_generators_admissible(
        eligible in prop::collection::vec(0usize..12, 1..8),
        cap in 1usize..6,
        seed in any::<u64>(),
    ) {
        let mut eligible = eligible;
        eligible.sort_unstable();
        eligible.dedup();
        let mask = State::from_subjects(eligible.iter().copied());
        for strategy in [
            CandidateStrategy::Exhaustive { max_pool_size: cap },
            CandidateStrategy::SortedPrefix { max_pool_size: cap },
            CandidateStrategy::Random { count: 10, max_pool_size: cap, seed },
        ] {
            let pools = strategy.generate(&eligible);
            for p in &pools {
                prop_assert!(!p.is_empty());
                prop_assert!(p.rank() as usize <= cap);
                prop_assert!(p.is_subset_of(mask));
            }
        }
        // Prefix nesting.
        let prefixes = CandidateStrategy::SortedPrefix { max_pool_size: cap }.generate(&eligible);
        for w in prefixes.windows(2) {
            prop_assert!(w[0].is_subset_of(w[1]));
        }
    }
}
