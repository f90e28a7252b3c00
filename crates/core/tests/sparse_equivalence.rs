//! Property: with pruning disabled (`ε = 0`), the sparse session is
//! observationally equivalent to the dense session over whole closed-loop
//! episodes — same selected pools, same classifications, matching evidence
//! and marginals — for arbitrary priors and arbitrary (deterministic)
//! assay outcomes. This pins the sparse representation's arithmetic to the
//! dense reference before pruning enters the picture.

use proptest::prelude::*;

use sbgt::{SbgtConfig, SbgtSession};
use sbgt_bayes::Prior;
use sbgt_lattice::State;
use sbgt_response::{BinaryDilutionModel, BinaryOutcomeModel};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9 * (1.0 + a.abs() + b.abs())
}

/// Deterministic virtual lab: a pure hash of (seed, test index, pool)
/// thresholded against the model's positive probability, so both sessions
/// see the exact same outcome stream without any shared RNG state.
fn lab_outcome(
    seed: u64,
    test_index: usize,
    pool: State,
    truth: State,
    model: &BinaryDilutionModel,
) -> bool {
    let mut x = seed
        ^ (test_index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ pool.bits().wrapping_mul(0xD1B5_4A32_D192_ED03);
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    let u = (x >> 11) as f64 / (1u64 << 53) as f64;
    u < model.positive_prob(truth.positives_in(pool), pool.rank())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn unpruned_sparse_session_tracks_dense_through_whole_episodes(
        risks in prop::collection::vec(0.005f64..0.3, 2..=8),
        truth_bits in any::<u64>(),
        lab_seed in any::<u64>(),
    ) {
        let n = risks.len();
        let truth = State(truth_bits & State::full(n).bits());
        let model = BinaryDilutionModel::pcr_like();
        let cfg = SbgtConfig::default().serial();
        let mut dense = SbgtSession::new(Prior::from_risks(&risks), model, cfg);
        let mut sparse = SbgtSession::new_sparse(Prior::from_risks(&risks), model, cfg, 0.0).unwrap();

        let mut tests = 0usize;
        for _round in 0..cfg.max_stages {
            let cd = dense.classify();
            let cs = sparse.classify();
            prop_assert_eq!(&cd.statuses, &cs.statuses, "classifications diverged");
            if cd.is_terminal() {
                break;
            }
            let sel_d = dense.select_next();
            let sel_s = sparse.select_next();
            match (sel_d, sel_s) {
                (None, None) => break,
                (Some(a), Some(b)) => {
                    prop_assert_eq!(a.pool, b.pool, "selected pools diverged");
                    let outcome = lab_outcome(lab_seed, tests, a.pool, truth, &model);
                    tests += 1;
                    let zd = dense.observe(a.pool, outcome);
                    let zs = sparse.observe(a.pool, outcome);
                    match (zd, zs) {
                        (Ok(zd), Ok(zs)) => prop_assert!(
                            close(zd, zs),
                            "evidence diverged: {} vs {}", zd, zs
                        ),
                        // An impossible observation must be impossible in
                        // both representations.
                        (Err(_), Err(_)) => break,
                        (d, s) => prop_assert!(false, "error asymmetry: {:?} vs {:?}", d, s),
                    }
                }
                (d, s) => prop_assert!(false, "selection asymmetry: {:?} vs {:?}", d, s),
            }
            for (a, b) in dense.marginals().iter().zip(sparse.marginals()) {
                prop_assert!(close(*a, b), "marginals diverged: {} vs {}", a, b);
            }
            prop_assert_eq!(dense.history(), sparse.history());
        }
        // Nothing was ever pruned, so the sparse session retains all mass.
        let sparse = sparse.sparse_posterior().unwrap();
        prop_assert!(close(sparse.pruned_mass(), 0.0));
        prop_assert!(close(sparse.total() + sparse.pruned_mass(), 1.0));
    }
}
