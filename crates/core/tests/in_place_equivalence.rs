//! Property tests: the zero-copy in-place update is *bit-for-bit*
//! identical to a serial scalar reference over the same shards, and agrees
//! with the serial dense kernel, across random priors, pools, outcomes,
//! and partition counts — including the shared-handle copy-on-write case.

use proptest::prelude::*;
use sbgt::ShardedPosterior;
use sbgt_bayes::{update_dense, BayesError, Observation, Prior};
use sbgt_engine::{Engine, EngineConfig, StageVariant};
use sbgt_lattice::{simd, State};
use sbgt_response::{BinaryDilutionModel, ResponseModel};

fn engine() -> Engine {
    Engine::new(EngineConfig::default().with_threads(2))
}

/// Derive a non-empty pool over `n` subjects from a free u64 seed (the
/// vendored proptest has no dependent generation).
fn pool_from_seed(seed: u64, n: usize) -> State {
    let space = (1u64 << n) - 1;
    let mask = (seed % space) + 1;
    State::from_subjects((0..n).filter(|&i| mask >> i & 1 == 1))
}

/// The reference `ShardedPosterior::update` is pinned against: no engine,
/// no dispatch — the scalar block kernel over each gathered shard in turn,
/// partials summed in partition order, which is bit-for-bit what the
/// in-place stage computes. Holds the unnormalized shards and their total.
struct SerialScalar {
    shards: Vec<Vec<f64>>,
    total: f64,
}

impl SerialScalar {
    fn of(post: &ShardedPosterior) -> Self {
        SerialScalar {
            shards: post.shard_values(),
            total: post.total(),
        }
    }

    fn update(
        &mut self,
        model: &BinaryDilutionModel,
        pool: State,
        outcome: bool,
    ) -> Result<f64, BayesError> {
        let table = model.likelihood_table(outcome, pool.rank());
        let mut base = 0u64;
        let mut partials = Vec::with_capacity(self.shards.len());
        for shard in &mut self.shards {
            partials.push(simd::mul_table_block_scalar(
                shard,
                base,
                pool.bits(),
                &table,
            ));
            base += shard.len() as u64;
        }
        let new_total: f64 = partials.iter().sum();
        if !(new_total.is_finite() && new_total > 0.0) {
            return Err(BayesError::ImpossibleObservation);
        }
        let evidence = new_total / self.total;
        self.total = new_total;
        Ok(evidence)
    }
}

fn assert_bitwise_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: state {i} differs ({x} vs {y})"
        );
    }
}

/// Full-level tracing is observation only: a traced engine produces the
/// exact bits of an untraced one through every stage variant (and it
/// actually recorded spans while doing so).
#[test]
fn full_tracing_never_changes_posterior_bits() {
    use sbgt_engine::ObsConfig;
    let off = engine();
    let full = Engine::new(
        EngineConfig::default()
            .with_threads(2)
            .with_obs(ObsConfig::full()),
    );
    let risks = [0.02, 0.08, 0.15, 0.05, 0.3, 0.11, 0.07, 0.22];
    let n = risks.len();
    let dense0 = Prior::from_risks(&risks).to_dense();
    let model = BinaryDilutionModel::pcr_like();
    let mut a = ShardedPosterior::from_dense(&dense0, 4);
    let mut b = ShardedPosterior::from_dense(&dense0, 4);
    for (i, seed) in [13u64, 29, 71, 97].into_iter().enumerate() {
        let pool = pool_from_seed(seed, n);
        let za = a.update(&off, &model, pool, i % 2 == 0).unwrap();
        let zb = b.update(&full, &model, pool, i % 2 == 0).unwrap();
        assert_eq!(za.to_bits(), zb.to_bits());
    }
    assert_bitwise_eq(
        a.to_dense(&off).probs(),
        b.to_dense(&full).probs(),
        "traced vs untraced",
    );
    assert!(
        off.obs().snapshot().total_events() == 0,
        "off records nothing"
    );
    assert!(
        full.obs().snapshot().total_events() > 0,
        "full must have recorded stage/task spans"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The in-place stage and the serial scalar reference produce
    /// bitwise-identical posteriors and evidences for any observation
    /// sequence.
    #[test]
    fn in_place_matches_serial_scalar_bitwise(
        risks in prop::collection::vec(0.01f64..0.4, 2..=8),
        parts in 1usize..=6,
        obs in prop::collection::vec((proptest::arbitrary::any::<u64>(), proptest::arbitrary::any::<bool>()), 1..=5),
    ) {
        let e = engine();
        let n = risks.len();
        let dense0 = Prior::from_risks(&risks).to_dense();
        let mut in_place = ShardedPosterior::from_dense(&dense0, parts);
        let mut serial = SerialScalar::of(&in_place);
        let model = BinaryDilutionModel::pcr_like();

        for &(seed, outcome) in &obs {
            let pool = pool_from_seed(seed, n);
            let a = in_place.update(&e, &model, pool, outcome);
            let b = serial.update(&model, pool, outcome);
            match (a, b) {
                (Ok(za), Ok(zb)) => prop_assert_eq!(za.to_bits(), zb.to_bits()),
                (Err(ea), Err(eb)) => {
                    prop_assert_eq!(ea, eb);
                    break;
                }
                (a, b) => prop_assert!(false, "paths disagree on error: {:?} vs {:?}", a, b),
            }
            prop_assert_eq!(in_place.total().to_bits(), serial.total.to_bits());
            assert_bitwise_eq(
                &in_place.shard_values().concat(),
                &serial.shards.concat(),
                "in-place vs serial scalar",
            );
        }
    }

    /// The sharded update agrees with the serial dense kernel (which
    /// renormalizes every round, so agreement is to rounding, not bits).
    #[test]
    fn sharded_matches_dense_serial(
        risks in prop::collection::vec(0.01f64..0.4, 2..=8),
        parts in 1usize..=6,
        obs in prop::collection::vec((proptest::arbitrary::any::<u64>(), proptest::arbitrary::any::<bool>()), 1..=5),
    ) {
        let e = engine();
        let n = risks.len();
        let mut dense = Prior::from_risks(&risks).to_dense();
        let mut sharded = ShardedPosterior::from_dense(&dense, parts);
        let model = BinaryDilutionModel::pcr_like();

        for &(seed, outcome) in &obs {
            let pool = pool_from_seed(seed, n);
            let observation = Observation::new(pool, outcome);
            let zd = update_dense(&mut dense, &model, &observation);
            let zs = sharded.update(&e, &model, pool, outcome);
            match (zd, zs) {
                (Ok(zd), Ok(zs)) => prop_assert!((zd - zs).abs() <= 1e-12 * zd.abs().max(1.0)),
                (Err(BayesError::ImpossibleObservation), Err(BayesError::ImpossibleObservation)) => break,
                (a, b) => prop_assert!(false, "kernels disagree on error: {:?} vs {:?}", a, b),
            }
            for (i, (d, s)) in dense.probs().iter().zip(sharded.to_dense(&e).probs()).enumerate() {
                prop_assert!(
                    (d - s).abs() <= 1e-12,
                    "state {}: dense {} vs sharded {}", i, d, s
                );
            }
        }
    }

    /// Shared-handle case: a clone shares shard storage, so updating one
    /// copy must take the copy-on-write path, leave the clone bitwise
    /// untouched, and still produce the exact same posterior as an
    /// unshared in-place update.
    #[test]
    fn cow_update_leaves_clone_untouched(
        risks in prop::collection::vec(0.01f64..0.4, 2..=8),
        parts in 1usize..=4,
        seed in proptest::arbitrary::any::<u64>(),
        outcome in proptest::arbitrary::any::<bool>(),
    ) {
        let e = engine();
        let n = risks.len();
        let dense0 = Prior::from_risks(&risks).to_dense();
        let mut shared = ShardedPosterior::from_dense(&dense0, parts);
        let snapshot = shared.clone();
        let snapshot_before = snapshot.to_dense(&e);
        let mut unshared = ShardedPosterior::from_dense(&dense0, parts);
        let model = BinaryDilutionModel::pcr_like();
        let pool = pool_from_seed(seed, n);

        let za = shared.update(&e, &model, pool, outcome).unwrap();
        let jobs = e.metrics().jobs();
        match jobs.last().unwrap().variant {
            StageVariant::InPlace { unique, cow } => {
                prop_assert_eq!(unique, 0, "every partition was shared with the clone");
                prop_assert_eq!(cow, shared.num_partitions());
            }
            other => prop_assert!(false, "expected in-place stage, got {:?}", other),
        }
        // The clone still sees the prior, bit for bit.
        assert_bitwise_eq(snapshot.to_dense(&e).probs(), snapshot_before.probs(), "clone");
        // The COW result is identical to the unshared (truly in-place) one.
        let zb = unshared.update(&e, &model, pool, outcome).unwrap();
        prop_assert_eq!(za.to_bits(), zb.to_bits());
        assert_bitwise_eq(
            shared.to_dense(&e).probs(),
            unshared.to_dense(&e).probs(),
            "cow vs unique",
        );
    }
}
