//! Property tests: the zero-copy in-place update is *bit-for-bit*
//! identical to a serial scalar reference over the same shards, and agrees
//! with the serial dense kernel, across random priors, pools, outcomes,
//! and partition counts — including the shared-handle copy-on-write case.
//! The in-memory session, which defers each normalisation into the next
//! traversal, is bit-for-bit a driver that normalises after every update.

use proptest::prelude::*;
use sbgt::{ExecMode, ParConfig, SbgtConfig, SbgtSession, SessionSnapshot, ShardedPosterior};
use sbgt_bayes::{classify_marginals, update_dense, BayesError, Observation, Prior};
use sbgt_engine::{Engine, EngineConfig};
use sbgt_lattice::{simd, BranchPool, DensePosterior, LookaheadKernel, State};
use sbgt_response::{BinaryDilutionModel, ResponseModel};
use sbgt_select::{select_halving_prefix, select_stage_lookahead_fused, Selection};
use std::sync::Arc;

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

/// A seeded partial ordering of `n` subjects: a shuffled prefix of
/// `len % (n + 1)` of them.
fn order_from_seed(seed: u64, len: usize, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut s = seed;
    for i in (1..n).rev() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        order.swap(i, (s >> 33) as usize % (i + 1));
    }
    order.truncate(len % (n + 1));
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One block is the serial kernel: a lattice of one block on rayon and
    /// a single engine partition run the same block bodies as the inline
    /// `DensePosterior` passes, so every reduction agrees to the bit.
    #[test]
    fn one_block_is_the_serial_kernel_bitwise(
        risks in prop::collection::vec(0.01f64..0.6, 1..=12),
        seed in proptest::arbitrary::any::<u64>(),
        len in 0usize..=12,
        pool_seeds in prop::collection::vec(proptest::arbitrary::any::<u64>(), 0..=2),
    ) {
        let e = engine();
        let n = risks.len();
        let mut d = Prior::from_risks(&risks).to_dense();
        // An update breaks the product structure of the prior.
        let model = BinaryDilutionModel::pcr_like();
        let pool = pool_from_seed(seed, n);
        d.mul_likelihood(pool, &model.likelihood_table(true, pool.rank()));
        let par = ExecMode::Parallel(ParConfig);
        let sharded = ShardedPosterior::from_dense(&d, 1);
        let order = order_from_seed(seed, len, n);

        let marginals = d.marginals();
        assert_bitwise_eq(&marginals, &d.marginals_on(par), "par marginals");
        assert_bitwise_eq(&marginals, &sharded.marginals(&e), "sharded marginals");

        let masses = d.prefix_negative_masses(&order);
        assert_bitwise_eq(&masses, &d.prefix_negative_masses_on(&order, par), "par prefix");
        assert_bitwise_eq(&masses, &sharded.prefix_negative_masses(&e, &order), "sharded prefix");

        prop_assert_eq!(d.entropy().to_bits(), d.entropy_on(par).to_bits());

        for k in [1usize, 5, 1 << n] {
            let serial = d.top_k(k);
            let parallel = d.top_k_on(k, par);
            prop_assert_eq!(serial.len(), parallel.len());
            for ((s1, p1), (s2, p2)) in serial.iter().zip(&parallel) {
                prop_assert_eq!(s1, s2);
                prop_assert_eq!(p1.to_bits(), p2.to_bits());
            }
        }

        let kernel = Arc::new(LookaheadKernel::new(n, &order));
        let pools: Vec<BranchPool> = pool_seeds
            .iter()
            .map(|&ps| {
                let pool = pool_from_seed(ps, n);
                BranchPool {
                    mask: pool.bits(),
                    tables: [
                        model.likelihood_table(false, pool.rank()),
                        model.likelihood_table(true, pool.rank()),
                    ],
                }
            })
            .collect();
        let hist = kernel.histograms(d.probs(), 0, &pools);
        assert_bitwise_eq(&hist, &d.lookahead_histograms(&kernel, &pools, par), "par look-ahead");
        assert_bitwise_eq(&hist, &sharded.lookahead_histograms(&e, &kernel, pools), "sharded look-ahead");
    }

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
        let aggs = e.metrics().stage_aggregates();
        let update = aggs.iter().find(|a| a.name == "update:in-place").unwrap();
        prop_assert_eq!(update.jobs, 1);
        prop_assert_eq!(
            update.copied_partitions as usize,
            shared.num_partitions(),
            "every partition was shared with the clone"
        );
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

/// The in-memory session's passes as they were before normalisation was
/// deferred: `update_dense` multiplies and normalises every observation,
/// and marginals and selection each traverse the normalised vector, every
/// block inline whatever the session's `ExecMode`. Stage accounting is
/// `Session::observe_stage_in`'s.
struct NormaliseEveryUpdate {
    posterior: DensePosterior,
    config: SbgtConfig,
    history: Vec<(State, bool)>,
    stages: usize,
}

impl NormaliseEveryUpdate {
    fn new(prior: &Prior, config: SbgtConfig) -> Self {
        NormaliseEveryUpdate {
            posterior: prior.to_dense(),
            config,
            history: Vec::new(),
            stages: 0,
        }
    }

    fn marginals(&self) -> Vec<f64> {
        self.posterior.marginals()
    }

    fn select(&self, model: &BinaryDilutionModel, order: &[usize]) -> Vec<Selection> {
        let (post, cap, lookahead) = (
            &self.posterior,
            self.config.max_pool_size,
            self.config.lookahead(),
        );
        if self.config.stage_width == 1 {
            select_halving_prefix(post, order, cap)
                .into_iter()
                .collect()
        } else {
            select_stage_lookahead_fused(post, model, order, &lookahead).unwrap()
        }
    }

    fn observe_stage(
        &mut self,
        model: &BinaryDilutionModel,
        observations: &[(State, bool)],
    ) -> Result<f64, BayesError> {
        let mut joint = 1.0f64;
        let mut landed = false;
        for &(pool, outcome) in observations {
            let obs = Observation::new(pool, outcome);
            match update_dense(&mut self.posterior, model, &obs) {
                Ok(z) => joint *= z,
                Err(e) => {
                    self.stages += usize::from(landed);
                    return Err(e);
                }
            }
            self.history.push((pool, outcome));
            landed = true;
        }
        self.stages += usize::from(landed);
        Ok(joint)
    }

    fn snapshot_bytes(&self) -> Vec<u8> {
        SessionSnapshot {
            n_subjects: self.posterior.n_subjects(),
            shards: vec![self.posterior.probs().to_vec()],
            total: 1.0,
            history: self.history.clone(),
            stages: self.stages,
            marginals: Vec::new(),
            pending_selection: None,
            sparse: None,
            approx: None,
        }
        .to_bytes()
    }
}

/// Serial and parallel, each at widths 1 (halving) and 3 (look-ahead).
fn deferred_configs() -> Vec<SbgtConfig> {
    [ExecMode::Serial, ExecMode::Parallel(ParConfig)]
        .into_iter()
        .flat_map(|exec| {
            [1, 3].map(|width| {
                SbgtConfig {
                    exec,
                    ..SbgtConfig::default()
                }
                .with_stage_width(width)
            })
        })
        .collect()
}

fn assert_session_is_reference(
    session: &SbgtSession<BinaryDilutionModel>,
    reference: &NormaliseEveryUpdate,
    what: &str,
) {
    assert_bitwise_eq(
        &session.marginals(),
        &reference.marginals(),
        &format!("{what}: marginals"),
    );
    assert_bitwise_eq(
        session.posterior().probs(),
        reference.posterior.probs(),
        &format!("{what}: posterior"),
    );
    assert_eq!(
        session.snapshot().to_bytes(),
        reference.snapshot_bytes(),
        "{what}: snapshot bytes"
    );
}

fn assert_same_outcome(a: Result<f64, BayesError>, b: Result<f64, BayesError>, what: &str) {
    match (a, b) {
        (Ok(za), Ok(zb)) => assert_eq!(za.to_bits(), zb.to_bits(), "{what}: evidence"),
        (a, b) => assert_eq!(a, b, "{what}: outcome"),
    }
}

/// Up to `stages` rounds of session and reference side by side against
/// the lab `truth`, checking every read-out each round; the session is
/// rebuilt from its own snapshot before round `restore_at`.
fn run_rounds(
    session: &mut SbgtSession<BinaryDilutionModel>,
    reference: &mut NormaliseEveryUpdate,
    model: &BinaryDilutionModel,
    truth: State,
    stages: usize,
    restore_at: usize,
) {
    let config = reference.config;
    for round in 0..stages {
        let what = format!("{config:?} round {round}");
        assert_session_is_reference(session, reference, &what);
        if round == restore_at {
            *session = SbgtSession::restore(&session.snapshot(), *model, config).unwrap();
            assert_session_is_reference(session, reference, &format!("{what} restored"));
        }
        let marginals = reference.marginals();
        let classification = classify_marginals(&marginals, config.rule);
        if classification.is_terminal() {
            return;
        }
        let mut order = classification.undetermined();
        order.sort_by(|&a, &b| marginals[a].total_cmp(&marginals[b]).then(a.cmp(&b)));
        assert_eq!(session.eligible_order(), order, "{what}: order");
        let want = reference.select(model, &order);
        let got: Vec<Selection> = if config.stage_width == 1 {
            session.select_next().into_iter().collect()
        } else {
            session.select_stage(config.stage_width).unwrap()
        };
        assert_eq!(got.len(), want.len(), "{what}: stage width");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.pool, w.pool, "{what}: pool");
            assert_eq!(g.negative_mass.to_bits(), w.negative_mass.to_bits());
        }
        if want.is_empty() {
            return;
        }
        let observations: Vec<(State, bool)> = want
            .iter()
            .map(|s| (s.pool, s.pool.intersects(truth)))
            .collect();
        assert_same_outcome(
            session.observe_stage(&observations),
            reference.observe_stage(model, &observations),
            &what,
        );
    }
    assert_session_is_reference(session, reference, "end of run");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Deferred normalisation moves no bit: marginals, posterior, pools,
    /// evidence and snapshot bytes equal the normalise-every-update driver
    /// every round, serial and parallel, at widths 1 and 3, across a
    /// restore (which starts from an empty cache).
    #[test]
    fn deferred_normalisation_is_normalise_every_update_bitwise(
        risks in prop::collection::vec(0.01f64..0.3, 3..=9),
        truth_seed in proptest::arbitrary::any::<u64>(),
        restore_at in 0usize..8,
    ) {
        let model = BinaryDilutionModel::pcr_like();
        let prior = Prior::from_risks(&risks);
        let truth = pool_from_seed(truth_seed, risks.len());
        for config in deferred_configs() {
            let mut session = SbgtSession::new(prior.clone(), model, config);
            let mut reference = NormaliseEveryUpdate::new(&prior, config);
            run_rounds(&mut session, &mut reference, &model, truth, 12, restore_at);
        }
    }
}

/// A scale left pending by a stage's first observation meets an error in
/// the same stage: an empty pool settles it, an impossible observation
/// folds it into the multiply that fails. Either way the session holds the
/// bits of the driver that had normalised, and an empty-pool session runs
/// on to the same classification.
#[test]
fn a_pending_scale_meets_an_error_with_the_reference_bits() {
    let risks = [0.04, 0.12, 0.07, 0.2, 0.03, 0.09];
    let prior = Prior::from_risks(&risks);
    let (a, b) = (State::from_subjects([0, 1, 2]), State::from_subjects([1]));
    for config in deferred_configs() {
        let model = BinaryDilutionModel::pcr_like();
        let mut session = SbgtSession::new(prior.clone(), model, config);
        let mut reference = NormaliseEveryUpdate::new(&prior, config);
        let stage = [(a, true), (State::EMPTY, false)];
        let (zs, zr) = (
            session.observe_stage(&stage),
            reference.observe_stage(&model, &stage),
        );
        assert_eq!(zs, Err(BayesError::EmptyPool));
        assert_same_outcome(zs, zr, "empty pool");
        assert_eq!(session.stages(), 1, "the landed observation counts");
        let truth = State::from_subjects([1, 4]);
        run_rounds(&mut session, &mut reference, &model, truth, 12, usize::MAX);

        let model = BinaryDilutionModel::perfect();
        let mut session = SbgtSession::new(prior.clone(), model, config);
        let mut reference = NormaliseEveryUpdate::new(&prior, config);
        let stage = [(a, false), (b, true)];
        let (zs, zr) = (
            session.observe_stage(&stage),
            reference.observe_stage(&model, &stage),
        );
        assert_eq!(zs, Err(BayesError::ImpossibleObservation));
        assert_same_outcome(zs, zr, "impossible observation");
        assert_session_is_reference(&session, &reference, "after an impossible observation");
    }
}
