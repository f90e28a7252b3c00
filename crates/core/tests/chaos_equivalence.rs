//! Chaos tests: the posterior hot loop under deterministic fault
//! injection.
//!
//! Every stage variant of the sharded posterior — immutable
//! (`map_partitions`), in-place on uniquely-owned shards, in-place under a
//! live clone (COW), and the fused superstage — is run with seeded panics,
//! injected stragglers, and poisoned results, and must recover to a
//! posterior **bit-for-bit identical** to a fault-free run. Recovery never
//! changes values because every retried or speculative attempt re-runs the
//! same pure closure against pristine partition input and the driver
//! reduces partials in task-index order.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use proptest::prelude::*;
use sbgt::{SbgtConfig, ShardedPosterior, ShardedSession};
use sbgt_bayes::{BayesError, Prior};
use sbgt_engine::{
    ChaosConfig, Dataset, Engine, EngineConfig, FaultPlan, RetryPolicy, SpeculationConfig,
};
use sbgt_lattice::{simd, DensePosterior, State};
use sbgt_response::{BinaryDilutionModel, ResponseModel};
use sbgt_select::{select_stage_lookahead, LookaheadConfig, Selection};

/// Fault-free reference engine.
fn clean_engine() -> Engine {
    Engine::new(EngineConfig::default().with_threads(2))
}

/// Fault-tolerant engine: 2 attempts per task, which dominates every plan
/// in this file (scheduled faults hit attempt 0 only; seeded campaigns use
/// the default `max_faulted_attempts = 1`), so every run must survive.
fn ft_engine(threads: usize) -> Engine {
    Engine::new(
        EngineConfig::default()
            .with_threads(threads)
            .with_retry(RetryPolicy::clamped(2)),
    )
}

/// Derive a non-empty pool over `n` subjects from a free u64 seed.
fn pool_from_seed(seed: u64, n: usize) -> State {
    let space = (1u64 << n) - 1;
    let mask = (seed % space) + 1;
    State::from_subjects((0..n).filter(|&i| mask >> i & 1 == 1))
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

/// The immutable stage variant, driven directly (the sharded posterior's
/// own update is in-place only): the same contiguous shards, updated by a
/// materializing `Dataset::map_partitions` stage that multiplies each one
/// into a fresh vector and ships it back with its partial sum, reduced on
/// the driver in partition order.
struct ImmutablePosterior {
    shards: Dataset<f64>,
    total: f64,
}

impl ImmutablePosterior {
    fn from_dense(dense: &DensePosterior, parts: usize) -> Self {
        ImmutablePosterior {
            shards: Dataset::from_vec(dense.probs().to_vec(), parts),
            total: dense.total(),
        }
    }

    fn update(
        &mut self,
        e: &Engine,
        model: &BinaryDilutionModel,
        pool: State,
        outcome: bool,
    ) -> Result<f64, BayesError> {
        let table = model.likelihood_table(outcome, pool.rank());
        let mask = pool.bits();
        let mut offsets = Vec::with_capacity(self.shards.num_partitions());
        let mut base = 0u64;
        for p in 0..self.shards.num_partitions() {
            offsets.push(base);
            base += self.shards.partition(p).len() as u64;
        }
        let stage = self.shards.map_partitions(e, move |pidx, probs| {
            let mut out = probs.to_vec();
            let sum = simd::mul_table_block(&mut out, offsets[pidx], mask, &table);
            vec![(out, sum)]
        });
        let (parts, sums): (Vec<Vec<f64>>, Vec<f64>) = stage.iter().cloned().unzip();
        let new_total: f64 = sums.iter().sum();
        if !(new_total.is_finite() && new_total > 0.0) {
            return Err(BayesError::ImpossibleObservation);
        }
        let evidence = new_total / self.total;
        self.shards = Dataset::from_partitions(parts);
        self.total = new_total;
        Ok(evidence)
    }

    /// Unnormalized values in state order.
    fn values(&self) -> Vec<f64> {
        self.shards.collect()
    }
}

/// Every observable of the stage-variant sequence, for exact comparison
/// between a clean and a chaotic run.
struct SequenceOutput {
    evidences: Vec<f64>,
    fused_marginals: Vec<f64>,
    fused_masses: Vec<f64>,
    final_dense: Vec<f64>,
    immutable_dense: Vec<f64>,
    cow_snapshot_dense: Vec<f64>,
}

/// One update through each stage variant: immutable, in-place on unique
/// handles, in-place under a live clone (COW), and the fused superstage.
fn run_stage_variant_sequence(e: &Engine) -> SequenceOutput {
    let risks = [0.02, 0.08, 0.15, 0.05, 0.3, 0.11, 0.07, 0.22];
    let n = risks.len();
    let dense0 = Prior::from_risks(&risks).to_dense();
    let model = BinaryDilutionModel::pcr_like();

    // Immutable variant (`map_partitions`).
    let mut immutable = ImmutablePosterior::from_dense(&dense0, 4);
    let z1 = immutable
        .update(e, &model, pool_from_seed(13, n), true)
        .unwrap();

    // In-place on uniquely-owned shards.
    let mut post = ShardedPosterior::from_dense(&dense0, 4);
    let z2 = post
        .update(e, &model, pool_from_seed(29, n), false)
        .unwrap();

    // In-place under a live clone: the copy-on-write case.
    let snapshot = post.clone();
    let z3 = post.update(e, &model, pool_from_seed(71, n), true).unwrap();

    // Fused BHA superstage.
    let order: Vec<usize> = (0..n).collect();
    let round = post
        .fused_round(e, &model, pool_from_seed(97, n), false, &order)
        .unwrap();

    SequenceOutput {
        evidences: vec![z1, z2, z3, round.evidence],
        fused_marginals: round.marginals,
        fused_masses: round.prefix_negative_masses,
        final_dense: post.to_dense(e).probs().to_vec(),
        immutable_dense: immutable.values(),
        cow_snapshot_dense: snapshot.to_dense(e).probs().to_vec(),
    }
}

/// Acceptance: at least one panic and one straggler injected into every
/// stage variant; the run completes with bit-for-bit-equal posteriors and
/// nonzero retries and speculative wins in the metrics.
#[test]
fn every_stage_variant_survives_panic_and_straggler_bit_for_bit() {
    let clean = run_stage_variant_sequence(&clean_engine());

    let e = Engine::new(
        EngineConfig::default()
            .with_threads(4)
            .with_retry(RetryPolicy::clamped(2))
            .with_speculation(SpeculationConfig {
                quantile: 0.75,
                multiplier: 1.5,
                min_straggler: Duration::from_millis(10),
            }),
    );
    let straggle = Duration::from_millis(150);
    // `update:in-place` runs twice (unique then COW); scheduled faults
    // match every occurrence of the stage name, so both get hit.
    e.set_fault_plan(
        FaultPlan::new()
            .panic_at("map_partitions", 0, 0)
            .delay_at("map_partitions", 3, 0, straggle)
            .panic_at("update:in-place", 1, 0)
            .delay_at("update:in-place", 2, 0, straggle)
            .panic_at("fused-round:in-place", 0, 0)
            .delay_at("fused-round:in-place", 3, 0, straggle),
    );
    let chaotic = run_stage_variant_sequence(&e);

    assert_bitwise_eq(&clean.evidences, &chaotic.evidences, "evidences");
    assert_bitwise_eq(
        &clean.fused_marginals,
        &chaotic.fused_marginals,
        "fused marginals",
    );
    assert_bitwise_eq(&clean.fused_masses, &chaotic.fused_masses, "fused masses");
    assert_bitwise_eq(&clean.final_dense, &chaotic.final_dense, "final posterior");
    assert_bitwise_eq(
        &clean.immutable_dense,
        &chaotic.immutable_dense,
        "immutable posterior",
    );
    assert_bitwise_eq(
        &clean.cow_snapshot_dense,
        &chaotic.cow_snapshot_dense,
        "cow snapshot",
    );

    let totals = e.metrics().fault_totals();
    // One panic + one delay per stage occurrence: map_partitions once,
    // update:in-place twice, fused-round:in-place once.
    assert_eq!(totals.injected_panics, 4, "{totals:?}");
    assert_eq!(totals.injected_delays, 4, "{totals:?}");
    assert_eq!(totals.retries, 4, "every injected panic was retried");
    assert!(
        totals.speculative_wins >= 1,
        "no speculative duplicate beat its 150ms straggler: {totals:?}"
    );
    assert!(totals.speculative_launched >= totals.speculative_wins);
}

/// Retry exhaustion: a task that panics on **every** attempt fails the
/// stage with the stage's name and the attempt count, and the posterior is
/// left pristine — no partial results leak into the dataset.
#[test]
fn permanent_panic_surfaces_stage_name_and_leaks_nothing() {
    let e = ft_engine(2);
    // Both attempts of task 0 die: retry budget (2) exhausted.
    e.set_fault_plan(FaultPlan::new().panic_at("update:in-place", 0, 0).panic_at(
        "update:in-place",
        0,
        1,
    ));
    let risks = [0.05, 0.1, 0.2, 0.15, 0.08];
    let dense0 = Prior::from_risks(&risks).to_dense();
    let model = BinaryDilutionModel::pcr_like();
    let mut post = ShardedPosterior::from_dense(&dense0, 2);
    let before = post.to_dense(&e).probs().to_vec();
    let total_before = post.total();

    let panic_payload = catch_unwind(AssertUnwindSafe(|| {
        let _ = post.update(&e, &model, pool_from_seed(5, risks.len()), true);
    }))
    .unwrap_err();
    let message = panic_payload
        .downcast_ref::<String>()
        .expect("string panic payload")
        .clone();
    assert!(
        message.contains("stage 'update:in-place'"),
        "missing stage name: {message}"
    );
    assert!(
        message.contains("after 2 attempt(s)"),
        "missing attempt count: {message}"
    );

    // The posterior is exactly as it was: pristine shards, pristine total.
    assert_bitwise_eq(
        post.to_dense(&e).probs(),
        &before,
        "posterior after failure",
    );
    assert_eq!(post.total().to_bits(), total_before.to_bits());
    let job = e.metrics().jobs().pop().unwrap();
    assert!(!job.succeeded);
    assert_eq!(job.faults.injected_panics, 2);
    assert_eq!(job.faults.retries, 1);
}

/// Tracing must not perturb the chaos schedule: fault draws are keyed by
/// the stage sequence, so a fully-traced chaotic run must inject the
/// exact same faults and land on the exact same bits as an untraced
/// chaotic run with the same campaign.
#[test]
fn full_tracing_never_shifts_the_fault_schedule() {
    use sbgt_engine::ObsConfig;
    let campaign = || {
        FaultPlan::seeded(
            ChaosConfig::new(7177)
                .with_panic_rate(0.2)
                .with_delay_rate(0.05, Duration::from_millis(1))
                .with_poison_rate(0.1),
        )
    };
    let run = |obs: ObsConfig| {
        let e = Engine::new(
            EngineConfig::default()
                .with_threads(2)
                .with_retry(RetryPolicy::clamped(2))
                .with_obs(obs),
        );
        e.set_fault_plan(campaign());
        let out = run_stage_variant_sequence(&e);
        (out, e.metrics().fault_totals(), e)
    };
    let (untraced, untraced_faults, _e1) = run(ObsConfig::off());
    let (traced, traced_faults, e2) = run(ObsConfig::full());

    assert_eq!(untraced_faults, traced_faults, "fault schedule shifted");
    assert!(
        untraced_faults.injected_total() > 0,
        "campaign never fired: {untraced_faults:?}"
    );
    assert_bitwise_eq(&untraced.evidences, &traced.evidences, "evidences");
    assert_bitwise_eq(
        &untraced.final_dense,
        &traced.final_dense,
        "final posterior",
    );
    assert_bitwise_eq(
        &untraced.fused_marginals,
        &traced.fused_marginals,
        "fused marginals",
    );
    // The traced run must have captured the injected faults as marks and
    // the failed attempts as failed task spans.
    let rec = e2.obs();
    let snap = rec.snapshot();
    let events: Vec<_> = snap.all_events().collect();
    assert!(events
        .iter()
        .any(|ev| rec.name_of(ev.name).starts_with("fault:")));
    assert!(events.iter().any(|ev| ev.meta.failed));
}

/// A full sharded session driven to classification under a seeded random
/// campaign produces the identical outcome to a fault-free session:
/// same pools tested, same stage count, same classification, bitwise-equal
/// marginals.
#[test]
fn sharded_session_survives_seeded_campaign_identically() {
    let risks = [0.04, 0.12, 0.07, 0.2, 0.09, 0.16];
    let model = BinaryDilutionModel::pcr_like();
    let config = SbgtConfig::default();
    // Subjects 1 and 3 are infected; a pool is positive iff it hits one.
    let infected = State::from_subjects([1usize, 3]);
    let lab = |pool: State| infected.intersects(pool);

    let run = |e: &Engine| {
        let mut session = ShardedSession::new(e, Prior::from_risks(&risks), model, config, 4);
        let outcome = session.run_to_classification(e, lab);
        (outcome, session.history().to_vec())
    };

    let (clean_outcome, clean_history) = run(&clean_engine());

    let e = ft_engine(2);
    e.set_fault_plan(FaultPlan::seeded(
        ChaosConfig::new(2024)
            .with_panic_rate(0.15)
            .with_delay_rate(0.05, Duration::from_millis(2))
            .with_poison_rate(0.05),
    ));
    let (chaos_outcome, chaos_history) = run(&e);

    assert_eq!(clean_history, chaos_history, "different pools were tested");
    assert_eq!(clean_outcome.tests, chaos_outcome.tests);
    assert_eq!(clean_outcome.stages, chaos_outcome.stages);
    assert_eq!(clean_outcome.classification, chaos_outcome.classification);
    assert_bitwise_eq(
        &clean_outcome.marginals,
        &chaos_outcome.marginals,
        "session marginals",
    );
    // The campaign must actually have fired for this test to mean anything.
    let totals = e.metrics().fault_totals();
    assert!(
        totals.injected_total() > 0,
        "campaign never fired: {totals:?}"
    );
    assert_eq!(
        totals.retries,
        totals.injected_panics + totals.injected_poisons,
        "every failed attempt was retried exactly once"
    );
}

/// Build a sharded session over `parts` partitions and shape its posterior
/// with a few scripted observations so selection runs on a non-trivial
/// distribution.
fn warmed_session(e: &Engine, risks: &[f64], parts: usize) -> ShardedSession<BinaryDilutionModel> {
    let model = BinaryDilutionModel::pcr_like();
    let mut session = ShardedSession::new(
        e,
        Prior::from_risks(risks),
        model,
        SbgtConfig::default(),
        parts,
    );
    let n = risks.len();
    for (i, seed) in [13u64, 29, 71].into_iter().enumerate() {
        session
            .observe(e, pool_from_seed(seed, n), i % 2 == 0)
            .unwrap();
    }
    session
}

/// Pools must match bit-for-bit; masses/distances to 1e-9 (the sharded
/// aggregate and the serial baseline group their float sums differently).
fn assert_selections_match_serial(sharded: &[Selection], serial: &[Selection]) {
    assert_eq!(sharded.len(), serial.len(), "stage width mismatch");
    for (a, b) in sharded.iter().zip(serial) {
        assert_eq!(a.pool, b.pool, "different pool selected");
        assert!(
            (a.negative_mass - b.negative_mass).abs() < 1e-9,
            "negative mass drifted: {} vs {}",
            a.negative_mass,
            b.negative_mass
        );
        assert!(
            (a.distance - b.distance).abs() < 1e-9,
            "distance drifted: {} vs {}",
            a.distance,
            b.distance
        );
    }
}

/// The engine-sharded branch-fused stage selection picks exactly the pools
/// the serial clone-per-branch rule picks, on a clean engine.
#[test]
fn sharded_lookahead_selection_matches_serial_rule() {
    let e = clean_engine();
    let risks = [0.04, 0.12, 0.07, 0.2, 0.09, 0.16, 0.03];
    let session = warmed_session(&e, &risks, 4);
    let order = session.eligible_order();
    let dense = session.posterior().to_dense(&e);

    for width in 1..=4usize {
        let cfg = LookaheadConfig {
            width,
            max_pool_size: 4,
        };
        let sharded = session.select_stage(&e, &cfg).unwrap();
        let serial =
            select_stage_lookahead(&dense, &BinaryDilutionModel::pcr_like(), &order, &cfg).unwrap();
        assert_selections_match_serial(&sharded, &serial);
    }
}

/// Injected panics and stragglers on the `lookahead:select` stage never
/// change a selection: every retried attempt re-runs the same pure
/// histogram closure against pristine shard input, so the recovered stage
/// is **bit-for-bit** the fault-free stage.
#[test]
fn lookahead_selection_survives_panic_and_straggler_bit_for_bit() {
    let risks = [0.04, 0.12, 0.07, 0.2, 0.09, 0.16, 0.03];
    let cfg = LookaheadConfig {
        width: 3,
        max_pool_size: 4,
    };

    let clean_e = clean_engine();
    let clean = warmed_session(&clean_e, &risks, 4)
        .select_stage(&clean_e, &cfg)
        .unwrap();

    let e = ft_engine(4);
    // A width-3 stage runs 3 greedy steps → 3 `lookahead:select` jobs;
    // scheduled faults match every occurrence of the stage name.
    e.set_fault_plan(
        FaultPlan::new()
            .panic_at("lookahead:select", 0, 0)
            .delay_at("lookahead:select", 2, 0, Duration::from_millis(20))
            .panic_at("lookahead:select", 3, 0),
    );
    let chaotic = warmed_session(&e, &risks, 4)
        .select_stage(&e, &cfg)
        .unwrap();

    assert_eq!(clean.len(), chaotic.len(), "stage width mismatch");
    for (a, b) in clean.iter().zip(&chaotic) {
        assert_eq!(a.pool, b.pool, "fault recovery changed the pool");
        assert_eq!(a.negative_mass.to_bits(), b.negative_mass.to_bits());
        assert_eq!(a.distance.to_bits(), b.distance.to_bits());
    }

    let totals = e.metrics().fault_totals();
    assert_eq!(totals.injected_panics, 6, "{totals:?}"); // 3 steps × 2 scheduled panics
    assert_eq!(totals.retries, totals.injected_panics);
    assert!(totals.injected_delays >= 1, "{totals:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random cohorts, widths, and partitionings: the engine-sharded
    /// look-ahead stage under a seeded chaos campaign selects the same
    /// pools as both its own fault-free run (bit-for-bit) and the serial
    /// clone-per-branch rule (pools exact, masses to 1e-9).
    #[test]
    fn lookahead_selection_immune_to_seeded_campaign(
        risks in prop::collection::vec(0.01f64..0.4, 2..=7),
        width in 1usize..=4,
        parts in 1usize..=4,
        campaign_seed in proptest::arbitrary::any::<u64>(),
    ) {
        let cfg = LookaheadConfig { width, max_pool_size: 4 };

        let clean_e = clean_engine();
        let clean_session = warmed_session(&clean_e, &risks, parts);
        let clean = clean_session.select_stage(&clean_e, &cfg).unwrap();

        let chaos_e = ft_engine(2);
        chaos_e.set_fault_plan(FaultPlan::seeded(
            ChaosConfig::new(campaign_seed)
                .with_panic_rate(0.25)
                .with_delay_rate(0.1, Duration::from_millis(1))
                .with_poison_rate(0.1),
        ));
        let chaos = warmed_session(&chaos_e, &risks, parts)
            .select_stage(&chaos_e, &cfg)
            .unwrap();

        prop_assert_eq!(clean.len(), chaos.len());
        for (a, b) in clean.iter().zip(&chaos) {
            prop_assert_eq!(a.pool, b.pool);
            prop_assert_eq!(a.negative_mass.to_bits(), b.negative_mass.to_bits());
            prop_assert_eq!(a.distance.to_bits(), b.distance.to_bits());
        }

        let serial = select_stage_lookahead(
            &clean_session.posterior().to_dense(&clean_e),
            &BinaryDilutionModel::pcr_like(),
            &clean_session.eligible_order(),
            &cfg,
        ).unwrap();
        assert_selections_match_serial(&clean, &serial);
    }

    /// Random seeded campaigns over random cohorts: panics, stragglers,
    /// and poisons at every stage variant never change a single bit of the
    /// posterior or the evidences.
    #[test]
    fn seeded_campaign_never_changes_posterior_bits(
        risks in prop::collection::vec(0.01f64..0.4, 2..=7),
        parts in 1usize..=4,
        campaign_seed in proptest::arbitrary::any::<u64>(),
        obs in prop::collection::vec((proptest::arbitrary::any::<u64>(), proptest::arbitrary::any::<bool>()), 1..=4),
    ) {
        let n = risks.len();
        let dense0 = Prior::from_risks(&risks).to_dense();
        let model = BinaryDilutionModel::pcr_like();

        let clean_e = clean_engine();
        let chaos_e = ft_engine(2);
        chaos_e.set_fault_plan(FaultPlan::seeded(
            ChaosConfig::new(campaign_seed)
                .with_panic_rate(0.25)
                .with_delay_rate(0.1, Duration::from_millis(1))
                .with_poison_rate(0.1),
        ));

        let mut clean_post = ShardedPosterior::from_dense(&dense0, parts);
        let mut chaos_post = ShardedPosterior::from_dense(&dense0, parts);
        let mut clean_imm = ImmutablePosterior::from_dense(&dense0, parts);
        let mut chaos_imm = ImmutablePosterior::from_dense(&dense0, parts);
        let order: Vec<usize> = (0..n).collect();

        for (i, &(seed, outcome)) in obs.iter().enumerate() {
            let pool = pool_from_seed(seed, n);
            // Rotate through the stage variants so each proptest case
            // exercises several under the campaign.
            match i % 3 {
                0 => {
                    let a = clean_post.update(&clean_e, &model, pool, outcome);
                    let b = chaos_post.update(&chaos_e, &model, pool, outcome);
                    prop_assert_eq!(a.is_ok(), b.is_ok());
                    if let (Ok(za), Ok(zb)) = (a, b) {
                        prop_assert_eq!(za.to_bits(), zb.to_bits());
                    } else {
                        break;
                    }
                }
                1 => {
                    let a = clean_post.fused_round(&clean_e, &model, pool, outcome, &order);
                    let b = chaos_post.fused_round(&chaos_e, &model, pool, outcome, &order);
                    prop_assert_eq!(a.is_ok(), b.is_ok());
                    match (a, b) {
                        (Ok(ra), Ok(rb)) => {
                            prop_assert_eq!(ra.evidence.to_bits(), rb.evidence.to_bits());
                            assert_bitwise_eq(&ra.marginals, &rb.marginals, "fused marginals");
                            assert_bitwise_eq(
                                &ra.prefix_negative_masses,
                                &rb.prefix_negative_masses,
                                "fused masses",
                            );
                        }
                        _ => break,
                    }
                }
                _ => {
                    let a = clean_imm.update(&clean_e, &model, pool, outcome);
                    let b = chaos_imm.update(&chaos_e, &model, pool, outcome);
                    prop_assert_eq!(a.is_ok(), b.is_ok());
                    if let (Ok(za), Ok(zb)) = (a, b) {
                        prop_assert_eq!(za.to_bits(), zb.to_bits());
                    } else {
                        break;
                    }
                }
            }
            prop_assert_eq!(clean_post.total().to_bits(), chaos_post.total().to_bits());
            assert_bitwise_eq(
                clean_post.to_dense(&clean_e).probs(),
                chaos_post.to_dense(&chaos_e).probs(),
                "chaos vs clean posterior",
            );
            assert_bitwise_eq(
                &clean_imm.values(),
                &chaos_imm.values(),
                "chaos vs clean immutable posterior",
            );
        }
    }
}
