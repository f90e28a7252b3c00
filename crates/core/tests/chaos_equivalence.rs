//! Chaos tests: the posterior hot loop under deterministic fault
//! injection, against the two-level contract of the one recovery
//! mechanism (a task is never re-run; a killed round is rolled back and
//! replayed).
//!
//! * **Stage level.** Under any fault plan, every stage variant of the
//!   sharded posterior — in-place on uniquely-owned shards, in-place under
//!   a live clone (COW), the fused superstage, the look-ahead selection —
//!   either returns the fault-free run's bits or fails naming the stage and
//!   the task (`stage '<name>': task <i> panicked`). It never returns
//!   different bits.
//! * **Round level.** A killed stage or round, rolled back to a deep
//!   pre-stage snapshot and replayed under fresh stage sequence numbers
//!   (what the service does per round), lands on the fault-free bits.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use proptest::prelude::*;
use sbgt::{RoundStep, SbgtConfig, ShardedPosterior, ShardedSession};
use sbgt_bayes::Prior;
use sbgt_engine::{ChaosConfig, Engine, EngineConfig, FaultPlan};
use sbgt_lattice::State;
use sbgt_response::BinaryDilutionModel;
use sbgt_select::{select_stage_lookahead, LookaheadConfig, Selection};

/// Cases per seeded campaign sweep.
const CASES: u64 = 24;

/// Fault-free reference engine.
fn clean_engine() -> Engine {
    Engine::new(EngineConfig::default().with_threads(2))
}

/// An engine with `plan` installed.
fn chaos_engine(plan: FaultPlan) -> Engine {
    let e = clean_engine();
    e.set_fault_plan(plan);
    e
}

/// A seeded campaign: panics and poisons kill stages, delays only slow
/// them.
fn campaign(seed: u64) -> FaultPlan {
    FaultPlan::seeded(
        ChaosConfig::new(seed)
            .with_panic_rate(0.25)
            .with_delay_rate(0.1, Duration::from_millis(1))
            .with_poison_rate(0.1),
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

/// Run one operation; `Err((stage, task))` if a fault killed one of its
/// stages. The stage-level contract: a kill surfaces as the stage's
/// `TaskPanicked`, naming the stage and a task, with the injected fault as
/// its message.
fn stage_or_kill<T>(op: impl FnOnce() -> T) -> Result<T, (String, usize)> {
    let payload = match catch_unwind(AssertUnwindSafe(op)) {
        Ok(value) => return Ok(value),
        Err(payload) => payload,
    };
    let msg = payload
        .downcast_ref::<String>()
        .expect("string panic payload");
    let (stage, rest) = msg
        .split_once("stage '")
        .and_then(|(_, rest)| rest.split_once("': task "))
        .unwrap_or_else(|| panic!("kill must name its stage: {msg}"));
    let (task, fault) = rest
        .split_once(" panicked: ")
        .unwrap_or_else(|| panic!("kill must name its task: {msg}"));
    assert!(
        fault.starts_with("injected "),
        "not an injected fault: {msg}"
    );
    Err((stage.to_string(), task.parse().expect("task index")))
}

/// Run one posterior stage, rolling back to a deep pre-stage snapshot and
/// replaying whenever a fault kills it — the service's recovery in
/// miniature. The snapshot is a copy of the shard values, like a
/// `SessionSnapshot`, so the stage's handles stay uniquely owned. Every
/// kill must name `stage`.
fn replayed<T>(
    post: &mut ShardedPosterior,
    stage: &str,
    kills: &mut usize,
    mut op: impl FnMut(&mut ShardedPosterior) -> T,
) -> T {
    loop {
        let (shards, total) = (post.shard_values(), post.total());
        match stage_or_kill(|| op(post)) {
            Ok(value) => return value,
            Err((killed, _)) => assert_eq!(killed, stage),
        }
        *kills += 1;
        assert!(*kills < 1_000, "stage {stage} never survived");
        *post = ShardedPosterior::from_shards(post.n_subjects(), shards, total).unwrap();
    }
}

/// Every observable of the stage-variant sequence, for exact comparison
/// between a clean and a chaotic run.
struct SequenceOutput {
    evidences: Vec<f64>,
    fused_marginals: Vec<f64>,
    fused_masses: Vec<f64>,
    final_dense: Vec<f64>,
    cow_snapshot_dense: Vec<f64>,
    kills: usize,
}

/// One update through each stage variant — in-place on unique handles,
/// in-place under a live clone (COW), and the fused superstage — each
/// replayed until it survives.
fn run_stage_variant_sequence(e: &Engine) -> SequenceOutput {
    let risks = [0.02, 0.08, 0.15, 0.05, 0.3, 0.11, 0.07, 0.22];
    let n = risks.len();
    let dense0 = Prior::from_risks(&risks).to_dense();
    let model = BinaryDilutionModel::pcr_like();
    let mut kills = 0;

    // In-place on uniquely-owned shards.
    let mut post = ShardedPosterior::from_dense(&dense0, 4);
    let z2 = replayed(&mut post, "update:in-place", &mut kills, |p| {
        p.update(e, &model, pool_from_seed(29, n), false).unwrap()
    });

    // In-place under a live clone: the copy-on-write case.
    let snapshot = post.clone();
    let z3 = replayed(&mut post, "update:in-place", &mut kills, |p| {
        p.update(e, &model, pool_from_seed(71, n), true).unwrap()
    });

    // Fused BHA superstage.
    let order: Vec<usize> = (0..n).collect();
    let round = replayed(&mut post, "fused-round:in-place", &mut kills, |p| {
        p.fused_round(e, &model, pool_from_seed(97, n), false, &order)
            .unwrap()
    });

    SequenceOutput {
        evidences: vec![z2, z3, round.evidence],
        fused_marginals: round.marginals,
        fused_masses: round.prefix_negative_masses,
        final_dense: post.to_dense(e).probs().to_vec(),
        cow_snapshot_dense: snapshot.to_dense(e).probs().to_vec(),
        kills,
    }
}

fn assert_sequences_match(a: &SequenceOutput, b: &SequenceOutput) {
    assert_bitwise_eq(&a.evidences, &b.evidences, "evidences");
    assert_bitwise_eq(&a.fused_marginals, &b.fused_marginals, "fused marginals");
    assert_bitwise_eq(&a.fused_masses, &b.fused_masses, "fused masses");
    assert_bitwise_eq(&a.final_dense, &b.final_dense, "final posterior");
    assert_bitwise_eq(&a.cow_snapshot_dense, &b.cow_snapshot_dense, "cow snapshot");
}

/// Scheduled faults on every in-place stage variant: stragglers change no
/// bit, and a scheduled panic or poison kills its stage naming it and the
/// lowest faulted task, leaving a live clone's shards untouched.
#[test]
fn every_stage_variant_is_clean_or_killed_under_scheduled_faults() {
    let clean = run_stage_variant_sequence(&clean_engine());
    assert_eq!(clean.kills, 0);

    // Stragglers only: every stage returns the fault-free bits.
    let straggle = Duration::from_millis(20);
    let e = chaos_engine(
        FaultPlan::new()
            .delay_at("update:in-place", 2, straggle)
            .delay_at("fused-round:in-place", 3, straggle),
    );
    let slow = run_stage_variant_sequence(&e);
    assert_eq!(slow.kills, 0);
    assert_sequences_match(&clean, &slow);
    // `update:in-place` runs twice and scheduled faults match every
    // occurrence of the stage name.
    assert_eq!(e.metrics().fault_totals().injected_delays, 3);

    let risks = [0.05, 0.1, 0.2, 0.15, 0.08];
    let dense0 = Prior::from_risks(&risks).to_dense();
    let model = BinaryDilutionModel::pcr_like();
    let pool = pool_from_seed(5, risks.len());
    let order: Vec<usize> = (0..risks.len()).collect();
    for (stage, plan) in [
        (
            "update:in-place",
            FaultPlan::new()
                .panic_at("update:in-place", 3)
                .poison_at("update:in-place", 1),
        ),
        (
            "fused-round:in-place",
            FaultPlan::new()
                .poison_at("fused-round:in-place", 1)
                .delay_at("fused-round:in-place", 0, straggle),
        ),
    ] {
        let e = chaos_engine(plan);
        let mut post = ShardedPosterior::from_dense(&dense0, 4);
        let observer = post.clone();
        let killed = stage_or_kill(|| {
            if stage == "update:in-place" {
                post.update(&e, &model, pool, true).map(|_| ())
            } else {
                post.fused_round(&e, &model, pool, true, &order).map(|_| ())
            }
        });
        // The lowest faulted task is the one reported.
        assert_eq!(killed.err(), Some((stage.to_string(), 1)));
        let aggs = e.metrics().stage_aggregates();
        let job = aggs.iter().find(|a| a.name == stage).unwrap();
        assert_eq!((job.jobs, job.failed_jobs), (1, 1));
        assert_eq!(e.metrics().fault_totals().injected_total(), 2);
        // The live clone's shards were never written (COW).
        assert_bitwise_eq(
            observer.to_dense(&e).probs(),
            dense0.probs(),
            "observer after kill",
        );
    }
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
        let e = Engine::new(EngineConfig::default().with_threads(2).with_obs(obs));
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
    assert_eq!(untraced.kills, traced.kills, "fault schedule shifted");
    assert_sequences_match(&untraced, &traced);
    // The traced run must have captured the injected faults as marks and
    // the killed tasks as failed task spans.
    let rec = e2.obs();
    let snap = rec.snapshot();
    let events: Vec<_> = snap.all_events().collect();
    assert!(events
        .iter()
        .any(|ev| rec.name_of(ev.name).starts_with("fault:")));
    assert!(events.iter().any(|ev| ev.meta.failed));
}

/// Round level: a sharded session driven round by round under a seeded
/// campaign, each killed round restored from its pre-round snapshot and
/// replayed, produces the identical outcome to a fault-free session:
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
        let mut kills = 0;
        // Opening runs a marginals stage too; like the service, rebuild
        // from scratch when it is killed.
        let mut session = loop {
            match stage_or_kill(|| {
                ShardedSession::new(e, Prior::from_risks(&risks), model, config, 4)
            }) {
                Ok(session) => break session,
                Err(_) => kills += 1,
            }
        };
        let outcome = loop {
            let snapshot = session.snapshot();
            match stage_or_kill(|| session.run_round(e, lab)) {
                Ok(RoundStep::Finished(outcome)) => break outcome,
                Ok(RoundStep::Progressed) => {}
                Err(_) => {
                    kills += 1;
                    session = ShardedSession::restore(&snapshot, model, config).unwrap();
                }
            }
        };
        (outcome, session.history().to_vec(), kills)
    };

    let (clean_outcome, clean_history, clean_kills) = run(&clean_engine());
    assert_eq!(clean_kills, 0);

    let e = chaos_engine(FaultPlan::seeded(
        ChaosConfig::new(2024)
            .with_panic_rate(0.15)
            .with_delay_rate(0.05, Duration::from_millis(2))
            .with_poison_rate(0.05),
    ));
    let (chaos_outcome, chaos_history, kills) = run(&e);

    assert_eq!(clean_history, chaos_history, "different pools were tested");
    assert_eq!(clean_outcome.tests, chaos_outcome.tests);
    assert_eq!(clean_outcome.stages, chaos_outcome.stages);
    assert_eq!(clean_outcome.classification, chaos_outcome.classification);
    assert_bitwise_eq(
        &clean_outcome.marginals,
        &chaos_outcome.marginals,
        "session marginals",
    );
    // The campaign must actually have killed a round for this test to
    // mean anything.
    assert!(kills > 0, "campaign killed no round");
    let totals = e.metrics().fault_totals();
    assert!(totals.injected_panics + totals.injected_poisons >= kills);
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

fn assert_selections_bitwise_eq(a: &[Selection], b: &[Selection]) {
    assert_eq!(a.len(), b.len(), "stage width mismatch");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.pool, y.pool, "a fault changed the pool");
        assert_eq!(x.negative_mass.to_bits(), y.negative_mass.to_bits());
        assert_eq!(x.distance.to_bits(), y.distance.to_bits());
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

/// Scheduled faults on the `lookahead:select` stage: a straggler never
/// changes a selection bit, and a scheduled panic kills the stage naming
/// it.
#[test]
fn lookahead_selection_is_clean_or_killed_under_scheduled_faults() {
    let risks = [0.04, 0.12, 0.07, 0.2, 0.09, 0.16, 0.03];
    let cfg = LookaheadConfig {
        width: 3,
        max_pool_size: 4,
    };
    let e = clean_engine();
    let session = warmed_session(&e, &risks, 4);
    let clean = session.select_stage(&e, &cfg).unwrap();

    // A width-3 stage runs 3 greedy steps → 3 `lookahead:select` jobs;
    // scheduled faults match every occurrence of the stage name.
    e.set_fault_plan(
        FaultPlan::new()
            .delay_at("lookahead:select", 2, Duration::from_millis(20))
            .delay_at("lookahead:select", 3, Duration::from_millis(5)),
    );
    let slow = session.select_stage(&e, &cfg).unwrap();
    assert_selections_bitwise_eq(&clean, &slow);
    assert_eq!(e.metrics().fault_totals().injected_delays, 6);

    e.set_fault_plan(FaultPlan::new().panic_at("lookahead:select", 3));
    let killed = stage_or_kill(|| session.select_stage(&e, &cfg));
    assert_eq!(killed.err(), Some(("lookahead:select".to_string(), 3)));
    // A read-only stage consumes nothing: with the plan cleared, the same
    // session selects the clean pools again.
    e.clear_fault_plan();
    assert_selections_bitwise_eq(&clean, &session.select_stage(&e, &cfg).unwrap());
}

/// Random cohorts, widths, and partitionings under seeded campaigns: every
/// engine-sharded look-ahead stage selects the same pools as its own
/// fault-free run (bit-for-bit) or is killed naming `lookahead:select`;
/// rerun until it survives, it matches the clean run, which matches the
/// serial clone-per-branch rule (pools exact, masses to 1e-9). The sweep
/// must fire and kill.
#[test]
fn lookahead_selection_immune_to_seeded_campaign() {
    let mut kills = 0usize;
    for case in 0..CASES {
        let mut rng = proptest::case_rng(case);
        let risks = prop::collection::vec(0.01f64..0.4, 2..=7).generate(&mut rng);
        let width = (1usize..=4).generate(&mut rng);
        let parts = (1usize..=4).generate(&mut rng);
        let campaign_seed = any::<u64>().generate(&mut rng);
        let cfg = LookaheadConfig {
            width,
            max_pool_size: 4,
        };

        let clean_e = clean_engine();
        let clean_session = warmed_session(&clean_e, &risks, parts);
        let clean = clean_session.select_stage(&clean_e, &cfg).unwrap();

        let chaos_e = clean_engine();
        let session = warmed_session(&chaos_e, &risks, parts);
        chaos_e.set_fault_plan(campaign(campaign_seed));
        let chaos = loop {
            match stage_or_kill(|| session.select_stage(&chaos_e, &cfg).unwrap()) {
                Ok(selected) => break selected,
                Err((stage, _)) => assert_eq!(stage, "lookahead:select"),
            }
            kills += 1;
        };
        assert_selections_bitwise_eq(&clean, &chaos);

        let serial = select_stage_lookahead(
            &clean_session.posterior().to_dense(&clean_e),
            &BinaryDilutionModel::pcr_like(),
            &clean_session.eligible_order(),
            &cfg,
        )
        .unwrap();
        assert_selections_match_serial(&clean, &serial);
    }
    assert!(kills > 0, "the campaign sweep killed no stage");
}

/// Random seeded campaigns over random cohorts: panics, stragglers, and
/// poisons at every in-place stage variant either kill the stage (which
/// is then rolled back and replayed) or leave every bit of the posterior
/// and the evidences equal to the fault-free run. The sweep must fire and
/// kill.
#[test]
fn seeded_campaign_never_changes_posterior_bits() {
    let mut kills = 0usize;
    for case in 0..CASES {
        let mut rng = proptest::case_rng(case);
        let risks = prop::collection::vec(0.01f64..0.4, 2..=7).generate(&mut rng);
        let parts = (1usize..=4).generate(&mut rng);
        let campaign_seed = any::<u64>().generate(&mut rng);
        let obs = prop::collection::vec((any::<u64>(), any::<bool>()), 1..=4).generate(&mut rng);

        let n = risks.len();
        let dense0 = Prior::from_risks(&risks).to_dense();
        let model = BinaryDilutionModel::pcr_like();
        let clean_e = clean_engine();
        let chaos_e = chaos_engine(campaign(campaign_seed));
        let mut clean_post = ShardedPosterior::from_dense(&dense0, parts);
        let mut chaos_post = ShardedPosterior::from_dense(&dense0, parts);
        let order: Vec<usize> = (0..n).collect();

        for (i, &(seed, outcome)) in obs.iter().enumerate() {
            let pool = pool_from_seed(seed, n);
            // Rotate through the stage variants so each case exercises
            // several under the campaign.
            if i % 2 == 0 {
                let a = clean_post.update(&clean_e, &model, pool, outcome);
                let b = replayed(&mut chaos_post, "update:in-place", &mut kills, |p| {
                    p.update(&chaos_e, &model, pool, outcome)
                });
                assert_eq!(a.is_ok(), b.is_ok());
                match (a, b) {
                    (Ok(za), Ok(zb)) => assert_eq!(za.to_bits(), zb.to_bits()),
                    _ => break,
                }
            } else {
                let a = clean_post.fused_round(&clean_e, &model, pool, outcome, &order);
                let b = replayed(&mut chaos_post, "fused-round:in-place", &mut kills, |p| {
                    p.fused_round(&chaos_e, &model, pool, outcome, &order)
                });
                assert_eq!(a.is_ok(), b.is_ok());
                match (a, b) {
                    (Ok(ra), Ok(rb)) => {
                        assert_eq!(ra.evidence.to_bits(), rb.evidence.to_bits());
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
            assert_eq!(clean_post.total().to_bits(), chaos_post.total().to_bits());
            assert_bitwise_eq(
                clean_post.to_dense(&clean_e).probs(),
                chaos_post.to_dense(&chaos_e).probs(),
                "chaos vs clean posterior",
            );
        }
    }
    assert!(kills > 0, "the campaign sweep killed no stage");
}
