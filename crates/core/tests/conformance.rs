//! The generic backend-conformance suite (`sbgt::conformance`) instantiated
//! for the three exact backends. BP and particle run the same suite from
//! `sbgt-approx`.

use sbgt::conformance::Harness;
use sbgt::{
    PlanKey, PlanLineage, SbgtConfig, SbgtSession, SessionSnapshot, ShardedSession, SparseSession,
    SparseSwitch,
};
use sbgt_bayes::Prior;
use sbgt_engine::{Engine, EngineConfig};
use sbgt_lattice::State;
use sbgt_response::BinaryDilutionModel;

/// Ten subjects with distinct risks, so the ascending-marginal ordering
/// never rests on last-ulp ties.
fn prior() -> Prior {
    Prior::from_risks(&[0.03, 0.07, 0.02, 0.09, 0.05, 0.04, 0.08, 0.06, 0.025, 0.045])
}

const POSITIVES: [usize; 2] = [4, 9];

fn truth(pool: &State) -> bool {
    State::from_subjects(POSITIVES).intersects(*pool)
}

fn pool(subjects: &[usize]) -> State {
    State::from_subjects(subjects.iter().copied())
}

const PARTS: usize = 4;
const EPSILON: f64 = 1e-9;

/// The plan key of this file's cohort under `lineage`.
fn plan_key(model: BinaryDilutionModel, lineage: PlanLineage) -> impl Fn(&SbgtConfig) -> PlanKey {
    move |config| {
        PlanKey::new(
            prior().risks(),
            &model,
            &config.rule,
            config.stage_width,
            config.max_pool_size,
            None,
            lineage,
        )
    }
}

/// One valid snapshot per foreign kind: an approximate one (no exact
/// backend may restore it) and a plain dense one (which lacks the
/// marginals a sharded restore and the sparse section a sparse restore
/// need).
fn approx_snapshot() -> SessionSnapshot {
    let mut snapshot = dense_snapshot();
    snapshot.shards.clear();
    snapshot.approx = Some(sbgt::ApproxSnapshot {
        kind: sbgt::ApproxKind::Bp,
        history: Vec::new(),
        particles: None,
    });
    snapshot
}

fn dense_snapshot() -> SessionSnapshot {
    SbgtSession::new(
        prior(),
        BinaryDilutionModel::pcr_like(),
        SbgtConfig::default(),
    )
    .snapshot()
}

/// Under the noisy diluted assay only the trajectory is pinned; under the
/// perfect one the classification must also be exactly the planted truth,
/// and an impossible observation is reachable.
fn for_each_model(check: impl Fn(BinaryDilutionModel, Option<&[usize]>)) {
    check(BinaryDilutionModel::pcr_like(), None);
    check(BinaryDilutionModel::perfect(), Some(&POSITIVES));
}

/// A configuration under which the dense and sharded backends take the
/// adaptive dense→sparse switch part-way through this cohort's run, so the
/// every-boundary snapshot check crosses it.
fn switching() -> SbgtConfig {
    SbgtConfig::default()
        .serial()
        .with_sparse_switch(SparseSwitch {
            max_support_fraction: 0.5,
            prune_epsilon: EPSILON,
        })
}

#[test]
fn dense_backend_conforms() {
    for_each_model(|model, positives| {
        let harness = Harness {
            open: &|config| SbgtSession::new(prior(), model, config),
            restore: &|snapshot, config| SbgtSession::restore(snapshot, model, config),
            ctx: (),
            lab: &truth,
            pool: &pool,
            positives,
            plan_key: Some(&plan_key(model, PlanLineage::DenseSerial)),
            foreign: vec![approx_snapshot()],
        };
        harness.check();
        if positives.is_some() {
            harness.impossible_observation_is_typed_and_counted();
        }
        harness.check_under(switching());
        let mut switched = (harness.open)(switching());
        switched.run_to_classification(|pool| truth(&pool));
        assert!(switched.is_sparse(), "the run never crossed the switch");
    });
}

#[test]
fn sharded_backend_conforms() {
    let engine = Engine::new(EngineConfig::default().with_threads(2));
    for_each_model(|model, positives| {
        let harness = Harness {
            open: &|config| ShardedSession::new(&engine, prior(), model, config, PARTS),
            restore: &|snapshot, config| ShardedSession::restore(snapshot, model, config),
            ctx: &engine,
            lab: &truth,
            pool: &pool,
            positives,
            plan_key: Some(&plan_key(model, PlanLineage::Sharded { parts: 4 })),
            foreign: vec![approx_snapshot(), dense_snapshot()],
        };
        harness.check();
        if positives.is_some() {
            harness.impossible_observation_is_typed_and_counted();
        }
        harness.check_under(switching());
        let mut switched = (harness.open)(switching());
        switched.run_to_classification(&engine, |pool| truth(&pool));
        assert!(switched.is_sparse(), "the run never crossed the switch");
    });
}

#[test]
fn sparse_backend_conforms_on_the_driver_and_on_the_engine() {
    let engine = Engine::new(EngineConfig::default().with_threads(2));
    for_each_model(|model, positives| {
        for ctx in [None, Some(&engine)] {
            let harness = Harness {
                open: &|config| SparseSession::new(prior(), model, config, EPSILON).unwrap(),
                restore: &|snapshot, config| {
                    SparseSession::restore(snapshot, model, config, EPSILON)
                },
                ctx,
                lab: &truth,
                pool: &pool,
                positives,
                plan_key: Some(&plan_key(
                    model,
                    PlanLineage::Sparse {
                        epsilon_bits: EPSILON.to_bits(),
                    },
                )),
                foreign: vec![approx_snapshot(), dense_snapshot()],
            };
            harness.check();
            if positives.is_some() {
                harness.impossible_observation_is_typed_and_counted();
            }
        }
    });
}
