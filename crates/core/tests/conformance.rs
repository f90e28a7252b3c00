//! The generic backend-conformance suite (`sbgt::conformance`) instantiated
//! for the exact backend — in memory, sharded, and opened sparse. BP and
//! particle run the same suite from `sbgt-approx`.

use sbgt::conformance::Harness;
use sbgt::{
    Backend, PlanCache, PlanKey, PlanLineage, SbgtConfig, SbgtSession, Session, SessionSnapshot,
    ShardedSession, SnapshotError, SparseSwitch,
};
use sbgt_bayes::Prior;
use sbgt_engine::{Engine, EngineConfig};
use sbgt_lattice::State;
use sbgt_response::BinaryDilutionModel;
use sbgt_select::Selection;

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

/// In memory the sparse arm's updates run on the driver without an engine
/// and as `fused-round:sparse` stages with one; both land on the same
/// outcome and snapshot bytes.
#[test]
fn dense_backend_conforms_on_the_driver_and_on_the_engine() {
    let engine = Engine::new(EngineConfig::default().with_threads(2));
    for_each_model(|model, positives| {
        let mut switched = Vec::new();
        for ctx in [None, Some(&engine)] {
            let harness = Harness {
                open: &|config| SbgtSession::new(prior(), model, config),
                restore: &|snapshot, config| SbgtSession::restore(snapshot, model, config),
                ctx,
                lab: &truth,
                pool: &pool,
                positives,
                plan_key: Some(&plan_key(model, PlanLineage::Dense)),
                foreign: vec![approx_snapshot()],
            };
            harness.check();
            if positives.is_some() {
                harness.impossible_observation_is_typed_and_counted();
            }
            let outcome = harness.check_under(switching());
            let mut session = (harness.open)(switching());
            session.run(ctx, truth);
            assert!(session.is_sparse(), "the run never crossed the switch");
            switched.push((outcome, session.snapshot().to_bytes()));
        }
        assert_eq!(
            switched[0], switched[1],
            "driver vs engine-staged sparse arm"
        );
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
                open: &|config| SbgtSession::new_sparse(prior(), model, config, EPSILON).unwrap(),
                restore: &|snapshot, config| {
                    SbgtSession::restore_sparse(snapshot, model, config, EPSILON)
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

/// A replayed plan cannot end a cohort: a cached stage holding an empty
/// pool, or a pool naming a subject the prior already classifies, is
/// selected live instead, and the run is bit for bit the live run.
#[test]
fn an_invalid_replayed_stage_is_selected_live() {
    let config = SbgtConfig::default().serial();
    // Subject 0 starts negative under symmetric(0.99).
    let risks = [0.001, 0.07, 0.02, 0.09, 0.05, 0.04, 0.08, 0.06];
    let model = BinaryDilutionModel::perfect();
    let open = || SbgtSession::new(Prior::from_risks(&risks), model, config);
    let live = open().run(None, truth);
    // Each handle is the only tree of a fresh cache: its key just names it.
    let key = plan_key(model, PlanLineage::Dense)(&config);
    for bad in [State::EMPTY, pool(&[0, 1])] {
        let plan = PlanCache::new(64).handle(key.clone());
        let stage = Selection {
            pool: bad,
            negative_mass: 0.5,
            distance: 0.0,
        };
        plan.extend(&[], &[stage]);
        let mut session = open();
        session.attach_plan(plan);
        let outcome = session.run(None, truth);
        assert_eq!(outcome, live, "{bad:?}");
        for (a, b) in outcome.marginals.iter().zip(&live.marginals) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

/// A named point of a run: the first round boundary where the predicate
/// holds, or the end of the run (`None`).
type Stop<'a, B> = (&'a str, Option<&'a dyn Fn(&Session<B>) -> bool>);

/// Drive `open()`'s session to each stop in turn and check its snapshot against the SBGTSNAP bytes the parent of the
/// exact-backend merge wrote there: a session driven to the same point
/// encodes them exactly, and they restore and finish bit for bit like the
/// uninterrupted run.
fn matches_parent<B: Backend<Pool = State>>(
    kind: String,
    open: &dyn Fn() -> Session<B>,
    restore: &dyn Fn(&SessionSnapshot) -> Result<Session<B>, SnapshotError>,
    ctx: B::Ctx<'_>,
    stops: &[Stop<'_, B>],
) {
    let expected = open().run(ctx, truth);
    let mut session = open();
    for (stop, reached) in stops {
        while !reached.is_some_and(|r| r(&session)) {
            if session.round(ctx, truth).finished().is_some() {
                assert!(reached.is_none(), "{kind}: the run ended before {stop}");
                break;
            }
        }
        let name = format!("{kind}_{stop}");
        let hex = include_str!("data/parent_snapshots.txt")
            .lines()
            .find_map(|line| line.strip_prefix(&name)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("no recorded {name} snapshot"));
        let old: Vec<u8> = (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect();
        assert_eq!(session.snapshot().to_bytes(), old, "{name}: bytes moved");
        let snapshot = SessionSnapshot::from_bytes(&old).unwrap();
        let outcome = restore(&snapshot).unwrap().run(ctx, truth);
        assert_eq!(outcome, expected, "{name}");
        for (a, b) in outcome.marginals.iter().zip(&expected.marginals) {
            assert_eq!(a.to_bits(), b.to_bits(), "{name}");
        }
    }
}

/// In-memory and sharded sessions at the first round boundary past the
/// dense→sparse switch and at the end of the run, and a session opened
/// sparse after two rounds: the sharded boundary snapshot still carries
/// the dense marginals its cache held at the switch.
#[test]
fn snapshots_written_before_the_exact_backend_merge_still_resume() {
    let engine = Engine::new(EngineConfig::default().with_threads(2));
    let config = switching();
    for_each_model(|model, positives| {
        let tag = if positives.is_some() {
            "PERFECT"
        } else {
            "PCR"
        };
        matches_parent(
            format!("DENSE_{tag}"),
            &|| SbgtSession::new(prior(), model, config),
            &|snapshot| SbgtSession::restore(snapshot, model, config),
            None,
            &[("SWITCH", Some(&|s| s.is_sparse())), ("END", None)],
        );
        matches_parent(
            format!("SHARDED_{tag}"),
            &|| ShardedSession::new(&engine, prior(), model, config, PARTS),
            &|snapshot| ShardedSession::restore(snapshot, model, config),
            &engine,
            &[("SWITCH", Some(&|s| s.is_sparse())), ("END", None)],
        );
        matches_parent(
            format!("SPARSE_{tag}"),
            &|| SbgtSession::new_sparse(prior(), model, config, EPSILON).unwrap(),
            &|snapshot| SbgtSession::restore_sparse(snapshot, model, config, EPSILON),
            None,
            &[("2", Some(&|s| s.stages() == 2))],
        );
    });
}
