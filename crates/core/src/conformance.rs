//! Backend-conformance suite: what every [`Session<B>`](Session) must do,
//! asserted once against the generic driver and instantiated per backend
//! (the three exact ones in this crate's tests, BP and particle in
//! `sbgt-approx`'s). A backend's own test module keeps only what is
//! specific to its posterior representation.

use std::sync::Arc;

use sbgt_bayes::{BayesError, SubjectStatus};
use sbgt_engine::obs::{ObsConfig, SpanKind, SpanRecorder};
use sbgt_select::{PlanCache, PlanKey};

use crate::config::SbgtConfig;
use crate::report::SessionOutcome;
use crate::session::{Backend, RoundStep, Session};
use crate::snapshot::{SessionSnapshot, SnapshotError};

type Restore<'a, B> =
    dyn Fn(&SessionSnapshot, SbgtConfig) -> Result<Session<B>, SnapshotError> + 'a;

/// One backend under test: how to open and restore its session over a
/// fixed cohort, and the lab that cohort is tested against.
pub struct Harness<'a, B: Backend> {
    /// Open a fresh session over the cohort with this configuration. The
    /// cohort must need more than one round to classify.
    pub open: &'a dyn Fn(SbgtConfig) -> Session<B>,
    /// Restore a session of this backend over the same cohort spec.
    pub restore: &'a Restore<'a, B>,
    /// The round context every call runs under.
    pub ctx: B::Ctx<'a>,
    /// The lab oracle (ground truth of the cohort).
    pub lab: &'a dyn Fn(&B::Pool) -> bool,
    /// The pool over these subjects.
    pub pool: &'a dyn Fn(&[usize]) -> B::Pool,
    /// The infected subjects, when assay and backend are accurate enough
    /// that a run must classify exactly them positive.
    pub positives: Option<&'a [usize]>,
    /// The plan-cache key of a session opened with this configuration, for
    /// backends that memoize selections; `None` for those that must not.
    pub plan_key: Option<&'a dyn Fn(&SbgtConfig) -> PlanKey>,
    /// Valid snapshots of *other* session kinds, which `restore` must
    /// reject with a typed error.
    pub foreign: Vec<SessionSnapshot>,
}

fn assert_same_bits(a: &SessionOutcome, b: &SessionOutcome, what: &str) {
    assert_eq!(a, b, "{what}");
    for (x, y) in a.marginals.iter().zip(&b.marginals) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: marginal bits");
    }
}

impl<B: Backend> Harness<'_, B> {
    fn step(&self, session: &mut Session<B>) -> RoundStep {
        session.round(self.ctx, self.lab)
    }

    fn finish(&self, session: &mut Session<B>) -> SessionOutcome {
        session.run(self.ctx, self.lab)
    }

    /// Run every check that applies to all backends.
    pub fn check(&self) {
        let narrow = self.check_under(SbgtConfig::default().serial());
        if self.positives.is_some() {
            assert!(narrow.tests < narrow.subjects, "pooling must pay off");
        }
        let wide = self.check_under(SbgtConfig::default().serial().with_stage_width(3));
        assert!(
            wide.stages < wide.tests && wide.stages <= narrow.stages,
            "width-3 stages must bank several tests per stage ({wide:?} vs {narrow:?})"
        );
        self.memoized_selections_replay_bit_for_bit();
        self.traced_rounds_emit_round_and_phase_spans();
        self.a_stage_counts_iff_an_observation_landed();
        self.foreign_snapshots_are_rejected();
    }

    /// The trajectory checks under one configuration: a batch run
    /// classifies the cohort (exactly the planted positives, when the
    /// harness names them); round-stepping reproduces it bit-for-bit; and
    /// so does a snapshot → bytes → restore cycle at *every* round boundary
    /// of the run. Returns the batch outcome.
    pub fn check_under(&self, config: SbgtConfig) -> SessionOutcome {
        let mut batch = (self.open)(config);
        let expected = self.finish(&mut batch);
        assert!(expected.classification.is_terminal());
        assert_eq!(expected.tests, batch.tests());
        assert_eq!(expected.stages, batch.stages());
        assert_eq!(expected.subjects, batch.n_subjects());
        if let Some(positives) = self.positives {
            let found: Vec<usize> = (0..expected.subjects)
                .filter(|&i| expected.classification.statuses[i] == SubjectStatus::Positive)
                .collect();
            assert_eq!(found, positives);
        }
        let mut stepped = (self.open)(config);
        let outcome = loop {
            if let RoundStep::Finished(outcome) = self.step(&mut stepped) {
                break outcome;
            }
            let snapshot = stepped.snapshot();
            assert_eq!(snapshot.stages, stepped.stages());
            let decoded = SessionSnapshot::from_bytes(&snapshot.to_bytes()).unwrap();
            assert_eq!(decoded, snapshot, "byte codec round-trips the session");
            let mut restored = (self.restore)(&decoded, config).unwrap();
            assert_eq!(restored.tests(), stepped.tests());
            assert_eq!(restored.snapshot(), snapshot, "restore is exact");
            let resumed = self.finish(&mut restored);
            assert_same_bits(&resumed, &expected, "resumed vs uninterrupted");
            assert_eq!(restored.snapshot(), batch.snapshot());
        };
        assert!(
            stepped.stages() > 1,
            "harness cohort must take several rounds"
        );
        assert_same_bits(&outcome, &expected, "stepped vs batch");
        assert_eq!(stepped.snapshot(), batch.snapshot());
        expected
    }

    fn memoized_selections_replay_bit_for_bit(&self) {
        let config = SbgtConfig::default().serial().with_stage_width(2);
        let mut live = (self.open)(config);
        let reference = self.finish(&mut live);
        let Some(key) = self.plan_key else {
            assert!(!live.memoizes());
            return;
        };
        assert!(live.memoizes());
        let cache = PlanCache::new(1024);
        let planned = || {
            let mut session = (self.open)(config);
            assert!(!session.has_plan());
            session.attach_plan(cache.handle(key(&config)));
            assert!(session.has_plan());
            session
        };
        let warmed = self.finish(&mut planned());
        assert_same_bits(&warmed, &reference, "warming run vs live");
        let after_warm = cache.stats();
        assert!(after_warm.extends > 0, "warming run must extend the tree");
        // Same cohort again: every select step hits the tree, and the whole
        // trajectory is bit-for-bit the live one.
        let mut replay = planned();
        let replayed = self.finish(&mut replay);
        assert_same_bits(&replayed, &reference, "replay vs live");
        assert_eq!(replay.snapshot(), live.snapshot());
        assert_eq!(
            cache.stats().misses,
            after_warm.misses,
            "replay never misses"
        );
        assert!(cache.stats().hits > after_warm.hits);
    }

    fn traced_rounds_emit_round_and_phase_spans(&self) {
        // A one-stage cap ends the run unclassified: the second round is
        // the failed one.
        let capped = SbgtConfig {
            max_stages: 1,
            ..SbgtConfig::default().serial()
        };
        for (obs, want_rounds, want_phases) in [
            (ObsConfig::off(), false, false),
            (ObsConfig::spans(), true, false),
            (ObsConfig::full(), true, true),
        ] {
            let rec = Arc::new(SpanRecorder::new(obs));
            let mut session = (self.open)(capped);
            assert!(!session.has_obs());
            session.attach_obs(Arc::clone(&rec), 7);
            assert!(session.has_obs());
            let outcome = self.finish(&mut session);
            assert!(!outcome.classification.is_terminal());
            let snap = rec.snapshot();
            let events: Vec<_> = snap.all_events().collect();
            assert!(events.iter().all(|e| e.meta.cohort == 7));
            let rounds: Vec<_> = events
                .iter()
                .filter(|e| e.kind == SpanKind::Round)
                .collect();
            assert_eq!(rounds.len(), if want_rounds { 2 } else { 0 });
            if want_rounds {
                assert!(!rounds[0].meta.failed, "the progressing round succeeded");
                assert!(rounds[1].meta.failed, "the capped round is flagged");
            }
            for phase in ["session:marginals", "session:select", "session:observe"] {
                let seen = events
                    .iter()
                    .any(|e| e.kind == SpanKind::Phase && rec.name_of(e.name) == phase);
                assert_eq!(seen, want_phases, "phase span {phase}");
            }
        }
    }

    fn a_stage_counts_iff_an_observation_landed(&self) {
        let mut session = (self.open)(SbgtConfig::default().serial());
        let (a, b, c) = ((self.pool)(&[0]), (self.pool)(&[1, 2]), (self.pool)(&[3]));
        let empty = (self.pool)(&[]);
        // First pool fails: nothing landed, nothing counted.
        let failed = session.observe_stage_in(self.ctx, [(&empty, false), (&a, false)]);
        assert_eq!(failed, Err(BayesError::EmptyPool));
        assert_eq!((session.stages(), session.tests()), (0, 0));
        // A later pool fails: the applied ones stay applied and count once.
        let failed =
            session.observe_stage_in(self.ctx, [(&a, false), (&empty, false), (&b, false)]);
        assert_eq!(failed, Err(BayesError::EmptyPool));
        assert_eq!((session.stages(), session.tests()), (1, 1));
        // An empty stage is a no-op; a full one counts once for all pools.
        session.observe_stage_in(self.ctx, []).unwrap();
        assert_eq!((session.stages(), session.tests()), (1, 1));
        session
            .observe_stage_in(self.ctx, [(&b, false), (&c, false)])
            .unwrap();
        assert_eq!((session.stages(), session.tests()), (2, 3));
        session.observe_in(self.ctx, &a, false).unwrap();
        assert_eq!((session.stages(), session.tests()), (3, 4));
        assert_eq!(session.snapshot().stages, 3);
    }

    fn foreign_snapshots_are_rejected(&self) {
        assert!(!self.foreign.is_empty());
        for snapshot in &self.foreign {
            snapshot.validate().expect("foreign snapshots are valid");
            assert!(matches!(
                (self.restore)(snapshot, SbgtConfig::default().serial()),
                Err(SnapshotError::Corrupt(_))
            ));
        }
    }

    /// Exact backends under a perfect assay: an outcome the posterior gives
    /// zero mass is a typed error, and the stage it interrupts still counts
    /// the pool that landed before it.
    pub fn impossible_observation_is_typed_and_counted(&self) {
        let mut session = (self.open)(SbgtConfig::default().serial());
        let (cleared, other) = ((self.pool)(&[0, 1, 2]), (self.pool)(&[3]));
        session.observe_in(self.ctx, &cleared, false).unwrap();
        let failed = session.observe_stage_in(self.ctx, [(&other, false), (&cleared, true)]);
        assert_eq!(failed, Err(BayesError::ImpossibleObservation));
        assert_eq!((session.stages(), session.tests()), (2, 2));
    }
}
