//! Sparse (pruned-lattice) session — the HiBGT execution mode.
//!
//! After a few informative tests the posterior's effective support
//! collapses (experiment E10); the sparse session exploits that by running
//! the whole select → observe → classify loop on a pruned
//! [`SparsePosterior`], re-pruning after every update. For cohorts past
//! the dense memory wall this is the only way to run; for smaller cohorts
//! it trades a bounded marginal error (`≲ ε · support` per step) for
//! order-of-magnitude cheaper updates.
//!
//! The round context is an optional engine: [`SparseSession::run_round`]
//! applies the update on the driver, [`SparseSession::run_round_on`] runs
//! it as a fault-injectable engine stage so chaos campaigns cover sparse
//! cohorts exactly like sharded ones. Tests pin the `ε = 0` case to the
//! dense session bit-for-bit (modulo float reduction order).

use std::sync::Arc;

use sbgt_bayes::{update_sparse, update_sparse_with_table, BayesError, Observation, Prior};
use sbgt_engine::{Engine, StageVariant};
use sbgt_lattice::{SparsePosterior, State};
use sbgt_response::BinaryOutcomeModel;
use sbgt_select::{
    select_halving_prefix_sparse, select_stage_lookahead_sparse, LookaheadConfig, SelectError,
    Selection,
};

use crate::config::{ConfigError, SbgtConfig};
use crate::report::SessionOutcome;
use crate::session::{exact_only, Backend, RoundStep, Session};
use crate::snapshot::{SessionSnapshot, SnapshotError, SparseSnapshot};

/// One sparse update as a single-task engine stage named
/// `fused-round:sparse`: the update runs against a clone of `posterior`
/// inside the stage, so the engine's installed fault plan can kill or retry
/// it (the closure is pure — a retry re-clones pristine input) and the
/// caller commits the returned posterior only on stage success. The job is
/// annotated [`StageVariant::Sparse`] with the post-update support.
///
/// # Panics
/// Panics when the stage fails permanently (retry budget exhausted) — the
/// same contract as the sharded session's fused rounds, which a supervising
/// service converts into a snapshot rollback.
pub(crate) fn sparse_round_on<M: BinaryOutcomeModel>(
    engine: &Engine,
    model: &M,
    posterior: &SparsePosterior,
    pool: State,
    outcome: bool,
    prune_epsilon: f64,
) -> Result<(SparsePosterior, f64), BayesError> {
    if pool.rank() == 0 {
        return Err(BayesError::EmptyPool);
    }
    let table = model.likelihood_table(outcome, pool.rank());
    let base = Arc::new(posterior.clone());
    let task = move || {
        let mut p = (*base).clone();
        update_sparse_with_table(&mut p, pool, &table, prune_epsilon).map(|z| (p, z))
    };
    let results = engine
        .run_stage("fused-round:sparse", vec![task])
        .unwrap_or_else(|e| panic!("sparse round stage failed: {e}"));
    let (p, z) = results.into_iter().next().expect("one sparse task")?;
    engine.metrics().annotate_last_job(StageVariant::Sparse {
        support: p.support(),
    });
    Ok((p, z))
}

/// The posterior in the pruned sparse representation, re-pruned after
/// every update.
pub struct SparseBackend<M> {
    posterior: SparsePosterior,
    model: M,
    /// Pruning threshold applied after every observation (`0.0` disables).
    prune_epsilon: f64,
    history: Vec<(State, bool)>,
}

/// A session whose posterior lives in the pruned sparse representation.
pub type SparseSession<M> = Session<SparseBackend<M>>;

fn check_epsilon(prune_epsilon: f64) -> Result<(), String> {
    if (0.0..1.0).contains(&prune_epsilon) {
        Ok(())
    } else {
        Err(format!("prune epsilon {prune_epsilon} outside [0, 1)"))
    }
}

impl<M: BinaryOutcomeModel> Backend for SparseBackend<M> {
    type Pool = State;
    type Ctx<'a> = Option<&'a Engine>;

    fn n_subjects(&self) -> usize {
        self.posterior.n_subjects()
    }

    fn tests(&self) -> usize {
        self.history.len()
    }

    /// Marginals over the retained mass.
    fn marginals(&self, _: &SbgtConfig) -> Vec<f64> {
        self.posterior.marginals()
    }

    /// Selection stays on the driver even under an engine: post-prune the
    /// support is tiny, so only the update is worth a stage.
    fn select(
        &mut self,
        _: Option<&Engine>,
        config: &SbgtConfig,
        _marginals: &[f64],
        order: &[usize],
    ) -> Vec<Selection> {
        if config.stage_width <= 1 {
            select_halving_prefix_sparse(&self.posterior, order, config.max_pool_size)
                .into_iter()
                .collect()
        } else {
            select_stage_lookahead_sparse(&self.posterior, &self.model, order, &config.lookahead())
                .expect("stage width validated by SbgtConfig")
        }
    }

    /// Sparse fused update + re-prune, on the driver or — when the context
    /// carries an engine — as a [`sparse_round_on`] stage.
    fn observe(
        &mut self,
        engine: Option<&Engine>,
        _: &SbgtConfig,
        pool: &State,
        outcome: bool,
    ) -> Result<f64, BayesError> {
        let z = match engine {
            Some(engine) => {
                let eps = self.prune_epsilon;
                let (p, z) =
                    sparse_round_on(engine, &self.model, &self.posterior, *pool, outcome, eps)?;
                self.posterior = p;
                z
            }
            None => update_sparse(
                &mut self.posterior,
                &self.model,
                &Observation::new(*pool, outcome),
                self.prune_epsilon,
            )?,
        };
        self.history.push((*pool, outcome));
        Ok(z)
    }

    fn plan_history(&self) -> Option<&[(State, bool)]> {
        Some(&self.history)
    }

    fn snapshot_into(&self, snapshot: &mut SessionSnapshot) {
        snapshot.history = self.history.clone();
        snapshot.total = self.posterior.total();
        snapshot.sparse = Some(SparseSnapshot::of(&self.posterior));
    }
}

impl<M: BinaryOutcomeModel> Session<SparseBackend<M>> {
    /// Open a sparse session. `prune_epsilon` is the per-update relative
    /// mass threshold below which states are dropped (`1e-9` is a good
    /// default per E10; `0.0` keeps everything). An out-of-range epsilon is
    /// a typed [`ConfigError::InvalidArgument`] — the validated-construction
    /// convention the rest of the workspace follows — so a service
    /// assembling sessions from untrusted configuration can shed the cohort
    /// instead of crashing.
    pub fn new(
        prior: Prior,
        model: M,
        config: SbgtConfig,
        prune_epsilon: f64,
    ) -> Result<Self, ConfigError> {
        check_epsilon(prune_epsilon).map_err(ConfigError::InvalidArgument)?;
        let backend = SparseBackend {
            posterior: prior.to_sparse(prune_epsilon),
            model,
            prune_epsilon,
            history: Vec::new(),
        };
        Ok(Session::open(backend, config))
    }

    /// Rehydrate a session from a snapshot. The prune epsilon, like the
    /// model and config, is the cohort's static spec, supplied by the
    /// caller; posterior entries and the pruned-mass record are restored
    /// exactly.
    pub fn restore(
        snapshot: &SessionSnapshot,
        model: M,
        config: SbgtConfig,
        prune_epsilon: f64,
    ) -> Result<Self, SnapshotError> {
        Session::resume(snapshot, config, |snapshot| {
            exact_only(snapshot)?;
            let Some(sp) = &snapshot.sparse else {
                return Err(SnapshotError::Corrupt(
                    "sparse restore needs a sparse section".into(),
                ));
            };
            check_epsilon(prune_epsilon).map_err(SnapshotError::Corrupt)?;
            Ok(SparseBackend {
                posterior: sp.posterior(snapshot.n_subjects),
                model,
                prune_epsilon,
                history: snapshot.history.clone(),
            })
        })
    }

    /// The per-update prune threshold this session was opened with.
    pub fn prune_epsilon(&self) -> f64 {
        self.backend().prune_epsilon
    }

    /// Current working-set size (retained states).
    pub fn support(&self) -> usize {
        self.backend().posterior.support()
    }

    /// Total mass discarded by pruning so far.
    pub fn pruned_mass(&self) -> f64 {
        self.backend().posterior.pruned_mass()
    }

    /// Borrow the sparse posterior.
    pub fn posterior(&self) -> &SparsePosterior {
        &self.backend().posterior
    }

    /// Every `(pool, outcome)` observed so far, in order.
    pub fn history(&self) -> &[(State, bool)] {
        &self.backend().history
    }

    /// Ingest one observation on the driver (one stage).
    pub fn observe(&mut self, pool: State, outcome: bool) -> Result<f64, BayesError> {
        self.observe_in(None, &pool, outcome)
    }

    /// [`Self::observe`] as a fault-injectable `fused-round:sparse` engine
    /// stage.
    pub fn observe_on(
        &mut self,
        engine: &Engine,
        pool: State,
        outcome: bool,
    ) -> Result<f64, BayesError> {
        self.observe_in(Some(engine), &pool, outcome)
    }

    /// Halving selection over the retained states (sparse prefix masses).
    pub fn select_next(&self) -> Option<Selection> {
        select_halving_prefix_sparse(
            self.posterior(),
            &self.eligible_order(),
            self.config().max_pool_size,
        )
    }

    /// Look-ahead stage selection over the retained states: up to `width`
    /// pools for one lab round on the sparse branch-fused path.
    pub fn select_stage(&self, width: usize) -> Result<Vec<Selection>, SelectError> {
        let cfg = LookaheadConfig {
            width,
            max_pool_size: self.config().max_pool_size,
        };
        let order = self.eligible_order();
        select_stage_lookahead_sparse(self.posterior(), &self.backend().model, &order, &cfg)
    }

    /// Drive to classification against a lab oracle, updates applied on the
    /// driver ([`Session::run`]).
    pub fn run_to_classification(&mut self, mut lab: impl FnMut(State) -> bool) -> SessionOutcome {
        self.run(None, |pool| lab(*pool))
    }

    /// Drive exactly one round with the update applied on the driver
    /// ([`Session::round`]).
    pub fn run_round(&mut self, mut lab: impl FnMut(State) -> bool) -> RoundStep {
        self.round(None, |pool| lab(*pool))
    }

    /// [`Self::run_round`] with the posterior update running as a
    /// fault-injectable engine stage — how an engine-backed service steps
    /// sparse cohorts so chaos campaigns reach them.
    pub fn run_round_on(
        &mut self,
        engine: &Engine,
        mut lab: impl FnMut(State) -> bool,
    ) -> RoundStep {
        self.round(Some(engine), |pool| lab(*pool))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConfigError;
    use crate::SbgtSession;
    use sbgt_engine::EngineConfig;
    use sbgt_response::BinaryDilutionModel;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    fn risks() -> Vec<f64> {
        vec![0.02, 0.08, 0.03, 0.15, 0.05, 0.1, 0.04]
    }

    #[test]
    fn unpruned_sparse_matches_dense_session() {
        let model = BinaryDilutionModel::pcr_like();
        let cfg = SbgtConfig::default().serial();
        let mut dense = SbgtSession::new(Prior::from_risks(&risks()), model, cfg);
        let mut sparse = SparseSession::new(Prior::from_risks(&risks()), model, cfg, 0.0).unwrap();
        for (pool, outcome) in [
            (State::from_subjects([0, 1, 2]), false),
            (State::from_subjects([3, 4]), true),
            (State::from_subjects([3]), true),
        ] {
            let zd = dense.observe(pool, outcome).unwrap();
            let zs = sparse.observe(pool, outcome).unwrap();
            assert!(close(zd, zs));
        }
        for (a, b) in dense.marginals().iter().zip(sparse.marginals()) {
            assert!(close(*a, b));
        }
        let sd = dense.select_next().unwrap();
        let ss = sparse.select_next().unwrap();
        assert_eq!(sd.pool, ss.pool);
    }

    #[test]
    fn pruning_shrinks_support_during_episode() {
        let model = BinaryDilutionModel::pcr_like();
        let cfg = SbgtConfig::default().serial();
        let mut s = SparseSession::new(Prior::from_risks(&risks()), model, cfg, 1e-9).unwrap();
        let initial = s.support();
        s.observe(State::from_subjects([0, 1, 2, 3]), false)
            .unwrap();
        s.observe(State::from_subjects([4, 5, 6]), false).unwrap();
        assert!(s.support() < initial, "{} !< {initial}", s.support());
        assert!(s.pruned_mass() > 0.0);
    }

    #[test]
    fn aggressive_pruning_still_tracks_truth_with_perfect_assay() {
        // With a perfect assay, the true state's mass only ever grows
        // relatively, so even harsh pruning keeps it.
        let truth = State::from_subjects([1]);
        let model = BinaryDilutionModel::perfect();
        let cfg = SbgtConfig::default().serial();
        let mut s = SparseSession::new(Prior::flat(8, 0.05), model, cfg, 1e-3).unwrap();
        let out = s.run_to_classification(|pool| truth.intersects(pool));
        assert!(out.classification.is_terminal());
        assert_eq!(out.classification.positives(), 1);
    }

    /// Regression: an out-of-range epsilon used to `assert!`-panic inside
    /// the constructor, taking down the whole process when a service opened
    /// a cohort from bad configuration. It is now the workspace-standard
    /// typed error.
    #[test]
    fn epsilon_out_of_range_is_typed_error_not_panic() {
        let model = BinaryDilutionModel::pcr_like();
        for bad in [1.0, 1.5, -0.1, f64::NAN] {
            let result = SparseSession::new(Prior::flat(3, 0.1), model, SbgtConfig::default(), bad);
            match result {
                Err(ConfigError::InvalidArgument(msg)) => {
                    assert!(msg.contains("prune epsilon"), "message: {msg}")
                }
                Ok(_) => panic!("epsilon {bad} must be rejected"),
            }
        }
        // And the boundary values are accepted.
        assert!(SparseSession::new(Prior::flat(3, 0.1), model, SbgtConfig::default(), 0.0).is_ok());
    }

    #[test]
    fn engine_backed_rounds_match_driver_rounds_bit_for_bit() {
        let e = Engine::new(EngineConfig::default().with_threads(2));
        let truth = State::from_subjects([1, 6]);
        let model = BinaryDilutionModel::perfect();
        let cfg = SbgtConfig::default().serial();
        let mk = || SparseSession::new(Prior::flat(8, 0.07), model, cfg, 1e-9).unwrap();
        let mut driver = mk();
        let expected = driver.run_to_classification(|pool| truth.intersects(pool));
        let mut staged = mk();
        e.metrics().clear();
        let outcome = loop {
            if let Some(o) = staged
                .run_round_on(&e, |pool| truth.intersects(pool))
                .finished()
            {
                break o;
            }
        };
        assert_eq!(outcome, expected);
        assert_eq!(staged.history(), driver.history());
        for (a, b) in staged
            .posterior()
            .entries()
            .iter()
            .zip(driver.posterior().entries())
        {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
        // Every observation ran as a sparse-tagged engine stage.
        let jobs = e.metrics().jobs();
        let sparse_jobs: Vec<_> = jobs
            .iter()
            .filter(|j| j.name == "fused-round:sparse")
            .collect();
        assert_eq!(sparse_jobs.len(), outcome.tests);
        assert!(sparse_jobs
            .iter()
            .all(|j| matches!(j.variant, StageVariant::Sparse { .. })));
    }
}
