//! The dense-hybrid backend: the SBGT framework's in-memory session.

use std::borrow::Cow;

use sbgt_bayes::{
    analyze, analyze_par, update_dense, update_dense_par, update_sparse, BayesError, Observation,
    PosteriorReport, Prior,
};
use sbgt_lattice::kernels::par_marginals;
use sbgt_lattice::{DensePosterior, HybridPosterior, SparsePosterior, State};
use sbgt_response::BinaryOutcomeModel;
use sbgt_select::{
    select_halving_global, select_halving_global_par, select_halving_prefix,
    select_halving_prefix_par, select_halving_prefix_sparse, select_information_gain,
    select_stage_lookahead_fused, select_stage_lookahead_par, select_stage_lookahead_sparse,
    InfoSelection, LookaheadConfig, SelectError, Selection,
};

use crate::config::{ExecMode, SbgtConfig};
use crate::report::SessionOutcome;
use crate::session::{exact_only, Backend, RoundStep, Session};
use crate::snapshot::{SessionSnapshot, SnapshotError, SparseSnapshot};

/// The lattice posterior held in memory, dispatching every operation to
/// serial or rayon kernels per the configured [`ExecMode`].
///
/// The posterior starts dense; when [`SbgtConfig::sparse_switch`] is
/// configured, it converts to the pruned sparse representation once
/// evidence concentrates the retained support below the configured
/// fraction of `2^N`, and every subsequent round runs the `O(support)`
/// sparse kernels instead of the `Θ(2^N)` dense ones.
pub struct DenseBackend<M> {
    posterior: HybridPosterior,
    model: M,
    history: Vec<(State, bool)>,
}

/// A live Bayesian group-testing session over one cohort, exposing the
/// paper's three operation classes (`observe` = lattice manipulation,
/// `select_next`/`select_stage` = test selection, `report` = statistical
/// analysis).
pub type SbgtSession<M> = Session<DenseBackend<M>>;

impl<M: BinaryOutcomeModel> DenseBackend<M> {
    fn select_next(&self, config: &SbgtConfig, order: &[usize]) -> Option<Selection> {
        match &self.posterior {
            HybridPosterior::Dense(d) => match config.exec {
                ExecMode::Serial => select_halving_prefix(d, order, config.max_pool_size),
                ExecMode::Parallel(cfg) => {
                    select_halving_prefix_par(d, order, config.max_pool_size, cfg)
                }
            },
            HybridPosterior::Sparse(s) => {
                select_halving_prefix_sparse(s, order, config.max_pool_size)
            }
        }
    }

    fn select_stage(
        &self,
        config: &SbgtConfig,
        width: usize,
        order: &[usize],
    ) -> Result<Vec<Selection>, SelectError> {
        let cfg = LookaheadConfig {
            width,
            max_pool_size: config.max_pool_size,
        };
        match &self.posterior {
            HybridPosterior::Dense(d) => match config.exec {
                ExecMode::Serial => select_stage_lookahead_fused(d, &self.model, order, &cfg),
                ExecMode::Parallel(pc) => {
                    select_stage_lookahead_par(d, &self.model, order, &cfg, pc)
                }
            },
            HybridPosterior::Sparse(s) => {
                select_stage_lookahead_sparse(s, &self.model, order, &cfg)
            }
        }
    }

    /// The dense posterior, materialized from the sparse entries when the
    /// session has switched — for the zeta-transform and exact-information
    /// rules, which have no sparse counterpart.
    fn dense_view(&self) -> Cow<'_, DensePosterior> {
        match &self.posterior {
            HybridPosterior::Dense(d) => Cow::Borrowed(d),
            HybridPosterior::Sparse(s) => Cow::Owned(s.to_dense()),
        }
    }
}

impl<M: BinaryOutcomeModel> Backend for DenseBackend<M> {
    type Pool = State;
    type Ctx<'a> = ();

    fn n_subjects(&self) -> usize {
        self.posterior.n_subjects()
    }

    fn tests(&self) -> usize {
        self.history.len()
    }

    fn marginals(&self, config: &SbgtConfig) -> Vec<f64> {
        match &self.posterior {
            HybridPosterior::Dense(d) => match config.exec {
                ExecMode::Serial => d.marginals(),
                ExecMode::Parallel(cfg) => par_marginals(d, cfg),
            },
            HybridPosterior::Sparse(s) => s.marginals(),
        }
    }

    fn select(
        &mut self,
        _: (),
        config: &SbgtConfig,
        _marginals: &[f64],
        order: &[usize],
    ) -> Vec<Selection> {
        if config.stage_width <= 1 {
            self.select_next(config, order).into_iter().collect()
        } else {
            self.select_stage(config, config.stage_width, order)
                .expect("stage width validated by SbgtConfig")
        }
    }

    fn observe(
        &mut self,
        _: (),
        config: &SbgtConfig,
        pool: &State,
        outcome: bool,
    ) -> Result<f64, BayesError> {
        let obs = Observation::new(*pool, outcome);
        let z = match &mut self.posterior {
            HybridPosterior::Dense(d) => match config.exec {
                ExecMode::Serial => update_dense(d, &self.model, &obs)?,
                ExecMode::Parallel(cfg) => update_dense_par(d, &self.model, &obs, cfg)?,
            },
            HybridPosterior::Sparse(s) => {
                let eps = config.sparse_switch.map_or(0.0, |w| w.prune_epsilon);
                update_sparse(s, &self.model, &obs, eps)?
            }
        };
        self.history.push((*pool, outcome));
        Ok(z)
    }

    /// Take the dense→sparse switch if configured and the support now
    /// qualifies (checked once per stage, after its updates land).
    fn end_stage(&mut self, _: (), config: &SbgtConfig) {
        if let Some(switch) = config.sparse_switch {
            self.posterior.maybe_switch(&switch);
        }
    }

    fn plan_history(&self) -> Option<&[(State, bool)]> {
        Some(&self.history)
    }

    /// A dense posterior is stored as one shard of exact (normalized)
    /// values; a post-switch sparse posterior stores its retained entries
    /// and pruned mass instead.
    fn snapshot_into(&self, snapshot: &mut SessionSnapshot) {
        snapshot.history = self.history.clone();
        match &self.posterior {
            HybridPosterior::Dense(d) => snapshot.shards = vec![d.probs().to_vec()],
            HybridPosterior::Sparse(s) => {
                snapshot.total = s.total();
                snapshot.sparse = Some(SparseSnapshot::of(s));
            }
        }
    }
}

impl<M: BinaryOutcomeModel> Session<DenseBackend<M>> {
    /// Open a session from a prior and an assay model.
    pub fn new(prior: Prior, model: M, config: SbgtConfig) -> Self {
        let backend = DenseBackend {
            posterior: HybridPosterior::new_dense(prior.to_dense()),
            model,
            history: Vec::new(),
        };
        Session::open(backend, config)
    }

    /// Rehydrate a session from a snapshot taken by [`Self::snapshot`].
    pub fn restore(
        snapshot: &SessionSnapshot,
        model: M,
        config: SbgtConfig,
    ) -> Result<Self, SnapshotError> {
        Session::resume(snapshot, config, |snapshot| {
            exact_only(snapshot)?;
            let posterior = match &snapshot.sparse {
                Some(sp) => HybridPosterior::Sparse(sp.posterior(snapshot.n_subjects)),
                None => {
                    let probs: Vec<f64> = snapshot.shards.iter().flatten().copied().collect();
                    HybridPosterior::Dense(DensePosterior::from_probs(snapshot.n_subjects, probs))
                }
            };
            Ok(DenseBackend {
                posterior,
                model,
                history: snapshot.history.clone(),
            })
        })
    }

    /// Borrow the current dense posterior (normalized after every
    /// observation).
    ///
    /// # Panics
    /// Panics once the session has taken the adaptive dense→sparse switch
    /// (only possible when [`SbgtConfig::sparse_switch`] is configured);
    /// check [`Self::is_sparse`] or use [`Self::sparse_posterior`] then.
    pub fn posterior(&self) -> &DensePosterior {
        self.backend()
            .posterior
            .as_dense()
            .expect("posterior has switched to sparse; use sparse_posterior()")
    }

    /// Whether the adaptive dense→sparse switch has happened.
    pub fn is_sparse(&self) -> bool {
        self.backend().posterior.is_sparse()
    }

    /// The sparse posterior, once the session has switched.
    pub fn sparse_posterior(&self) -> Option<&SparsePosterior> {
        self.backend().posterior.as_sparse()
    }

    /// Every `(pool, outcome)` observed so far, in order.
    pub fn history(&self) -> &[(State, bool)] {
        &self.backend().history
    }

    /// Ingest one observed pooled test (one stage).
    /// Returns the model evidence of the observation.
    pub fn observe(&mut self, pool: State, outcome: bool) -> Result<f64, BayesError> {
        self.observe_in((), &pool, outcome)
    }

    /// Ingest a whole stage of observations (look-ahead workflows run
    /// several pools per lab round); returns the joint evidence. Stage
    /// accounting is [`Session::observe_stage_in`]'s.
    pub fn observe_stage(&mut self, observations: &[(State, bool)]) -> Result<f64, BayesError> {
        self.observe_stage_in((), observations.iter().map(|(p, o)| (p, *o)))
    }

    /// Drive the session to classification against a lab oracle
    /// ([`Session::run`]).
    pub fn run_to_classification(&mut self, mut lab: impl FnMut(State) -> bool) -> SessionOutcome {
        self.run((), |pool| lab(*pool))
    }

    /// Drive exactly one round ([`Session::round`]).
    pub fn run_round(&mut self, mut lab: impl FnMut(State) -> bool) -> RoundStep {
        self.round((), |pool| lab(*pool))
    }

    /// Bayesian Halving Algorithm: the next pool to test, or `None` when
    /// every subject is already classified.
    pub fn select_next(&self) -> Option<Selection> {
        self.backend()
            .select_next(self.config(), &self.eligible_order())
    }

    /// Globally optimal Bayesian halving over **all** admissible pools of
    /// the unclassified subjects, priced by one zeta transform
    /// (`O(N · 2^N)` instead of the prefix rule's `O(2^N)`, exact instead
    /// of near-optimal). `None` when every subject is classified.
    pub fn select_next_global(&self) -> Option<Selection> {
        let order = self.eligible_order();
        let dense = self.backend().dense_view();
        let cap = self.config().max_pool_size;
        match self.config().exec {
            ExecMode::Serial => select_halving_global(&dense, &order, cap),
            ExecMode::Parallel(_) => select_halving_global_par(&dense, &order, cap),
        }
    }

    /// Information-gain refinement: score the `shortlist` best halving
    /// prefixes by exact expected entropy reduction and return the most
    /// informative (see `sbgt_select::information`). `None` when the
    /// cohort is classified.
    pub fn select_next_informative(&self, shortlist: usize) -> Option<InfoSelection> {
        select_information_gain(
            &self.backend().dense_view(),
            &self.backend().model,
            &self.eligible_order(),
            self.config().max_pool_size,
            shortlist,
        )
    }

    /// Look-ahead stage selection: up to `width` pools for one lab round,
    /// on the **branch-fused** fast path (serial or rayon per the
    /// configured [`ExecMode`]) — no branch posterior is materialized.
    /// Rejects a zero `width` with [`SelectError::InvalidArgument`].
    pub fn select_stage(&self, width: usize) -> Result<Vec<Selection>, SelectError> {
        self.backend()
            .select_stage(self.config(), width, &self.eligible_order())
    }

    /// Full statistical readout (marginals, entropy, MAP, top-k, rank
    /// distribution) using the configured kernels.
    pub fn report(&self, top_k: usize) -> PosteriorReport {
        let dense = self.backend().dense_view();
        match self.config().exec {
            ExecMode::Serial => analyze(&dense, top_k),
            ExecMode::Parallel(cfg) => analyze_par(&dense, top_k, cfg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbgt_lattice::kernels::ParConfig;
    use sbgt_response::BinaryDilutionModel;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    fn session(exec: ExecMode) -> SbgtSession<BinaryDilutionModel> {
        let prior = Prior::from_risks(&[0.02, 0.05, 0.01, 0.1, 0.03, 0.08, 0.02, 0.04]);
        SbgtSession::new(
            prior,
            BinaryDilutionModel::pcr_like(),
            SbgtConfig {
                exec,
                ..SbgtConfig::default()
            },
        )
    }

    #[test]
    fn serial_and_parallel_sessions_agree() {
        let mut a = session(ExecMode::Serial);
        let mut b = session(ExecMode::Parallel(ParConfig {
            chunk_len: 17,
            threshold: 0,
        }));
        let pool = State::from_subjects([0, 1, 2, 3]);
        let za = a.observe(pool, true).unwrap();
        let zb = b.observe(pool, true).unwrap();
        assert!(close(za, zb));
        for (x, y) in a.marginals().iter().zip(b.marginals()) {
            assert!(close(*x, y));
        }
        let sa = a.select_next().unwrap();
        let sb = b.select_next().unwrap();
        assert_eq!(sa.pool, sb.pool);
        let ra = a.report(3);
        let rb = b.report(3);
        assert!(close(ra.entropy, rb.entropy));
        assert_eq!(ra.map_state.0, rb.map_state.0);
    }

    #[test]
    fn select_next_none_when_classified() {
        let prior = Prior::flat(4, 0.02);
        let mut s = SbgtSession::new(
            prior,
            BinaryDilutionModel::perfect(),
            SbgtConfig::default().serial(),
        );
        // One all-negative pool classifies everyone at these thresholds.
        s.observe(State::from_subjects([0, 1, 2, 3]), false)
            .unwrap();
        assert!(s.classify().is_terminal());
        assert!(s.select_next().is_none());
    }

    #[test]
    fn global_selection_is_no_worse_than_prefix() {
        let mut s = session(ExecMode::Serial);
        s.observe(State::from_subjects([0, 1, 2]), true).unwrap();
        let prefix = s.select_next().unwrap();
        let global = s.select_next_global().unwrap();
        assert!(global.distance <= prefix.distance + 1e-12);
        // And the parallel path agrees with the serial one.
        let mut p = session(ExecMode::Parallel(ParConfig {
            chunk_len: 17,
            threshold: 0,
        }));
        p.observe(State::from_subjects([0, 1, 2]), true).unwrap();
        let global_par = p.select_next_global().unwrap();
        assert_eq!(global.pool, global_par.pool);
    }

    #[test]
    fn informative_selection_bounds() {
        let mut s = session(ExecMode::Serial);
        s.observe(State::from_subjects([0, 1]), true).unwrap();
        let sel = s.select_next_informative(3).unwrap();
        assert!(sel.information_gain >= 0.0);
        assert!(sel.information_gain <= 2f64.ln() + 1e-12);
        assert!(!sel.pool.is_empty());
    }

    #[test]
    fn select_stage_dispatches_and_validates() {
        let mut a = session(ExecMode::Serial);
        let mut b = session(ExecMode::Parallel(ParConfig {
            chunk_len: 17,
            threshold: 0,
        }));
        let pool = State::from_subjects([0, 1, 2]);
        a.observe(pool, true).unwrap();
        b.observe(pool, true).unwrap();
        let sa = a.select_stage(3).unwrap();
        let sb = b.select_stage(3).unwrap();
        assert_eq!(sa.len(), sb.len());
        for (x, y) in sa.iter().zip(&sb) {
            assert_eq!(x.pool, y.pool);
        }
        // Zero width is a typed error, not a panic.
        assert!(matches!(
            a.select_stage(0),
            Err(SelectError::InvalidArgument(_))
        ));
    }

    #[test]
    fn adaptive_switch_happens_mid_run_and_still_classifies() {
        use sbgt_lattice::SparseSwitch;
        let truth = State::from_subjects([2, 7]);
        let mut s = SbgtSession::new(
            Prior::flat(10, 0.05),
            BinaryDilutionModel::perfect(),
            SbgtConfig::default()
                .serial()
                .with_sparse_switch(SparseSwitch {
                    max_support_fraction: 0.5,
                    prune_epsilon: 1e-9,
                }),
        );
        assert!(!s.is_sparse());
        let outcome = s.run_to_classification(|pool| truth.intersects(pool));
        assert!(outcome.classification.is_terminal());
        assert_eq!(outcome.classification.positives(), 2);
        // A perfect-model run collapses support fast; the switch must have
        // fired well before classification at a 50% threshold.
        assert!(s.is_sparse(), "session never switched to sparse");
        let sp = s.sparse_posterior().unwrap();
        assert!(sp.support() < 1 << 10);
        // Conservation holds on the live sparse posterior.
        assert!((sp.total() + sp.pruned_mass() - 1.0).abs() < 1e-9);
        // Dense-only views still work by materializing.
        let report = s.report(2);
        assert!(report.entropy >= 0.0);
    }

    #[test]
    #[should_panic(expected = "switched to sparse")]
    fn dense_accessor_panics_after_switch() {
        use sbgt_lattice::SparseSwitch;
        let truth = State::from_subjects([0]);
        let mut s = SbgtSession::new(
            Prior::flat(6, 0.05),
            BinaryDilutionModel::perfect(),
            SbgtConfig::default()
                .serial()
                .with_sparse_switch(SparseSwitch {
                    max_support_fraction: 1.0,
                    prune_epsilon: 1e-9,
                }),
        );
        // With the threshold at the whole lattice, the first informative
        // observation triggers the switch.
        let _ = s.run_round(|pool| truth.intersects(pool));
        assert!(s.is_sparse());
        let _ = s.posterior();
    }
}
