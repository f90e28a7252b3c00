//! The engine-backed session: the BHA stage loop on the dataflow path.
//!
//! [`ShardedSession`] drives a [`ShardedPosterior`] the way [`crate::SbgtSession`]
//! drives the dense rayon kernels, but every posterior traversal is an
//! engine stage — and the hot loop runs through the **fused in-place
//! superstage** ([`ShardedPosterior::fused_round`]): one traversal per
//! observation applies the Bayesian update and computes the post-update
//! marginals and all-prefix negative masses, so a full BHA round costs one
//! stage instead of three, with zero posterior-sized allocations.
//!
//! ## Selection pipelining
//!
//! The fused round computes prefix masses under a candidate ordering that
//! must be supplied *before* the update runs, so the loop pipelines: the
//! ordering passed into round `t` is derived from round `t-1`'s (fresh)
//! marginals, and the masses that round returns drive round `t+1`'s pool
//! selection. Classification always uses the current marginals — only the
//! candidate *ordering* for selection is one round stale, which perturbs
//! near-tied pool choices but never the posterior math (every returned
//! mass is exact for the updated posterior). [`ShardedSession::select_next`]
//! remains the exact, non-pipelined path (fresh ordering, one extra
//! read-only stage).

use std::sync::Arc;

use sbgt_bayes::{BayesError, Prior};
use sbgt_engine::{Engine, StageVariant};
use sbgt_lattice::{num_states, LookaheadKernel, SparsePosterior, State};
use sbgt_response::BinaryOutcomeModel;
use sbgt_select::{
    drive_lookahead, select_halving_from_masses, select_halving_prefix_sparse,
    select_stage_lookahead_sparse, LookaheadConfig, SelectError, Selection,
};

use crate::config::SbgtConfig;
use crate::parallel::ShardedPosterior;
use crate::report::SessionOutcome;
use crate::session::{eligible_order, exact_only, Backend, RoundStep, Session};
use crate::snapshot::{SessionSnapshot, SnapshotError, SparseSnapshot};
use crate::sparse_session::sparse_round_on;

/// The session's posterior in whichever representation is currently live:
/// engine shards before the adaptive switch, a driver-held pruned sparse
/// posterior after. Sparse rounds still run as engine stages (cloned,
/// updated, committed on success) so fault injection and retry cover them.
enum ShardedState {
    Dense(ShardedPosterior),
    Sparse(SparsePosterior),
}

/// The posterior as engine shards, plus the pipelined selection bank —
/// private to this backend; the driver only ever asks it to select.
pub struct ShardedBackend<M> {
    state: ShardedState,
    model: M,
    history: Vec<(State, bool)>,
    /// Marginals of the current posterior (kept fresh by every round).
    marginals: Vec<f64>,
    /// `(order, masses)` carried over from the last fused round: all-prefix
    /// negative masses of the *current* posterior under `order`.
    pending_selection: Option<(Vec<usize>, Vec<f64>)>,
}

/// A live group-testing session whose posterior lives as engine shards.
pub type ShardedSession<M> = Session<ShardedBackend<M>>;

impl<M: BinaryOutcomeModel> ShardedBackend<M> {
    /// Exact BHA over `order`: one read-only all-prefix mass stage.
    fn select_next(
        &self,
        engine: &Engine,
        config: &SbgtConfig,
        order: &[usize],
    ) -> Option<Selection> {
        if order.is_empty() {
            return None;
        }
        match &self.state {
            ShardedState::Dense(p) => {
                let masses = p.prefix_negative_masses(engine, order);
                select_halving_from_masses(order, &masses, config.max_pool_size)
            }
            // Post-switch the support fits the driver: selection is a plain
            // O(support) scan, no stage.
            ShardedState::Sparse(s) => select_halving_prefix_sparse(s, order, config.max_pool_size),
        }
    }

    fn select_stage(
        &self,
        engine: &Engine,
        cfg: &LookaheadConfig,
        order: &[usize],
    ) -> Result<Vec<Selection>, SelectError> {
        cfg.validate()?;
        if order.is_empty() {
            return Ok(Vec::new());
        }
        match &self.state {
            ShardedState::Dense(p) => {
                let kernel = Arc::new(LookaheadKernel::new(p.n_subjects(), order));
                drive_lookahead(&self.model, order, cfg, |pools| {
                    p.lookahead_histograms(engine, &kernel, pools.to_vec())
                })
            }
            ShardedState::Sparse(s) => select_stage_lookahead_sparse(s, &self.model, order, cfg),
        }
    }
}

impl<M: BinaryOutcomeModel> Backend for ShardedBackend<M> {
    type Pool = State;
    type Ctx<'a> = &'a Engine;

    fn n_subjects(&self) -> usize {
        match &self.state {
            ShardedState::Dense(p) => p.n_subjects(),
            ShardedState::Sparse(s) => s.n_subjects(),
        }
    }

    fn tests(&self) -> usize {
        self.history.len()
    }

    /// No stage: the marginals are kept fresh by each round.
    fn marginals(&self, _: &SbgtConfig) -> Vec<f64> {
        self.marginals.clone()
    }

    /// A look-ahead stage runs on the sharded fused path. The width-1 loop
    /// is pipelined: it spends the masses banked by the previous fused
    /// round, and only the first round (or one after a plan hit left the
    /// bank empty) pays the extra exact-selection stage. Plan hits never
    /// reach this method and leave the bank alone — `observe` re-banks it
    /// every round, so a later live miss sees the same masses either way.
    fn select(
        &mut self,
        engine: &Engine,
        config: &SbgtConfig,
        _marginals: &[f64],
        order: &[usize],
    ) -> Vec<Selection> {
        if config.stage_width > 1 {
            return self
                .select_stage(engine, &config.lookahead(), order)
                .expect("stage width validated by SbgtConfig");
        }
        self.pending_selection
            .take()
            .and_then(|(order, masses)| {
                select_halving_from_masses(&order, &masses, config.max_pool_size)
            })
            .or_else(|| self.select_next(engine, config, order))
            .into_iter()
            .collect()
    }

    /// One fused in-place stage: applies the update, refreshes the
    /// marginals, and banks the prefix masses for the next round's
    /// pipelined selection.
    fn observe(
        &mut self,
        engine: &Engine,
        config: &SbgtConfig,
        pool: &State,
        outcome: bool,
    ) -> Result<f64, BayesError> {
        let order = eligible_order(&self.marginals, config.rule);
        let z = match &mut self.state {
            ShardedState::Dense(p) => {
                let round = p.fused_round(engine, &self.model, *pool, outcome, &order)?;
                self.marginals = round.marginals;
                self.pending_selection = Some((order, round.prefix_negative_masses));
                round.evidence
            }
            ShardedState::Sparse(sparse) => {
                let eps = config.sparse_switch.map_or(0.0, |w| w.prune_epsilon);
                let (p, z) = sparse_round_on(engine, &self.model, sparse, *pool, outcome, eps)?;
                self.marginals = p.marginals();
                self.pending_selection = None;
                *sparse = p;
                z
            }
        };
        self.history.push((*pool, outcome));
        Ok(z)
    }

    /// After a dense stage, take the dense→sparse switch if configured and
    /// the retained support now qualifies: one read-only `sparse:support`
    /// counting stage per round while dense, plus a final `sparse:collect`
    /// stage that materializes the pruned posterior on the driver. Matches
    /// [`sbgt_lattice::HybridPosterior::maybe_switch`]'s predicate exactly.
    fn end_stage(&mut self, engine: &Engine, config: &SbgtConfig) {
        let Some(switch) = config.sparse_switch else {
            return;
        };
        let ShardedState::Dense(p) = &self.state else {
            return;
        };
        let support = p.retained_support(engine, switch.prune_epsilon);
        let limit = switch.max_support_fraction * num_states(p.n_subjects()) as f64;
        if support as f64 > limit {
            return;
        }
        let sparse = p.to_sparse(engine, switch.prune_epsilon);
        engine.metrics().annotate_last_job(StageVariant::Sparse {
            support: sparse.support(),
        });
        // The banked selection masses are unnormalized dense-total units;
        // drop them so the next round selects from the sparse posterior.
        self.pending_selection = None;
        self.state = ShardedState::Sparse(sparse);
    }

    fn plan_history(&self) -> Option<&[(State, bool)]> {
        Some(&self.history)
    }

    /// Posterior shards (exact bits, partition boundaries preserved),
    /// normalization constant, fresh marginals, and the pipelined selection
    /// bank. Shard storage is captured by value so the snapshot stays valid
    /// across later in-place rounds.
    fn snapshot_into(&self, snapshot: &mut SessionSnapshot) {
        snapshot.history = self.history.clone();
        snapshot.marginals = self.marginals.clone();
        snapshot.pending_selection = self.pending_selection.clone();
        match &self.state {
            ShardedState::Dense(p) => {
                snapshot.shards = p.shard_values();
                snapshot.total = p.total();
            }
            ShardedState::Sparse(s) => {
                snapshot.total = s.total();
                snapshot.sparse = Some(SparseSnapshot::of(s));
            }
        }
    }
}

impl<M: BinaryOutcomeModel> Session<ShardedBackend<M>> {
    /// Open a session: shard the prior posterior into `parts` partitions
    /// and run one marginals stage to seed the classification state.
    pub fn new(engine: &Engine, prior: Prior, model: M, config: SbgtConfig, parts: usize) -> Self {
        let posterior = ShardedPosterior::from_dense(&prior.to_dense(), parts);
        let marginals = posterior.marginals(engine);
        let backend = ShardedBackend {
            state: ShardedState::Dense(posterior),
            model,
            history: Vec::new(),
            marginals,
            pending_selection: None,
        };
        Session::open(backend, config)
    }

    /// Rehydrate a session from a snapshot, without touching the engine
    /// (the marginals were snapshotted fresh, so no bootstrap stage runs).
    /// Posterior values, marginals, and the selection bank are restored
    /// exactly, so the session continues bit-for-bit.
    pub fn restore(
        snapshot: &SessionSnapshot,
        model: M,
        config: SbgtConfig,
    ) -> Result<Self, SnapshotError> {
        Session::resume(snapshot, config, |snapshot| {
            exact_only(snapshot)?;
            if snapshot.marginals.len() != snapshot.n_subjects {
                return Err(SnapshotError::Corrupt(format!(
                    "sharded restore needs {} marginals, snapshot holds {}",
                    snapshot.n_subjects,
                    snapshot.marginals.len()
                )));
            }
            let state = match &snapshot.sparse {
                Some(sp) => ShardedState::Sparse(sp.posterior(snapshot.n_subjects)),
                None => ShardedState::Dense(ShardedPosterior::from_shards(
                    snapshot.n_subjects,
                    snapshot.shards.clone(),
                    snapshot.total,
                )?),
            };
            Ok(ShardedBackend {
                state,
                model,
                history: snapshot.history.clone(),
                marginals: snapshot.marginals.clone(),
                pending_selection: snapshot.pending_selection.clone(),
            })
        })
    }

    /// The sharded posterior.
    ///
    /// # Panics
    /// Panics once the session has taken the adaptive dense→sparse switch
    /// (only possible when [`SbgtConfig::sparse_switch`] is configured);
    /// check [`Self::is_sparse`] or use [`Self::sparse_posterior`] then.
    pub fn posterior(&self) -> &ShardedPosterior {
        match &self.backend().state {
            ShardedState::Dense(p) => p,
            ShardedState::Sparse(_) => {
                panic!("posterior has switched to sparse; use sparse_posterior()")
            }
        }
    }

    /// Whether the adaptive dense→sparse switch has happened.
    pub fn is_sparse(&self) -> bool {
        matches!(self.backend().state, ShardedState::Sparse(_))
    }

    /// The sparse posterior, once the session has switched.
    pub fn sparse_posterior(&self) -> Option<&SparsePosterior> {
        match &self.backend().state {
            ShardedState::Sparse(s) => Some(s),
            ShardedState::Dense(_) => None,
        }
    }

    /// Every `(pool, outcome)` observed so far, in order.
    pub fn history(&self) -> &[(State, bool)] {
        &self.backend().history
    }

    /// Exact BHA selection: fresh eligible ordering, one read-only
    /// all-prefix mass stage. `None` when the cohort is classified.
    pub fn select_next(&self, engine: &Engine) -> Option<Selection> {
        self.backend()
            .select_next(engine, self.config(), &self.eligible_order())
    }

    /// Select all pools of one look-ahead stage on the **engine-sharded
    /// fused path**: each greedy step is one read-only
    /// `lookahead:select` aggregate stage accumulating every outcome
    /// branch's prefix-mass histogram in a single traversal of the shards
    /// — no branch posterior is ever materialized, on the driver or on any
    /// task. Selects bit-for-bit the same pools as the serial
    /// clone-per-branch rule (pinned by the chaos-equivalence suite, with
    /// and without injected faults).
    ///
    /// Returns an empty stage when the cohort is already classified.
    pub fn select_stage(
        &self,
        engine: &Engine,
        cfg: &LookaheadConfig,
    ) -> Result<Vec<Selection>, SelectError> {
        self.backend()
            .select_stage(engine, cfg, &self.eligible_order())
    }

    /// Ingest one observed pooled test as a single fused in-place stage;
    /// returns the model evidence.
    pub fn observe(
        &mut self,
        engine: &Engine,
        pool: State,
        outcome: bool,
    ) -> Result<f64, BayesError> {
        self.observe_in(engine, &pool, outcome)
    }

    /// Ingest all observed outcomes of one look-ahead stage under a single
    /// stage count; returns the joint model evidence. Stage accounting is
    /// [`Session::observe_stage_in`]'s.
    pub fn observe_stage(
        &mut self,
        engine: &Engine,
        observations: &[(State, bool)],
    ) -> Result<f64, BayesError> {
        self.observe_stage_in(engine, observations.iter().map(|(p, o)| (p, *o)))
    }

    /// Drive the session to classification against a lab oracle, one fused
    /// stage per round ([`Session::run`]).
    ///
    /// Under a fault-tolerant engine the whole run survives injected or
    /// real task failures with an identical outcome: every stage recovers
    /// bit-for-bit, so pool selection — which feeds on posterior bits —
    /// never diverges from a fault-free run.
    pub fn run_to_classification(
        &mut self,
        engine: &Engine,
        mut lab: impl FnMut(State) -> bool,
    ) -> SessionOutcome {
        self.run(engine, |pool| lab(*pool))
    }

    /// Drive exactly one round ([`Session::round`]) — the unit a
    /// multi-cohort service schedules onto a shared engine.
    pub fn run_round(&mut self, engine: &Engine, mut lab: impl FnMut(State) -> bool) -> RoundStep {
        self.round(engine, |pool| lab(*pool))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbgt_engine::EngineConfig;
    use sbgt_response::BinaryDilutionModel;

    fn engine() -> Engine {
        Engine::new(EngineConfig::default().with_threads(2))
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    /// Ten subjects with distinct risks: a flat prior would leave the
    /// ascending-marginal ordering to last-ulp noise (dense and sharded
    /// summation orders differ), sending the two implementations down
    /// different — equally valid — BHA trajectories.
    fn distinct_risks() -> Prior {
        Prior::from_risks(&[0.03, 0.07, 0.02, 0.09, 0.05, 0.04, 0.08, 0.06, 0.025, 0.045])
    }

    #[test]
    fn rounds_run_as_single_in_place_stages() {
        let e = engine();
        let truth = State::from_subjects([2]);
        let mut s = ShardedSession::new(
            &e,
            Prior::flat(8, 0.06),
            BinaryDilutionModel::perfect(),
            SbgtConfig::default(),
            4,
        );
        e.metrics().clear();
        let outcome = s.run_to_classification(&e, |pool| truth.intersects(pool));
        assert!(outcome.classification.is_terminal());
        // Steady-state rounds are one fused in-place stage each; only the
        // bootstrap selection may add one read-only stage.
        let jobs = e.metrics().jobs();
        let fused = jobs
            .iter()
            .filter(|j| j.name.contains("fused-round"))
            .count();
        assert_eq!(fused, outcome.tests, "one fused stage per observation");
        assert!(
            jobs.len() <= outcome.tests + 1,
            "at most one bootstrap stage beyond the fused rounds ({} jobs, {} tests)",
            jobs.len(),
            outcome.tests
        );
        assert_eq!(e.metrics().in_place_job_count(), fused);
    }

    #[test]
    fn observe_matches_dense_session_evidence() {
        let e = engine();
        let prior = Prior::from_risks(&[0.02, 0.05, 0.01, 0.1, 0.03, 0.08, 0.02, 0.04]);
        let model = BinaryDilutionModel::pcr_like();
        let mut sharded = ShardedSession::new(&e, prior.clone(), model, SbgtConfig::default(), 3);
        let mut dense = crate::SbgtSession::new(prior, model, SbgtConfig::default().serial());
        let pool = State::from_subjects([0, 1, 2, 3]);
        let zs = sharded.observe(&e, pool, true).unwrap();
        let zd = dense.observe(pool, true).unwrap();
        assert!(close(zs, zd), "evidence {zs} vs {zd}");
        for (a, b) in sharded.marginals().iter().zip(dense.marginals()) {
            assert!(close(*a, b));
        }
        assert_eq!(sharded.history(), dense.history());
    }

    #[test]
    fn exact_select_agrees_with_dense_prefix_rule() {
        let e = engine();
        // Distinct risks, none on the symmetric(0.99) boundary: a subject
        // at exactly 0.01 flips classification on ulp-level summation
        // differences between the dense and sharded paths.
        let prior = Prior::from_risks(&[0.02, 0.05, 0.03, 0.1, 0.035, 0.08, 0.025, 0.04]);
        let model = BinaryDilutionModel::pcr_like();
        let mut sharded = ShardedSession::new(&e, prior.clone(), model, SbgtConfig::default(), 3);
        let mut dense = crate::SbgtSession::new(prior, model, SbgtConfig::default().serial());
        let pool = State::from_subjects([1, 5]);
        sharded.observe(&e, pool, false).unwrap();
        dense.observe(pool, false).unwrap();
        let a = sharded.select_next(&e).unwrap();
        let b = dense.select_next().unwrap();
        assert_eq!(a.pool, b.pool);
        assert!(close(a.negative_mass, b.negative_mass));
    }

    #[test]
    fn select_stage_matches_dense_fused_selection() {
        let e = engine();
        let prior = distinct_risks();
        let model = BinaryDilutionModel::pcr_like();
        let mut s = ShardedSession::new(&e, prior.clone(), model, SbgtConfig::default(), 4);
        s.observe(&e, State::from_subjects([0, 3, 5]), false)
            .unwrap();
        let cfg = LookaheadConfig {
            width: 3,
            max_pool_size: 8,
        };
        let sharded_stage = s.select_stage(&e, &cfg).unwrap();
        // Dense ground truth from the same posterior and ordering.
        let dense = s.posterior().to_dense(&e);
        let order = s.eligible_order();
        let dense_stage =
            sbgt_select::select_stage_lookahead_fused(&dense, &model, &order, &cfg).unwrap();
        assert_eq!(sharded_stage.len(), dense_stage.len());
        for (a, b) in sharded_stage.iter().zip(&dense_stage) {
            assert_eq!(a.pool, b.pool);
            assert!(close(a.negative_mass, b.negative_mass));
            assert!(close(a.distance, b.distance));
        }
    }

    #[test]
    fn wide_stage_loop_counts_stages_not_tests() {
        let e = engine();
        let truth = State::from_subjects([1, 6]);
        let mut s = ShardedSession::new(
            &e,
            distinct_risks(),
            BinaryDilutionModel::perfect(),
            SbgtConfig::default().with_stage_width(3),
            4,
        );
        let outcome = s.run_to_classification(&e, |pool| truth.intersects(pool));
        assert!(outcome.classification.is_terminal());
        assert!(
            outcome.stages < outcome.tests,
            "width-3 stages must bank several tests per stage ({} stages, {} tests)",
            outcome.stages,
            outcome.tests
        );
        // The selection stages ran on the sharded fused path.
        let jobs = e.metrics().jobs();
        assert!(jobs.iter().any(|j| j.name == "lookahead:select"));
    }

    #[test]
    fn engine_recorder_captures_cohort_tagged_round_spans() {
        use sbgt_engine::obs::{ObsConfig, SpanKind};
        let e = Engine::new(
            EngineConfig::default()
                .with_threads(2)
                .with_obs(ObsConfig::full()),
        );
        let truth = State::from_subjects([3, 7]);
        let mut s = ShardedSession::new(
            &e,
            distinct_risks(),
            BinaryDilutionModel::perfect(),
            SbgtConfig::default(),
            4,
        );
        assert_eq!(s.cohort(), None);
        s.set_cohort(42);
        assert_eq!(s.cohort(), Some(42));
        let outcome = s.run_to_classification(&e, |pool| truth.intersects(pool));
        assert!(outcome.classification.is_terminal());
        let snap = e.obs().snapshot();
        let events: Vec<_> = snap.all_events().collect();
        let rec = e.obs();
        // Round and phase spans carry the cohort tag; the engine's own
        // stage spans (the fused rounds) share the same recorder.
        assert!(events
            .iter()
            .any(|ev| ev.kind == SpanKind::Round && ev.meta.cohort == 42));
        assert!(events.iter().any(|ev| ev.kind == SpanKind::Phase
            && ev.meta.cohort == 42
            && rec.name_of(ev.name) == "session:observe"));
        assert!(events
            .iter()
            .any(|ev| ev.kind == SpanKind::Stage && rec.name_of(ev.name).contains("fused-round")));
    }

    #[test]
    fn adaptive_switch_runs_sparse_rounds_on_the_engine() {
        use sbgt_lattice::SparseSwitch;
        let e = engine();
        let truth = State::from_subjects([3, 7]);
        let config = SbgtConfig::default().with_sparse_switch(SparseSwitch {
            max_support_fraction: 0.5,
            prune_epsilon: 1e-9,
        });
        let mut s = ShardedSession::new(
            &e,
            distinct_risks(),
            BinaryDilutionModel::perfect(),
            config,
            4,
        );
        e.metrics().clear();
        let outcome = s.run_to_classification(&e, |pool| truth.intersects(pool));
        assert!(outcome.classification.is_terminal());
        assert_eq!(outcome.classification.positives(), 2);
        assert!(s.is_sparse(), "session never switched to sparse");
        assert!(s.sparse_posterior().unwrap().support() < 1 << 10);
        // Post-switch rounds ran as engine stages, tagged with the sparse
        // variant so `jobs()` shows the representation change.
        let jobs = e.metrics().jobs();
        let sparse_rounds = jobs
            .iter()
            .filter(|j| j.name == "fused-round:sparse")
            .count();
        assert!(sparse_rounds >= 1, "no sparse round ran on the engine");
        assert!(jobs
            .iter()
            .any(|j| matches!(j.variant, StageVariant::Sparse { .. })));
        // The switch itself ran the support-count and collect stages.
        assert!(jobs.iter().any(|j| j.name == "sparse:support"));
        assert!(jobs.iter().any(|j| j.name == "sparse:collect"));
    }

    #[test]
    fn hybrid_sharded_matches_hybrid_dense_session() {
        use sbgt_lattice::SparseSwitch;
        let e = engine();
        let truth = State::from_subjects([1, 8]);
        let switch = SparseSwitch {
            max_support_fraction: 0.5,
            prune_epsilon: 1e-9,
        };
        let model = BinaryDilutionModel::perfect();
        let mut sharded = ShardedSession::new(
            &e,
            distinct_risks(),
            model,
            SbgtConfig::default().with_sparse_switch(switch),
            4,
        );
        let so = sharded.run_to_classification(&e, |pool| truth.intersects(pool));
        let mut dense = crate::SbgtSession::new(
            distinct_risks(),
            model,
            SbgtConfig::default().serial().with_sparse_switch(switch),
        );
        let do_ = dense.run_to_classification(|pool| truth.intersects(pool));
        assert_eq!(
            so.classification.statuses, do_.classification.statuses,
            "hybrid sharded and hybrid dense must classify identically"
        );
        assert!(sharded.is_sparse() && dense.is_sparse());
        for (a, b) in so.marginals.iter().zip(&do_.marginals) {
            assert!(close(*a, *b), "{a} vs {b}");
        }
    }
}
