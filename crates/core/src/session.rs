//! The round driver: one generic [`Session`] over a posterior [`Backend`].
//!
//! The paper's method is one loop over three operation classes —
//! *statistical analysis* (marginals → classify), *test selection* (BHA /
//! look-ahead) and *lattice-model manipulation* (the Bayesian update).
//! [`Session`] is that loop, written once: it owns the configuration, the
//! stage counter, telemetry, the plan-cache handle, the lab call and the
//! stopping rule. A [`Backend`] carries only what differs between
//! posterior representations — how to read marginals, select one stage
//! live, and apply one observation — so dense-hybrid, engine-sharded,
//! pruned-sparse, loopy-BP and particle sessions are five `Backend` impls
//! under the same driver, monomorphised per backend.

use std::sync::Arc;

use sbgt_bayes::{classify_marginals, BayesError, ClassificationRule, CohortClassification};
use sbgt_engine::obs::{SpanKind, SpanMeta, SpanRecorder, TraceLevel, NO_COHORT};
use sbgt_engine::Engine;
use sbgt_lattice::{BigState, State};
use sbgt_select::{PlanHandle, Selection};

use crate::config::SbgtConfig;
use crate::report::SessionOutcome;
use crate::snapshot::{SessionSnapshot, SnapshotError};

/// Result of driving one BHA round (select → lab → observe).
///
/// `run_to_classification` is a loop over single rounds, so a service that
/// steps cohorts one round at a time — to interleave many cohorts fairly
/// on one engine — reproduces the batch loop's trajectory **by
/// construction**.
#[derive(Debug)]
pub enum RoundStep {
    /// The session advanced one stage and is still unclassified.
    Progressed,
    /// The run ended: classified, stage cap hit, no admissible pool, or an
    /// impossible observation.
    Finished(SessionOutcome),
}

impl RoundStep {
    /// The final outcome, if this step ended the run.
    pub fn finished(self) -> Option<SessionOutcome> {
        match self {
            RoundStep::Progressed => None,
            RoundStep::Finished(outcome) => Some(outcome),
        }
    }
}

/// An observation history: every `(pool, outcome)` so far, in order.
pub type History<P> = [(P, bool)];

/// What a lab is handed: a one-word [`State`] mask for the exact backends,
/// a [`BigState`] word array past the 48-subject `State` ceiling.
///
/// The plan cache memoizes selections keyed on one-word observation
/// histories, so replaying and recording a plan is a property of the pool
/// representation: `State` forwards to the [`PlanHandle`]; by default a
/// representation never hits and never records.
pub trait Pool: Clone {
    /// The selections `plan` memoized for exactly this history, if any.
    fn replay(_plan: &PlanHandle, _history: &History<Self>) -> Option<Vec<Selection<Self>>> {
        None
    }

    /// Record the `live` selections computed at `history` in `plan`.
    fn record(_plan: &PlanHandle, _history: &History<Self>, _live: &[Selection<Self>]) {}
}

impl Pool for State {
    fn replay(plan: &PlanHandle, history: &History<State>) -> Option<Vec<Selection>> {
        plan.lookup(history)
    }

    fn record(plan: &PlanHandle, history: &History<State>, live: &[Selection]) {
        plan.extend(history, live);
    }
}

impl Pool for BigState {}

/// What a round borrows from its caller: `()` for self-contained backends,
/// `&Engine` for the sharded one (every traversal is an engine stage), and
/// `Option<&Engine>` for backends that can run their update either on the
/// driver or as a fault-injectable engine stage.
pub trait RoundCtx<'a>: Copy {
    /// The context to use when an engine is at hand (how a service that
    /// owns one engine steps any backend).
    fn on(engine: &'a Engine) -> Self;

    /// The engine's recorder, when the context carries an engine: the
    /// telemetry sink of a session no recorder was attached to.
    fn recorder(self) -> Option<&'a Arc<SpanRecorder>>;
}

impl<'a> RoundCtx<'a> for () {
    fn on(_: &'a Engine) {}

    fn recorder(self) -> Option<&'a Arc<SpanRecorder>> {
        None
    }
}

impl<'a> RoundCtx<'a> for &'a Engine {
    fn on(engine: &'a Engine) -> Self {
        engine
    }

    fn recorder(self) -> Option<&'a Arc<SpanRecorder>> {
        Some(self.obs())
    }
}

impl<'a> RoundCtx<'a> for Option<&'a Engine> {
    fn on(engine: &'a Engine) -> Self {
        Some(engine)
    }

    fn recorder(self) -> Option<&'a Arc<SpanRecorder>> {
        self.map(Engine::obs)
    }
}

/// The telemetry sink of one traced round: the recorder and the cohort id
/// stamped on every span. Exists only while recording is enabled, so an
/// untraced round never reads the clock.
pub struct RoundTrace {
    rec: Arc<SpanRecorder>,
    cohort: u64,
}

impl RoundTrace {
    /// The recorder spans and marks go to.
    pub fn recorder(&self) -> &SpanRecorder {
        &self.rec
    }

    /// Span metadata tagged with this round's cohort.
    pub fn meta(&self) -> SpanMeta {
        SpanMeta::for_cohort(self.cohort)
    }

    fn span(&self, kind: SpanKind, name: &str, start: u64, meta: SpanMeta) {
        let name = self.rec.intern(name);
        self.rec.record_span_ending_now(kind, name, start, meta);
    }
}

/// Start timestamp of a phase span; `None` (no clock read) unless phase
/// tracing is live.
fn phase_start(phases: Option<&RoundTrace>) -> Option<u64> {
    phases.map(|t| t.rec.now_ns())
}

/// Record `name` as a `Phase` span covering `start..now`.
fn phase_end(phases: Option<&RoundTrace>, name: &str, start: Option<u64>) {
    if let (Some(t), Some(start)) = (phases, start) {
        t.span(SpanKind::Phase, name, start, t.meta());
    }
}

/// A posterior representation under the round driver: only what differs
/// between dense, sharded, sparse, BP and particle posteriors. The methods
/// map onto the paper's three operation classes — [`Self::marginals`] is
/// statistical analysis, [`Self::select`] is test selection,
/// [`Self::observe`] is lattice-model manipulation — plus the snapshot
/// boundary. Everything else about a session lives in [`Session`].
pub trait Backend {
    /// The pool representation a lab is handed.
    type Pool: Pool;
    /// What a round borrows from its caller (see [`RoundCtx`]).
    type Ctx<'a>: RoundCtx<'a>;

    /// Cohort size.
    fn n_subjects(&self) -> usize;

    /// Pooled tests observed so far.
    fn tests(&self) -> usize;

    /// Bring cached read-outs up to date at the top of a round, before the
    /// driver reads marginals (BP relaxes here, as an engine stage when the
    /// context carries one). `phases` is the round's sink when phase-level
    /// tracing is live.
    fn refresh(&mut self, _ctx: Self::Ctx<'_>, _phases: Option<&RoundTrace>) {}

    /// Current per-subject posterior marginals.
    fn marginals(&self, config: &SbgtConfig) -> Vec<f64>;

    /// Select one stage's pools live: up to `config.stage_width` pools over
    /// the unclassified subjects in `order` (ascending marginal). Empty
    /// when no admissible pool exists.
    fn select(
        &mut self,
        ctx: Self::Ctx<'_>,
        config: &SbgtConfig,
        marginals: &[f64],
        order: &[usize],
    ) -> Vec<Selection<Self::Pool>>;

    /// Apply one observed pooled test; returns its model evidence. On an
    /// error the observation is not recorded ([`Self::tests`] is
    /// unchanged) and the run ends.
    fn observe(
        &mut self,
        ctx: Self::Ctx<'_>,
        config: &SbgtConfig,
        pool: &Self::Pool,
        outcome: bool,
    ) -> Result<f64, BayesError>;

    /// Runs once after every stage whose observations all landed (the
    /// adaptive dense→sparse switch lives here).
    fn end_stage(&mut self, _ctx: Self::Ctx<'_>, _config: &SbgtConfig) {}

    /// The observation history the plan cache is keyed on, for backends
    /// whose selections are a pure function of it. `None` (the default)
    /// means selections are never memoized and the cache is never touched.
    fn plan_history(&self) -> Option<&History<Self::Pool>> {
        None
    }

    /// Write the posterior into `snapshot`; the driver has already filled
    /// in the cohort size and the stage counter.
    fn snapshot_into(&self, snapshot: &mut SessionSnapshot);
}

/// Unclassified subjects by ascending marginal (ties by index): the
/// candidate ordering every halving search scans.
pub(crate) fn eligible_order(marginals: &[f64], rule: ClassificationRule) -> Vec<usize> {
    order_from(marginals, &classify_marginals(marginals, rule))
}

fn order_from(marginals: &[f64], classification: &CohortClassification) -> Vec<usize> {
    let mut eligible = classification.undetermined();
    eligible.sort_by(|&a, &b| marginals[a].total_cmp(&marginals[b]).then(a.cmp(&b)));
    eligible
}

/// Reject an approximate-backend snapshot in an exact backend's restore.
pub(crate) fn exact_only(snapshot: &SessionSnapshot) -> Result<(), SnapshotError> {
    match snapshot.approx {
        Some(_) => Err(SnapshotError::Corrupt(
            "approx snapshot cannot restore an exact session".into(),
        )),
        None => Ok(()),
    }
}

/// A live Bayesian group-testing session over one cohort: the round loop,
/// generic over the posterior [`Backend`].
///
/// The concrete sessions are aliases of this type — `SbgtSession`,
/// `ShardedSession`, `SparseSession` here, the BP and particle sessions in
/// `sbgt-approx` — each adding its constructor and the entry points whose
/// signatures depend on the backend's pool and context types.
pub struct Session<B> {
    backend: B,
    config: SbgtConfig,
    stages: usize,
    /// Telemetry sink. `None` (the default) falls back to the round
    /// context's recorder, if it has one.
    obs: Option<Arc<SpanRecorder>>,
    /// Cohort id stamped on every span; `None` tags [`NO_COHORT`].
    cohort: Option<u64>,
    /// Memoized selection plan. `None` (the default) selects live every
    /// round; [`Self::attach_plan`] opts in.
    plan: Option<PlanHandle>,
}

impl<B: Backend> Session<B> {
    /// Open a session over a freshly built backend.
    pub fn open(backend: B, config: SbgtConfig) -> Self {
        Session {
            backend,
            config,
            stages: 0,
            obs: None,
            cohort: None,
            plan: None,
        }
    }

    /// The shared half of every restore: validate the snapshot, let
    /// `backend` rebuild the posterior from it, and resume the stage
    /// counter. The model and config are the cohort's static spec, supplied
    /// by the caller; posterior state is restored exactly, so selections
    /// and classifications continue bit-for-bit.
    pub fn resume(
        snapshot: &SessionSnapshot,
        config: SbgtConfig,
        backend: impl FnOnce(&SessionSnapshot) -> Result<B, SnapshotError>,
    ) -> Result<Self, SnapshotError> {
        snapshot.validate()?;
        let mut session = Session::open(backend(snapshot)?, config);
        session.stages = snapshot.stages;
        Ok(session)
    }

    /// The posterior backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Attach a telemetry recorder; every subsequent round emits
    /// `session:*` spans tagged with `cohort`. Sessions driven by an
    /// engine-backed service share the engine's recorder so all lanes land
    /// in one trace.
    pub fn attach_obs(&mut self, recorder: Arc<SpanRecorder>, cohort: u64) {
        self.obs = Some(recorder);
        self.cohort = Some(cohort);
    }

    /// Whether a telemetry recorder is attached (used for lazy attach).
    pub fn has_obs(&self) -> bool {
        self.obs.is_some()
    }

    /// Tag this session's spans with a cohort id without attaching a
    /// recorder (the sink is then the round context's engine recorder).
    pub fn set_cohort(&mut self, cohort: u64) {
        self.cohort = Some(cohort);
    }

    /// The cohort id stamped on telemetry spans, if one was set.
    pub fn cohort(&self) -> Option<u64> {
        self.cohort
    }

    /// Attach a memoized selection plan (see `sbgt_select::plancache`).
    /// Rounds whose observation history the plan covers replay the cached
    /// pool selections with zero search work; rounds that fall off the
    /// tree select live and extend it in place. The caller is responsible
    /// for the key discipline: the handle's [`sbgt_select::PlanKey`] must
    /// have been built from this session's exact prior risks, model,
    /// classification rule, stage width, pool cap, and execution lineage
    /// (dense, `Sharded { parts }`, `Sparse { epsilon }` — their summation
    /// orders differ in the last ulp) — then cached and live selections
    /// are bit-for-bit identical. A backend without a
    /// [`Backend::plan_history`] ignores the plan.
    pub fn attach_plan(&mut self, plan: PlanHandle) {
        self.plan = Some(plan);
    }

    /// Whether a selection plan is attached.
    pub fn has_plan(&self) -> bool {
        self.plan.is_some()
    }

    /// Whether this session's selections can be memoized at all.
    pub fn memoizes(&self) -> bool {
        self.backend.plan_history().is_some()
    }

    /// Cohort size.
    pub fn n_subjects(&self) -> usize {
        self.backend.n_subjects()
    }

    /// The session configuration.
    pub fn config(&self) -> &SbgtConfig {
        &self.config
    }

    /// Completed stages (lab rounds). A look-ahead stage banks several
    /// observations under one count.
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// Pooled tests observed so far.
    pub fn tests(&self) -> usize {
        self.backend.tests()
    }

    /// Current posterior marginals.
    pub fn marginals(&self) -> Vec<f64> {
        self.backend.marginals(&self.config)
    }

    /// Classification under the configured rule.
    pub fn classify(&self) -> CohortClassification {
        classify_marginals(&self.marginals(), self.config.rule)
    }

    /// Unclassified subjects ordered by ascending marginal — the candidate
    /// ordering for the halving search.
    pub fn eligible_order(&self) -> Vec<usize> {
        eligible_order(&self.marginals(), self.config.rule)
    }

    /// Ingest one observed pooled test as a stage of its own. Returns the
    /// model evidence of the observation.
    pub fn observe_in(
        &mut self,
        ctx: B::Ctx<'_>,
        pool: &B::Pool,
        outcome: bool,
    ) -> Result<f64, BayesError> {
        self.observe_stage_in(ctx, [(pool, outcome)])
    }

    /// Ingest the observed outcomes of one stage (the pools ran
    /// concurrently on the bench; posterior updates are sequential
    /// multiplies, so order does not matter). Returns the joint evidence.
    ///
    /// **Stage accounting, for every backend:** the stage counts iff at
    /// least one of its observations landed. On an impossible observation
    /// the error is returned after the preceding observations of the stage
    /// have been applied and counted — a wet lab cannot un-run tests — and
    /// a stage whose first pool fails (or an empty stage) counts nothing.
    pub fn observe_stage_in<'p>(
        &mut self,
        ctx: B::Ctx<'_>,
        observations: impl IntoIterator<Item = (&'p B::Pool, bool)>,
    ) -> Result<f64, BayesError>
    where
        B::Pool: 'p,
    {
        let mut joint = 1.0f64;
        let mut landed = false;
        for (pool, outcome) in observations {
            match self.backend.observe(ctx, &self.config, pool, outcome) {
                Ok(z) => joint *= z,
                Err(e) => {
                    self.stages += usize::from(landed);
                    return Err(e);
                }
            }
            landed = true;
        }
        if landed {
            self.stages += 1;
            self.backend.end_stage(ctx, &self.config);
        }
        Ok(joint)
    }

    /// Drive the session to classification against a lab oracle: `lab` is
    /// called with each selected pool and must return the assay outcome.
    /// Stops when the cohort is classified, the stage cap is reached, or an
    /// observation is impossible under the model. The number of pools per
    /// stage comes from [`SbgtConfig::stage_width`].
    pub fn run(
        &mut self,
        ctx: B::Ctx<'_>,
        mut lab: impl FnMut(&B::Pool) -> bool,
    ) -> SessionOutcome {
        loop {
            if let RoundStep::Finished(outcome) = self.round(ctx, &mut lab) {
                return outcome;
            }
        }
    }

    /// Drive exactly one round: classify, select the stage's pools, run
    /// them through `lab`, and ingest the outcomes. The unit a multi-cohort
    /// service schedules — [`Self::run`] is a loop over this, so
    /// round-stepped and batch trajectories are identical.
    ///
    /// With tracing off this costs one atomic load (none when no recorder
    /// is in reach) and never reads the clock. With it on, every backend
    /// gets a `session:round` span — flagged failed when the run ended
    /// unclassified — and, at [`TraceLevel::Full`], the
    /// `session:marginals|select|observe` phase spans.
    pub fn round(&mut self, ctx: B::Ctx<'_>, mut lab: impl FnMut(&B::Pool) -> bool) -> RoundStep {
        let trace = match self.obs.as_ref().or_else(|| ctx.recorder()) {
            Some(rec) if rec.enabled_at(TraceLevel::Spans) => RoundTrace {
                rec: Arc::clone(rec),
                cohort: self.cohort.unwrap_or(NO_COHORT),
            },
            _ => return self.round_inner(ctx, &mut lab, None),
        };
        let start = trace.rec.now_ns();
        let phases = trace.rec.enabled_at(TraceLevel::Full).then_some(&trace);
        let step = self.round_inner(ctx, &mut lab, phases);
        let mut meta = trace.meta();
        meta.failed = matches!(&step, RoundStep::Finished(o) if !o.classification.is_terminal());
        trace.span(SpanKind::Round, "session:round", start, meta);
        step
    }

    fn round_inner(
        &mut self,
        ctx: B::Ctx<'_>,
        lab: &mut impl FnMut(&B::Pool) -> bool,
        phases: Option<&RoundTrace>,
    ) -> RoundStep {
        // Statistical analysis: one marginals pass feeds classification,
        // the candidate ordering, and selection for the whole round.
        let t = phase_start(phases);
        self.backend.refresh(ctx, phases);
        let marginals = self.marginals();
        let classification = classify_marginals(&marginals, self.config.rule);
        phase_end(phases, "session:marginals", t);
        if classification.is_terminal() || self.stages >= self.config.max_stages {
            return RoundStep::Finished(self.outcome(classification, marginals));
        }
        // Test selection: a plan hit replays the memoized selections for
        // this exact observation history; a miss selects live and extends
        // the tree.
        let t = phase_start(phases);
        let cached = self
            .planned()
            .and_then(|(plan, history)| B::Pool::replay(plan, history));
        let selections = match cached {
            Some(cached) => cached,
            None => {
                let order = order_from(&marginals, &classification);
                let live = self.backend.select(ctx, &self.config, &marginals, &order);
                if let Some((plan, history)) = self.planned() {
                    B::Pool::record(plan, history, &live);
                }
                live
            }
        };
        phase_end(phases, "session:select", t);
        if selections.is_empty() {
            return RoundStep::Finished(self.outcome(classification, marginals));
        }
        // The lab, then lattice-model manipulation.
        let t = phase_start(phases);
        let observations: Vec<(B::Pool, bool)> = selections
            .into_iter()
            .map(|s| {
                let outcome = lab(&s.pool);
                (s.pool, outcome)
            })
            .collect();
        let observed = self.observe_stage_in(ctx, observations.iter().map(|(p, o)| (p, *o)));
        phase_end(phases, "session:observe", t);
        if observed.is_err() {
            let marginals = self.marginals();
            let classification = classify_marginals(&marginals, self.config.rule);
            return RoundStep::Finished(self.outcome(classification, marginals));
        }
        RoundStep::Progressed
    }

    /// The attached plan and the history it is keyed on, when this session
    /// memoizes selections.
    fn planned(&self) -> Option<(&PlanHandle, &History<B::Pool>)> {
        self.plan.as_ref().zip(self.backend.plan_history())
    }

    fn outcome(&self, classification: CohortClassification, marginals: Vec<f64>) -> SessionOutcome {
        SessionOutcome {
            tests: self.backend.tests(),
            stages: self.stages,
            subjects: self.n_subjects(),
            classification,
            marginals,
        }
    }

    /// Capture the full session state for checkpoint/restore: the shared
    /// half (cohort size, stage counter) here, the posterior from the
    /// backend. The backend's `restore` reproduces the session bit-for-bit.
    pub fn snapshot(&self) -> SessionSnapshot {
        let mut snapshot = SessionSnapshot {
            n_subjects: self.n_subjects(),
            shards: Vec::new(),
            total: 1.0,
            history: Vec::new(),
            stages: self.stages,
            marginals: Vec::new(),
            pending_selection: None,
            sparse: None,
            approx: None,
        };
        self.backend.snapshot_into(&mut snapshot);
        snapshot
    }
}
