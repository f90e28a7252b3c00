//! Cohort actors: one Bayesian session per batch of specimens, driven
//! round-by-round so a scheduler can interleave many cohorts fairly on one
//! shared engine.
//!
//! Determinism is the backbone of the service's correctness story: the
//! virtual lab outcome is a pure function of `(cohort seed, test index,
//! pool, ground truth, model)`, and each session round is a pure function
//! of session state. A cohort therefore classifies **bit-for-bit**
//! identically whether it runs serially, interleaved with 63 other cohorts,
//! after a checkpoint/restore cycle, or replayed from a pre-round snapshot
//! when a chaos fault kills the round.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

use std::sync::Arc;

use sbgt::{
    Backend, PlanCache, PlanHandle, PlanKey, PlanLineage, RiskQuantizer, RoundCtx, RoundStep,
    SbgtConfig, SbgtSession, Session, SessionOutcome, SessionSnapshot, ShardedSession,
    SnapshotError,
};
use sbgt_approx::{BpBackend, BpConfig, ParticleBackend, ParticleConfig};
use sbgt_bayes::Prior;
use sbgt_engine::obs::{SpanMeta, TraceLevel};
use sbgt_engine::Engine;
use sbgt_lattice::{BigState, State};
use sbgt_response::{BinaryDilutionModel, BinaryOutcomeModel};

use crate::checkpoint::CohortKind;
use crate::config::{ApproxBackend, SessionPolicy};

/// One submitted specimen: its prior risk and (for the virtual lab) its
/// ground-truth infection status.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Specimen {
    /// Prior infection risk used to build the cohort prior.
    pub risk: f64,
    /// Ground truth consumed only by the deterministic virtual lab.
    pub infected: bool,
}

/// Static identity of a cohort: everything needed to (re)build its session
/// and replay its lab outcomes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CohortSpec {
    /// Service-assigned cohort id (batch sequence number).
    pub id: u64,
    /// Per-cohort seed derived from the service base seed and the id.
    pub seed: u64,
    /// Lab tenant the cohort belongs to (QoS lane). Scheduling metadata
    /// only: the tenant never enters the seed or any session arithmetic,
    /// so re-tagging a cohort cannot change its report.
    pub tenant: u32,
    /// Prior risk per subject, in submission order.
    pub risks: Vec<f64>,
    /// Ground-truth infected set (subject indices within the cohort).
    /// A [`BigState`] so approximate cohorts can exceed the exact
    /// backends' one-word subject ceiling.
    pub truth: BigState,
}

impl CohortSpec {
    /// Build the spec for batch `id` from its specimens, in arrival order,
    /// for the default tenant 0.
    pub fn from_specimens(id: u64, base_seed: u64, specimens: &[Specimen]) -> Self {
        let seed = base_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(id);
        let risks = specimens.iter().map(|s| s.risk).collect();
        let truth = BigState::from_subjects(
            specimens
                .iter()
                .enumerate()
                .filter(|(_, s)| s.infected)
                .map(|(i, _)| i),
        );
        CohortSpec {
            id,
            seed,
            tenant: 0,
            risks,
            truth,
        }
    }

    /// Tag the cohort with a tenant id (builder-style; scheduling only).
    pub fn with_tenant(mut self, tenant: u32) -> Self {
        self.tenant = tenant;
        self
    }

    /// Cohort size.
    pub fn n_subjects(&self) -> usize {
        self.risks.len()
    }
}

/// Deterministic virtual lab: the outcome of test number `test_index` on
/// `pool` is a pure function of the cohort seed and the query — no shared
/// RNG stream — so replaying a round after a rollback, or resuming from a
/// checkpoint, reproduces the exact same assay results.
pub fn lab_outcome(
    spec: &CohortSpec,
    test_index: usize,
    pool: State,
    model: &BinaryDilutionModel,
) -> bool {
    lab_draw(
        spec,
        test_index,
        spec.truth.positives_in(&BigState::from_state(pool)),
        pool.rank(),
        model,
    )
}

/// [`lab_outcome`] for pools beyond the one-word ceiling (approximate
/// cohorts). One-word pools produce bit-identical outcomes through either
/// entry point: both reduce the query to `(positives, rank)` before the
/// draw.
pub fn lab_outcome_big(
    spec: &CohortSpec,
    test_index: usize,
    pool: &BigState,
    model: &BinaryDilutionModel,
) -> bool {
    lab_draw(
        spec,
        test_index,
        spec.truth.positives_in(pool),
        pool.rank(),
        model,
    )
}

fn lab_draw(
    spec: &CohortSpec,
    test_index: usize,
    positives: u32,
    rank: u32,
    model: &BinaryDilutionModel,
) -> bool {
    let mut rng = StdRng::seed_from_u64(
        spec.seed ^ (test_index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    let u: f64 = rng.random();
    u < model.positive_prob(positives, rank)
}

/// Chunk specimens into cohorts in arrival order — the same rule the
/// service batcher applies when every specimen is already queued (no
/// deadline fires), so a serial reference run can reconstruct the exact
/// cohorts a service run forms.
pub fn batch_specimens(
    specimens: &[Specimen],
    batch_size: usize,
    base_seed: u64,
) -> Vec<CohortSpec> {
    specimens
        .chunks(batch_size.max(1))
        .enumerate()
        .map(|(id, chunk)| CohortSpec::from_specimens(id as u64, base_seed, chunk))
        .collect()
}

/// The particle tuning a policy implies for one cohort: the cloud size
/// from the policy, the stream seed from the cohort's own seed — so the
/// sampled posterior is a deterministic function of `(spec, policy)` and
/// two cohorts never share a sample path.
fn particle_config(policy: &SessionPolicy, spec: &CohortSpec) -> ParticleConfig {
    ParticleConfig {
        particles: policy.approx_particles,
        seed: spec.seed,
        ..ParticleConfig::default()
    }
}

/// A pool the deterministic virtual lab can be asked about.
trait LabPool {
    fn outcome(&self, spec: &CohortSpec, test_index: usize, model: &BinaryDilutionModel) -> bool;
}

impl LabPool for State {
    fn outcome(&self, spec: &CohortSpec, test_index: usize, model: &BinaryDilutionModel) -> bool {
        lab_outcome(spec, test_index, *self, model)
    }
}

impl LabPool for BigState {
    fn outcome(&self, spec: &CohortSpec, test_index: usize, model: &BinaryDilutionModel) -> bool {
        lab_outcome_big(spec, test_index, self, model)
    }
}

/// What the actor needs of its session, whichever backend runs under the
/// round driver. This is the actor's one dynamic boundary: a round is one
/// virtual call, and everything behind it — the driver, the backend, the
/// lab closure — is monomorphised per backend.
trait CohortSession: Send {
    /// One round against the virtual lab, on the engine where the backend
    /// can use one (sharded stages, the sparse update and the BP relaxation
    /// as fault-injectable stages; the particle update runs on the driver
    /// and never calls the engine, so engine faults cannot reach it).
    fn round(
        &mut self,
        engine: &Engine,
        spec: &CohortSpec,
        model: &BinaryDilutionModel,
    ) -> RoundStep;
    fn snapshot(&self) -> SessionSnapshot;
    fn memoizes(&self) -> bool;
    fn attach_plan(&mut self, plan: PlanHandle);
}

impl<B> CohortSession for Session<B>
where
    B: Backend + Send,
    B::Pool: LabPool,
{
    fn round(
        &mut self,
        engine: &Engine,
        spec: &CohortSpec,
        model: &BinaryDilutionModel,
    ) -> RoundStep {
        // Wire telemetry to the engine's recorder, tagged with the cohort
        // id. Lazy (per round, not at construction) because restore paths
        // build sessions without an engine in reach; a no-op when tracing
        // is off or already attached.
        if !self.has_obs() && engine.obs().enabled_at(TraceLevel::Spans) {
            self.attach_obs(Arc::clone(engine.obs()), spec.id);
        }
        // The test cursor is the session's own count, so a restored or
        // rolled-back session resumes the lab's outcome stream exactly.
        let mut test_index = self.tests();
        Session::round(self, RoundCtx::on(engine), |pool| {
            let outcome = pool.outcome(spec, test_index, model);
            test_index += 1;
            outcome
        })
    }

    fn snapshot(&self) -> SessionSnapshot {
        Session::snapshot(self)
    }

    fn memoizes(&self) -> bool {
        Session::memoizes(self)
    }

    fn attach_plan(&mut self, plan: PlanHandle) {
        Session::attach_plan(self, plan)
    }
}

/// Where a session comes from: opened fresh on an engine, or rehydrated
/// from a snapshot.
#[derive(Clone, Copy)]
enum Source<'a> {
    Fresh(&'a Engine),
    Snapshot(&'a SessionSnapshot),
}

/// The placement rule: approximate (BP or particle) at or above the approx
/// threshold — the only kinds with no `2^N` footprint, checked first so no
/// exact structure is ever built for those cohorts — dense in-memory below
/// the dense threshold, pruned-sparse at or above the sparse threshold when
/// the policy's epsilon is positive, engine-sharded otherwise.
fn place(policy: &SessionPolicy, n: usize) -> CohortKind {
    if policy.approx_threshold > 0 && n >= policy.approx_threshold {
        match policy.approx_backend {
            ApproxBackend::Bp => CohortKind::Bp,
            ApproxBackend::Particle => CohortKind::Particle,
        }
    } else if n < policy.dense_threshold {
        CohortKind::Dense
    } else if policy.sparse_epsilon > 0.0 && n >= policy.sparse_threshold {
        CohortKind::Sparse
    } else {
        CohortKind::Sharded
    }
}

/// The one place the five backends are named: the session of `kind` over
/// this cohort — opened or restored per `source` — with the lineage tag its
/// selections are memoized under (the backend's summation order).
///
/// The sharded restore rebuilds the exact partition boundaries recorded in
/// the snapshot, so it needs no engine; the sparse restore takes its prune
/// epsilon, and the approximate ones their (quantized) risks, from the
/// static spec — none of that is part of a snapshot.
fn build_session(
    kind: CohortKind,
    source: Source<'_>,
    spec: &CohortSpec,
    model: BinaryDilutionModel,
    cfg: SbgtConfig,
    policy: &SessionPolicy,
) -> Result<(Box<dyn CohortSession>, PlanLineage), SnapshotError> {
    // Quantization runs before the prior is built, so the session's
    // arithmetic — and the plan key derived from the same risks — agree on
    // the exact prior bits. Identity when buckets == 0.
    let risks = RiskQuantizer::new(policy.plan_risk_buckets).snap_all(&spec.risks);
    let prior = || Prior::from_risks(&risks);
    let validated = "risks and config validated by ServiceConfig";
    Ok(match kind {
        CohortKind::Dense => {
            let session = match source {
                Source::Fresh(_) => SbgtSession::new(prior(), model, cfg),
                Source::Snapshot(snapshot) => SbgtSession::restore(snapshot, model, cfg)?,
            };
            (Box::new(session), PlanLineage::Dense)
        }
        CohortKind::Sharded => {
            let session = match source {
                Source::Fresh(engine) => {
                    ShardedSession::new(engine, prior(), model, cfg, policy.parts)
                }
                Source::Snapshot(snapshot) => ShardedSession::restore(snapshot, model, cfg)?,
            };
            let parts = policy.parts as u32;
            (Box::new(session), PlanLineage::Sharded { parts })
        }
        CohortKind::Sparse => {
            let epsilon = policy.sparse_epsilon;
            let session = match source {
                Source::Fresh(_) => {
                    SbgtSession::new_sparse(prior(), model, cfg, epsilon).expect(validated)
                }
                Source::Snapshot(snapshot) => {
                    SbgtSession::restore_sparse(snapshot, model, cfg, epsilon)?
                }
            };
            let epsilon_bits = epsilon.to_bits();
            (Box::new(session), PlanLineage::Sparse { epsilon_bits })
        }
        CohortKind::Bp => {
            let bp = BpConfig::default();
            let session = match source {
                Source::Fresh(_) => BpBackend::open(&risks, model, cfg, bp).expect(validated),
                Source::Snapshot(snapshot) => BpBackend::restore(snapshot, &risks, model, cfg, bp)?,
            };
            let lineage = PlanLineage::Bp {
                max_iters: bp.max_iters,
                damping_bits: bp.damping.to_bits(),
            };
            (Box::new(session), lineage)
        }
        CohortKind::Particle => {
            let pcfg = particle_config(policy, spec);
            let session = match source {
                Source::Fresh(_) => {
                    ParticleBackend::open(&risks, model, cfg, pcfg).expect(validated)
                }
                Source::Snapshot(snapshot) => {
                    ParticleBackend::restore(snapshot, &risks, model, cfg, pcfg)?
                }
            };
            let lineage = PlanLineage::Particle {
                particles: pcfg.particles as u32,
                ess_bits: pcfg.ess_frac.to_bits(),
            };
            (Box::new(session), lineage)
        }
    })
}

/// Outcome of one recovering round.
pub(crate) struct RoundRun {
    pub step: RoundStep,
    /// Rollback-and-replay cycles this round consumed.
    pub recovered: u64,
}

/// A live cohort: spec + session, advanced one round at a time by the
/// service workers.
pub struct CohortActor {
    spec: CohortSpec,
    model: BinaryDilutionModel,
    session_config: SbgtConfig,
    policy: SessionPolicy,
    kind: CohortKind,
    session: Box<dyn CohortSession>,
    lineage: PlanLineage,
    recoveries: u64,
    /// The shared plan cache, kept so rollback-and-replay recovery can
    /// re-attach the plan to the rebuilt session.
    plan_cache: Option<Arc<PlanCache>>,
}

impl CohortActor {
    /// Open a cohort on the session kind the placement policy picks for
    /// its size (see [`SessionPolicy`]).
    pub fn new(
        engine: &Engine,
        spec: CohortSpec,
        model: BinaryDilutionModel,
        session_config: SbgtConfig,
        policy: SessionPolicy,
    ) -> Self {
        let kind = place(&policy, spec.n_subjects());
        Self::assemble(
            kind,
            Source::Fresh(engine),
            spec,
            model,
            session_config,
            policy,
        )
        .expect("opening a session reads no snapshot")
    }

    fn assemble(
        kind: CohortKind,
        source: Source<'_>,
        spec: CohortSpec,
        model: BinaryDilutionModel,
        session_config: SbgtConfig,
        policy: SessionPolicy,
    ) -> Result<Self, SnapshotError> {
        let (session, lineage) =
            build_session(kind, source, &spec, model, session_config, &policy)?;
        Ok(CohortActor {
            spec,
            model,
            session_config,
            policy,
            kind,
            session,
            lineage,
            recoveries: 0,
            plan_cache: None,
        })
    }

    /// Open a cohort with the same rollback-and-replay recovery as a
    /// round: the initial posterior scatter runs engine stages, so a chaos
    /// fault can kill creation too. Creation is a pure function of the
    /// spec, so a replay just rebuilds from scratch — under a fresh stage
    /// sequence, hence a fresh fault schedule.
    pub(crate) fn new_recovering(
        engine: &Engine,
        spec: CohortSpec,
        model: BinaryDilutionModel,
        session_config: SbgtConfig,
        policy: SessionPolicy,
        max_recoveries: u64,
    ) -> Self {
        let mut recovered = 0;
        loop {
            let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                CohortActor::new(engine, spec.clone(), model, session_config, policy)
            }));
            match attempt {
                Ok(mut actor) => {
                    actor.recoveries = recovered;
                    return actor;
                }
                Err(payload) => {
                    if recovered >= max_recoveries || engine.fault_plan().is_none() {
                        std::panic::resume_unwind(payload);
                    }
                    recovered += 1;
                }
            }
        }
    }

    /// The cohort's static identity.
    pub fn spec(&self) -> &CohortSpec {
        &self.spec
    }

    /// The session kind the cohort is running.
    pub fn kind(&self) -> CohortKind {
        self.kind
    }

    /// Total rollback-and-replay cycles over the cohort's lifetime.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Attach the process-wide plan cache: derive this cohort's [`PlanKey`]
    /// — the quantized risks the session actually runs on, the exact model
    /// and rule bits, and the session kind's lineage tag — and hand the
    /// session its memoized decision tree. Cohorts sharing a key replay
    /// each other's selections; a cohort without a cache selects live every
    /// round.
    ///
    /// A session that does not memoize (the approximate backends select
    /// from live marginals, not a decision tree) never touches the cache:
    /// no key is derived, no tree is created, no lock is taken.
    pub fn attach_plan_cache(&mut self, cache: &Arc<PlanCache>) {
        if !self.session.memoizes() {
            return;
        }
        self.plan_cache = Some(Arc::clone(cache));
        let risks = RiskQuantizer::new(self.policy.plan_risk_buckets).snap_all(&self.spec.risks);
        let cfg = &self.session_config;
        let key = PlanKey::new(
            &risks,
            &self.model,
            &cfg.rule,
            cfg.stage_width,
            cfg.max_pool_size,
            cfg.sparse_switch
                .map(|s| (s.max_support_fraction, s.prune_epsilon)),
            self.lineage,
        );
        self.session.attach_plan(cache.handle(key));
    }

    /// Advance the session by exactly one round against the deterministic
    /// virtual lab.
    pub fn run_round(&mut self, engine: &Engine) -> RoundStep {
        self.session.round(engine, &self.spec, &self.model)
    }

    /// Advance one round with rollback-and-replay recovery — the system's
    /// one recovery mechanism: when an engine stage fails mid-round (a
    /// chaos fault), the session state is rolled back to the pre-round
    /// snapshot and the round replayed — the engine's stage sequence has
    /// moved on, so the replay draws a fresh fault schedule. After
    /// `max_recoveries` rollbacks the original failure is re-raised.
    ///
    /// Snapshots are only taken while a fault plan is installed; a
    /// fault-free service pays nothing for this path.
    pub(crate) fn run_round_recovering(
        &mut self,
        engine: &Engine,
        max_recoveries: u64,
    ) -> RoundRun {
        if engine.fault_plan().is_none() {
            return RoundRun {
                step: self.run_round(engine),
                recovered: 0,
            };
        }
        let mut recovered = 0;
        loop {
            let snapshot = self.snapshot_session();
            let attempt =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.run_round(engine)));
            match attempt {
                Ok(step) => return RoundRun { step, recovered },
                Err(payload) => {
                    if recovered >= max_recoveries {
                        std::panic::resume_unwind(payload);
                    }
                    recovered += 1;
                    self.recoveries += 1;
                    self.restore_session(&snapshot);
                    let rec = engine.obs();
                    if rec.enabled_at(TraceLevel::Spans) {
                        rec.mark(
                            rec.intern("service:recovery"),
                            SpanMeta::for_cohort(self.spec.id),
                        );
                    }
                }
            }
        }
    }

    /// Snapshot the underlying session state.
    pub fn snapshot_session(&self) -> SessionSnapshot {
        self.session.snapshot()
    }

    fn restore_session(&mut self, snapshot: &SessionSnapshot) {
        let (session, _) = build_session(
            self.kind,
            Source::Snapshot(snapshot),
            &self.spec,
            self.model,
            self.session_config,
            &self.policy,
        )
        .expect("own snapshot restores");
        self.session = session;
        // The rebuilt session lost its plan handle; re-derive it so
        // recovered cohorts keep replaying (and extending) the tree.
        if let Some(cache) = self.plan_cache.clone() {
            self.attach_plan_cache(&cache);
        }
    }

    /// Freeze the cohort into a checkpoint (eviction / suspend format).
    pub fn checkpoint(&self) -> crate::checkpoint::CohortCheckpoint {
        crate::checkpoint::CohortCheckpoint {
            spec: self.spec.clone(),
            kind: self.kind,
            recoveries: self.recoveries,
            snapshot: self.snapshot_session(),
        }
    }

    /// Rehydrate a cohort from a checkpoint, to the **recorded** kind (not
    /// the policy rule), so the arithmetic path stays identical across the
    /// freeze.
    pub fn restore(
        checkpoint: &crate::checkpoint::CohortCheckpoint,
        model: BinaryDilutionModel,
        session_config: SbgtConfig,
        policy: SessionPolicy,
    ) -> Result<Self, SnapshotError> {
        let mut actor = Self::assemble(
            checkpoint.kind,
            Source::Snapshot(&checkpoint.snapshot),
            checkpoint.spec.clone(),
            model,
            session_config,
            policy,
        )?;
        actor.recoveries = checkpoint.recoveries;
        Ok(actor)
    }
}

/// Run one cohort to classification, serially, with the same deterministic
/// lab the service uses — the ground-truth reference every service run is
/// compared against.
pub fn run_cohort_serial(
    engine: &Engine,
    spec: &CohortSpec,
    model: BinaryDilutionModel,
    session_config: SbgtConfig,
    policy: SessionPolicy,
) -> SessionOutcome {
    let mut actor = CohortActor::new(engine, spec.clone(), model, session_config, policy);
    loop {
        if let RoundStep::Finished(outcome) = actor.run_round(engine) {
            return outcome;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbgt_engine::EngineConfig;

    fn engine() -> Engine {
        Engine::new(EngineConfig::default().with_threads(2))
    }

    fn specimens(n: usize, seed: u64) -> Vec<Specimen> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let risk = 0.02 + rng.random::<f64>() * 0.1;
                Specimen {
                    risk,
                    infected: rng.random_bool(risk),
                }
            })
            .collect()
    }

    #[test]
    fn lab_is_a_pure_function() {
        let spec = CohortSpec {
            id: 3,
            seed: 42,
            tenant: 0,
            risks: vec![0.05; 8],
            truth: BigState::from_subjects([0]),
        };
        let model = BinaryDilutionModel::pcr_like();
        // One positive diluted across the full cohort: the positive
        // probability is strictly between 0 and 1, so outcomes vary with
        // the test index while staying a pure function of it.
        let pool = State::from_subjects(0..8);
        assert_eq!(
            lab_outcome(&spec, 4, pool, &model),
            lab_outcome(&spec, 4, pool, &model)
        );
        let hits = (0..400)
            .filter(|&i| lab_outcome(&spec, i, pool, &model))
            .count();
        assert!(
            hits > 0 && hits < 400,
            "diluted assay must produce both outcomes ({hits}/400 positive)"
        );
        let p = model.positive_prob(1, 8);
        let freq = hits as f64 / 400.0;
        assert!(
            (freq - p).abs() < 0.1,
            "empirical rate {freq} should track model probability {p}"
        );
    }

    #[test]
    fn batching_is_deterministic_and_ordered() {
        let sp = specimens(23, 9);
        let batches = batch_specimens(&sp, 10, 7);
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].n_subjects(), 10);
        assert_eq!(batches[2].n_subjects(), 3, "final partial batch flushes");
        assert_eq!(batches[1].id, 1);
        assert_ne!(batches[0].seed, batches[1].seed);
        assert_eq!(batches, batch_specimens(&sp, 10, 7));
    }

    fn policy(dense_threshold: usize, parts: usize) -> SessionPolicy {
        SessionPolicy {
            dense_threshold,
            parts,
            sparse_epsilon: 0.0,
            sparse_threshold: 0,
            approx_threshold: 0,
            approx_backend: ApproxBackend::Bp,
            approx_particles: 512,
            plan_risk_buckets: 0,
        }
    }

    #[test]
    fn policy_picks_the_session_kind() {
        let e = engine();
        let spec = CohortSpec::from_specimens(0, 5, &specimens(8, 3));
        let model = BinaryDilutionModel::perfect();
        let cfg = SbgtConfig::default();
        let dense_actor = CohortActor::new(&e, spec.clone(), model, cfg, policy(100, 3));
        let sharded_actor = CohortActor::new(&e, spec.clone(), model, cfg, policy(0, 3));
        let sparse_policy = SessionPolicy {
            sparse_epsilon: 1e-9,
            ..policy(0, 3)
        };
        let sparse_actor = CohortActor::new(&e, spec.clone(), model, cfg, sparse_policy);
        assert_eq!(dense_actor.kind(), CohortKind::Dense);
        assert_eq!(sharded_actor.kind(), CohortKind::Sharded);
        assert_eq!(sparse_actor.kind(), CohortKind::Sparse);
        // Below the sparse size floor the cohort stays sharded even with a
        // positive epsilon.
        let undersized = SessionPolicy {
            sparse_threshold: spec.n_subjects() + 1,
            ..sparse_policy
        };
        assert_eq!(
            CohortActor::new(&e, spec.clone(), model, cfg, undersized).kind(),
            CohortKind::Sharded
        );
        // With a perfect assay every kind must recover the exact ground
        // truth, even though their float trajectories may differ in the
        // last ulp (dense renormalizes each round; sharded does not).
        for (label, p) in [
            ("dense", policy(100, 3)),
            ("sharded", policy(0, 3)),
            ("sparse", sparse_policy),
        ] {
            let outcome = run_cohort_serial(&e, &spec, model, cfg, p);
            assert!(outcome.classification.is_terminal());
            let positives = BigState::from_subjects(
                outcome
                    .classification
                    .statuses
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| **s == sbgt_bayes::SubjectStatus::Positive)
                    .map(|(i, _)| i),
            );
            assert_eq!(positives, spec.truth, "{label}");
        }
    }

    #[test]
    fn approx_placement_takes_precedence() {
        let e = engine();
        let spec = CohortSpec::from_specimens(0, 5, &specimens(8, 3));
        let model = BinaryDilutionModel::perfect();
        let cfg = SbgtConfig::default();
        // The approx threshold wins over dense/sparse/sharded rules.
        let bp_policy = SessionPolicy {
            approx_threshold: 4,
            sparse_epsilon: 1e-9,
            ..policy(100, 3)
        };
        assert_eq!(
            CohortActor::new(&e, spec.clone(), model, cfg, bp_policy).kind(),
            CohortKind::Bp
        );
        let particle_policy = SessionPolicy {
            approx_backend: ApproxBackend::Particle,
            ..bp_policy
        };
        assert_eq!(
            CohortActor::new(&e, spec.clone(), model, cfg, particle_policy).kind(),
            CohortKind::Particle
        );
        // Below the threshold the exact rules apply untouched.
        let undersized = SessionPolicy {
            approx_threshold: spec.n_subjects() + 1,
            ..policy(100, 3)
        };
        assert_eq!(
            CohortActor::new(&e, spec, model, cfg, undersized).kind(),
            CohortKind::Dense
        );
    }

    /// Approximate cohorts select from live marginals, so a plan-cache-
    /// enabled service must not grow a dead tree (keyed on the full risk
    /// vector) per approx cohort, nor count lookups for them — at attach
    /// time, while running, or when a rollback recovery re-attaches.
    #[test]
    fn approx_cohorts_never_touch_the_plan_cache() {
        let e = engine();
        let model = BinaryDilutionModel::new(0.99, 0.995, sbgt_response::Dilution::None);
        let cfg = SbgtConfig::default();
        let cache = PlanCache::new(1024);
        for backend in [ApproxBackend::Bp, ApproxBackend::Particle] {
            let p = SessionPolicy {
                approx_threshold: 17,
                approx_backend: backend,
                ..policy(0, 4)
            };
            for id in 0..4 {
                let spec = CohortSpec::from_specimens(id, 13, &specimens(24, 21 + id));
                let mut actor = CohortActor::new(&e, spec, model, cfg, p);
                actor.attach_plan_cache(&cache);
                assert!(matches!(actor.run_round(&e), RoundStep::Progressed));
                // What a chaos rollback does between rounds.
                actor.restore_session(&actor.snapshot_session());
                while let RoundStep::Progressed = actor.run_round(&e) {}
            }
        }
        assert_eq!(cache.tree_count(), 0);
        assert_eq!(cache.stats(), sbgt::PlanCacheStats::default());
        // An exact cohort on the same cache does claim its tree.
        let spec = CohortSpec::from_specimens(9, 13, &specimens(8, 3));
        let mut dense = CohortActor::new(&e, spec, model, cfg, policy(100, 4));
        dense.attach_plan_cache(&cache);
        assert_eq!(cache.tree_count(), 1);
    }

    /// A cohort of every kind, frozen mid-run, resumes from its checkpoint
    /// bytes bit-for-bit like an uninterrupted serial run — including the
    /// approximate kinds past the one-word truth ceiling (70 subjects: the
    /// truth spans two words; an exact session cannot even represent the
    /// cohort), the service-side half of the 2^N-wall story.
    #[test]
    fn checkpoint_restore_resumes_bit_for_bit_for_every_kind() {
        let e = engine();
        let cfg = SbgtConfig::default();
        let noisy = BinaryDilutionModel::pcr_like();
        let undiluted = BinaryDilutionModel::new(0.99, 0.995, sbgt_response::Dilution::None);
        let approx = |approx_backend| SessionPolicy {
            approx_threshold: 17,
            approx_backend,
            ..policy(0, 4)
        };
        let sparse = SessionPolicy {
            sparse_epsilon: 1e-9,
            ..policy(0, 4)
        };
        for (kind, n, model, p) in [
            (CohortKind::Dense, 9, noisy, policy(100, 4)),
            (CohortKind::Sharded, 9, noisy, policy(0, 4)),
            (CohortKind::Sparse, 8, noisy, sparse),
            (CohortKind::Bp, 70, undiluted, approx(ApproxBackend::Bp)),
            (
                CohortKind::Particle,
                70,
                undiluted,
                approx(ApproxBackend::Particle),
            ),
        ] {
            let sp = specimens(n, 21);
            assert!(
                n < 64 || sp.iter().any(|s| s.infected),
                "seed must infect someone"
            );
            let spec = CohortSpec::from_specimens(3, 13, &sp);
            let expected = run_cohort_serial(&e, &spec, model, cfg, p);
            assert!(expected.classification.is_terminal(), "{kind:?}");

            let mut actor = CohortActor::new(&e, spec.clone(), model, cfg, p);
            assert_eq!(actor.kind(), kind);
            for _ in 0..2 {
                assert!(matches!(actor.run_round(&e), RoundStep::Progressed));
            }
            let bytes = actor.checkpoint().to_bytes();
            drop(actor);
            let checkpoint = crate::checkpoint::CohortCheckpoint::from_bytes(&bytes).unwrap();
            assert_eq!(checkpoint.kind, kind);
            assert_eq!(checkpoint.spec.truth, spec.truth);
            assert_eq!(
                checkpoint.snapshot.sparse.is_some(),
                kind == CohortKind::Sparse
            );
            let mut restored = CohortActor::restore(&checkpoint, model, cfg, p).unwrap();
            assert_eq!(restored.kind(), kind);
            let outcome = loop {
                if let RoundStep::Finished(o) = restored.run_round(&e) {
                    break o;
                }
            };
            assert_eq!(outcome, expected, "{kind:?}");
            for (a, b) in outcome.marginals.iter().zip(&expected.marginals) {
                assert_eq!(a.to_bits(), b.to_bits(), "{kind:?}");
            }
        }
    }
}
