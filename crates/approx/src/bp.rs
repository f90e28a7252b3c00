//! Loopy belief propagation on the specimen↔pool factor graph.
//!
//! Variables are specimen infection bits; every observed pooled test is a
//! [`Factor`] whose likelihood depends on the state only through the pool's
//! positive count. Messages are per-edge log-likelihood ratios
//! `llr[a][j] = ln f_a(x_j = 1 | rest) / f_a(x_j = 0 | rest)`; a variable's
//! belief is its prior logit plus the sum of incoming LLRs, and the factor→
//! variable update marginalizes the leave-one-out Poisson-binomial count
//! distribution of the other members against the factor's likelihood table.
//! The schedule is asynchronous in factor order with damping, stopping when
//! the largest per-sweep message change falls under the residual tolerance.
//!
//! The relaxation is a **pure function of (prior, observation history)**:
//! every read-out restarts the messages from zero. That makes the session
//! path-independent — observing tests one at a time or as one stage lands
//! on identical marginals — and makes checkpoint/restore trivially
//! bit-exact: an `SBGTSNAP` approx snapshot carries only the history, and
//! [`BpSession::restore`] re-runs the identical deterministic relaxation.
//!
//! The round loop itself is `sbgt`'s generic driver; this module supplies
//! the [`BpBackend`] under it.

use std::sync::Arc;

use sbgt_bayes::BayesError;
use sbgt_engine::{Engine, StageVariant};
use sbgt_lattice::BigState;
use sbgt_response::BinaryOutcomeModel;

use sbgt::{
    ApproxKind, ApproxSnapshot, Backend, ConfigError, RoundStep, RoundTrace, SbgtConfig, Session,
    SessionOutcome, SessionSnapshot, SnapshotError,
};

use crate::factor::{count_distribution, Factor};
use crate::select::{select_stage_marginals, BigSelection};

/// Cap on message magnitude: |LLR| ≤ 40 keeps `exp` comfortably finite
/// while representing odds beyond anything a floored likelihood table
/// (`MIN_LIKELIHOOD = 1e-12`) can justify.
pub const LLR_CAP: f64 = 40.0;

/// Tuning for the message schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BpConfig {
    /// Sweep cap (each sweep updates every factor's outgoing messages).
    pub max_iters: u32,
    /// Weight on the *old* message in the damped update, in `[0, 1)`.
    /// `0.0` is undamped; higher values slow oscillations on short cycles.
    pub damping: f64,
    /// Convergence threshold on the largest per-sweep message change.
    pub tol: f64,
}

impl Default for BpConfig {
    fn default() -> Self {
        BpConfig {
            max_iters: 100,
            damping: 0.5,
            tol: 1e-8,
        }
    }
}

impl BpConfig {
    /// Validate every knob; [`ConfigError::InvalidArgument`] names the
    /// first violation.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.max_iters == 0 {
            return Err(ConfigError::InvalidArgument(
                "BP sweep cap must be at least 1".into(),
            ));
        }
        if !(0.0..1.0).contains(&self.damping) {
            return Err(ConfigError::InvalidArgument(format!(
                "BP damping {} must be in [0, 1)",
                self.damping
            )));
        }
        if self.tol.is_nan() || self.tol <= 0.0 {
            return Err(ConfigError::InvalidArgument(format!(
                "BP tolerance {} must be positive",
                self.tol
            )));
        }
        Ok(())
    }
}

/// `ln(p / (1 − p))`.
pub(crate) fn logit(p: f64) -> f64 {
    (p / (1.0 - p)).ln()
}

/// `1 / (1 + e^{−x})`.
pub(crate) fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Validate cohort risks for the approximate backends, which take raw
/// per-specimen risks (the exact [`sbgt_bayes::Prior`] caps cohorts at the
/// lattice's 48-subject `State` width — the wall this crate removes).
pub(crate) fn validate_risks(risks: &[f64]) -> Result<(), ConfigError> {
    if risks.is_empty() {
        return Err(ConfigError::InvalidArgument(
            "cohort must have at least one specimen".into(),
        ));
    }
    for (i, &r) in risks.iter().enumerate() {
        if !(r > 0.0 && r < 1.0) {
            return Err(ConfigError::InvalidArgument(format!(
                "risk {r} for specimen {i} must be in (0, 1)"
            )));
        }
    }
    Ok(())
}

/// Convergence record of one relaxation: sweep count and the residual
/// (largest message change) after each sweep, in sweep order. Produced by
/// [`relax_marginals_traced`] purely as a side log — recording it never
/// perturbs the float schedule, so traced and untraced relaxations land
/// on bit-identical marginals.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BpTrace {
    /// Sweeps executed (≤ `cfg.max_iters`).
    pub sweeps: u32,
    /// Residual after each sweep; `residuals.len() == sweeps as usize`.
    pub residuals: Vec<f64>,
}

impl BpTrace {
    /// Whether the relaxation stopped by reaching `cfg.tol` (as opposed
    /// to exhausting the sweep cap, or having nothing to relax).
    pub fn converged(&self, cfg: &BpConfig) -> bool {
        self.residuals.last().is_some_and(|&r| r < cfg.tol)
    }

    /// The residual of the last executed sweep (0.0 when zero sweeps
    /// ran — possible only with a zero sweep cap, which validation
    /// rejects).
    pub fn final_residual(&self) -> f64 {
        self.residuals.last().copied().unwrap_or(0.0)
    }
}

/// Quantize a residual to integer nano-units (`residual × 1e9`, rounded)
/// for histogram buckets and mark payloads. Non-positive and NaN inputs
/// map to 0; overflow saturates.
pub fn residual_nanos(residual: f64) -> u64 {
    if residual.is_nan() || residual <= 0.0 {
        return 0;
    }
    let nanos = (residual * 1e9).round();
    if nanos >= u64::MAX as f64 {
        u64::MAX
    } else {
        nanos as u64
    }
}

/// Run the damped LLR relaxation from a cold start and return the
/// per-specimen marginals. Pure: same `(prior_logit, factors, cfg)` →
/// bit-identical output, which is what the snapshot contract and the
/// engine-stage retry path both lean on.
pub fn relax_marginals(prior_logit: &[f64], factors: &[Factor], cfg: &BpConfig) -> Vec<f64> {
    relax_marginals_traced(prior_logit, factors, cfg).0
}

/// [`relax_marginals`] plus its convergence trace. This is the actual
/// relaxation; the untraced entry point discards the trace. The float
/// schedule is byte-identical either way — the trace only *reads* each
/// sweep's residual, which the loop already computes for its stop test.
pub fn relax_marginals_traced(
    prior_logit: &[f64],
    factors: &[Factor],
    cfg: &BpConfig,
) -> (Vec<f64>, BpTrace) {
    let n = prior_logit.len();
    let mut trace = BpTrace::default();
    // llr[a][j]: message from factor a to its j-th member; llr_sum[i] keeps
    // the running total per variable so a cavity read is O(1).
    let mut llr: Vec<Vec<f64>> = factors.iter().map(|f| vec![0.0; f.size()]).collect();
    let mut llr_sum = vec![0.0; n];
    for _ in 0..cfg.max_iters {
        let mut residual = 0.0f64;
        for (a, f) in factors.iter().enumerate() {
            let m = f.size();
            // Cavity probabilities: each member's belief minus this
            // factor's own previous message.
            let mus: Vec<f64> = f
                .members
                .iter()
                .enumerate()
                .map(|(j, &i)| sigmoid(prior_logit[i as usize] + llr_sum[i as usize] - llr[a][j]))
                .collect();
            // Prefix/suffix Poisson-binomial tables over the cavity
            // probabilities; prefix[j] covers members < j, suffix[j]
            // covers members ≥ j.
            let mut prefix: Vec<Vec<f64>> = Vec::with_capacity(m + 1);
            prefix.push(vec![1.0]);
            for &mu in &mus {
                prefix.push(convolve_bernoulli(prefix.last().unwrap(), mu));
            }
            let mut suffix: Vec<Vec<f64>> = vec![Vec::new(); m + 1];
            suffix[m] = vec![1.0];
            for j in (0..m).rev() {
                suffix[j] = convolve_bernoulli(&suffix[j + 1], mus[j]);
            }
            for (j, &i) in f.members.iter().enumerate() {
                let i = i as usize;
                // Leave-one-out count distribution of the other members.
                let d = convolve(&prefix[j], &suffix[j + 1]);
                let mut like0 = 0.0;
                let mut like1 = 0.0;
                for (k, &dk) in d.iter().enumerate() {
                    like0 += f.table[k] * dk;
                    like1 += f.table[k + 1] * dk;
                }
                let fresh = (like1 / like0).ln().clamp(-LLR_CAP, LLR_CAP);
                let damped = cfg.damping * llr[a][j] + (1.0 - cfg.damping) * fresh;
                let delta = damped - llr[a][j];
                residual = residual.max(delta.abs());
                llr_sum[i] += delta;
                llr[a][j] = damped;
            }
        }
        trace.sweeps += 1;
        trace.residuals.push(residual);
        if residual < cfg.tol {
            break;
        }
    }
    let marginals = (0..n)
        .map(|i| sigmoid(prior_logit[i] + llr_sum[i]))
        .collect();
    (marginals, trace)
}

/// Convolve a count distribution with one Bernoulli(`p`) bit.
fn convolve_bernoulli(d: &[f64], p: f64) -> Vec<f64> {
    let mut out = vec![0.0; d.len() + 1];
    for (k, &dk) in d.iter().enumerate() {
        out[k] += dk * (1.0 - p);
        out[k + 1] += dk * p;
    }
    out
}

/// Convolve two count distributions.
fn convolve(a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; a.len() + b.len() - 1];
    for (i, &ai) in a.iter().enumerate() {
        for (j, &bj) in b.iter().enumerate() {
            out[i + j] += ai * bj;
        }
    }
    out
}

/// The loopy-BP fixed point over the observed factors. Memory is
/// O(specimens + Σ pool sizes): nothing `2^N`-sized exists at any point.
pub struct BpBackend<M> {
    prior_logit: Vec<f64>,
    model: M,
    bp: BpConfig,
    factors: Arc<Vec<Factor>>,
    /// Marginals at the current factor set; `None` after an observation
    /// until the next relaxation.
    cached: Option<Vec<f64>>,
}

/// A surveillance session whose posterior is the BP fixed point: the shared
/// round driver ([`Session`], reached through `Deref`) over [`BpBackend`].
/// The round context is an optional engine — [`Self::run_round_on`] runs
/// the relaxation as a fault-injectable engine stage.
pub struct BpSession<M>(pub Session<BpBackend<M>>);

impl<M> std::ops::Deref for BpSession<M> {
    type Target = Session<BpBackend<M>>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl<M> std::ops::DerefMut for BpSession<M> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

/// Reject a pool that is empty or names a subject outside the cohort.
pub(crate) fn check_pool(pool: &BigState, n_subjects: usize) -> Result<(), BayesError> {
    if pool.is_empty() {
        return Err(BayesError::EmptyPool);
    }
    assert!(
        pool.subjects().all(|i| i < n_subjects),
        "pool subject out of range for cohort of {n_subjects}"
    );
    Ok(())
}

/// The observation history in snapshot form, shared by both backends.
pub(crate) fn snapshot_history(factors: &[Factor]) -> Vec<(Vec<u32>, bool)> {
    factors
        .iter()
        .map(|f| (f.members.clone(), f.outcome))
        .collect()
}

/// The approx section of a snapshot of the expected kind, or the typed
/// error for an exact snapshot, the other backend's, or a cohort-size
/// mismatch with the caller's risks.
pub(crate) fn approx_section(
    snapshot: &SessionSnapshot,
    kind: ApproxKind,
    n_subjects: usize,
) -> Result<&ApproxSnapshot, SnapshotError> {
    let ap = snapshot.approx.as_ref().filter(|ap| ap.kind == kind);
    let Some(ap) = ap else {
        return Err(SnapshotError::Corrupt(format!(
            "snapshot cannot restore a {kind:?} session"
        )));
    };
    if snapshot.n_subjects != n_subjects {
        return Err(SnapshotError::Corrupt(format!(
            "snapshot holds {} subjects, caller supplied {n_subjects} risks",
            snapshot.n_subjects
        )));
    }
    Ok(ap)
}

/// Rebuild the factor list from a snapshot history.
pub(crate) fn restore_factors<M: BinaryOutcomeModel>(
    history: &[(Vec<u32>, bool)],
    model: &M,
) -> Vec<Factor> {
    history
        .iter()
        .map(|(members, outcome)| {
            let pool = BigState::from_subjects(members.iter().map(|&i| i as usize));
            Factor::new(&pool, *outcome, model)
        })
        .collect()
}

impl<M: BinaryOutcomeModel> BpBackend<M> {
    fn new(risks: &[f64], model: M, bp: BpConfig) -> Result<Self, ConfigError> {
        validate_risks(risks)?;
        bp.validate()?;
        Ok(BpBackend {
            prior_logit: risks.iter().map(|&r| logit(r)).collect(),
            model,
            bp,
            factors: Arc::new(Vec::new()),
            cached: Some(risks.to_vec()),
        })
    }
}

impl<M: BinaryOutcomeModel> Backend for BpBackend<M> {
    type Pool = BigState;
    type Ctx<'a> = Option<&'a Engine>;

    fn n_subjects(&self) -> usize {
        self.prior_logit.len()
    }

    fn tests(&self) -> usize {
        self.factors.len()
    }

    /// Refresh the marginal cache, optionally running the relaxation as an
    /// engine stage: the sweep is a pure closure over the (shared) factor
    /// list, so the engine's installed fault plan can kill or retry it and
    /// a retry recomputes the identical fixed point. Convergence telemetry
    /// (sweep count, residual march) is read from the pure relaxation's
    /// side trace *after* it returns, so recording can never perturb the
    /// posterior.
    ///
    /// # Panics
    /// Panics when the stage fails permanently (retry budget exhausted) —
    /// the same contract as the other engine-staged rounds, which a
    /// supervising service converts into a snapshot rollback.
    fn refresh(&mut self, engine: Option<&Engine>, phases: Option<&RoundTrace>) {
        if self.cached.is_some() {
            return;
        }
        let (marginals, trace) = match engine {
            None => relax_marginals_traced(&self.prior_logit, &self.factors, &self.bp),
            Some(engine) => {
                let prior = Arc::new(self.prior_logit.clone());
                let factors = Arc::clone(&self.factors);
                let bp = self.bp;
                let task = move || -> Result<(Vec<f64>, BpTrace), BayesError> {
                    Ok(relax_marginals_traced(&prior, &factors, &bp))
                };
                let results = engine
                    .run_stage("fused-round:bp", vec![task])
                    .unwrap_or_else(|e| panic!("BP relaxation stage failed: {e}"));
                let out = results
                    .into_iter()
                    .next()
                    .expect("one BP task")
                    .expect("pure relaxation cannot fail");
                engine.metrics().annotate_last_job(StageVariant::Approx {
                    factors: self.factors.len(),
                });
                engine.metrics().record_bp_relaxation(
                    u64::from(out.1.sweeps),
                    residual_nanos(out.1.final_residual()),
                );
                out
            }
        };
        if let Some(phases) = phases {
            let rec = phases.recorder();
            let name = rec.intern("bp:sweep");
            for (sweep, &residual) in trace.residuals.iter().enumerate() {
                let mut meta = phases.meta();
                meta.task = sweep as u32;
                rec.mark_value(name, residual_nanos(residual), meta);
            }
        }
        self.cached = Some(marginals);
    }

    /// The BP fixed point at the current history: the cache when fresh,
    /// a transient relaxation on the driver otherwise.
    fn marginals(&self, _: &SbgtConfig) -> Vec<f64> {
        match &self.cached {
            Some(m) => m.clone(),
            None => relax_marginals(&self.prior_logit, &self.factors, &self.bp),
        }
    }

    fn select(
        &mut self,
        _: Option<&Engine>,
        config: &SbgtConfig,
        marginals: &[f64],
        order: &[usize],
    ) -> Vec<BigSelection> {
        select_stage_marginals(order, marginals, config.max_pool_size, config.stage_width)
    }

    /// Returns the predictive probability of the outcome under the
    /// pre-update marginals — the approximate model evidence.
    fn observe(
        &mut self,
        _: Option<&Engine>,
        config: &SbgtConfig,
        pool: &BigState,
        outcome: bool,
    ) -> Result<f64, BayesError> {
        check_pool(pool, self.n_subjects())?;
        let factor = Factor::new(pool, outcome, &self.model);
        let marginals = self.marginals(config);
        let member_probs: Vec<f64> = factor
            .members
            .iter()
            .map(|&i| marginals[i as usize])
            .collect();
        let d = count_distribution(&member_probs);
        let z: f64 = d
            .iter()
            .enumerate()
            .map(|(k, &dk)| factor.table[k] * dk)
            .sum();
        Arc::make_mut(&mut self.factors).push(factor);
        self.cached = None;
        Ok(z)
    }

    /// A BP posterior is a pure function of (prior, history), so the
    /// snapshot carries only the observation history: a restore re-runs the
    /// identical relaxation and lands bit-for-bit on the same marginals.
    fn snapshot_into(&self, snapshot: &mut SessionSnapshot) {
        snapshot.approx = Some(ApproxSnapshot {
            kind: ApproxKind::Bp,
            history: snapshot_history(&self.factors),
            particles: None,
        });
    }
}

impl<M: BinaryOutcomeModel> BpSession<M> {
    /// Open a session from per-specimen prior risks. Cohort size is bounded
    /// by memory in specimens and pools, not `2^N`.
    pub fn new(
        risks: &[f64],
        model: M,
        config: SbgtConfig,
        bp: BpConfig,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(BpSession(Session::open(
            BpBackend::new(risks, model, bp)?,
            config,
        )))
    }

    /// Rehydrate from a snapshot. The risks, model, and configs are not
    /// part of the snapshot (they are the cohort's static spec) and are
    /// supplied by the caller.
    pub fn restore(
        snapshot: &SessionSnapshot,
        risks: &[f64],
        model: M,
        config: SbgtConfig,
        bp: BpConfig,
    ) -> Result<Self, SnapshotError> {
        config
            .validate()
            .map_err(|e| SnapshotError::Corrupt(e.to_string()))?;
        Session::resume(snapshot, config, |snapshot| {
            let ap = approx_section(snapshot, ApproxKind::Bp, risks.len())?;
            let mut backend = BpBackend::new(risks, model, bp)
                .map_err(|e| SnapshotError::Corrupt(e.to_string()))?;
            backend.factors = Arc::new(restore_factors(&ap.history, &backend.model));
            backend.cached = None;
            Ok(backend)
        })
        .map(BpSession)
    }

    /// The BP tuning.
    pub fn bp_config(&self) -> &BpConfig {
        &self.backend().bp
    }

    /// Observed factors, in observation order.
    pub fn factors(&self) -> &[Factor] {
        &self.backend().factors
    }

    /// Ingest one observed pooled test (counted as one stage).
    pub fn observe(&mut self, pool: &BigState, outcome: bool) -> Result<f64, BayesError> {
        self.0.observe_in(None, pool, outcome)
    }

    /// Ingest one stage of observed pools (counted as one stage).
    pub fn observe_stage(&mut self, observations: &[(BigState, bool)]) -> Result<f64, BayesError> {
        self.0
            .observe_stage_in(None, observations.iter().map(|(p, o)| (p, *o)))
    }

    /// Drive the session to classification against a lab oracle, relaxing
    /// on the driver ([`Session::run`]).
    pub fn run_to_classification(&mut self, lab: impl FnMut(&BigState) -> bool) -> SessionOutcome {
        self.0.run(None, lab)
    }

    /// Drive exactly one round, relaxing on the driver ([`Session::round`]).
    pub fn run_round(&mut self, lab: impl FnMut(&BigState) -> bool) -> RoundStep {
        self.0.round(None, lab)
    }

    /// [`Self::run_round`] with the relaxation running as a
    /// fault-injectable `fused-round:bp` engine stage, annotated
    /// [`StageVariant::Approx`] with the factor count.
    pub fn run_round_on(
        &mut self,
        engine: &Engine,
        lab: impl FnMut(&BigState) -> bool,
    ) -> RoundStep {
        self.0.round(Some(engine), lab)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbgt_response::{BinaryDilutionModel, ResponseModel};

    fn risks(n: usize) -> Vec<f64> {
        (0..n).map(|i| 0.02 + 0.01 * (i % 7) as f64).collect()
    }

    fn session(n: usize) -> BpSession<BinaryDilutionModel> {
        BpSession::new(
            &risks(n),
            BinaryDilutionModel::pcr_like(),
            SbgtConfig::default().serial(),
            BpConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn constructor_validates_risks_and_config() {
        let model = BinaryDilutionModel::pcr_like();
        let cfg = SbgtConfig::default().serial();
        assert!(BpSession::new(&[], model, cfg, BpConfig::default()).is_err());
        assert!(BpSession::new(&[0.5, 1.0], model, cfg, BpConfig::default()).is_err());
        assert!(BpSession::new(&[0.0], model, cfg, BpConfig::default()).is_err());
        let bad_bp = BpConfig {
            damping: 1.0,
            ..BpConfig::default()
        };
        assert!(BpSession::new(&[0.1], model, cfg, bad_bp).is_err());
        let bad_iters = BpConfig {
            max_iters: 0,
            ..BpConfig::default()
        };
        assert!(BpSession::new(&[0.1], model, cfg, bad_iters).is_err());
    }

    #[test]
    fn no_observations_returns_the_prior() {
        let s = session(6);
        let m = s.marginals();
        for (got, want) in m.iter().zip(risks(6)) {
            assert!((got - want).abs() < 1e-9, "prior marginal {got} vs {want}");
        }
    }

    #[test]
    fn single_subject_pool_matches_exact_bayes() {
        // One pool {i}: BP on a tree is exact, so the posterior must match
        // the two-hypothesis Bayes update.
        let mut s = session(5);
        let model = BinaryDilutionModel::pcr_like();
        let pool = BigState::from_subjects([2]);
        s.observe(&pool, true).unwrap();
        let m = s.marginals();
        let p = risks(5)[2];
        let l1 = model.likelihood(true, 1, 1).max(crate::MIN_LIKELIHOOD);
        let l0 = model.likelihood(true, 0, 1).max(crate::MIN_LIKELIHOOD);
        let want = p * l1 / (p * l1 + (1.0 - p) * l0);
        assert!(
            (m[2] - want).abs() < 1e-6,
            "exact single-subject update: {} vs {want}",
            m[2]
        );
        // Untouched subjects keep their priors.
        assert!((m[0] - risks(5)[0]).abs() < 1e-9);
    }

    #[test]
    fn negative_pool_pushes_members_down() {
        let mut s = session(8);
        let pool = BigState::from_subjects([0, 1, 2, 3]);
        s.observe(&pool, false).unwrap();
        let m = s.marginals();
        let r = risks(8);
        for i in 0..4 {
            assert!(m[i] < r[i], "negative test must lower marginal {i}");
        }
        for i in 4..8 {
            assert!((m[i] - r[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn observation_order_does_not_change_the_fixed_point() {
        // Cold-start relaxation makes the posterior a pure function of the
        // factor *set* — stage-batched and one-at-a-time paths agree
        // bit-for-bit.
        let a_pool = BigState::from_subjects([0, 1, 2]);
        let b_pool = BigState::from_subjects([2, 3, 4]);
        let mut one = session(6);
        one.observe(&a_pool, true).unwrap();
        one.observe(&b_pool, false).unwrap();
        let mut batch = session(6);
        batch
            .observe_stage(&[(a_pool, true), (b_pool, false)])
            .unwrap();
        assert_eq!(one.marginals(), batch.marginals());
        assert_eq!(one.stages(), 2);
        assert_eq!(batch.stages(), 1);
        assert_eq!(one.tests(), 2);
    }

    #[test]
    fn wrong_snapshot_kinds_are_rejected() {
        let s = session(4);
        let snap = s.snapshot();
        // Wrong cohort size.
        assert!(BpSession::restore(
            &snap,
            &risks(5),
            BinaryDilutionModel::pcr_like(),
            SbgtConfig::default().serial(),
            BpConfig::default(),
        )
        .is_err());
    }

    #[test]
    fn traced_relaxation_is_bit_identical_to_untraced() {
        let mut s = session(9);
        let truth = BigState::from_subjects([1, 6]);
        for _ in 0..2 {
            s.run_round(|p| truth.intersects(p));
        }
        let cfg = BpConfig::default();
        let plain = relax_marginals(&s.backend().prior_logit, s.factors(), &cfg);
        let (traced, trace) = relax_marginals_traced(&s.backend().prior_logit, s.factors(), &cfg);
        assert_eq!(plain.len(), traced.len());
        for (a, b) in plain.iter().zip(&traced) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "trace recording changed the floats"
            );
        }
        assert_eq!(trace.residuals.len(), trace.sweeps as usize);
        assert!(trace.sweeps >= 1);
        assert!(trace.converged(&cfg), "default tolerances converge here");
        assert!(trace.final_residual() < cfg.tol);
        // Residuals are the stop-test values: every one before the last is
        // at or above tolerance.
        for &r in &trace.residuals[..trace.residuals.len() - 1] {
            assert!(r >= cfg.tol);
        }
    }

    #[test]
    fn residual_quantization_clamps_and_saturates() {
        assert_eq!(residual_nanos(0.0), 0);
        assert_eq!(residual_nanos(-1.0), 0);
        assert_eq!(residual_nanos(f64::NAN), 0);
        assert_eq!(residual_nanos(1e-9), 1);
        assert_eq!(residual_nanos(0.5), 500_000_000);
        assert_eq!(residual_nanos(f64::INFINITY), u64::MAX);
    }

    #[test]
    fn engine_staged_relaxations_feed_bp_stats() {
        use sbgt_engine::EngineConfig;
        let engine = Engine::new(EngineConfig::default().with_threads(2));
        let truth = BigState::from_subjects([2, 7]);
        let mut s = session(10);
        let outcome = loop {
            if let RoundStep::Finished(o) = s.run_round_on(&engine, |p| truth.intersects(p)) {
                break o;
            }
        };
        assert!(outcome.classification.is_terminal());
        let stats = engine.metrics().bp_stats();
        assert!(stats.relaxations > 0, "every staged relaxation is counted");
        assert_eq!(stats.sweeps.count(), stats.relaxations);
        assert_eq!(stats.residual_nanos.count(), stats.relaxations);
        assert!(
            stats.sweeps.max() >= Some(1),
            "at least one sweep per relaxation"
        );
    }

    #[test]
    fn engine_staged_rounds_match_plain_rounds() {
        use sbgt_engine::EngineConfig;
        let engine = Engine::new(EngineConfig::default().with_threads(2));
        let truth = BigState::from_subjects([3, 9]);
        let mut plain = session(10);
        let mut staged = session(10);
        // The relaxation is pure, so the engine-staged variant must land on
        // the identical trajectory.
        loop {
            let a = plain.run_round(|p| truth.intersects(p));
            let b = staged.run_round_on(&engine, |p| truth.intersects(p));
            match (a, b) {
                (RoundStep::Progressed, RoundStep::Progressed) => continue,
                (RoundStep::Finished(x), RoundStep::Finished(y)) => {
                    assert_eq!(x.marginals, y.marginals);
                    assert_eq!(x.tests, y.tests);
                    assert_eq!(x.classification, y.classification);
                    break;
                }
                _ => panic!("staged and plain rounds diverged"),
            }
        }
    }
}
