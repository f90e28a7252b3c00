//! Sequential Monte Carlo particle posterior.
//!
//! The posterior over the cohort's `2^N` infection hypotheses is carried by
//! `P` weighted N-bit particles. Each observed pooled test multiplies every
//! particle's weight by the response-model likelihood of the outcome at
//! that particle's pool count; when the effective sample size collapses
//! below the configured fraction, the cloud is systematically resampled
//! and each particle takes a few Metropolis single-bit-flip rejuvenation
//! moves against the full (prior × observed-factor) posterior, restoring
//! diversity without changing the target distribution. Marginals are
//! weighted bit frequencies.
//!
//! Everything random flows through one seeded [`SessionRng`]
//! (xoshiro256**), drawn in a fixed order, so a run is **bit-for-bit
//! reproducible from `(seed, config)`** — and because the `SBGTSNAP`
//! particle block carries the particle words, log-weights, and the RNG
//! state verbatim, reproducibility holds across snapshot/restore too.

use sbgt_bayes::BayesError;
use sbgt_lattice::BigState;
use sbgt_response::BinaryOutcomeModel;

use sbgt::{
    ApproxKind, ApproxSnapshot, Backend, ConfigError, ParticleBlock, SbgtConfig, Session,
    SessionSnapshot, SnapshotError,
};

use crate::bp::{
    approx_section, check_pool, logit, restore_factors, snapshot_history, validate_risks,
};
use crate::factor::Factor;
use crate::rng::SessionRng;
use crate::select::{select_stage_marginals, BigSelection};

/// Tuning for the particle posterior.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParticleConfig {
    /// Cloud size `P`.
    pub particles: usize,
    /// Resample when the effective sample size drops below
    /// `ess_frac × P`, in `(0, 1]`.
    pub ess_frac: f64,
    /// Metropolis bit-flip rejuvenation moves per particle after each
    /// resample (`0` disables rejuvenation).
    pub moves: u32,
    /// RNG seed; the whole run is a deterministic function of this plus
    /// the cohort spec.
    pub seed: u64,
}

impl Default for ParticleConfig {
    fn default() -> Self {
        ParticleConfig {
            particles: 2048,
            ess_frac: 0.5,
            moves: 4,
            seed: 0x5B67_7E57,
        }
    }
}

impl ParticleConfig {
    /// Validate every knob; [`ConfigError::InvalidArgument`] names the
    /// first violation.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.particles == 0 {
            return Err(ConfigError::InvalidArgument(
                "particle count must be at least 1".into(),
            ));
        }
        if !(self.ess_frac > 0.0 && self.ess_frac <= 1.0) {
            return Err(ConfigError::InvalidArgument(format!(
                "ESS fraction {} must be in (0, 1]",
                self.ess_frac
            )));
        }
        Ok(())
    }
}

/// A weighted particle cloud. Memory is O(particles × N/64 + Σ pool
/// sizes): nothing `2^N`-sized exists at any point.
pub struct ParticleBackend<M> {
    prior_logit: Vec<f64>,
    model: M,
    pcfg: ParticleConfig,
    words_per_particle: usize,
    /// Particle bit-words, particle-major: particle `p` owns
    /// `words[p*wpp .. (p+1)*wpp]`.
    words: Vec<u64>,
    /// Resampling's destination, kept between resamples and swapped with
    /// `words`.
    spare: Vec<u64>,
    log_weights: Vec<f64>,
    factors: Vec<Factor>,
    /// Factor `a`'s rows from `steps_at[a]`, one per pool count `k`:
    /// `[ln(table[k−1] / table[k]), ln(table[k+1] / table[k])]` (`NaN` out
    /// of range), the log-likelihood change when a member's bit clears or
    /// sets. Rejuvenation reads these instead of calling `ln`.
    log_steps: Vec<[f64; 2]>,
    steps_at: Vec<usize>,
    /// Factor indices touching each subject, for O(degree) rejuvenation
    /// deltas. Rebuilt from `factors` on restore.
    subject_factors: Vec<Vec<u32>>,
    rng: SessionRng,
}

/// A surveillance session whose posterior is a weighted particle cloud:
/// the shared round driver over [`ParticleBackend`]. Rounds are
/// self-contained (context `()`): the update never calls the engine, so
/// engine faults cannot reach it.
pub type ParticleSession<M> = Session<ParticleBackend<M>>;

impl<M: BinaryOutcomeModel> ParticleBackend<M> {
    /// The cloud is initialized by sampling every specimen's bit from its
    /// prior risk, particle-major and subject-ascending, so the initial
    /// cloud is a deterministic function of `(seed, risks)`.
    fn new(risks: &[f64], model: M, pcfg: ParticleConfig) -> Result<Self, ConfigError> {
        validate_risks(risks)?;
        pcfg.validate()?;
        let n = risks.len();
        let wpp = n.div_ceil(64);
        let mut rng = SessionRng::seed_from(pcfg.seed);
        let mut words = vec![0u64; pcfg.particles * wpp];
        for p in 0..pcfg.particles {
            for (i, &r) in risks.iter().enumerate() {
                if rng.bernoulli(r) {
                    words[p * wpp + i / 64] |= 1u64 << (i % 64);
                }
            }
        }
        Ok(ParticleBackend {
            prior_logit: risks.iter().map(|&r| logit(r)).collect(),
            model,
            pcfg,
            words_per_particle: wpp,
            words,
            spare: Vec::new(),
            log_weights: vec![0.0; pcfg.particles],
            factors: Vec::new(),
            log_steps: Vec::new(),
            steps_at: Vec::new(),
            subject_factors: vec![Vec::new(); n],
            rng,
        })
    }

    /// Append `factor`, index it under each member, tabulate its steps.
    fn push_factor(&mut self, factor: Factor) {
        let a = self.factors.len() as u32;
        for &i in &factor.members {
            self.subject_factors[i as usize].push(a);
        }
        self.steps_at.push(self.log_steps.len());
        let t = &factor.table;
        let step = |k: usize, k2: usize| t.get(k2).map_or(f64::NAN, |&t2| (t2 / t[k]).ln());
        let steps = (0..t.len()).map(|k| [step(k, k.wrapping_sub(1)), step(k, k + 1)]);
        self.log_steps.extend(steps);
        self.factors.push(factor);
    }

    /// Exp-normalized weights (max-subtracted for stability). Dead clouds
    /// (all weights at `-∞`) cannot arise: likelihood tables are floored.
    fn normalized_weights(&self) -> Vec<f64> {
        let max = self
            .log_weights
            .iter()
            .fold(f64::NEG_INFINITY, |a, &b| a.max(b));
        let mut w: Vec<f64> = self
            .log_weights
            .iter()
            .map(|&lw| (lw - max).exp())
            .collect();
        let total: f64 = w.iter().sum();
        for v in &mut w {
            *v /= total;
        }
        w
    }

    /// Effective sample size of the current weights.
    pub fn ess(&self) -> f64 {
        ess_of(&self.normalized_weights())
    }

    fn maybe_resample(&mut self) {
        let w = self.normalized_weights();
        if ess_of(&w) >= self.pcfg.ess_frac * self.pcfg.particles as f64 {
            return;
        }
        self.resample_systematic(&w);
        self.rejuvenate();
    }

    /// Systematic resampling: one uniform draw positions `P` evenly spaced
    /// pointers over the cumulative weights `w`; weights reset to equal.
    fn resample_systematic(&mut self, w: &[f64]) {
        let p_count = self.pcfg.particles;
        let u0 = self.rng.next_f64() / p_count as f64;
        let wpp = self.words_per_particle;
        let mut new_words = std::mem::take(&mut self.spare);
        new_words.resize(self.words.len(), 0);
        let mut cum = 0.0;
        let mut src = 0usize;
        for j in 0..p_count {
            let u = u0 + j as f64 / p_count as f64;
            while cum + w[src] < u && src + 1 < p_count {
                cum += w[src];
                src += 1;
            }
            new_words[j * wpp..(j + 1) * wpp]
                .copy_from_slice(&self.words[src * wpp..(src + 1) * wpp]);
        }
        self.spare = std::mem::replace(&mut self.words, new_words);
        self.log_weights.fill(0.0);
    }

    /// Metropolis single-bit-flip rejuvenation against the full posterior
    /// `prior × ∏ factors`: each accepted flip changes one subject's bit,
    /// with the acceptance ratio computed from the prior logit plus the
    /// likelihood-table ratio of every factor the subject touches.
    fn rejuvenate(&mut self) {
        let n = self.prior_logit.len() as u64;
        for particle in self.words.chunks_exact_mut(self.words_per_particle) {
            for _ in 0..self.pcfg.moves {
                let i = (self.rng.next_u64() % n) as usize;
                let bit = 1u64 << (i % 64);
                let set = particle[i / 64] & bit != 0;
                // Flipping 0→1 adds the prior logit; 1→0 subtracts it.
                let mut delta = if set {
                    -self.prior_logit[i]
                } else {
                    self.prior_logit[i]
                };
                for &a in &self.subject_factors[i] {
                    let a = a as usize;
                    let k = count_in(particle, self.factors[a].pool_words());
                    delta += self.log_steps[self.steps_at[a] + k][usize::from(!set)];
                }
                let accept = delta >= 0.0 || self.rng.next_f64().ln() < delta;
                if accept {
                    particle[i / 64] ^= bit;
                }
            }
        }
    }
}

/// `|particle ∩ pool|` over matching bit-words.
fn count_in(particle: &[u64], pool_words: &[u64]) -> usize {
    pool_words
        .iter()
        .zip(particle)
        .map(|(pw, sw)| (pw & sw).count_ones() as usize)
        .sum()
}

/// Effective sample size of normalized weights.
fn ess_of(w: &[f64]) -> f64 {
    1.0 / w.iter().map(|&v| v * v).sum::<f64>()
}

impl<M: BinaryOutcomeModel> Backend for ParticleBackend<M> {
    type Pool = BigState;
    type Ctx<'a> = ();

    fn n_subjects(&self) -> usize {
        self.prior_logit.len()
    }

    fn tests(&self) -> usize {
        self.factors.len()
    }

    /// Per-specimen posterior marginals: weighted bit frequencies, summed
    /// over each particle's set bits in ascending particle order.
    fn marginals(&self, _: &SbgtConfig) -> Vec<f64> {
        let w = self.normalized_weights();
        let mut m = vec![0.0; self.n_subjects()];
        for (&wp, words) in w
            .iter()
            .zip(self.words.chunks_exact(self.words_per_particle))
        {
            if wp == 0.0 {
                continue;
            }
            for (base, &word) in (0..).step_by(64).zip(words) {
                let mut bits = word;
                while bits != 0 {
                    m[base + bits.trailing_zeros() as usize] += wp;
                    bits &= bits - 1;
                }
            }
        }
        for v in &mut m {
            *v = v.clamp(0.0, 1.0);
        }
        m
    }

    fn select(
        &mut self,
        _: (),
        config: &SbgtConfig,
        marginals: &[f64],
        order: &[usize],
    ) -> Vec<BigSelection> {
        select_stage_marginals(order, marginals, config.max_pool_size, config.stage_width)
    }

    /// Reweight the cloud by the outcome's likelihood, then resample and
    /// rejuvenate if the effective sample size collapsed. Returns the
    /// predictive probability of the outcome under the pre-update cloud —
    /// the approximate model evidence.
    fn observe(
        &mut self,
        _: (),
        _: &SbgtConfig,
        pool: &BigState,
        outcome: bool,
    ) -> Result<f64, BayesError> {
        check_pool(pool, self.n_subjects())?;
        let factor = Factor::new(pool, outcome, &self.model);
        let ln_table: Vec<f64> = factor.table.iter().map(|t| t.ln()).collect();
        let w = self.normalized_weights();
        let particles = self.words.chunks_exact(self.words_per_particle);
        let mut z = 0.0;
        for ((&wp, lw), words) in w.iter().zip(self.log_weights.iter_mut()).zip(particles) {
            let k = count_in(words, pool.words());
            z += wp * factor.table[k];
            *lw += ln_table[k];
        }
        self.push_factor(factor);
        self.maybe_resample();
        Ok(z)
    }

    /// The observation history plus the particle block (bit-words,
    /// log-weights, RNG state) verbatim, so a restored session continues
    /// the exact sample path.
    fn snapshot_into(&self, snapshot: &mut SessionSnapshot) {
        snapshot.approx = Some(ApproxSnapshot {
            kind: ApproxKind::Particle,
            history: snapshot_history(&self.factors),
            particles: Some(ParticleBlock {
                words_per_particle: self.words_per_particle,
                words: self.words.clone(),
                log_weights: self.log_weights.clone(),
                rng: self.rng.state(),
            }),
        });
    }
}

impl<M: BinaryOutcomeModel> ParticleBackend<M> {
    /// Open a session over per-specimen prior risks.
    pub fn open(
        risks: &[f64],
        model: M,
        config: SbgtConfig,
        pcfg: ParticleConfig,
    ) -> Result<ParticleSession<M>, ConfigError> {
        config.validate()?;
        Ok(Session::open(
            ParticleBackend::new(risks, model, pcfg)?,
            config,
        ))
    }

    /// Rehydrate from a snapshot. The risks, model, and configs are not
    /// part of the snapshot (they are the cohort's static spec) and are
    /// supplied by the caller; the cloud and RNG resume bit-for-bit.
    pub fn restore(
        snapshot: &SessionSnapshot,
        risks: &[f64],
        model: M,
        config: SbgtConfig,
        pcfg: ParticleConfig,
    ) -> Result<ParticleSession<M>, SnapshotError> {
        config
            .validate()
            .map_err(|e| SnapshotError::Corrupt(e.to_string()))?;
        Session::resume(snapshot, config, |snapshot| {
            let ap = approx_section(snapshot, ApproxKind::Particle, risks.len())?;
            let block = ap.particles.as_ref().expect("validated particle block");
            if block.log_weights.len() != pcfg.particles {
                return Err(SnapshotError::Corrupt(format!(
                    "snapshot holds {} particles, config asks for {}",
                    block.log_weights.len(),
                    pcfg.particles
                )));
            }
            let rng = SessionRng::from_state(block.rng)
                .ok_or_else(|| SnapshotError::Corrupt("all-zero RNG state".into()))?;
            let mut backend = ParticleBackend::new(risks, model, pcfg)
                .map_err(|e| SnapshotError::Corrupt(e.to_string()))?;
            for factor in restore_factors(&ap.history, &backend.model) {
                backend.push_factor(factor);
            }
            backend.words = block.words.clone();
            backend.log_weights = block.log_weights.clone();
            backend.rng = rng;
            Ok(backend)
        })
    }

    /// The particle tuning.
    pub fn particle_config(&self) -> &ParticleConfig {
        &self.pcfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbgt_response::BinaryDilutionModel;

    fn risks(n: usize) -> Vec<f64> {
        (0..n).map(|i| 0.02 + 0.01 * (i % 7) as f64).collect()
    }

    fn small_cfg() -> ParticleConfig {
        ParticleConfig {
            particles: 512,
            ..ParticleConfig::default()
        }
    }

    fn session(n: usize) -> ParticleSession<BinaryDilutionModel> {
        ParticleBackend::open(
            &risks(n),
            BinaryDilutionModel::pcr_like(),
            SbgtConfig::default().serial(),
            small_cfg(),
        )
        .unwrap()
    }

    #[test]
    fn constructor_validates_everything() {
        let model = BinaryDilutionModel::pcr_like();
        let cfg = SbgtConfig::default().serial();
        assert!(ParticleBackend::open(&[], model, cfg, small_cfg()).is_err());
        assert!(ParticleBackend::open(&[1.5], model, cfg, small_cfg()).is_err());
        let zero = ParticleConfig {
            particles: 0,
            ..ParticleConfig::default()
        };
        assert!(ParticleBackend::open(&[0.1], model, cfg, zero).is_err());
        let bad_ess = ParticleConfig {
            ess_frac: 0.0,
            ..ParticleConfig::default()
        };
        assert!(ParticleBackend::open(&[0.1], model, cfg, bad_ess).is_err());
    }

    #[test]
    fn prior_marginals_track_the_risks() {
        let s = session(10);
        for (m, r) in s.marginals().iter().zip(risks(10)) {
            // 512 particles: Monte Carlo error on a Bernoulli(≤0.08) mean.
            assert!((m - r).abs() < 0.05, "prior marginal {m} vs risk {r}");
        }
        assert!(
            (s.backend().ess() - 512.0).abs() < 1e-9,
            "uniform weights → ESS = P"
        );
    }

    #[test]
    fn same_seed_is_bit_for_bit_reproducible() {
        let truth = BigState::from_subjects([3, 11]);
        let mut a = session(16);
        let mut b = session(16);
        let oa = a.run((), |pool| truth.intersects(pool));
        let ob = b.run((), |pool| truth.intersects(pool));
        assert_eq!(oa.marginals, ob.marginals, "same (seed, config) must agree");
        assert_eq!(oa.tests, ob.tests);
        assert_eq!(a.backend().words, b.backend().words);
        assert_eq!(a.backend().rng.state(), b.backend().rng.state());
        // A different seed takes a different sample path.
        let mut c = ParticleBackend::open(
            &risks(16),
            BinaryDilutionModel::pcr_like(),
            SbgtConfig::default().serial(),
            ParticleConfig {
                seed: 999,
                ..small_cfg()
            },
        )
        .unwrap();
        c.run((), |pool| truth.intersects(pool));
        assert_ne!(a.backend().words, c.backend().words);
    }

    #[test]
    fn positive_singleton_observation_moves_the_marginal() {
        let mut s = session(8);
        let pool = BigState::from_subjects([2]);
        let z = s.observe_in((), &pool, true).unwrap();
        assert!(z > 0.0 && z < 1.0, "evidence {z} must be a probability");
        let m = s.marginals();
        assert!(
            m[2] > 0.5,
            "positive singleton test must implicate subject 2, got {}",
            m[2]
        );
    }

    #[test]
    fn resampling_restores_ess() {
        let mut s = session(12);
        // Hammer one subject with repeated positive singletons: weights
        // concentrate, ESS collapses, resampling + rejuvenation kicks in.
        let pool = BigState::from_subjects([5]);
        for _ in 0..6 {
            s.observe_in((), &pool, true).unwrap();
        }
        assert!(
            s.backend().ess() >= s.backend().particle_config().ess_frac * 512.0 * 0.5,
            "ESS {} should have been restored by resampling",
            s.backend().ess()
        );
        assert!(s.marginals()[5] > 0.9);
    }

    #[test]
    fn restore_rejects_mismatched_spec() {
        let s = session(8);
        let snap = s.snapshot();
        let model = BinaryDilutionModel::pcr_like();
        let cfg = SbgtConfig::default().serial();
        assert!(ParticleBackend::restore(&snap, &risks(9), model, cfg, small_cfg()).is_err());
        let wrong_count = ParticleConfig {
            particles: 64,
            ..ParticleConfig::default()
        };
        assert!(ParticleBackend::restore(&snap, &risks(8), model, cfg, wrong_count).is_err());
    }
}
