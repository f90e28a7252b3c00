//! The baseline framework — the "state of the art" SBGT is measured
//! against.
//!
//! This module implements *exactly the same Bayesian semantics* as
//! [`crate::SbgtSession`], the way a straightforward single-threaded
//! framework (the pre-SBGT generation of lattice group-testing code) does
//! it:
//!
//! * **Update**: calls the response model once *per lattice state*
//!   (`2^N` likelihood evaluations instead of a `|A|+1`-entry table), then
//!   makes *separate* passes to sum and rescale — three traversals and
//!   `2^N` model calls versus SBGT's one fused traversal and `|A|+1` calls.
//! * **Selection**: scores each candidate pool with its own full-lattice
//!   down-set-mass scan — `Θ(N · 2^N)` for the prefix family versus SBGT's
//!   single `Θ(2^N)` all-prefix pass.
//! * **Analysis**: one full pass per subject marginal, another for the
//!   entropy, another for the rank distribution, and a full
//!   materialize-and-sort for the top-k — `Θ(N · 2^N)` plus an
//!   `Θ(2^N log 2^N)` sort versus SBGT's fused passes and bounded heap.
//!
//! Results agree with the SBGT session to floating-point reordering
//! (asserted by tests); only the cost model differs. The E2–E4 experiments
//! measure that gap.

use sbgt_bayes::{classify_marginals, BayesError, CohortClassification, PosteriorReport, Prior};
use sbgt_lattice::{iter::all_states, DensePosterior, State};
use sbgt_response::BinaryOutcomeModel;
use sbgt_select::Selection;

use crate::config::SbgtConfig;
use crate::report::SessionOutcome;

/// A session driven by the baseline framework. Mirrors the
/// [`crate::SbgtSession`] surface so the two are interchangeable in
/// benchmarks and tests.
pub struct BaselineSession<M> {
    posterior: DensePosterior,
    model: M,
    config: SbgtConfig,
    history: Vec<(State, bool)>,
    stages: usize,
}

impl<M: BinaryOutcomeModel> BaselineSession<M> {
    /// Open a baseline session.
    pub fn new(prior: Prior, model: M, config: SbgtConfig) -> Self {
        BaselineSession {
            posterior: prior.to_dense(),
            model,
            config,
            history: Vec::new(),
            stages: 0,
        }
    }

    /// Cohort size.
    pub fn n_subjects(&self) -> usize {
        self.posterior.n_subjects()
    }

    /// Borrow the posterior.
    pub fn posterior(&self) -> &DensePosterior {
        &self.posterior
    }

    /// Observed history.
    pub fn history(&self) -> &[(State, bool)] {
        &self.history
    }

    /// Stage count.
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// Naive Bayesian update: per-state model calls, then separate
    /// sum and scale passes.
    pub fn observe(&mut self, pool: State, outcome: bool) -> Result<f64, BayesError> {
        if pool.is_empty() {
            return Err(BayesError::EmptyPool);
        }
        let n = pool.rank();
        // Pass 1: multiply, calling the model for every state.
        for s in all_states(self.posterior.n_subjects()) {
            let k = s.positives_in(pool);
            let lik = self.model.likelihood(outcome, k, n);
            let idx = s.index();
            self.posterior.probs_mut()[idx] *= lik;
        }
        // Pass 2: sum.
        let z = self.posterior.total();
        if !(z.is_finite() && z > 0.0) {
            return Err(BayesError::ImpossibleObservation);
        }
        // Pass 3: scale.
        let inv = 1.0 / z;
        for p in self.posterior.probs_mut() {
            *p *= inv;
        }
        self.history.push((pool, outcome));
        self.stages += 1;
        Ok(z)
    }

    /// Naive marginals: one full lattice pass per subject.
    pub fn marginals(&self) -> Vec<f64> {
        let n = self.posterior.n_subjects();
        let total = self.posterior.total();
        let mut out = Vec::with_capacity(n);
        for subject in 0..n {
            let mut mass = 0.0;
            for s in all_states(n) {
                if s.contains(subject) {
                    mass += self.posterior.get(s);
                }
            }
            out.push(if total > 0.0 { mass / total } else { 0.0 });
        }
        out
    }

    /// Classification under the configured rule.
    pub fn classify(&self) -> CohortClassification {
        classify_marginals(&self.marginals(), self.config.rule)
    }

    /// Naive halving selection: one full down-set mass scan per candidate
    /// prefix pool.
    pub fn select_next(&self) -> Option<Selection> {
        let marginals = self.marginals();
        let mut eligible = classify_marginals(&marginals, self.config.rule).undetermined();
        eligible.sort_by(|&a, &b| marginals[a].total_cmp(&marginals[b]).then(a.cmp(&b)));
        if eligible.is_empty() {
            return None;
        }
        let total = self.posterior.total();
        if !(total.is_finite() && total > 0.0) {
            return None;
        }
        let cap = self.config.max_pool_size.min(eligible.len());
        let mut best: Option<Selection> = None;
        for k in 1..=cap {
            let pool = State::from_subjects(eligible[..k].iter().copied());
            // Full 2^N scan per candidate — the baseline cost model.
            let mass = self.posterior.pool_negative_mass(pool) / total;
            let cand = Selection {
                pool,
                negative_mass: mass,
                distance: (mass - 0.5).abs(),
            };
            let better = match &best {
                None => true,
                Some(b) => cand.distance + 1e-12 < b.distance,
            };
            if better {
                best = Some(cand);
            }
        }
        best
    }

    /// Naive statistical analysis: a pass per statistic and a full
    /// materialize-and-sort for the top-k.
    pub fn report(&self, top_k: usize) -> PosteriorReport {
        let n = self.posterior.n_subjects();
        let marginals = self.marginals();
        let expected_positives = marginals.iter().sum();
        // Entropy: its own pass.
        let entropy = self.posterior.entropy();
        // Rank distribution: its own pass.
        let mut rank_distribution = vec![0.0; n + 1];
        let total = self.posterior.total();
        for s in all_states(n) {
            rank_distribution[s.rank() as usize] += self.posterior.get(s);
        }
        if total > 0.0 {
            for r in &mut rank_distribution {
                *r /= total;
            }
        }
        // Top-k: materialize all 2^N states and sort.
        let mut everything: Vec<(State, f64)> =
            all_states(n).map(|s| (s, self.posterior.get(s))).collect();
        everything.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.bits().cmp(&b.0.bits())));
        let top_states: Vec<(State, f64)> = everything
            .into_iter()
            .take(top_k)
            .map(|(s, p)| (s, if total > 0.0 { p / total } else { 0.0 }))
            .collect();
        let map_state = top_states.first().copied().unwrap_or((State::EMPTY, 0.0));
        PosteriorReport {
            marginals,
            entropy,
            map_state,
            top_states,
            rank_distribution,
            expected_positives,
        }
    }

    /// Drive to classification against a lab oracle (single pool per
    /// stage — the baseline framework has no look-ahead).
    pub fn run_to_classification(&mut self, mut lab: impl FnMut(State) -> bool) -> SessionOutcome {
        loop {
            let classification = self.classify();
            if classification.is_terminal() || self.stages >= self.config.max_stages {
                return self.outcome(classification);
            }
            let Some(selection) = self.select_next() else {
                return self.outcome(classification);
            };
            let outcome = lab(selection.pool);
            if self.observe(selection.pool, outcome).is_err() {
                return self.outcome(self.classify());
            }
        }
    }

    fn outcome(&self, classification: CohortClassification) -> SessionOutcome {
        SessionOutcome {
            tests: self.history.len(),
            stages: self.stages,
            subjects: self.n_subjects(),
            classification,
            marginals: self.marginals(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SbgtSession;
    use sbgt_response::BinaryDilutionModel;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    fn risks() -> Vec<f64> {
        vec![0.02, 0.07, 0.01, 0.12, 0.05, 0.03, 0.09]
    }

    #[test]
    fn baseline_matches_sbgt_update_and_analysis() {
        let model = BinaryDilutionModel::pcr_like();
        let cfg = SbgtConfig::default().serial();
        let mut base = BaselineSession::new(Prior::from_risks(&risks()), model, cfg);
        let mut fast = SbgtSession::new(Prior::from_risks(&risks()), model, cfg);

        let tests = [
            (State::from_subjects([0, 1, 2]), false),
            (State::from_subjects([3, 4]), true),
            (State::from_subjects([3]), true),
        ];
        for (pool, outcome) in tests {
            let zb = base.observe(pool, outcome).unwrap();
            let zf = fast.observe(pool, outcome).unwrap();
            assert!(close(zb, zf), "evidence {zb} vs {zf}");
        }
        for (a, b) in base.marginals().iter().zip(fast.marginals()) {
            assert!(close(*a, b));
        }
        let rb = base.report(5);
        let rf = fast.report(5);
        assert!(close(rb.entropy, rf.entropy));
        assert_eq!(rb.map_state.0, rf.map_state.0);
        for ((s1, p1), (s2, p2)) in rb.top_states.iter().zip(&rf.top_states) {
            assert_eq!(s1, s2);
            assert!(close(*p1, *p2));
        }
        for (a, b) in rb.rank_distribution.iter().zip(&rf.rank_distribution) {
            assert!(close(*a, *b));
        }
    }

    #[test]
    fn baseline_matches_sbgt_selection() {
        let model = BinaryDilutionModel::pcr_like();
        let cfg = SbgtConfig::default().serial();
        let mut base = BaselineSession::new(Prior::from_risks(&risks()), model, cfg);
        let mut fast = SbgtSession::new(Prior::from_risks(&risks()), model, cfg);
        base.observe(State::from_subjects([0, 1]), false).unwrap();
        fast.observe(State::from_subjects([0, 1]), false).unwrap();
        let sb = base.select_next().unwrap();
        let sf = fast.select_next().unwrap();
        assert_eq!(sb.pool, sf.pool);
        assert!(close(sb.negative_mass, sf.negative_mass));
    }

    #[test]
    fn baseline_runs_to_classification() {
        let truth = State::from_subjects([2]);
        let mut base = BaselineSession::new(
            Prior::flat(7, 0.05),
            BinaryDilutionModel::perfect(),
            SbgtConfig::default().serial(),
        );
        let outcome = base.run_to_classification(|pool| truth.intersects(pool));
        assert!(outcome.classification.is_terminal());
        assert_eq!(outcome.classification.positives(), 1);
        assert!(outcome.tests < 7);
    }

    #[test]
    fn baseline_error_paths() {
        let model = BinaryDilutionModel::perfect();
        let mut base =
            BaselineSession::new(Prior::flat(3, 0.1), model, SbgtConfig::default().serial());
        assert_eq!(
            base.observe(State::EMPTY, true).unwrap_err(),
            BayesError::EmptyPool
        );
        let pool = State::from_subjects([0, 1, 2]);
        base.observe(pool, false).unwrap();
        assert_eq!(
            base.observe(pool, true).unwrap_err(),
            BayesError::ImpossibleObservation
        );
    }
}
