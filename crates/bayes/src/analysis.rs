//! Statistical analyses over the posterior — SBGT's third operation class.
//!
//! A surveillance program consumes more than classifications: per-subject
//! marginals (for reflex testing), posterior entropy (a progress gauge for
//! the sequential design), the MAP state and top-k credible states (for
//! outbreak-pattern readouts), and the rank distribution (posterior over
//! the *number* of positives, for prevalence estimation). [`analyze_on`]
//! computes all of these in a few fused passes over the lattice, with the
//! blocks of each pass run where its [`ExecMode`] says; [`analyze`] runs
//! them inline. Both give the same bits.

use serde::{Deserialize, Serialize};

use sbgt_lattice::{DensePosterior, ExecMode, State};

/// Full statistical readout of a posterior.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PosteriorReport {
    /// Per-subject `P(positive | data)`.
    pub marginals: Vec<f64>,
    /// Shannon entropy (nats) of the joint posterior.
    pub entropy: f64,
    /// Maximum a-posteriori state and its probability.
    pub map_state: (State, f64),
    /// The `k` most probable states, descending.
    pub top_states: Vec<(State, f64)>,
    /// Posterior distribution of the number of positives.
    pub rank_distribution: Vec<f64>,
    /// Expected number of positives.
    pub expected_positives: f64,
}

/// [`analyze_on`] with every block inline.
pub fn analyze(posterior: &DensePosterior, top_k: usize) -> PosteriorReport {
    analyze_on(posterior, top_k, ExecMode::Serial)
}

/// The full read-out. `top_k` bounds the credible-state list length.
pub fn analyze_on(posterior: &DensePosterior, top_k: usize, exec: ExecMode) -> PosteriorReport {
    let marginals = posterior.marginals_on(exec);
    let expected_positives = marginals.iter().sum();
    PosteriorReport {
        entropy: posterior.entropy_on(exec),
        map_state: posterior.map_state_on(exec),
        top_states: posterior.top_k_on(top_k, exec),
        rank_distribution: posterior.rank_distribution_on(exec),
        expected_positives,
        marginals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbgt_lattice::ParConfig;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9 * (1.0 + a.abs() + b.abs())
    }

    #[test]
    fn report_is_internally_consistent() {
        let d = DensePosterior::from_risks(&[0.1, 0.4, 0.25, 0.05]);
        let r = analyze(&d, 3);
        assert_eq!(r.marginals.len(), 4);
        assert!(close(r.expected_positives, r.marginals.iter().sum::<f64>()));
        assert!(close(r.rank_distribution.iter().sum::<f64>(), 1.0));
        assert_eq!(r.top_states.len(), 3);
        assert_eq!(r.top_states[0].0, r.map_state.0);
        assert!(r.top_states.iter().map(|(_, p)| p).sum::<f64>() <= 1.0 + 1e-12);
        // Top states are sorted descending.
        for w in r.top_states.windows(2) {
            assert!(w[0].1 >= w[1].1 - 1e-15);
        }
    }

    /// Past one 2^16-state block the read-out is a fold of block
    /// partials, and it is the same fold on rayon.
    #[test]
    fn serial_and_parallel_reports_are_bitwise_equal() {
        let risks: Vec<f64> = (0..17).map(|i| 0.02 + 0.05 * (i % 7) as f64).collect();
        let d = DensePosterior::from_risks(&risks);
        let a = analyze(&d, 4);
        let b = analyze_on(&d, 4, ExecMode::Parallel(ParConfig));
        assert_eq!(a.entropy.to_bits(), b.entropy.to_bits());
        assert_eq!(a.map_state.0, a.top_states[0].0);
        assert_eq!(a.map_state.0, b.map_state.0);
        assert_eq!(a.map_state.1.to_bits(), b.map_state.1.to_bits());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.marginals), bits(&b.marginals));
        assert_eq!(bits(&a.rank_distribution), bits(&b.rank_distribution));
        assert_eq!(a.top_states.len(), b.top_states.len());
        for ((s1, p1), (s2, p2)) in a.top_states.iter().zip(&b.top_states) {
            assert_eq!(s1, s2);
            assert_eq!(p1.to_bits(), p2.to_bits());
        }
    }

    #[test]
    fn uniform_posterior_map_is_the_smallest_tied_state() {
        let d = DensePosterior::new_uniform(6);
        let r = analyze(&d, 4);
        assert_eq!(r.map_state.0, State::EMPTY);
        assert_eq!(r.map_state.0, r.top_states[0].0);
    }

    #[test]
    fn low_prevalence_map_is_empty_state() {
        let d = DensePosterior::from_risks(&[0.01; 8]);
        let r = analyze(&d, 1);
        assert_eq!(r.map_state.0, State::EMPTY);
        assert!(r.map_state.1 > 0.9);
    }
}
