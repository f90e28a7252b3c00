//! Statistical analyses over the posterior — SBGT's third operation class.
//!
//! A surveillance program consumes more than classifications: per-subject
//! marginals (for reflex testing), posterior entropy (a progress gauge for
//! the sequential design), the MAP state and top-k credible states (for
//! outbreak-pattern readouts), and the rank distribution (posterior over
//! the *number* of positives, for prevalence estimation). [`analyze`]
//! computes all of these in a few fused passes over the lattice;
//! [`analyze_par`] is the parallel variant.

use serde::{Deserialize, Serialize};

use sbgt_lattice::kernels::{par_entropy, par_marginals, par_top_k, ParConfig};
use sbgt_lattice::{DensePosterior, State};

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

impl PosteriorReport {
    /// Probability mass captured by the reported top states (a credible-set
    /// coverage figure).
    pub fn top_coverage(&self) -> f64 {
        self.top_states.iter().map(|(_, p)| p).sum()
    }
}

/// Serial analysis pass. `top_k` bounds the credible-state list length.
pub fn analyze(posterior: &DensePosterior, top_k: usize) -> PosteriorReport {
    let marginals = posterior.marginals();
    let expected_positives = marginals.iter().sum();
    PosteriorReport {
        entropy: posterior.entropy(),
        map_state: posterior.map_state(),
        top_states: posterior.top_k(top_k),
        rank_distribution: posterior.rank_distribution(),
        expected_positives,
        marginals,
    }
}

/// Parallel analysis pass (rayon kernels for every `Θ(2^N)` reduction,
/// including the chunked-heap top-k).
pub fn analyze_par(posterior: &DensePosterior, top_k: usize, cfg: ParConfig) -> PosteriorReport {
    let marginals = par_marginals(posterior, cfg);
    let expected_positives = marginals.iter().sum();
    let top_states = par_top_k(posterior, top_k, cfg);
    let map_state = top_states
        .first()
        .copied()
        .unwrap_or_else(|| posterior.map_state());
    PosteriorReport {
        entropy: par_entropy(posterior, cfg),
        map_state,
        top_states,
        rank_distribution: posterior.rank_distribution(),
        expected_positives,
        marginals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(r.top_coverage() <= 1.0 + 1e-12);
        // Top states are sorted descending.
        for w in r.top_states.windows(2) {
            assert!(w[0].1 >= w[1].1 - 1e-15);
        }
    }

    #[test]
    fn serial_and_parallel_reports_agree() {
        let cfg = ParConfig {
            chunk_len: 9,
            threshold: 0,
        };
        // The uniform posterior ties every state: both passes must report
        // the smallest one as the MAP state, as `top_states` does.
        for d in [
            DensePosterior::from_risks(&[0.3, 0.1, 0.45, 0.2, 0.08, 0.15]),
            DensePosterior::new_uniform(6),
        ] {
            let a = analyze(&d, 4);
            let b = analyze_par(&d, 4, cfg);
            assert!(close(a.entropy, b.entropy));
            assert_eq!(a.map_state.0, a.top_states[0].0);
            assert_eq!(a.map_state.0, b.map_state.0);
            for (x, y) in a.marginals.iter().zip(&b.marginals) {
                assert!(close(*x, *y));
            }
            for ((s1, p1), (s2, p2)) in a.top_states.iter().zip(&b.top_states) {
                assert_eq!(s1, s2);
                assert!(close(*p1, *p2));
            }
        }
    }

    #[test]
    fn low_prevalence_map_is_empty_state() {
        let d = DensePosterior::from_risks(&[0.01; 8]);
        let r = analyze(&d, 1);
        assert_eq!(r.map_state.0, State::EMPTY);
        assert!(r.map_state.1 > 0.9);
    }
}
