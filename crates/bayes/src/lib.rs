//! # sbgt-bayes — Bayesian machinery for lattice group testing
//!
//! Implements the statistical core of the framework on top of the lattice
//! and response substrates:
//!
//! * [`prior`] — cohort priors: flat prevalence, heterogeneous risk groups,
//!   arbitrary per-subject risks;
//! * [`update`] — the Bayesian update after observing a pooled test
//!   (`π'(s) ∝ π(s) · f(y | |s∩A|, |A|)`), dense and sparse, both
//!   returning the model evidence;
//! * [`classify`] — threshold classification on posterior marginals, the
//!   stopping rule of the sequential procedure;
//! * [`analysis`] — the "statistical analyses" operation class of the SBGT
//!   paper: marginals, entropy, MAP/top-k states, rank distribution,
//!   computed in fused passes.

#![forbid(unsafe_code)]

pub mod analysis;
pub mod classify;
pub mod prior;
pub mod update;

pub use analysis::{analyze, analyze_on, PosteriorReport};
pub use classify::{classify_marginals, ClassificationRule, CohortClassification, SubjectStatus};
pub use prior::Prior;
pub use update::{update_dense, update_sparse, update_sparse_with_table, BayesError, Observation};
