//! # sbgt-repro — umbrella crate for the SBGT reproduction
//!
//! Re-exports every crate of the workspace so examples and integration
//! tests can use one import root. See the individual crates for the real
//! documentation:
//!
//! * [`sbgt`] — the SBGT framework itself (sessions, parallel operators,
//!   serial baseline).
//! * [`sbgt_engine`] — the partitioned dataflow engine (Spark substitute).
//! * [`sbgt_lattice`] — Boolean-lattice posteriors and kernels.
//! * [`sbgt_response`] — dilution-aware test response models.
//! * [`sbgt_bayes`] — priors, updates, classification, analyses.
//! * [`sbgt_select`] — Bayesian Halving Algorithm and look-ahead rules.
//! * [`sbgt_sim`] — synthetic cohorts, the seeded virtual lab a session
//!   runs an episode against, and the classical comparators.
//! * [`sbgt_service`] — the multi-cohort surveillance service (batched
//!   ingestion, admission control, checkpoint/restore).

#![forbid(unsafe_code)]

pub use sbgt;
pub use sbgt_bayes;
pub use sbgt_engine;
pub use sbgt_lattice;
pub use sbgt_response;
pub use sbgt_select;
pub use sbgt_service;
pub use sbgt_sim;
