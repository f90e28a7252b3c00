//! # sbgt-sim — simulation substrate for disease surveillance
//!
//! The SBGT paper evaluates on COVID-19 surveillance workloads. Those
//! cohorts and assay traces are not redistributable, so this crate builds
//! the synthetic equivalent that exercises identical code paths (the
//! substitution recorded in DESIGN.md): the Bayesian machinery consumes
//! only prior risks and test outcomes, both of which are generated here
//! under controlled prevalence/risk/dilution regimes.
//!
//! The crate runs no Bayesian round loop of its own: an episode is a
//! session (`sbgt::SbgtSession`) driven to classification against
//! [`Population::lab`], scored with [`ConfusionMatrix::from_statuses`].
//!
//! * [`population`] — ground-truth cohorts: flat prevalence, risk-group
//!   mixtures, seeded and reproducible, and the seeded virtual lab a
//!   session runs against;
//! * [`outcome`] — one virtual-lab draw: samples an assay outcome for a
//!   pool given the ground truth and a response model;
//! * [`comparators`], [`array_testing`], [`dorfman`] — the classical
//!   procedures the Bayesian episode is measured against (individual
//!   testing, Dorfman two-stage pooling, 2D arrays) and Dorfman's closed
//!   form;
//! * [`metrics`] — confusion matrices, tests-per-subject, stage counts, and
//!   aggregation across replicates;
//! * [`robustness`] — the prior-misspecification sweep (E11), over an
//!   episode the caller supplies;
//! * [`traffic`] — open-loop Poisson specimen arrivals driving the
//!   surveillance service (`sbgt-service`, the multi-cohort outer loop).

#![forbid(unsafe_code)]

pub mod array_testing;
pub mod comparators;
pub mod dorfman;
pub mod metrics;
pub mod outcome;
pub mod population;
pub mod robustness;
pub mod traffic;

pub use array_testing::{run_array_testing, square_grid};
pub use comparators::{run_dorfman, run_individual, EpisodeResult};
pub use dorfman::{dorfman_expected_tests_per_subject, optimal_dorfman_pool};
pub use metrics::{ConfusionMatrix, EpisodeStats, SummaryStats};
pub use population::{Population, RiskProfile};
pub use robustness::{misspecification_sweep, RobustnessRow};
pub use traffic::{generate_arrivals, Arrival, TrafficClass, TrafficConfig};
