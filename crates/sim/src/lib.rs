//! # sbgt-sim — simulation substrate for disease surveillance
//!
//! The SBGT paper evaluates on COVID-19 surveillance workloads. Those
//! cohorts and assay traces are not redistributable, so this crate builds
//! the synthetic equivalent that exercises identical code paths (the
//! substitution recorded in DESIGN.md): the Bayesian machinery consumes
//! only prior risks and test outcomes, both of which are generated here
//! under controlled prevalence/risk/dilution regimes.
//!
//! * [`population`] — ground-truth cohorts: flat prevalence, risk-group
//!   mixtures, seeded and reproducible;
//! * [`outcome`] — the virtual lab: samples assay outcomes for a pool given
//!   the ground truth and a response model;
//! * [`runner`] — sequential testing episodes: Bayesian halving /
//!   look-ahead loops run to classification, plus the *individual-testing*
//!   and *Dorfman two-stage* comparator procedures;
//! * [`metrics`] — confusion matrices, tests-per-subject, stage counts, and
//!   aggregation across replicates;
//! * [`scenario`] — named workload configurations (the E1 table);
//! * [`traffic`] — open-loop Poisson specimen arrivals driving the
//!   surveillance service (`sbgt-service`, the multi-cohort outer loop).

#![forbid(unsafe_code)]

pub mod array_testing;
pub mod dorfman;
pub mod metrics;
pub mod outcome;
pub mod population;
pub mod robustness;
pub mod runner;
pub mod scenario;
pub mod traffic;

pub use array_testing::{run_array_testing, square_grid};
pub use dorfman::{dorfman_expected_tests_per_subject, optimal_dorfman_pool};
pub use metrics::{ConfusionMatrix, EpisodeStats, SummaryStats};
pub use population::{Population, RiskProfile};
pub use robustness::{misspecification_sweep, RobustnessRow};
pub use runner::{
    run_dorfman, run_episode, run_episode_with_prior, run_individual, EpisodeConfig, EpisodeResult,
};
pub use scenario::Scenario;
pub use traffic::{generate_arrivals, Arrival, TrafficClass, TrafficConfig};
