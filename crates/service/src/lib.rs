//! # sbgt-service — a multi-cohort surveillance service
//!
//! The SBGT paper scales one Bayesian group-testing session; a surveillance
//! *program* runs many of them at once against a shared compute budget.
//! This crate is that operational layer: a thread-based service (no async
//! runtime — crossbeam channels and plain workers) that
//!
//! * accepts specimen submissions on a **bounded ingress queue** with
//!   admission control — overload sheds with a typed
//!   [`ServiceError::Shed`] instead of unbounded buffering;
//! * groups specimens into per-cohort batches, closed by **size or
//!   deadline**, with a second admission stage capping live cohorts;
//! * drives every cohort's Bayesian session **round by round under
//!   weighted fair queueing** over per-lab tenant lanes ([`WfqScheduler`];
//!   uniform weights degenerate to the original round-robin) on one
//!   shared [`sbgt_engine`] executor, with optional per-tenant latency
//!   SLOs that shed at admission when breached;
//! * **checkpoints and restores** full session state bit-for-bit
//!   ([`CohortCheckpoint`], [`ServiceCheckpoint`]) for eviction, migration,
//!   and rollback-and-replay recovery when an engine fault kills a round;
//! * feeds service metrics (queue depth, shed count, round latency
//!   percentiles, throughput) into the engine's [`MetricsRegistry`], which
//!   the Prometheus page reads;
//! * shares one process-wide **plan cache** ([`PlanCache`]) of memoized
//!   BHA decision trees across cohorts whose quantized configuration maps
//!   to the same key, replaying selections instead of re-searching —
//!   enabled by [`ServiceConfig::plan_cache_nodes`] and warmed trees
//!   survive suspension via the `SBGTPLAN` section of
//!   [`ServiceCheckpoint`].
//!
//! The correctness contract, enforced by the test suite: a seeded workload
//! classified through the service — interleaved, under chaos faults, or
//! across a suspend/resume cycle — is **bit-for-bit identical** to each
//! cohort run serially ([`run_cohort_serial`]).
//!
//! ```
//! use sbgt_engine::{EngineConfig, SharedEngine};
//! use sbgt_service::{ServiceConfig, Specimen, SurveillanceService};
//!
//! let engine = SharedEngine::new(EngineConfig::default().with_threads(2));
//! let service = SurveillanceService::start(engine, ServiceConfig::default()).unwrap();
//! for i in 0..20 {
//!     service.submit(Specimen { risk: 0.03, infected: i % 7 == 0 }).unwrap();
//! }
//! let reports = service.drain();
//! assert_eq!(reports.iter().map(|r| r.subjects).sum::<usize>(), 20);
//! ```
//!
//! [`MetricsRegistry`]: sbgt_engine::MetricsRegistry

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod cohort;
pub mod config;
pub mod error;
pub mod service;
pub mod slo;
pub mod wfq;

pub use checkpoint::{CohortCheckpoint, CohortKind};
pub use cohort::{
    batch_specimens, lab_outcome, lab_outcome_big, run_cohort_serial, CohortActor, CohortSpec,
    Specimen,
};
pub use config::{ApproxBackend, ServiceConfig, SessionPolicy, TenantSpec};
pub use error::{ServiceError, ShedReason};
pub use service::{CohortReport, ServiceCheckpoint, SurveillanceService};
pub use slo::{BurnRateAlert, BURN_ALERT_MARK};
pub use wfq::WfqScheduler;

// Plan-cache types a service embedder needs to own a shared cache.
pub use sbgt::{PlanCache, PlanCacheStats, PlanCodecError, RiskQuantizer};
