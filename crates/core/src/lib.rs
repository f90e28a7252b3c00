//! # sbgt — Scaling Bayesian-based Group Testing
//!
//! Rust reproduction of **SBGT** (Chen, Qi, Lu, Tatsuoka — IPDPS 2023): a
//! framework that scales Bayesian lattice group testing to cohort sizes
//! where the `2^N` state space makes naive implementations unusable.
//!
//! The paper's three accelerated operation classes map to this crate as:
//!
//! | Operation class | Here |
//! |---|---|
//! | lattice-model manipulation | [`SbgtSession::observe`] (fused parallel posterior update) |
//! | test selection | [`SbgtSession::select_next`] / [`SbgtSession::select_stage`] (one-pass prefix halving, branch-fused look-ahead) |
//! | statistical analysis | [`SbgtSession::report`] (fused parallel marginals/entropy/top-k) |
//!
//! The loop over those three classes is written once — the generic
//! [`Session`] driver in [`session`] — over a small [`Backend`] trait that
//! carries only what differs between posterior representations. The
//! concrete sessions are aliases: [`SbgtSession`] (dense in memory, with
//! the adaptive dense→sparse switch), [`ShardedSession`] (engine shards),
//! [`SparseSession`] (pruned lattice); `sbgt-approx` adds the BP and
//! particle backends past the `2^N` wall.
//!
//! Two frameworks implement the same math:
//!
//! * [`SbgtSession`] — the SBGT framework: likelihood-table
//!   broadcast, fused multiply+reduce passes, one-pass all-prefix halving
//!   search, rayon chunk kernels, and an engine-sharded dataflow variant
//!   ([`parallel::ShardedPosterior`]) that mirrors the paper's Spark
//!   mapping (partitioned lattice shards, broadcast tables, stage metrics).
//! * [`baseline::BaselineSession`] — the pre-SBGT "state-of-the-art
//!   framework" comparator: same Bayesian semantics, implemented the
//!   straightforward way (per-state response-model calls, separate
//!   multiply/sum/scale passes, one full lattice scan per candidate pool,
//!   one pass per marginal). The speedup experiments (E2–E4) measure the
//!   gap between the two.
//!
//! ## Quickstart
//!
//! ```
//! use sbgt::prelude::*;
//!
//! // 12 subjects at 2% prevalence, PCR-like assay with dilution.
//! let prior = Prior::flat(12, 0.02);
//! let model = BinaryDilutionModel::pcr_like();
//! let mut session = SbgtSession::new(prior, model, SbgtConfig::default());
//!
//! // Ask SBGT which pool to test first.
//! let selection = session.select_next().expect("cohort is unclassified");
//! assert!(selection.pool.rank() >= 1);
//!
//! // Feed the lab outcome back in; the posterior updates in parallel.
//! session.observe(selection.pool, false).unwrap();
//! let report = session.report(4);
//! assert!(report.marginals.iter().all(|&m| m < 0.02 + 1e-9));
//! ```

#![forbid(unsafe_code)]

pub mod baseline;
pub mod config;
pub mod conformance;
pub mod dense_session;
pub mod parallel;
pub mod report;
pub mod session;
pub mod sharded_session;
pub mod snapshot;
pub mod sparse_session;

pub use baseline::BaselineSession;
pub use config::{ConfigError, ExecMode, SbgtConfig};
pub use dense_session::{DenseBackend, SbgtSession};
pub use parallel::{FusedRound, ShardedPosterior};
pub use report::SessionOutcome;
pub use session::{Backend, History, Pool, RoundCtx, RoundStep, RoundTrace, Session};
pub use sharded_session::{ShardedBackend, ShardedSession};
pub use snapshot::{
    ApproxKind, ApproxSnapshot, ParticleBlock, SessionSnapshot, SnapshotError, SparseSnapshot,
};
pub use sparse_session::{SparseBackend, SparseSession};

// The adaptive-switch types are lattice-level but configured through
// [`SbgtConfig::sparse_switch`], so re-export them at the session surface.
pub use sbgt_lattice::{HybridPosterior, SparsePosterior, SparseSwitch};

// The plan cache is select-level but attached through the sessions
// (`attach_plan`), so re-export the service-facing types here too.
pub use sbgt_select::{
    PlanCache, PlanCacheStats, PlanCodecError, PlanHandle, PlanKey, PlanLineage, RiskQuantizer,
};

/// One-stop imports for applications.
pub mod prelude {
    pub use crate::{
        ApproxKind, ApproxSnapshot, BaselineSession, ConfigError, ExecMode, ParticleBlock,
        RoundStep, SbgtConfig, SbgtSession, SessionOutcome, SessionSnapshot, ShardedSession,
        SnapshotError, SparseSession, SparseSwitch,
    };
    pub use sbgt_bayes::{ClassificationRule, CohortClassification, Prior, SubjectStatus};
    pub use sbgt_lattice::State;
    pub use sbgt_response::{BinaryDilutionModel, Dilution, GaussianResponse};
    pub use sbgt_select::{LookaheadConfig, SelectError, Selection};
}
