//! Service configuration and validation.

use std::time::Duration;

use serde::{Deserialize, Serialize};

use sbgt::SbgtConfig;
use sbgt_response::BinaryDilutionModel;

use crate::error::ServiceError;

/// Configuration of a [`crate::SurveillanceService`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// Worker threads driving cohort rounds (the engine has its own pool;
    /// workers only orchestrate, so a small number suffices).
    pub workers: usize,
    /// Capacity of the bounded ingress queue — the admission-control knob:
    /// [`crate::SurveillanceService::try_submit`] sheds when it is full.
    pub queue_capacity: usize,
    /// Cohort size: a batch closes when it holds this many specimens. The
    /// `2^N` lattice bounds this at 16 for the exact backends (the sharded
    /// sessions keep memory linear in `2^N / parts` but the service targets
    /// interactive cohorts); larger batches are accepted only when
    /// [`Self::approx_threshold`] routes every oversized cohort to an
    /// approximate backend, which scales in specimens and pools instead.
    pub batch_size: usize,
    /// A partially-filled batch closes this long after its first specimen
    /// arrives, so low-traffic cohorts are not starved.
    pub batch_deadline: Duration,
    /// Cap on live (opened, not yet classified) cohorts; the batcher holds
    /// new cohorts while at the cap, back-pressuring the ingress queue.
    pub max_live_cohorts: usize,
    /// Cohorts smaller than this run a dense in-memory session; larger ones
    /// run the engine-sharded session.
    pub dense_threshold: usize,
    /// Partition count for sharded cohort sessions.
    pub parts: usize,
    /// Per-update prune threshold for sparse cohort sessions, in `[0, 1)`.
    /// `0.0` (the default) disables the sparse mode entirely; a positive
    /// value routes cohorts of at least [`Self::sparse_threshold`] subjects
    /// to a pruned sparse [`sbgt::SbgtSession`] (`new_sparse`) instead of the sharded one.
    pub sparse_epsilon: f64,
    /// Minimum cohort size for the sparse session (only consulted when
    /// [`Self::sparse_epsilon`] is positive). Cohorts between
    /// `dense_threshold` and this size stay sharded.
    pub sparse_threshold: usize,
    /// Cohorts of at least this many subjects run an approximate posterior
    /// backend ([`Self::approx_backend`]) instead of any exact `2^N`
    /// session. `0` (the default) disables approximate placement; when
    /// [`Self::batch_size`] exceeds 16 this must be set (and at most 17)
    /// so every cohort past the exact wall lands on the approximate path.
    /// Takes precedence over the dense/sparse/sharded thresholds.
    pub approx_threshold: usize,
    /// Which approximate backend oversized cohorts run.
    pub approx_backend: ApproxBackend,
    /// Particle count for [`ApproxBackend::Particle`] cohorts (ignored by
    /// the BP backend). Must be positive when approximate placement is
    /// enabled with the particle backend.
    pub approx_particles: usize,
    /// Per-tree node budget of the process-wide plan cache: memoized BHA
    /// decision trees shared by every cohort whose quantized configuration
    /// maps to the same `PlanKey`. `0` (the default) disables the cache;
    /// a positive value must be at least 8 (smaller trees thrash their LRU
    /// budget on the very first session).
    pub plan_cache_nodes: usize,
    /// Risk-quantization resolution for plan-cache keys: cohort risks are
    /// snapped to `1/buckets`-wide cells **before** the prior is built, so
    /// cohorts in the same risk band share one decision tree. `0` (the
    /// default) keeps exact risks — cache sharing then requires identical
    /// risk vectors. Requires [`Self::plan_cache_nodes`] > 0 when set.
    pub plan_risk_buckets: u32,
    /// Per-lab tenant lanes for the weighted-fair scheduler. Empty (the
    /// default) means every tenant id seen in traffic shares one implicit
    /// lane of weight 1 — which makes WFQ degenerate to the original
    /// round-robin, so pre-tenant deployments behave identically. A tenant
    /// submitting under an id not listed here also gets weight 1 and no
    /// SLO.
    pub tenants: Vec<TenantSpec>,
    /// Per-cohort session parameters (halving vs look-ahead, pool caps...).
    pub session: SbgtConfig,
    /// Assay model shared by all cohorts.
    pub model: BinaryDilutionModel,
    /// Base RNG seed; per-cohort seeds derive from it and the cohort id.
    pub base_seed: u64,
    /// How many times a cohort round may be rolled back and replayed after
    /// an engine failure before the fault is considered fatal.
    pub max_recoveries: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_capacity: 256,
            batch_size: 10,
            batch_deadline: Duration::from_millis(50),
            max_live_cohorts: 64,
            dense_threshold: 9,
            parts: 4,
            sparse_epsilon: 0.0,
            sparse_threshold: 12,
            approx_threshold: 0,
            approx_backend: ApproxBackend::Bp,
            approx_particles: 2048,
            plan_cache_nodes: 0,
            plan_risk_buckets: 0,
            tenants: Vec::new(),
            session: SbgtConfig::default(),
            model: BinaryDilutionModel::pcr_like(),
            base_seed: 0,
            max_recoveries: 4,
        }
    }
}

impl ServiceConfig {
    /// Check the configuration, mirroring [`SbgtConfig::validate`]: every
    /// inconsistency is a typed [`ServiceError::InvalidConfig`], never a
    /// panic inside the service.
    pub fn validate(&self) -> Result<(), ServiceError> {
        if self.workers == 0 {
            return Err(ServiceError::InvalidConfig(
                "worker count must be at least 1".into(),
            ));
        }
        if self.queue_capacity == 0 {
            return Err(ServiceError::InvalidConfig(
                "ingress queue capacity must be at least 1".into(),
            ));
        }
        if self.batch_size == 0 {
            return Err(ServiceError::InvalidConfig(
                "batch size must be at least 1".into(),
            ));
        }
        if self.batch_size > 16 && self.approx_threshold == 0 {
            return Err(ServiceError::InvalidConfig(format!(
                "batch size {} outside 1..=16 (the 2^N lattice bounds exact \
                 cohort size); set approx_threshold to route oversized \
                 cohorts to an approximate backend",
                self.batch_size
            )));
        }
        if self.batch_size > 16 && self.approx_threshold > 17 {
            return Err(ServiceError::InvalidConfig(format!(
                "approx_threshold {} leaves cohorts of 17..{} subjects with \
                 no session able to hold them (exact backends stop at 16); \
                 it must be at most 17 when batch size exceeds 16",
                self.approx_threshold, self.approx_threshold
            )));
        }
        if self.approx_threshold > 0
            && self.approx_backend == ApproxBackend::Particle
            && self.approx_particles == 0
        {
            return Err(ServiceError::InvalidConfig(
                "particle backend enabled with zero particles; a weightless \
                 cloud cannot represent any posterior"
                    .into(),
            ));
        }
        if self.max_live_cohorts == 0 {
            return Err(ServiceError::InvalidConfig(
                "live-cohort cap must be at least 1".into(),
            ));
        }
        if self.parts == 0 {
            return Err(ServiceError::InvalidConfig(
                "sharded sessions need at least 1 partition".into(),
            ));
        }
        if !(0.0..1.0).contains(&self.sparse_epsilon) {
            return Err(ServiceError::InvalidConfig(format!(
                "sparse epsilon {} outside [0, 1)",
                self.sparse_epsilon
            )));
        }
        if self.plan_cache_nodes > 0 && self.plan_cache_nodes < 8 {
            return Err(ServiceError::InvalidConfig(format!(
                "plan cache node budget {} must be 0 (disabled) or at least 8",
                self.plan_cache_nodes
            )));
        }
        if self.plan_risk_buckets > 0 && self.plan_cache_nodes == 0 {
            return Err(ServiceError::InvalidConfig(
                "risk quantization (plan_risk_buckets > 0) without a plan cache \
                 perturbs priors for no benefit; set plan_cache_nodes too"
                    .into(),
            ));
        }
        let mut seen = std::collections::BTreeSet::new();
        for t in &self.tenants {
            if t.weight == 0 {
                return Err(ServiceError::InvalidConfig(format!(
                    "tenant {} has weight 0; a weightless lane would starve \
                     (omit the tenant instead)",
                    t.tenant
                )));
            }
            if let Some(slo) = t.slo {
                if slo.is_zero() {
                    return Err(ServiceError::InvalidConfig(format!(
                        "tenant {} has a zero latency SLO, which sheds all \
                         its traffic unconditionally",
                        t.tenant
                    )));
                }
            }
            if !seen.insert(t.tenant) {
                return Err(ServiceError::InvalidConfig(format!(
                    "tenant {} configured twice",
                    t.tenant
                )));
            }
        }
        self.session
            .validate()
            .map_err(|e| ServiceError::InvalidConfig(e.to_string()))?;
        Ok(())
    }

    /// Latency SLO of a tenant, if one is configured.
    pub fn tenant_slo(&self, tenant: u32) -> Option<Duration> {
        self.tenants
            .iter()
            .find(|t| t.tenant == tenant)
            .and_then(|t| t.slo)
    }

    /// The session-placement slice of the configuration: everything a
    /// cohort actor needs to pick and build its session kind, as one value
    /// instead of a trail of positional scalars.
    pub fn policy(&self) -> SessionPolicy {
        SessionPolicy {
            dense_threshold: self.dense_threshold,
            parts: self.parts,
            sparse_epsilon: self.sparse_epsilon,
            sparse_threshold: self.sparse_threshold,
            approx_threshold: self.approx_threshold,
            approx_backend: self.approx_backend,
            approx_particles: self.approx_particles,
            plan_risk_buckets: self.plan_risk_buckets,
        }
    }
}

/// Which approximate posterior backend oversized cohorts run. Both scale
/// in specimens, pools, and (for SMC) particles — never `2^N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ApproxBackend {
    /// Loopy belief propagation on the specimen↔pool factor graph:
    /// deterministic, fast, and exact on cycle-free observation sets.
    Bp,
    /// Sequential Monte Carlo particle posterior: seeded, snapshotable,
    /// bit-for-bit reproducible sampling that keeps subject correlations.
    Particle,
}

/// One lab tenant's QoS lane: its share of the engine under contention
/// and an optional latency target.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TenantSpec {
    /// Tenant id carried by tagged submissions.
    pub tenant: u32,
    /// Weighted-fair-queueing weight (must be ≥ 1): under saturation, a
    /// weight-2 tenant receives twice the engine rounds of a weight-1 one.
    pub weight: u32,
    /// Optional p99 round-latency SLO. While the tenant's observed p99
    /// exceeds it, new submissions for this tenant shed with
    /// [`crate::ShedReason::SloExceeded`].
    pub slo: Option<Duration>,
}

impl TenantSpec {
    /// A weight-only lane with no SLO.
    pub fn weighted(tenant: u32, weight: u32) -> Self {
        TenantSpec {
            tenant,
            weight,
            slo: None,
        }
    }
}

/// How a cohort of a given size maps onto a session kind: dense in-memory
/// below `dense_threshold`, pruned-sparse at or above `sparse_threshold`
/// when `sparse_epsilon` enables it, engine-sharded otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SessionPolicy {
    /// Cohorts smaller than this run the dense in-memory session.
    pub dense_threshold: usize,
    /// Partition count for sharded sessions.
    pub parts: usize,
    /// Prune threshold for sparse sessions; `0.0` disables the sparse mode.
    pub sparse_epsilon: f64,
    /// Minimum cohort size for the sparse session.
    pub sparse_threshold: usize,
    /// Minimum cohort size for an approximate backend (`0` disables;
    /// takes precedence over every exact placement rule).
    pub approx_threshold: usize,
    /// Which approximate backend oversized cohorts run.
    pub approx_backend: ApproxBackend,
    /// Particle count for particle-backend cohorts.
    pub approx_particles: usize,
    /// Risk-quantization resolution for plan-cache keys (`0` = exact
    /// risks). Applied to cohort risks before the prior is built, so the
    /// quantized risks are what the session — and its `PlanKey` — see.
    pub plan_risk_buckets: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(ServiceConfig::default().validate().is_ok());
    }

    #[test]
    fn every_knob_is_checked() {
        let base = ServiceConfig::default();
        for (label, cfg) in [
            (
                "workers",
                ServiceConfig {
                    workers: 0,
                    ..base.clone()
                },
            ),
            (
                "queue",
                ServiceConfig {
                    queue_capacity: 0,
                    ..base.clone()
                },
            ),
            (
                "batch",
                ServiceConfig {
                    batch_size: 0,
                    ..base.clone()
                },
            ),
            (
                "batch-cap",
                ServiceConfig {
                    batch_size: 17,
                    ..base.clone()
                },
            ),
            (
                "batch-cap-approx-gap",
                ServiceConfig {
                    batch_size: 64,
                    approx_threshold: 18,
                    ..base.clone()
                },
            ),
            (
                "particles-zero",
                ServiceConfig {
                    approx_threshold: 12,
                    approx_backend: ApproxBackend::Particle,
                    approx_particles: 0,
                    ..base.clone()
                },
            ),
            (
                "live-cap",
                ServiceConfig {
                    max_live_cohorts: 0,
                    ..base.clone()
                },
            ),
            (
                "parts",
                ServiceConfig {
                    parts: 0,
                    ..base.clone()
                },
            ),
            (
                "sparse-eps-high",
                ServiceConfig {
                    sparse_epsilon: 1.0,
                    ..base.clone()
                },
            ),
            (
                "sparse-eps-negative",
                ServiceConfig {
                    sparse_epsilon: -0.25,
                    ..base.clone()
                },
            ),
            (
                "plan-nodes-tiny",
                ServiceConfig {
                    plan_cache_nodes: 7,
                    ..base.clone()
                },
            ),
            (
                "plan-buckets-without-cache",
                ServiceConfig {
                    plan_risk_buckets: 32,
                    plan_cache_nodes: 0,
                    ..base.clone()
                },
            ),
            (
                "session-rule-nan",
                ServiceConfig {
                    session: SbgtConfig {
                        rule: sbgt_bayes::ClassificationRule {
                            pos_threshold: f64::NAN,
                            neg_threshold: 0.01,
                        },
                        ..base.session
                    },
                    ..base.clone()
                },
            ),
            (
                "tenant-weight-zero",
                ServiceConfig {
                    tenants: vec![TenantSpec::weighted(1, 0)],
                    ..base.clone()
                },
            ),
            (
                "tenant-duplicate",
                ServiceConfig {
                    tenants: vec![TenantSpec::weighted(1, 2), TenantSpec::weighted(1, 3)],
                    ..base.clone()
                },
            ),
            (
                "tenant-zero-slo",
                ServiceConfig {
                    tenants: vec![TenantSpec {
                        tenant: 1,
                        weight: 1,
                        slo: Some(Duration::ZERO),
                    }],
                    ..base
                },
            ),
        ] {
            assert!(
                matches!(cfg.validate(), Err(ServiceError::InvalidConfig(_))),
                "{label} should be rejected"
            );
        }
    }

    #[test]
    fn tenant_slo_lookup_defaults_to_none() {
        let cfg = ServiceConfig {
            tenants: vec![
                TenantSpec::weighted(7, 3),
                TenantSpec {
                    tenant: 9,
                    weight: 1,
                    slo: Some(Duration::from_millis(20)),
                },
            ],
            ..ServiceConfig::default()
        };
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.tenant_slo(9), Some(Duration::from_millis(20)));
        assert_eq!(cfg.tenant_slo(7), None);
        assert_eq!(cfg.tenant_slo(42), None);
    }

    #[test]
    fn policy_mirrors_the_placement_knobs() {
        let cfg = ServiceConfig {
            dense_threshold: 3,
            parts: 5,
            sparse_epsilon: 1e-6,
            sparse_threshold: 7,
            approx_threshold: 17,
            approx_backend: ApproxBackend::Particle,
            approx_particles: 1024,
            plan_cache_nodes: 64,
            plan_risk_buckets: 16,
            ..ServiceConfig::default()
        };
        assert!(cfg.validate().is_ok());
        assert_eq!(
            cfg.policy(),
            SessionPolicy {
                dense_threshold: 3,
                parts: 5,
                sparse_epsilon: 1e-6,
                sparse_threshold: 7,
                approx_threshold: 17,
                approx_backend: ApproxBackend::Particle,
                approx_particles: 1024,
                plan_risk_buckets: 16,
            }
        );
    }

    #[test]
    fn oversized_batches_need_an_approximate_backstop() {
        // A 256-specimen batch is exactly the regime the approximate
        // backends exist for — valid once approx_threshold guarantees no
        // cohort past the 2^N wall lands on an exact session.
        let cfg = ServiceConfig {
            batch_size: 256,
            approx_threshold: 17,
            ..ServiceConfig::default()
        };
        assert!(cfg.validate().is_ok());
        // Routing every cohort approx (threshold 1) is also coherent.
        let all_approx = ServiceConfig {
            batch_size: 256,
            approx_threshold: 1,
            ..ServiceConfig::default()
        };
        assert!(all_approx.validate().is_ok());
    }
}
