//! # sbgt-engine — partitioned in-memory stage engine
//!
//! SBGT (IPDPS '23) scales Bayesian group testing by distributing the
//! exponential lattice state space over Apache Spark. This crate is the
//! Spark substitute used by the Rust reproduction: an in-process,
//! partition-parallel engine holding the primitives the posterior hot
//! loop, the service and the simulators call:
//!
//! * [`Engine`] — the driver: owns a [`ThreadPool`] of executor threads and a
//!   [`MetricsRegistry`] recording per-job timings (the equivalent of
//!   Spark's stage UI), read out through one typed scrape
//!   ([`MetricsRegistry::scrape`]) that the Prometheus page renders from.
//! * [`Dataset`] — a partitioned collection (the RDD analogue) with
//!   per-partition stages: `map_partitions` (new dataset),
//!   `map_partitions_in_place` (mutate, one scalar per partition back),
//!   `aggregate_partitions` (read-only, one value per partition back).
//! * [`Broadcast`] — read-only variables shared with every task (likelihood
//!   tables, pool masks).
//! * Supervised stages ([`Engine::run_stage`]) with retry, speculation and
//!   seeded fault injection, and the telemetry recorder ([`obs`]).
//!
//! Everything runs inside one process: "executors" are worker threads and a
//! "cluster" is a thread count, per the reproduction guidance to rebuild the
//! distribution layer on rayon/threads. The dataflow semantics (pure tasks
//! over partitions, barriers between stages, broadcast of read-only state)
//! match what the SBGT paper's dataflow needs, so the scaling structure of
//! the original system is preserved.
//!
//! ## Immutable vs in-place stages
//!
//! Stages come in two execution variants, recorded per job as a
//! [`StageVariant`] in the metrics registry:
//!
//! * **Immutable** (`map_partitions` and everything lowering to it): tasks
//!   read shared partition handles and materialize new output vectors. Any
//!   number of dataset clones can coexist; nothing is ever mutated. This is
//!   the Spark-faithful default, but each stage allocates output the size
//!   of its input — ruinous for a `2^N` posterior updated hundreds of times
//!   per episode.
//! * **In-place** ([`Dataset::map_partitions_in_place`] /
//!   [`Dataset::try_map_partitions_in_place`]): tasks receive `&mut [T]`
//!   and return only a per-partition scalar; no output dataset is
//!   materialized. Mutating through a shared `Arc` would be unsound, so
//!   each task proves uniqueness at runtime with [`Arc::try_unwrap`]:
//!   a partition whose handle is uniquely owned by this dataset is mutated
//!   in place (zero copies); a partition whose handle is shared — a live
//!   [`Dataset::clone`], an outstanding [`Dataset::partition_handles`]
//!   borrow kept alive, a concurrent reader — is **copied first**
//!   (copy-on-write), so observers of the old handle never see the
//!   mutation. The per-stage unique/COW split is what
//!   [`StageVariant::InPlace`] records.
//!
//! The uniqueness rule means in-place stages are *semantically* identical
//! to running the same closure immutably and replacing the dataset — only
//! the allocation profile differs. With fault tolerance off (the default),
//! a failed in-place stage has consumed its partitions and leaves the
//! dataset empty; see `try_map_partitions_in_place`.
//!
//! ## Fault model
//!
//! Stages run through a supervising scheduler ([`Engine::run_stage`]) that
//! provides Spark-style fault containment:
//!
//! * **Retry** ([`RetryPolicy`], Spark's `spark.task.maxFailures`): a
//!   panicking task is re-executed up to the attempt budget; the job fails
//!   only when some task exhausts it. Task closures must be idempotent.
//! * **Speculation** ([`SpeculationConfig`], Spark's `spark.speculation`):
//!   once a quantile of tasks has finished, tasks still running well past
//!   the median duration are duplicated once; first result wins.
//! * **Deterministic fault injection** ([`FaultPlan`] / [`ChaosConfig`],
//!   installed with [`Engine::set_fault_plan`]): seeded panics, straggler
//!   delays, and poisoned results at exact `(stage, task, attempt)`
//!   coordinates, for chaos testing the recovery machinery. A fault fires
//!   purely as a function of the plan and those coordinates (plus the
//!   engine's stage sequence number), so campaigns replay bit-for-bit;
//!   executor scheduling cannot perturb them.
//!
//! Fault tolerance is **opt-in**: with the default config (single attempt,
//! no speculation, no plan — [`Engine::fault_tolerance_active`] false),
//! in-place stages keep their zero-copy path. When active, every in-place
//! stage runs copy-on-write from pristine driver-held partition handles so
//! a retried or speculated attempt always sees unmutated input, and a
//! failed stage restores the dataset unchanged instead of leaving partial
//! results. What was injected and what recovery did about it is recorded
//! per job in [`metrics::FaultStats`]; the totals are in the scrape.
//!
//! ## Example
//!
//! ```
//! use sbgt_engine::{Engine, EngineConfig, Dataset};
//!
//! let engine = Engine::new(EngineConfig::default().with_threads(2));
//! let mut ds = Dataset::from_vec((0u64..1000).collect::<Vec<_>>(), 8);
//! // One in-place stage: double every record, one partial sum per partition.
//! let partials = ds.map_partitions_in_place(&engine, |_, part| {
//!     part.iter_mut().for_each(|x| *x *= 2);
//!     part.iter().sum::<u64>()
//! });
//! assert_eq!(partials.iter().sum::<u64>(), 999 * 1000);
//! ```

#![forbid(unsafe_code)]

pub mod broadcast;
pub mod chaos;
pub mod config;
pub mod dataset;
pub mod error;
pub mod metrics;
pub mod obs;
pub mod partitioner;
pub mod pool;
pub mod retry;
pub mod stage;

pub use broadcast::Broadcast;
pub use chaos::{ChaosConfig, Fault, FaultPlan, SpeculationConfig};
pub use config::EngineConfig;
pub use dataset::Dataset;
pub use error::{EngineError, Result};
pub use metrics::{
    BpStats, FaultStats, JobMetrics, MetricsRegistry, ServiceStats, StageAgg, StageVariant,
    TenantStats, BURN_BUDGET, BURN_WINDOW_ROUNDS,
};
pub use obs::{
    trace_id_for_cohort, LogHistogram, ObsConfig, SpanKind, SpanMeta, SpanRecorder, TraceContext,
    TraceLevel,
};
pub use partitioner::partition_ranges;
pub use pool::ThreadPool;
pub use retry::RetryPolicy;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

/// The driver of the dataflow engine.
///
/// An `Engine` owns a pool of executor threads and a metrics registry. All
/// [`Dataset`] operations take `&Engine` and submit one task per partition to
/// the pool; the engine records wall-clock and summed task time per job so
/// benchmarks can report Spark-style stage breakdowns.
///
/// `Engine` is cheap to clone conceptually — wrap it in [`Arc`] if multiple
/// owners are needed; all of its methods take `&self`.
pub struct Engine {
    pool: ThreadPool,
    config: EngineConfig,
    metrics: Arc<MetricsRegistry>,
    /// Telemetry recorder (spans, marks, counter tracks); shared with
    /// sessions and the service layer. Recording is gated by
    /// `config.obs` — one atomic load per site when off.
    obs: Arc<SpanRecorder>,
    /// Installed fault-injection plan, if any (chaos testing).
    fault_plan: Mutex<Option<Arc<FaultPlan>>>,
    /// Count of stages launched; feeds the fault plan so repeated runs of
    /// the same-named stage draw distinct random faults.
    stage_seq: AtomicU64,
}

impl Engine {
    /// Create an engine with the given configuration, spawning
    /// `config.threads` executor threads immediately.
    pub fn new(config: EngineConfig) -> Self {
        let pool = ThreadPool::new(config.threads, "sbgt-exec");
        let obs = Arc::new(SpanRecorder::new(config.obs));
        Engine {
            pool,
            config,
            metrics: Arc::new(MetricsRegistry::new()),
            obs,
            fault_plan: Mutex::new(None),
            stage_seq: AtomicU64::new(0),
        }
    }

    /// Engine with default configuration (one executor per available core).
    pub fn default_local() -> Self {
        Self::new(EngineConfig::default())
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Number of executor threads.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Default partition count for datasets created through this engine:
    /// `partitions_per_thread * threads`, at least 1.
    pub fn default_partitions(&self) -> usize {
        (self.config.partitions_per_thread * self.pool.threads()).max(1)
    }

    /// The metrics registry recording job/task timings.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The telemetry recorder. Instrumentation sites gate on
    /// [`SpanRecorder::enabled_at`] before recording; exporters snapshot
    /// it ([`obs::render_chrome_trace`],
    /// [`MetricsRegistry::render_prometheus`]).
    pub fn obs(&self) -> &Arc<SpanRecorder> {
        &self.obs
    }

    /// Render the Prometheus exposition page for this engine, including
    /// the `sbgt_obs_*` recorder-health families sourced from the span
    /// recorder (dropped events, ring wraps, lane counts).
    pub fn render_prometheus(&self) -> String {
        self.metrics.render_prometheus(Some(&self.obs))
    }

    /// The underlying executor pool.
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// Install a fault-injection plan. Replaces any existing plan and
    /// activates the fault-tolerant stage path (see
    /// [`Engine::fault_tolerance_active`]).
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        *self.fault_plan.lock() = Some(Arc::new(plan));
    }

    /// Remove the installed fault plan, silencing injection.
    pub fn clear_fault_plan(&self) {
        *self.fault_plan.lock() = None;
    }

    /// The currently installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.fault_plan.lock().clone()
    }

    /// Whether stages must be retry-safe: retries enabled, speculation
    /// enabled, or a fault plan installed. In-place dataset stages use this
    /// to choose between the zero-copy path (off) and the copy-on-write
    /// recovery path (on), where every attempt re-runs against pristine
    /// partition input.
    pub fn fault_tolerance_active(&self) -> bool {
        self.config.retry.retries_enabled()
            || self.config.speculation.is_some()
            || self.fault_plan.lock().is_some()
    }

    /// Next stage sequence number (monotonic per engine).
    pub(crate) fn next_stage_seq(&self) -> u64 {
        self.stage_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Run a named job: one closure per task, results returned in task order.
    ///
    /// This is the primitive the unsupervised `Dataset` stages lower to. Task
    /// panics are caught and surfaced as [`EngineError::TaskPanicked`]; the
    /// job's timing is recorded in the metrics registry whether it succeeds
    /// or fails.
    pub fn run_job<T, F>(&self, name: &str, tasks: Vec<F>) -> Result<Vec<T>>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let obs_start = self
            .obs
            .enabled_at(TraceLevel::Spans)
            .then(|| (self.obs.intern(name), self.obs.now_ns()));
        let start = std::time::Instant::now();
        let outcome = self.pool.run_tasks(tasks);
        let elapsed = start.elapsed();
        if let Some((name_id, start_ns)) = obs_start {
            let meta = SpanMeta {
                failed: outcome.is_err(),
                ..SpanMeta::default()
            };
            self.obs
                .record_span_ending_now(SpanKind::Stage, name_id, start_ns, meta);
        }
        match outcome {
            Ok(results) => {
                self.metrics.record_job(JobMetrics {
                    name: name.to_string(),
                    tasks: results.len(),
                    task_time: results.iter().map(|r| r.duration).sum(),
                    wall: elapsed,
                    succeeded: true,
                    variant: StageVariant::Immutable,
                    faults: FaultStats::default(),
                });
                Ok(results.into_iter().map(|r| r.value).collect())
            }
            Err(e) => {
                self.metrics.record_job(JobMetrics {
                    name: name.to_string(),
                    tasks: 0,
                    task_time: Duration::ZERO,
                    wall: elapsed,
                    succeeded: false,
                    variant: StageVariant::Immutable,
                    faults: FaultStats::default(),
                });
                Err(e)
            }
        }
    }

    /// Broadcast a read-only value to tasks (Spark `sc.broadcast`).
    pub fn broadcast<T: Send + Sync + 'static>(&self, value: T) -> Broadcast<T> {
        self.metrics.record_broadcast();
        Broadcast::new(value)
    }
}

/// A clonable handle to a shared [`Engine`].
///
/// The engine itself is `!Clone` (it owns the executor pool); services that
/// multiplex many concurrent workloads over one pool — `sbgt-service`'s
/// cohort workers, the batcher, the driver — each hold a `SharedEngine`.
/// Dereferences to [`Engine`], so every `&Engine` API works unchanged.
#[derive(Clone, Debug)]
pub struct SharedEngine(Arc<Engine>);

impl SharedEngine {
    /// Spawn an engine with the given configuration and wrap it for sharing.
    pub fn new(config: EngineConfig) -> Self {
        SharedEngine(Arc::new(Engine::new(config)))
    }

    /// The underlying engine.
    pub fn engine(&self) -> &Engine {
        &self.0
    }
}

impl From<Engine> for SharedEngine {
    fn from(engine: Engine) -> Self {
        SharedEngine(Arc::new(engine))
    }
}

impl std::ops::Deref for SharedEngine {
    type Target = Engine;

    fn deref(&self) -> &Engine {
        &self.0
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("threads", &self.pool.threads())
            .field("config", &self.config)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_runs_simple_job() {
        let engine = Engine::new(EngineConfig::default().with_threads(2));
        let tasks: Vec<_> = (0..8).map(|i| move || i * i).collect();
        let out = engine.run_job("squares", tasks).unwrap();
        assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36, 49]);
    }

    #[test]
    fn engine_records_metrics() {
        let engine = Engine::new(EngineConfig::default().with_threads(2));
        engine
            .run_job("a", (0..4).map(|i| move || i).collect::<Vec<_>>())
            .unwrap();
        engine
            .run_job("b", (0..2).map(|i| move || i).collect::<Vec<_>>())
            .unwrap();
        let jobs = engine.metrics().jobs();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].name, "a");
        assert_eq!(jobs[0].tasks, 4);
        assert_eq!(jobs[1].name, "b");
        assert!(jobs.iter().all(|j| j.succeeded));
    }

    #[test]
    fn engine_surfaces_task_panic() {
        let engine = Engine::new(EngineConfig::default().with_threads(2));
        let tasks: Vec<Box<dyn FnOnce() -> i32 + Send>> =
            vec![Box::new(|| 1), Box::new(|| panic!("boom")), Box::new(|| 3)];
        let err = engine.run_job("panicky", tasks).unwrap_err();
        match err {
            EngineError::TaskPanicked { .. } => {}
            other => panic!("expected TaskPanicked, got {other:?}"),
        }
        // Pool must stay usable after a panic.
        let ok = engine.run_job("after", vec![|| 42]).unwrap();
        assert_eq!(ok, vec![42]);
    }

    #[test]
    fn shared_engine_clones_share_pool_and_metrics() {
        let shared = SharedEngine::new(EngineConfig::default().with_threads(2));
        let other = shared.clone();
        shared
            .run_job("a", (0..2).map(|i| move || i).collect::<Vec<_>>())
            .unwrap();
        other
            .run_job("b", (0..2).map(|i| move || i).collect::<Vec<_>>())
            .unwrap();
        // Both handles drive the same engine: one registry sees both jobs.
        assert_eq!(shared.metrics().job_count(), 2);
        assert_eq!(other.engine().metrics().job_count(), 2);
        let wrapped: SharedEngine = Engine::new(EngineConfig::default().with_threads(1)).into();
        assert_eq!(wrapped.threads(), 1);
    }

    #[test]
    fn default_partitions_positive() {
        let engine = Engine::new(EngineConfig::default().with_threads(1));
        assert!(engine.default_partitions() >= 1);
    }

    #[test]
    fn fault_tolerance_activation_gates() {
        // Default: off — the zero-copy in-place path stays live.
        let engine = Engine::new(EngineConfig::default().with_threads(1));
        assert!(!engine.fault_tolerance_active());
        // Installing any fault plan flips it on; clearing flips it back.
        engine.set_fault_plan(FaultPlan::new().panic_at("x", 0, 0));
        assert!(engine.fault_tolerance_active());
        assert!(engine.fault_plan().is_some());
        engine.clear_fault_plan();
        assert!(!engine.fault_tolerance_active());
        // Retries or speculation alone also activate it.
        let retrying = Engine::new(
            EngineConfig::default()
                .with_threads(1)
                .with_retry(RetryPolicy::default()),
        );
        assert!(retrying.fault_tolerance_active());
        let speculating = Engine::new(
            EngineConfig::default()
                .with_threads(1)
                .with_speculation(SpeculationConfig::default()),
        );
        assert!(speculating.fault_tolerance_active());
    }
}
