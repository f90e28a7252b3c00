//! # sbgt-engine — partitioned in-memory stage engine
//!
//! SBGT (IPDPS '23) scales Bayesian group testing by distributing the
//! exponential lattice state space over Apache Spark. This crate is the
//! Spark substitute used by the Rust reproduction: an in-process,
//! partition-parallel engine holding the primitives the posterior hot
//! loop, the service and the simulators call:
//!
//! * [`Engine`] — the driver: owns a [`ThreadPool`] of executor threads and a
//!   [`MetricsRegistry`] aggregating job timings per stage name (the
//!   equivalent of Spark's stage UI), read out through one typed scrape
//!   ([`MetricsRegistry::scrape`]) that the Prometheus page renders from.
//! * [`Dataset`] — a partitioned collection (the RDD analogue) with two
//!   per-partition stage kinds: `map_partitions_in_place` (mutate, one
//!   scalar per partition back) and `aggregate_partitions` (read-only, one
//!   value per partition back).
//! * One stage runner ([`Engine::run_stage`]) with seeded fault injection,
//!   and the telemetry recorder ([`obs`]).
//!
//! Everything runs inside one process: "executors" are worker threads and a
//! "cluster" is a thread count, per the reproduction guidance to rebuild the
//! distribution layer on rayon/threads. The dataflow semantics (pure tasks
//! over partitions, barriers between stages, read-only state shared with
//! every task) match what the SBGT paper's dataflow needs, so the scaling
//! structure of the original system is preserved. Spark's broadcast
//! variable is a plain [`Arc`]: tasks clone the handle, never the payload.
//!
//! ## In-place and read-only stages
//!
//! Stages come in two kinds:
//!
//! * **In-place** ([`Dataset::map_partitions_in_place`] /
//!   [`Dataset::try_map_partitions_in_place`], the posterior update): tasks
//!   receive `&mut [T]` and return only a per-partition scalar; no output
//!   dataset is materialized. Mutating through a shared `Arc` would be
//!   unsound, so each task proves uniqueness at runtime with
//!   [`Arc::try_unwrap`]: a partition whose handle is uniquely owned by
//!   this dataset is mutated in place (zero copies); a partition whose
//!   handle is shared — a live [`Dataset::clone`], an outstanding
//!   [`Dataset::partition_handles`] borrow kept alive, a concurrent reader
//!   — is **copied first** (copy-on-write), so observers of the old handle
//!   never see the mutation. The copies are counted on the stage's
//!   aggregate as [`StageAgg::copied_partitions`].
//! * **Read-only aggregate** ([`Dataset::aggregate_partitions`] /
//!   [`Dataset::try_aggregate_partitions`]: marginals, masses, look-ahead
//!   histograms): tasks read shared partition handles and ship one small
//!   value per partition to the driver; nothing is written, so any number
//!   of dataset clones can coexist.
//!
//! The uniqueness rule means an in-place stage is *semantically* a pure
//! function of the pre-stage partitions — only the allocation profile
//! depends on sharing. A failed in-place stage has consumed its partitions
//! and leaves the dataset empty; see `try_map_partitions_in_place`.
//!
//! ## Fault model
//!
//! A task is the unit of failure and runs exactly once. A panicking task
//! fails its stage with [`EngineError::TaskPanicked`] naming the stage and
//! the task; the engine never re-runs it. Recovery belongs to whoever owns
//! the state: the service snapshots each cohort before a round while a
//! fault plan is installed, and a killed round is rolled back and
//! replayed (DESIGN.md §4c).
//!
//! **Deterministic fault injection** ([`FaultPlan`] / [`ChaosConfig`],
//! installed with [`Engine::set_fault_plan`]) supplies the failures:
//! seeded panics, straggler delays, and poisoned results at exact
//! `(stage, task)` coordinates. A fault fires purely as a function of the
//! plan, those coordinates and the engine's stage sequence number, so
//! campaigns replay bit-for-bit; executor scheduling cannot perturb them.
//! Under any plan a stage returns the fault-free values or fails — never
//! different values. What was injected is counted in
//! [`metrics::FaultStats`]; the totals are in the scrape.
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

pub mod chaos;
pub mod config;
pub mod dataset;
pub mod error;
pub mod metrics;
pub mod obs;
pub mod partitioner;
pub mod pool;
pub mod stage;

pub use chaos::{ChaosConfig, Fault, FaultPlan};
pub use config::EngineConfig;
pub use dataset::Dataset;
pub use error::{EngineError, Result};
pub use metrics::{
    BpStats, FaultStats, JobMetrics, MetricsRegistry, ServiceStats, StageAgg, TenantStats,
    BURN_BUDGET, BURN_WINDOW_ROUNDS,
};
pub use obs::{
    trace_id_for_cohort, LogHistogram, ObsConfig, SpanKind, SpanMeta, SpanRecorder, TraceContext,
    TraceLevel,
};
pub use partitioner::partition_ranges;
pub use pool::ThreadPool;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Partitions per executor thread in [`Engine::default_partitions`]:
/// over-partitioning (Spark's default of 2–4×) keeps executors busy when
/// partition workloads are skewed.
const PARTITIONS_PER_THREAD: usize = 4;

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

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Number of executor threads.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Default partition count for a dataset sharded over this engine:
    /// `PARTITIONS_PER_THREAD * threads` (the pool has at least one thread).
    pub fn default_partitions(&self) -> usize {
        PARTITIONS_PER_THREAD * self.pool.threads()
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

    /// Install a fault-injection plan, replacing any existing one. While a
    /// plan is installed the service snapshots each cohort before a round.
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

    /// Next stage sequence number (monotonic per engine).
    pub(crate) fn next_stage_seq(&self) -> u64 {
        self.stage_seq.fetch_add(1, Ordering::Relaxed)
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
    fn engine_runs_simple_stage() {
        let engine = Engine::new(EngineConfig::default().with_threads(2));
        let tasks: Vec<_> = (0..8).map(|i| move || i * i).collect();
        let out = engine.run_stage("squares", tasks).unwrap();
        assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36, 49]);
    }

    #[test]
    fn engine_records_metrics() {
        let engine = Engine::new(EngineConfig::default().with_threads(2));
        engine
            .run_stage("a", (0..4).map(|i| move || i).collect::<Vec<_>>())
            .unwrap();
        engine
            .run_stage("b", (0..2).map(|i| move || i).collect::<Vec<_>>())
            .unwrap();
        let aggs = engine.metrics().stage_aggregates();
        assert_eq!(aggs.len(), 2);
        assert_eq!((aggs[0].name.as_str(), aggs[0].jobs), ("a", 1));
        assert_eq!(aggs[0].tasks, 4);
        assert_eq!((aggs[1].name.as_str(), aggs[1].jobs), ("b", 1));
        assert!(aggs.iter().all(|a| a.failed_jobs == 0));
    }

    #[test]
    fn engine_surfaces_task_panic() {
        let engine = Engine::new(EngineConfig::default().with_threads(2));
        let tasks: Vec<Box<dyn FnOnce() -> i32 + Send>> =
            vec![Box::new(|| 1), Box::new(|| panic!("boom")), Box::new(|| 3)];
        let err = engine.run_stage("panicky", tasks).unwrap_err();
        match err {
            EngineError::TaskPanicked {
                stage,
                task,
                message,
            } => {
                assert_eq!((stage.as_str(), task), ("panicky", 1));
                assert_eq!(message, "boom");
            }
            other => panic!("expected TaskPanicked, got {other:?}"),
        }
        // Pool must stay usable after a panic.
        let ok = engine.run_stage("after", vec![|| 42]).unwrap();
        assert_eq!(ok, vec![42]);
    }

    #[test]
    fn shared_engine_clones_share_pool_and_metrics() {
        let shared = SharedEngine::new(EngineConfig::default().with_threads(2));
        let other = shared.clone();
        shared
            .run_stage("a", (0..2).map(|i| move || i).collect::<Vec<_>>())
            .unwrap();
        other
            .run_stage("b", (0..2).map(|i| move || i).collect::<Vec<_>>())
            .unwrap();
        // Both handles drive the same engine: one registry sees both jobs.
        let jobs =
            |e: &Engine| -> u64 { e.metrics().stage_aggregates().iter().map(|a| a.jobs).sum() };
        assert_eq!(jobs(&shared), 2);
        assert_eq!(jobs(other.engine()), 2);
        let wrapped: SharedEngine = Engine::new(EngineConfig::default().with_threads(1)).into();
        assert_eq!(wrapped.threads(), 1);
    }

    #[test]
    fn default_partitions_positive() {
        let engine = Engine::new(EngineConfig::default().with_threads(1));
        assert!(engine.default_partitions() >= 1);
        let engine = Engine::new(EngineConfig::default().with_threads(3));
        assert_eq!(engine.default_partitions(), 4 * 3);
    }

    #[test]
    fn fault_plan_installs_and_clears() {
        let engine = Engine::new(EngineConfig::default().with_threads(1));
        assert!(engine.fault_plan().is_none());
        engine.set_fault_plan(FaultPlan::new().panic_at("x", 0));
        assert!(engine.fault_plan().is_some());
        engine.clear_fault_plan();
        assert!(engine.fault_plan().is_none());
    }
}
