//! Job/task metrics — the in-process analogue of the Spark stage UI.
//!
//! [`crate::Engine::run_stage`] records every stage, once, into a
//! per-stage-name aggregate ([`StageAgg`]) and the fault totals. The
//! scrape ([`MetricsRegistry::scrape`]) renders them, and tests observe
//! stage structure through [`MetricsRegistry::stage_aggregates`].

use std::collections::BTreeMap;
use std::time::Duration;

use parking_lot::Mutex;

use crate::obs::hist::LogHistogram;

/// What the chaos layer injected into one job. Recovery is the service's
/// round rollback, counted in [`ServiceStats::recovered_rounds`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Injected task panics ([`crate::Fault::Panic`]).
    pub injected_panics: usize,
    /// Injected straggler delays ([`crate::Fault::Delay`]).
    pub injected_delays: usize,
    /// Injected poisoned results ([`crate::Fault::Poison`]).
    pub injected_poisons: usize,
}

impl FaultStats {
    /// Total injected faults of any kind.
    pub fn injected_total(&self) -> usize {
        self.injected_panics + self.injected_delays + self.injected_poisons
    }

    /// Accumulate another job's counters into this one.
    pub fn absorb(&mut self, other: &FaultStats) {
        self.injected_panics += other.injected_panics;
        self.injected_delays += other.injected_delays;
        self.injected_poisons += other.injected_poisons;
    }
}

/// Timing summary of one job (a batch of tasks with a barrier): what
/// [`MetricsRegistry::record_job`] folds into the stage's aggregate.
#[derive(Debug, Clone)]
pub struct JobMetrics {
    /// Stage name as passed to [`crate::Engine::run_stage`].
    pub name: String,
    /// Tasks that completed (0 when the job failed).
    pub tasks: usize,
    /// Sum of task durations on their executors (total CPU-ish time).
    pub task_time: Duration,
    /// End-to-end wall time including scheduling.
    pub wall: Duration,
    /// Whether every task completed without panicking.
    pub succeeded: bool,
    /// Faults injected into this job.
    pub faults: FaultStats,
}

/// Service-level counters — what the surveillance layer above the engine
/// did with its traffic. Lives next to the job metrics so one registry
/// scrape covers both the stage view and the queueing view.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceStats {
    /// Specimens admitted past the ingress queue's admission control
    /// (shed specimens are counted in [`Self::shed`] instead, so offered
    /// traffic is `submitted + shed`).
    pub submitted: u64,
    /// Specimens rejected by admission control (typed load-shedding),
    /// all reasons combined.
    pub shed: u64,
    /// Sheds caused by a breached per-tenant latency SLO (a subset of
    /// [`Self::shed`]).
    pub shed_slo: u64,
    /// Sheds refused because the service is draining for shard handoff
    /// (a subset of [`Self::shed`]).
    pub shed_draining: u64,
    /// Cohort batches closed (size- or deadline-triggered).
    pub batches: u64,
    /// Cohort sessions opened.
    pub cohorts_opened: u64,
    /// Cohort sessions driven to a final report.
    pub cohorts_completed: u64,
    /// BHA rounds executed across all cohorts.
    pub rounds: u64,
    /// Rounds killed by a fault and re-run from a checkpoint.
    pub recovered_rounds: u64,
    /// Session checkpoints taken.
    pub checkpoints: u64,
    /// Sessions restored from a checkpoint.
    pub restores: u64,
    /// High-water mark of the ingress queue depth.
    pub queue_peak: u64,
    /// Plan-cache replays: select steps answered from a memoized decision
    /// tree instead of running live look-ahead.
    pub plan_hits: u64,
    /// Plan-cache misses: select steps that fell off the tree and ran live.
    pub plan_misses: u64,
    /// Tree extensions recorded after a miss (a miss whose history was
    /// detached from the tree, or whose stage was uncacheably wide,
    /// extends nothing).
    pub plan_extends: u64,
    /// Memoized select steps evicted by the per-tree LRU node budget.
    pub plan_evictions: u64,
    /// Streaming histogram of per-round wall-clock latencies, in
    /// microseconds. Fixed ~2 KB regardless of round count — the stats
    /// stay O(1) in rounds for a service running for days (previously an
    /// unbounded `Vec<u64>` growing one entry per round).
    round_latency: LogHistogram,
    /// Per-tenant lane stats (rounds + latency histogram), keyed by lab
    /// tenant id. Only tenants that actually ran rounds appear, so an
    /// untagged single-tenant service carries exactly one lane (tenant 0)
    /// and pre-tenant deployments render unchanged when quiet.
    tenants: BTreeMap<u32, TenantStats>,
}

/// Rounds per SLO error-budget window. Two windows (current + previous)
/// are consulted, so the burn rate looks back over at most
/// `2 * BURN_WINDOW_ROUNDS` rounds and old breaches age out instead of
/// poisoning the rate forever.
pub const BURN_WINDOW_ROUNDS: u64 = 256;

/// Error budget: the fraction of rounds allowed over the SLO target
/// before the budget is spent. With a p99-style SLO, 1% of rounds may
/// breach; `burn rate = observed breach fraction / budget`, so 1.0 means
/// "spending exactly on budget" and >1.0 means the budget runs out early.
pub const BURN_BUDGET: f64 = 0.01;

/// Rolling two-window breach counter behind [`TenantStats::burn_rate`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct BurnWindow {
    cur_rounds: u64,
    cur_over: u64,
    prev_rounds: u64,
    prev_over: u64,
}

impl BurnWindow {
    fn record(&mut self, over: bool) {
        if self.cur_rounds >= BURN_WINDOW_ROUNDS {
            self.prev_rounds = self.cur_rounds;
            self.prev_over = self.cur_over;
            self.cur_rounds = 0;
            self.cur_over = 0;
        }
        self.cur_rounds += 1;
        self.cur_over += u64::from(over);
    }

    fn observed(&self) -> (u64, u64) {
        (
            self.cur_over + self.prev_over,
            self.cur_rounds + self.prev_rounds,
        )
    }

    fn burn_rate(&self) -> Option<f64> {
        let (over, rounds) = self.observed();
        if rounds == 0 {
            return None;
        }
        Some(over as f64 / rounds as f64 / BURN_BUDGET)
    }
}

/// One tenant's service lane: how many engine rounds its cohorts consumed
/// and the streaming latency histogram behind its SLO check.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantStats {
    /// Engine rounds run for this tenant's cohorts.
    pub rounds: u64,
    /// Per-round wall-clock latency, microseconds (same log-bucket layout
    /// as the global round histogram).
    pub latency: LogHistogram,
    /// Rolling error-budget windows; only fed when the tenant has an SLO.
    burn: BurnWindow,
}

impl TenantStats {
    /// SLO error-budget burn rate over the rolling window: the observed
    /// over-SLO round fraction divided by the [`BURN_BUDGET`] (1%). 1.0 is
    /// exactly on budget, >1.0 burns the budget early. `None` until a
    /// round has been recorded against an SLO.
    pub fn burn_rate(&self) -> Option<f64> {
        self.burn.burn_rate()
    }

    /// `(over-SLO rounds, total rounds)` inside the rolling burn window.
    pub fn burn_window(&self) -> (u64, u64) {
        self.burn.observed()
    }
}

impl ServiceStats {
    /// Record one completed round's wall-clock latency.
    pub fn record_round(&mut self, latency: Duration) {
        self.rounds += 1;
        self.round_latency.record(latency.as_micros() as u64);
    }

    /// Record one completed round against a tenant's lane (in addition to
    /// [`Self::record_round`], which aggregates across tenants). When the
    /// tenant has a latency SLO, the round also feeds its rolling
    /// error-budget window (see [`TenantStats::burn_rate`]).
    pub fn record_tenant_round(&mut self, tenant: u32, latency: Duration, slo: Option<Duration>) {
        let lane = self.tenants.entry(tenant).or_default();
        lane.rounds += 1;
        lane.latency.record(latency.as_micros() as u64);
        if let Some(slo) = slo {
            lane.burn.record(latency > slo);
        }
    }

    /// One tenant's SLO burn rate; `None` for unknown tenants or tenants
    /// without an SLO-fed window.
    pub fn tenant_burn_rate(&self, tenant: u32) -> Option<f64> {
        self.tenants.get(&tenant)?.burn_rate()
    }

    /// Per-tenant lanes, keyed by tenant id (empty until a tenant-tagged
    /// round completes).
    pub fn tenants(&self) -> &BTreeMap<u32, TenantStats> {
        &self.tenants
    }

    /// One tenant's round-latency percentile (`p` in `[0, 1]`). `None`
    /// before that tenant has completed a round.
    pub fn tenant_latency_percentile(&self, tenant: u32, p: f64) -> Option<Duration> {
        self.tenants
            .get(&tenant)?
            .latency
            .quantile(p)
            .map(Duration::from_micros)
    }

    /// Raise the queue-depth high-water mark.
    pub fn observe_queue_depth(&mut self, depth: usize) {
        self.queue_peak = self.queue_peak.max(depth as u64);
    }

    /// Round-latency percentile (`p` in `[0, 1]`, nearest-rank). `None`
    /// before any round has completed.
    ///
    /// Answered from the streaming histogram in O(buckets) — no clone,
    /// no sort — with at most 12.5% relative error (exact at the tracked
    /// min/max; see [`LogHistogram::quantile`]).
    pub fn round_latency_percentile(&self, p: f64) -> Option<Duration> {
        self.round_latency.quantile(p).map(Duration::from_micros)
    }

    /// The round-latency histogram itself (microsecond samples) — what
    /// the scrape carries natively and the Prometheus page renders as
    /// bucketed series.
    pub fn round_latency_histogram(&self) -> &LogHistogram {
        &self.round_latency
    }
}

/// Convergence counters of the loopy-BP approximate backend: how many
/// relaxations ran, how many sweeps each needed, and the final
/// max-residual each settled at (recorded in nano-units so the log-bucket
/// histogram has integer resolution). Quiet for exact-posterior engines.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BpStats {
    /// Relaxations run (one per marginal refresh).
    pub relaxations: u64,
    /// Sweeps per relaxation before the residual converged (or the sweep
    /// cap was hit).
    pub sweeps: LogHistogram,
    /// Final max-residual per relaxation, in nano-units
    /// (`residual * 1e9` rounded down).
    pub residual_nanos: LogHistogram,
}

/// Running aggregate of every job that ever ran under one stage name —
/// what the Prometheus exporter renders.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StageAgg {
    /// Stage/job name.
    pub name: String,
    /// Jobs recorded under this name (succeeded or failed).
    pub jobs: u64,
    /// Jobs that failed.
    pub failed_jobs: u64,
    /// Task completions across all jobs.
    pub tasks: u64,
    /// Summed job wall time.
    pub wall: Duration,
    /// Summed per-task executor time.
    pub task_time: Duration,
    /// Partitions an in-place stage copied before mutating them, because
    /// their handles were shared (copy-on-write).
    pub copied_partitions: u64,
}

/// The stage view: one aggregate per stage name and the fault totals,
/// under one lock, so recording a stage takes it once.
#[derive(Debug, Default)]
struct StageBook {
    aggs: BTreeMap<String, StageAgg>,
    faults: FaultStats,
}

/// Registry of everything an engine and the service above it have run:
/// per-stage-name aggregates and fault totals, service counters and BP
/// convergence figures.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    stages: Mutex<StageBook>,
    service: Mutex<ServiceStats>,
    bp: Mutex<BpStats>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a completed (or failed) job into its stage's aggregate.
    pub fn record_job(&self, job: JobMetrics) {
        let mut book = self.stages.lock();
        book.faults.absorb(&job.faults);
        let agg = book
            .aggs
            .entry(job.name)
            .or_insert_with_key(|name| StageAgg {
                name: name.clone(),
                ..StageAgg::default()
            });
        agg.jobs += 1;
        agg.failed_jobs += u64::from(!job.succeeded);
        agg.tasks += job.tasks as u64;
        agg.wall += job.wall;
        agg.task_time += job.task_time;
    }

    /// Add `copied` copy-on-write partitions to `stage`'s aggregate. An
    /// in-place dataset stage learns how many partitions it copied only
    /// after its tasks ran, so it adds them under its own name.
    pub fn add_copied_partitions(&self, stage: &str, copied: usize) {
        if let Some(agg) = self.stages.lock().aggs.get_mut(stage) {
            agg.copied_partitions += copied as u64;
        }
    }

    /// Sum of all jobs' fault counters — the campaign-level view a chaos
    /// test asserts against (did the campaign fire at all).
    pub fn fault_totals(&self) -> FaultStats {
        self.stages.lock().faults
    }

    /// Per-stage-name aggregates over every job ever recorded, sorted by
    /// name.
    pub fn stage_aggregates(&self) -> Vec<StageAgg> {
        self.stages.lock().aggs.values().cloned().collect()
    }

    /// Mutate the service-level counters under the registry lock.
    pub fn update_service(&self, f: impl FnOnce(&mut ServiceStats)) {
        f(&mut self.service.lock());
    }

    /// Snapshot of the service-level counters.
    pub fn service_stats(&self) -> ServiceStats {
        self.service.lock().clone()
    }

    /// One tenant's round-latency percentile, read under the lock without
    /// cloning the whole stats block — this sits on the admission-control
    /// fast path, where an SLO check runs per submission.
    pub fn tenant_latency_percentile(&self, tenant: u32, p: f64) -> Option<Duration> {
        self.service.lock().tenant_latency_percentile(tenant, p)
    }

    /// One tenant's SLO burn rate, read under the lock without cloning
    /// the whole stats block (the shed path reads it when alerting).
    pub fn tenant_burn_rate(&self, tenant: u32) -> Option<f64> {
        self.service.lock().tenant_burn_rate(tenant)
    }

    /// Record one loopy-BP relaxation's convergence figures.
    pub fn record_bp_relaxation(&self, sweeps: u64, residual_nanos: u64) {
        let mut bp = self.bp.lock();
        bp.relaxations += 1;
        bp.sweeps.record(sweeps);
        bp.residual_nanos.record(residual_nanos);
    }

    /// Snapshot of the BP convergence counters.
    pub fn bp_stats(&self) -> BpStats {
        self.bp.lock().clone()
    }

    /// Drop every aggregate and counter (between benchmark phases).
    pub fn clear(&self) {
        *self.stages.lock() = StageBook::default();
        *self.service.lock() = ServiceStats::default();
        *self.bp.lock() = BpStats::default();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The aggregate of the one stage name `reg` has recorded.
    pub(crate) fn only_stage(reg: &MetricsRegistry) -> StageAgg {
        let mut aggs = reg.stage_aggregates();
        assert_eq!(aggs.len(), 1);
        aggs.pop().unwrap()
    }

    pub(crate) fn job(name: &str, task_ms: &[u64], wall_ms: u64) -> JobMetrics {
        JobMetrics {
            name: name.into(),
            tasks: task_ms.len(),
            task_time: Duration::from_millis(task_ms.iter().sum()),
            wall: Duration::from_millis(wall_ms),
            succeeded: true,
            faults: FaultStats::default(),
        }
    }

    #[test]
    fn registry_aggregates_by_stage_name() {
        let reg = MetricsRegistry::new();
        reg.record_job(job("update:0", &[5], 5));
        reg.record_job(job("update:1", &[7], 7));
        reg.record_job(job("select:0", &[100], 100));
        let aggs = reg.stage_aggregates();
        assert_eq!(aggs.len(), 3);
        let update_wall: Duration = aggs
            .iter()
            .filter(|a| a.name.starts_with("update"))
            .map(|a| a.wall)
            .sum();
        assert_eq!(update_wall, Duration::from_millis(12));
        reg.clear();
        assert!(reg.stage_aggregates().is_empty());
    }

    #[test]
    fn fault_totals_accumulate_across_jobs() {
        let reg = MetricsRegistry::new();
        let mut a = job("update", &[5], 5);
        a.faults = FaultStats {
            injected_panics: 1,
            injected_delays: 2,
            injected_poisons: 0,
        };
        let mut b = job("update", &[7], 7);
        b.faults.injected_poisons = 3;
        reg.record_job(a);
        reg.record_job(b);
        let totals = reg.fault_totals();
        reg.record_job(job("quiet", &[1], 1));
        assert_eq!(reg.fault_totals(), totals, "a quiet job adds no fault");
        assert_eq!(totals.injected_total(), 6);
        assert_eq!(totals.injected_poisons, 3);
    }

    #[test]
    fn service_stats_percentiles() {
        let mut s = ServiceStats::default();
        assert_eq!(s.round_latency_percentile(0.5), None);
        for ms in [10u64, 20, 30, 40] {
            s.record_round(Duration::from_millis(ms));
        }
        s.observe_queue_depth(7);
        s.observe_queue_depth(3);
        assert_eq!(s.rounds, 4);
        assert_eq!(s.queue_peak, 7);
        // Histogram quantiles: within one sub-bucket (12.5%) of the exact
        // order statistic, exact at the tracked extremes.
        assert_eq!(
            s.round_latency_percentile(0.5),
            Some(Duration::from_micros(20_479))
        );
        assert_eq!(
            s.round_latency_percentile(0.99),
            Some(Duration::from_millis(40))
        );
        assert_eq!(
            s.round_latency_percentile(0.0),
            Some(Duration::from_micros(10_239))
        );
        assert_eq!(s.round_latency_histogram().count(), 4);
        assert_eq!(s.round_latency_histogram().max(), Some(40_000));
    }

    #[test]
    fn service_stats_memory_is_constant_in_rounds() {
        // The histogram replaces the per-round Vec: size_of the stats is
        // the whole footprint apart from one fixed bucket array.
        let mut s = ServiceStats::default();
        for i in 0..50_000u64 {
            s.record_round(Duration::from_micros(i % 9_000 + 1));
        }
        assert_eq!(s.rounds, 50_000);
        assert_eq!(s.round_latency_histogram().count(), 50_000);
        assert!(s.round_latency_percentile(0.99).is_some());
    }

    #[test]
    fn aggregates_cover_every_job() {
        let reg = MetricsRegistry::new();
        for i in 0..6 {
            let mut j = job(if i % 2 == 0 { "update" } else { "select" }, &[10], 10);
            j.faults.injected_panics = 1;
            reg.record_job(j);
        }
        assert_eq!(reg.fault_totals().injected_panics, 6);
        let aggs = reg.stage_aggregates();
        assert_eq!(aggs.len(), 2);
        assert_eq!(aggs[0].name, "select");
        assert_eq!(aggs[0].jobs, 3);
        assert_eq!(aggs[0].wall, Duration::from_millis(30));
        assert_eq!(aggs[1].name, "update");
        assert_eq!(aggs[1].tasks, 3);
        assert_eq!(aggs[1].wall, Duration::from_millis(30));
    }

    #[test]
    fn copied_partitions_land_on_their_own_stage() {
        let reg = MetricsRegistry::new();
        reg.record_job(job("update", &[5], 5));
        reg.record_job(job("select", &[5], 5));
        reg.add_copied_partitions("update", 3);
        reg.add_copied_partitions("update", 1);
        // A stage that never ran has no aggregate to add to.
        reg.add_copied_partitions("absent", 2);
        let aggs = reg.stage_aggregates();
        assert_eq!(aggs.len(), 2);
        assert_eq!(
            (aggs[0].name.as_str(), aggs[0].copied_partitions),
            ("select", 0)
        );
        assert_eq!(
            (aggs[1].name.as_str(), aggs[1].copied_partitions),
            ("update", 4)
        );
        reg.clear();
        assert!(reg.stage_aggregates().is_empty());
    }

    #[test]
    fn registry_tracks_and_clears_service_stats() {
        let reg = MetricsRegistry::new();
        assert_eq!(reg.service_stats(), ServiceStats::default());
        reg.update_service(|s| {
            s.submitted = 10;
            s.shed = 2;
            s.record_round(Duration::from_millis(5));
        });
        let snap = reg.service_stats();
        assert_eq!(snap.submitted, 10);
        assert_eq!(snap.shed, 2);
        assert_eq!(snap.rounds, 1);
        reg.clear();
        assert_eq!(reg.service_stats(), ServiceStats::default());
    }

    #[test]
    fn burn_rate_tracks_the_rolling_budget() {
        let mut s = ServiceStats::default();
        let slo = Some(Duration::from_millis(10));
        // No SLO supplied: lane exists, no burn window.
        s.record_tenant_round(7, Duration::from_millis(50), None);
        assert_eq!(s.tenant_burn_rate(7), None);
        // 100 rounds, 1 breach: breach fraction 1% == budget -> burn 1.0.
        for i in 0..100u64 {
            let latency = if i == 0 { 50 } else { 5 };
            s.record_tenant_round(0, Duration::from_millis(latency), slo);
        }
        let burn = s.tenant_burn_rate(0).unwrap();
        assert!((burn - 1.0).abs() < 1e-9, "burn {burn}");
        assert_eq!(s.tenants()[&0].burn_window(), (1, 100));
        // All-breaching traffic saturates at 1/budget.
        for _ in 0..100 {
            s.record_tenant_round(1, Duration::from_millis(50), slo);
        }
        assert!((s.tenant_burn_rate(1).unwrap() - 100.0).abs() < 1e-9);
        // Unknown tenant: no answer.
        assert_eq!(s.tenant_burn_rate(99), None);
    }

    #[test]
    fn burn_window_rotation_ages_out_old_breaches() {
        let mut s = ServiceStats::default();
        let slo = Some(Duration::from_millis(10));
        // Fill one full window with breaches...
        for _ in 0..BURN_WINDOW_ROUNDS {
            s.record_tenant_round(0, Duration::from_millis(50), slo);
        }
        assert!((s.tenant_burn_rate(0).unwrap() - 100.0).abs() < 1e-9);
        // ...then two full windows of healthy rounds: the breach window has
        // rotated out entirely and the rate returns to 0.
        for _ in 0..2 * BURN_WINDOW_ROUNDS {
            s.record_tenant_round(0, Duration::from_millis(1), slo);
        }
        assert_eq!(s.tenant_burn_rate(0), Some(0.0));
        let (over, rounds) = s.tenants()[&0].burn_window();
        assert_eq!(over, 0);
        assert!(rounds <= 2 * BURN_WINDOW_ROUNDS);
    }

    #[test]
    fn exactly_on_slo_is_not_a_breach() {
        let mut s = ServiceStats::default();
        let slo = Some(Duration::from_millis(10));
        s.record_tenant_round(0, Duration::from_millis(10), slo);
        assert_eq!(s.tenant_burn_rate(0), Some(0.0));
    }

    #[test]
    fn bp_stats_accumulate_and_clear() {
        let reg = MetricsRegistry::new();
        assert_eq!(reg.bp_stats(), BpStats::default());
        reg.record_bp_relaxation(12, 500);
        reg.record_bp_relaxation(3, 1_000_000);
        let bp = reg.bp_stats();
        assert_eq!(bp.relaxations, 2);
        assert_eq!(bp.sweeps.count(), 2);
        assert_eq!(bp.sweeps.max(), Some(12));
        assert_eq!(bp.residual_nanos.min(), Some(500));
        reg.clear();
        assert_eq!(reg.bp_stats(), BpStats::default());
    }
}
