//! The surveillance service: bounded ingestion → deadline/size batching →
//! weighted-fair round scheduling on one shared engine.
//!
//! Threading model (no async runtime; plain threads and channels):
//!
//! ```text
//!  submit/try_submit ──► bounded ingress ──► batcher thread
//!  (tenant-tagged)        (admission ctl)      │ per-tenant size/deadline
//!                                              ▼
//!                                 WFQ ready queue (per-tenant lanes)
//!                                      │               ▲
//!                                      ▼               │ re-enqueue
//!                                  worker × N ── one round per pickup
//!                                      │
//!                   finished ──► completed reports (parking_lot mutex)
//!                   suspended ─► parked channel ──► checkpoints
//! ```
//!
//! One pickup = one session round, and a progressed cohort goes to the
//! back of its tenant's lane, so cohorts share the engine in proportion
//! to their tenant's weight regardless of how many rounds each needs
//! (uniform weights reproduce the original round-robin; see
//! [`crate::wfq`]). All correctness-relevant state advances in
//! deterministic per-cohort steps; the scheduler only decides *when* a
//! round runs, never *what* it computes — which is why a service run is
//! bit-for-bit identical to a serial one under any weight assignment.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;

use sbgt::{PlanCache, PlanCacheStats, RoundStep, SessionOutcome};
use sbgt_engine::obs::{SpanKind, SpanMeta, TraceLevel};
use sbgt_engine::SharedEngine;

use crate::checkpoint::CohortCheckpoint;
use crate::cohort::{CohortActor, CohortSpec, Specimen};
use crate::config::ServiceConfig;
use crate::error::{ServiceError, ShedReason};
use crate::slo::{BurnRateAlert, BURN_ALERT_MARK};
use crate::wfq::WfqScheduler;

/// Final classification of one cohort, as emitted by the service.
#[derive(Debug, Clone, PartialEq)]
pub struct CohortReport {
    /// Cohort id (batch sequence number).
    pub cohort: u64,
    /// Lab tenant the cohort belonged to.
    pub tenant: u32,
    /// Cohort size.
    pub subjects: usize,
    /// Rollback-and-replay cycles the cohort consumed (0 on a clean run).
    pub recovered_rounds: u64,
    /// The session's terminal outcome.
    pub outcome: SessionOutcome,
}

/// Everything a suspended service hands back: completed work plus one
/// checkpoint per still-live cohort.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceCheckpoint {
    /// Cohorts classified before the suspension.
    pub completed: Vec<CohortReport>,
    /// Frozen live cohorts, restorable bit-for-bit.
    pub cohorts: Vec<CohortCheckpoint>,
    /// The warmed plan cache in the `SBGTPLAN` byte format (empty when the
    /// service ran without a cache). [`SurveillanceService::resume`] merges
    /// it back, so memoized decision trees survive the freeze.
    pub plans: Vec<u8>,
}

/// One tenant-tagged ingress entry.
struct Tagged {
    tenant: u32,
    specimen: Specimen,
}

/// Shared counters the batcher, workers, and control plane coordinate on.
struct Shared {
    /// Set during suspension: workers park actors instead of running them.
    suspended: AtomicBool,
    /// Set while draining for handoff: new submissions shed with
    /// [`ShedReason::Draining`]; queued work still runs to completion.
    draining: AtomicBool,
    /// Cohorts opened (batch sequence counter — also the id allocator for
    /// batcher-formed cohorts; fabric placement assigns ids externally).
    opened: AtomicU64,
    /// Cohorts classified. Kept as its own counter (not `reports.len()`)
    /// so [`SurveillanceService::take_completed`] can hand reports out
    /// incrementally without unbalancing the drain/suspend ledgers.
    completed: AtomicU64,
    /// Reports of classified cohorts not yet taken by the embedder.
    reports: Mutex<Vec<CohortReport>>,
}

impl Shared {
    fn completed(&self) -> u64 {
        self.completed.load(Ordering::SeqCst)
    }
}

/// A running multi-cohort surveillance service.
pub struct SurveillanceService {
    engine: SharedEngine,
    config: ServiceConfig,
    ingress_tx: Option<Sender<Tagged>>,
    sched: Arc<WfqScheduler<Box<CohortActor>>>,
    parked_rx: Receiver<CohortActor>,
    shared: Arc<Shared>,
    batcher: Option<thread::JoinHandle<()>>,
    workers: Vec<thread::JoinHandle<()>>,
    /// Shared memoized-selection cache (`None` when disabled by config).
    plan_cache: Option<Arc<PlanCache>>,
    /// Cache counters at service start: the cache may be shared across
    /// service incarnations, so this incarnation's contribution to
    /// `ServiceStats` is the delta against this baseline.
    plan_baseline: PlanCacheStats,
}

impl SurveillanceService {
    /// Start the service: spawns the batcher and `config.workers` round
    /// workers against the shared engine. A positive
    /// `config.plan_cache_nodes` opens a fresh process-wide plan cache.
    pub fn start(engine: SharedEngine, config: ServiceConfig) -> Result<Self, ServiceError> {
        config.validate()?;
        let cache = (config.plan_cache_nodes > 0).then(|| PlanCache::new(config.plan_cache_nodes));
        SurveillanceService::start_with_cache(engine, config, cache)
    }

    /// [`SurveillanceService::start`] against a caller-owned plan cache —
    /// how successive service incarnations (or a warm/cold benchmark)
    /// share one set of memoized decision trees. `None` disables the cache
    /// regardless of `config.plan_cache_nodes`.
    pub fn start_with_cache(
        engine: SharedEngine,
        config: ServiceConfig,
        cache: Option<Arc<PlanCache>>,
    ) -> Result<Self, ServiceError> {
        config.validate()?;
        let (ingress_tx, ingress_rx) = bounded::<Tagged>(config.queue_capacity);
        let sched = Arc::new(WfqScheduler::new(
            config.tenants.iter().map(|t| (t.tenant, t.weight)),
        ));
        let (parked_tx, parked_rx) = unbounded::<CohortActor>();
        let shared = Arc::new(Shared {
            suspended: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            opened: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            reports: Mutex::new(Vec::new()),
        });

        // Threads are named so each telemetry lane (and its Chrome-trace
        // row) identifies its role without cross-referencing thread ids.
        let batcher = {
            let engine = engine.clone();
            let config = config.clone();
            let sched = Arc::clone(&sched);
            let shared = Arc::clone(&shared);
            let cache = cache.clone();
            thread::Builder::new()
                .name("svc-batcher".to_string())
                .spawn(move || batcher_loop(engine, config, ingress_rx, sched, shared, cache))
                .expect("spawn batcher thread")
        };

        let workers = (0..config.workers)
            .map(|i| {
                let engine = engine.clone();
                let config = config.clone();
                let sched = Arc::clone(&sched);
                let parked_tx = parked_tx.clone();
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("svc-worker-{i}"))
                    .spawn(move || worker_loop(engine, config, sched, parked_tx, shared))
                    .expect("spawn worker thread")
            })
            .collect();

        let plan_baseline = cache.as_ref().map(|c| c.stats()).unwrap_or_default();
        Ok(SurveillanceService {
            engine,
            config,
            ingress_tx: Some(ingress_tx),
            sched,
            parked_rx,
            shared,
            batcher: Some(batcher),
            workers,
            plan_cache: cache,
            plan_baseline,
        })
    }

    /// Start a service and rehydrate the cohorts of a [`ServiceCheckpoint`]:
    /// completed reports are carried over and live cohorts re-enter the
    /// round-robin exactly where they stopped.
    pub fn resume(
        engine: SharedEngine,
        config: ServiceConfig,
        checkpoint: ServiceCheckpoint,
    ) -> Result<Self, ServiceError> {
        let service = SurveillanceService::start(engine, config)?;
        // A tampered plan blob is a typed restore error, never a panic;
        // without a cache the warmed trees are simply dropped.
        if let Some(cache) = &service.plan_cache {
            if !checkpoint.plans.is_empty() {
                cache
                    .import(&checkpoint.plans)
                    .map_err(|e| ServiceError::Restore(e.to_string()))?;
            }
        }
        let restored = checkpoint.cohorts.len() as u64;
        let rec = service.engine.obs();
        let obs_start = rec
            .enabled_at(TraceLevel::Spans)
            .then(|| (rec.intern("service:restore"), rec.now_ns()));
        for ckpt in &checkpoint.cohorts {
            service.adopt_cohort(ckpt)?;
        }
        {
            let mut reports = service.shared.reports.lock();
            let carried = checkpoint.completed.len() as u64;
            reports.extend(checkpoint.completed);
            // Carried reports count as opened (and completed) too, so
            // drain's ledger of opened == reported stays balanced.
            service.shared.opened.fetch_add(carried, Ordering::SeqCst);
            service
                .shared
                .completed
                .fetch_add(carried, Ordering::SeqCst);
        }
        debug_assert_eq!(restored, checkpoint.cohorts.len() as u64);
        if let Some((name, start)) = obs_start {
            let rec = service.engine.obs();
            rec.record_span_ending_now(SpanKind::Service, name, start, SpanMeta::default());
        }
        Ok(service)
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Non-blocking submission with admission control: a full ingress
    /// queue sheds the specimen with a typed reason instead of stalling
    /// the caller or buffering without bound. Submits on the default
    /// tenant lane (0); see [`SurveillanceService::try_submit_tagged`].
    pub fn try_submit(&self, specimen: Specimen) -> Result<(), ServiceError> {
        self.try_submit_tagged(0, specimen)
    }

    /// [`SurveillanceService::try_submit`] on a tenant's QoS lane.
    /// Admission control runs three gates, each a typed shed: the service
    /// is draining for handoff ([`ShedReason::Draining`]), the tenant's
    /// p99 round latency exceeds its configured SLO
    /// ([`ShedReason::SloExceeded`]), or the bounded ingress queue is full
    /// ([`ShedReason::QueueFull`]).
    pub fn try_submit_tagged(&self, tenant: u32, specimen: Specimen) -> Result<(), ServiceError> {
        let Some(tx) = &self.ingress_tx else {
            return Err(ServiceError::Closed);
        };
        if self.shared.draining.load(Ordering::SeqCst) {
            return Err(self.shed(ShedReason::Draining));
        }
        if let Some(slo) = self.config.tenant_slo(tenant) {
            let p99 = self
                .engine
                .metrics()
                .tenant_latency_percentile(tenant, 0.99);
            if p99.is_some_and(|p| p > slo) {
                // The budget-exhaustion event leads the admission-control
                // response in the trace: record the typed alert before the
                // shed so burn-rate spikes explain the SloExceeded wave.
                if let Some(alert) = BurnRateAlert::evaluate(self.engine.metrics(), tenant) {
                    let rec = self.engine.obs();
                    if rec.enabled_at(TraceLevel::Full) {
                        let meta = SpanMeta {
                            task: alert.tenant,
                            ..SpanMeta::default()
                        };
                        rec.mark_value(rec.intern(BURN_ALERT_MARK), alert.burn_milli, meta);
                    }
                }
                return Err(self.shed(ShedReason::SloExceeded));
            }
        }
        match tx.try_send(Tagged { tenant, specimen }) {
            Ok(()) => {
                let depth = tx.len();
                self.engine.metrics().update_service(|s| {
                    s.submitted += 1;
                    s.observe_queue_depth(depth);
                });
                self.obs_queue_depth(depth);
                Ok(())
            }
            Err(e) if e.is_full() => Err(self.shed(ShedReason::QueueFull)),
            Err(_) => Err(ServiceError::Closed),
        }
    }

    /// Count and mark a shed, returning the typed error to hand the
    /// caller.
    fn shed(&self, reason: ShedReason) -> ServiceError {
        self.engine.metrics().update_service(|s| {
            s.shed += 1;
            match reason {
                ShedReason::SloExceeded => s.shed_slo += 1,
                ShedReason::Draining => s.shed_draining += 1,
                _ => {}
            }
        });
        let rec = self.engine.obs();
        if rec.enabled_at(TraceLevel::Full) {
            rec.mark(rec.intern("service:shed"), SpanMeta::default());
        }
        ServiceError::Shed(reason)
    }

    /// Emit the ingress depth as a counter track ([`TraceLevel::Full`]):
    /// the Chrome trace then plots queue pressure against the round lanes.
    fn obs_queue_depth(&self, depth: usize) {
        let rec = self.engine.obs();
        if rec.enabled_at(TraceLevel::Full) {
            rec.counter(rec.intern("queue_depth"), depth as u64);
        }
    }

    /// Blocking submission: waits for queue space instead of shedding
    /// (draining still sheds — handoff must converge, so it is never
    /// waited out). Submits on the default tenant lane (0).
    pub fn submit(&self, specimen: Specimen) -> Result<(), ServiceError> {
        self.submit_tagged(0, specimen)
    }

    /// [`SurveillanceService::submit`] on a tenant's QoS lane.
    pub fn submit_tagged(&self, tenant: u32, specimen: Specimen) -> Result<(), ServiceError> {
        let Some(tx) = &self.ingress_tx else {
            return Err(ServiceError::Closed);
        };
        if self.shared.draining.load(Ordering::SeqCst) {
            return Err(self.shed(ShedReason::Draining));
        }
        tx.send(Tagged { tenant, specimen })
            .map_err(|_| ServiceError::Closed)?;
        let depth = tx.len();
        self.engine.metrics().update_service(|s| {
            s.submitted += 1;
            s.observe_queue_depth(depth);
        });
        self.obs_queue_depth(depth);
        Ok(())
    }

    /// Open a pre-batched cohort directly, bypassing the ingress batcher —
    /// the shard-fabric placement path, where a router assigns globally
    /// unique cohort ids and consistent-hashes them onto shards. Subject
    /// to the same admission control as batched traffic: sheds typed when
    /// draining or when the live-cohort cap is reached. Do not mix with
    /// specimen-level submission on the same service: the batcher
    /// allocates ids from its own sequence and they would collide.
    pub fn place_cohort(&self, spec: CohortSpec) -> Result<(), ServiceError> {
        if self.ingress_tx.is_none() {
            return Err(ServiceError::Closed);
        }
        if self.shared.draining.load(Ordering::SeqCst) {
            return Err(self.shed(ShedReason::Draining));
        }
        if self.shared.opened.load(Ordering::SeqCst) - self.shared.completed()
            >= self.config.max_live_cohorts as u64
        {
            return Err(self.shed(ShedReason::QueueFull));
        }
        let subjects = spec.n_subjects() as u64;
        let tenant = spec.tenant;
        let mut actor = CohortActor::new_recovering(
            &self.engine,
            spec,
            self.config.model,
            self.config.session,
            self.config.policy(),
            self.config.max_recoveries,
        );
        if let Some(cache) = &self.plan_cache {
            actor.attach_plan_cache(cache);
        }
        let creation_recoveries = actor.recoveries();
        self.shared.opened.fetch_add(1, Ordering::SeqCst);
        self.engine.metrics().update_service(|s| {
            s.submitted += subjects;
            s.batches += 1;
            s.cohorts_opened += 1;
            s.recovered_rounds += creation_recoveries;
        });
        self.sched.push(tenant, Box::new(actor));
        Ok(())
    }

    /// Adopt a frozen cohort from another shard (the receiving side of a
    /// drain/handoff): restore its actor bit-for-bit and enqueue it on its
    /// tenant's lane. The checkpoint codec guarantees the migrated cohort
    /// continues exactly where it stopped, so migration cannot change any
    /// report.
    pub fn adopt_cohort(&self, checkpoint: &CohortCheckpoint) -> Result<(), ServiceError> {
        let mut actor = CohortActor::restore(
            checkpoint,
            self.config.model,
            self.config.session,
            self.config.policy(),
        )
        .map_err(|e| ServiceError::Restore(e.to_string()))?;
        if let Some(cache) = &self.plan_cache {
            actor.attach_plan_cache(cache);
        }
        let tenant = actor.spec().tenant;
        self.shared.opened.fetch_add(1, Ordering::SeqCst);
        self.engine.metrics().update_service(|s| s.restores += 1);
        self.sched.push(tenant, Box::new(actor));
        Ok(())
    }

    /// Stop admitting traffic (subsequent submissions shed with
    /// [`ShedReason::Draining`]) while queued work keeps running — the
    /// first step of a shard handoff, ahead of
    /// [`SurveillanceService::suspend`].
    pub fn begin_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// Whether [`SurveillanceService::begin_drain`] was called.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Hand out the reports completed so far and clear the buffer — the
    /// long-running server's poll path, where nobody ever calls
    /// [`SurveillanceService::drain`]. Reports are sorted by cohort id;
    /// the drain/suspend ledgers are unaffected.
    pub fn take_completed(&self) -> Vec<CohortReport> {
        let mut reports = std::mem::take(&mut *self.shared.reports.lock());
        reports.sort_by_key(|r| r.cohort);
        reports
    }

    /// Cohorts opened but not yet classified.
    pub fn live_cohorts(&self) -> u64 {
        self.shared.opened.load(Ordering::SeqCst) - self.shared.completed()
    }

    /// Close ingress, flush the batcher, run every cohort to
    /// classification, stop the workers, and return all reports sorted by
    /// cohort id.
    pub fn drain(mut self) -> Vec<CohortReport> {
        self.close_ingress_and_flush();
        let expected = self.shared.opened.load(Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_secs(120);
        while self.shared.completed() < expected {
            assert!(
                Instant::now() < deadline,
                "drain stalled: {}/{expected} cohorts classified",
                self.shared.completed()
            );
            thread::sleep(Duration::from_millis(1));
        }
        self.stop_workers();
        self.flush_plan_stats();
        let mut reports = std::mem::take(&mut *self.shared.reports.lock());
        reports.sort_by_key(|r| r.cohort);
        // Counter-consistency ledger: with ingress closed and the wait
        // above done, live == 0, so completed must equal opened — every
        // admitted specimen is in exactly one report (some of which the
        // embedder may already hold via `take_completed`).
        debug_assert_eq!(
            self.shared.completed(),
            expected,
            "drain ledger: completed + live != opened"
        );
        reports
    }

    /// Stop at the next round boundary: flush ingress into cohorts, park
    /// every live cohort, and freeze each into a checkpoint. The result
    /// (with the already-completed reports) restores via
    /// [`SurveillanceService::resume`] with bit-for-bit continuation.
    pub fn suspend(mut self) -> ServiceCheckpoint {
        let rec = Arc::clone(self.engine.obs());
        let obs_start = rec
            .enabled_at(TraceLevel::Spans)
            .then(|| (rec.intern("service:checkpoint"), rec.now_ns()));
        self.close_ingress_and_flush();
        self.shared.suspended.store(true, Ordering::SeqCst);
        let expected = self.shared.opened.load(Ordering::SeqCst);
        let mut parked: Vec<CohortActor> = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(120);
        while self.shared.completed() + (parked.len() as u64) < expected {
            assert!(
                Instant::now() < deadline,
                "suspend stalled: {} done + {} parked of {expected}",
                self.shared.completed(),
                parked.len()
            );
            match self.parked_rx.recv_timeout(Duration::from_millis(5)) {
                Ok(actor) => parked.push(actor),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        self.stop_workers();
        self.flush_plan_stats();
        parked.sort_by_key(|a| a.spec().id);
        let cohorts: Vec<CohortCheckpoint> = parked.iter().map(CohortActor::checkpoint).collect();
        self.engine.metrics().update_service(|s| {
            s.checkpoints += cohorts.len() as u64;
        });
        let plans = self
            .plan_cache
            .as_ref()
            .map(|c| c.export())
            .unwrap_or_default();
        let mut completed = std::mem::take(&mut *self.shared.reports.lock());
        completed.sort_by_key(|r| r.cohort);
        if let Some((name, start)) = obs_start {
            rec.record_span_ending_now(SpanKind::Service, name, start, SpanMeta::default());
        }
        ServiceCheckpoint {
            completed,
            cohorts,
            plans,
        }
    }

    /// Fold this incarnation's plan-cache activity (delta against the
    /// start-time baseline; the cache may be shared) into `ServiceStats`.
    fn flush_plan_stats(&self) {
        let Some(cache) = &self.plan_cache else {
            return;
        };
        let now = cache.stats();
        let base = self.plan_baseline;
        self.engine.metrics().update_service(|s| {
            s.plan_hits += now.hits - base.hits;
            s.plan_misses += now.misses - base.misses;
            s.plan_extends += now.extends - base.extends;
            s.plan_evictions += now.evictions - base.evictions;
        });
    }

    fn close_ingress_and_flush(&mut self) {
        drop(self.ingress_tx.take());
        if let Some(batcher) = self.batcher.take() {
            batcher.join().expect("batcher thread panicked");
        }
    }

    fn stop_workers(&mut self) {
        self.sched.close();
        for worker in self.workers.drain(..) {
            worker.join().expect("worker thread panicked");
        }
    }
}

impl Drop for SurveillanceService {
    fn drop(&mut self) {
        // Abandoned without drain/suspend (e.g. a test assertion failed):
        // shut the threads down instead of leaking them.
        drop(self.ingress_tx.take());
        if let Some(batcher) = self.batcher.take() {
            let _ = batcher.join();
        }
        if !self.workers.is_empty() {
            self.shared.suspended.store(true, Ordering::SeqCst);
            self.sched.close();
            for worker in self.workers.drain(..) {
                let _ = worker.join();
            }
        }
    }
}

/// One tenant's open (not yet sealed) batch in the batcher.
struct OpenBatch {
    specimens: Vec<Specimen>,
    /// Seal-by time: `batch_deadline` after the first specimen arrived.
    deadline: Instant,
}

/// Batcher: group ingress specimens into per-tenant cohorts, closing a
/// batch on size or on `batch_deadline` after its first specimen. Each
/// tenant accumulates independently — a trickle from lab A never delays
/// a burst from lab B, and a cohort only ever contains one tenant's
/// specimens (the unit the WFQ lanes schedule). Holds new cohorts while
/// the live count is at `max_live_cohorts`, back-pressuring the bounded
/// ingress queue (which then sheds at `try_submit`).
fn batcher_loop(
    engine: SharedEngine,
    config: ServiceConfig,
    ingress_rx: Receiver<Tagged>,
    sched: Arc<WfqScheduler<Box<CohortActor>>>,
    shared: Arc<Shared>,
    cache: Option<Arc<PlanCache>>,
) {
    let mut open: std::collections::BTreeMap<u32, OpenBatch> = std::collections::BTreeMap::new();
    loop {
        // Sleep until the next message or the earliest open deadline.
        let next_deadline = open.values().map(|b| b.deadline).min();
        let message = match next_deadline {
            None => ingress_rx
                .recv()
                .map_err(|_| RecvTimeoutError::Disconnected),
            Some(d) => ingress_rx.recv_timeout(d.saturating_duration_since(Instant::now())),
        };
        match message {
            Ok(Tagged { tenant, specimen }) => {
                let batch = open.entry(tenant).or_insert_with(|| OpenBatch {
                    specimens: Vec::new(),
                    deadline: Instant::now() + config.batch_deadline,
                });
                batch.specimens.push(specimen);
                if batch.specimens.len() >= config.batch_size {
                    let mut batch = open.remove(&tenant).expect("batch just inserted");
                    flush_batch(
                        &engine,
                        &config,
                        tenant,
                        &mut batch.specimens,
                        &sched,
                        &shared,
                        &cache,
                    );
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                // Seal every batch whose deadline has passed (clock reads
                // can land slightly before the stored deadline).
                let now = Instant::now();
                let due: Vec<u32> = open
                    .iter()
                    .filter(|(_, b)| b.deadline <= now)
                    .map(|(&t, _)| t)
                    .collect();
                for tenant in due {
                    let mut batch = open.remove(&tenant).expect("due batch exists");
                    flush_batch(
                        &engine,
                        &config,
                        tenant,
                        &mut batch.specimens,
                        &sched,
                        &shared,
                        &cache,
                    );
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                // Ingress closed: seal everything still open and exit.
                for (tenant, mut batch) in std::mem::take(&mut open) {
                    flush_batch(
                        &engine,
                        &config,
                        tenant,
                        &mut batch.specimens,
                        &sched,
                        &shared,
                        &cache,
                    );
                }
                return;
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn flush_batch(
    engine: &SharedEngine,
    config: &ServiceConfig,
    tenant: u32,
    batch: &mut Vec<Specimen>,
    sched: &WfqScheduler<Box<CohortActor>>,
    shared: &Shared,
    cache: &Option<Arc<PlanCache>>,
) {
    if batch.is_empty() {
        return;
    }
    // Admission control, stage two: cap concurrently-live cohorts so the
    // engine's working set stays bounded; ingress backs up (and sheds)
    // while we wait. A suspension lifts the wait — the cohort opens and is
    // immediately parked, so its specimens survive in the checkpoint.
    while shared.opened.load(Ordering::SeqCst) - shared.completed()
        >= config.max_live_cohorts as u64
        && !shared.suspended.load(Ordering::SeqCst)
    {
        thread::sleep(Duration::from_millis(1));
    }
    let id = shared.opened.fetch_add(1, Ordering::SeqCst);
    let rec = engine.obs();
    let obs_start = rec
        .enabled_at(TraceLevel::Spans)
        .then(|| (rec.intern("service:batch-seal"), rec.now_ns()));
    let spec = CohortSpec::from_specimens(id, config.base_seed, batch).with_tenant(tenant);
    batch.clear();
    let mut actor = CohortActor::new_recovering(
        engine,
        spec,
        config.model,
        config.session,
        config.policy(),
        config.max_recoveries,
    );
    if let Some(cache) = cache {
        actor.attach_plan_cache(cache);
    }
    let creation_recoveries = actor.recoveries();
    engine.metrics().update_service(|s| {
        s.batches += 1;
        s.cohorts_opened += 1;
        s.recovered_rounds += creation_recoveries;
    });
    // The seal span covers prior construction too (it may itself run
    // engine stages), so cohort startup cost is visible per cohort.
    if let Some((name, start)) = obs_start {
        rec.record_span_ending_now(SpanKind::Service, name, start, SpanMeta::for_cohort(id));
    }
    if rec.enabled_at(TraceLevel::Full) {
        let live = shared.opened.load(Ordering::SeqCst) - shared.completed();
        rec.counter(rec.intern("live_cohorts"), live);
    }
    sched.push(tenant, Box::new(actor));
}

/// Worker: pull the next cohort from the weighted-fair ready queue, run
/// one round, requeue or report. The scheduler hands out rounds in
/// proportion to tenant weights; within a lane cohorts round-robin.
fn worker_loop(
    engine: SharedEngine,
    config: ServiceConfig,
    sched: Arc<WfqScheduler<Box<CohortActor>>>,
    parked_tx: Sender<CohortActor>,
    shared: Arc<Shared>,
) {
    while let Some(mut actor) = sched.pop() {
        if shared.suspended.load(Ordering::SeqCst) {
            let _ = parked_tx.send(*actor);
            continue;
        }
        let tenant = actor.spec().tenant;
        let slo = config.tenant_slo(tenant);
        let rec = engine.obs();
        let obs_start = rec
            .enabled_at(TraceLevel::Spans)
            .then(|| (rec.intern("service:round"), rec.now_ns()));
        let start = Instant::now();
        let run = actor.run_round_recovering(&engine, config.max_recoveries);
        let elapsed = start.elapsed();
        if let Some((name, start_ns)) = obs_start {
            rec.record_span_ending_now(
                SpanKind::Service,
                name,
                start_ns,
                SpanMeta::for_cohort(actor.spec().id),
            );
        }
        engine.metrics().update_service(|s| {
            s.record_round(elapsed);
            s.record_tenant_round(tenant, elapsed, slo);
            s.recovered_rounds += run.recovered;
        });
        match run.step {
            RoundStep::Finished(outcome) => {
                engine
                    .metrics()
                    .update_service(|s| s.cohorts_completed += 1);
                // Report before the counter bump: drain treats
                // `completed == opened` as "all reports present".
                shared.reports.lock().push(CohortReport {
                    cohort: actor.spec().id,
                    tenant,
                    subjects: actor.spec().n_subjects(),
                    recovered_rounds: actor.recoveries(),
                    outcome,
                });
                shared.completed.fetch_add(1, Ordering::SeqCst);
                if rec.enabled_at(TraceLevel::Full) {
                    let live = shared.opened.load(Ordering::SeqCst) - shared.completed();
                    rec.counter(rec.intern("live_cohorts"), live);
                }
            }
            RoundStep::Progressed => {
                // This worker pops next; waking another buys nothing.
                sched.requeue(tenant, actor);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cohort::{batch_specimens, run_cohort_serial};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use sbgt_engine::EngineConfig;

    fn shared_engine() -> SharedEngine {
        SharedEngine::new(EngineConfig::default().with_threads(2))
    }

    fn specimens(n: usize, seed: u64) -> Vec<Specimen> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let risk = 0.01 + rng.random::<f64>() * 0.12;
                Specimen {
                    risk,
                    infected: rng.random_bool(risk),
                }
            })
            .collect()
    }

    fn quick_config() -> ServiceConfig {
        ServiceConfig {
            workers: 3,
            batch_size: 6,
            // Long deadline: only the size trigger and the close-time
            // flush form batches, so boundaries match `batch_specimens`
            // regardless of scheduler timing.
            batch_deadline: Duration::from_secs(5),
            dense_threshold: 5,
            parts: 3,
            base_seed: 77,
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn service_matches_serial_reference_bit_for_bit() {
        let engine = shared_engine();
        let config = quick_config();
        let sp = specimens(64, 5);

        let service = SurveillanceService::start(engine.clone(), config.clone()).unwrap();
        for s in &sp {
            service.submit(*s).unwrap();
        }
        let reports = service.drain();

        let specs = batch_specimens(&sp, config.batch_size, config.base_seed);
        assert_eq!(reports.len(), specs.len());
        for (report, spec) in reports.iter().zip(&specs) {
            let serial =
                run_cohort_serial(&engine, spec, config.model, config.session, config.policy());
            assert_eq!(report.cohort, spec.id);
            assert_eq!(report.outcome, serial);
            for (a, b) in report.outcome.marginals.iter().zip(&serial.marginals) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        let stats = engine.metrics().service_stats();
        assert_eq!(stats.submitted, 64);
        assert_eq!(stats.shed, 0);
        assert_eq!(stats.cohorts_completed, stats.cohorts_opened);
        assert!(stats.rounds > 0);
    }

    #[test]
    fn full_queue_sheds_with_typed_reason() {
        let engine = shared_engine();
        // One worker, tiny queue, and a live-cohort cap of one: the
        // batcher back-pressures, so the queue genuinely fills.
        let config = ServiceConfig {
            workers: 1,
            queue_capacity: 4,
            batch_size: 4,
            max_live_cohorts: 1,
            dense_threshold: 0,
            parts: 2,
            base_seed: 3,
            ..ServiceConfig::default()
        };
        let service = SurveillanceService::start(engine.clone(), config).unwrap();
        let sp = specimens(64, 8);
        let mut shed = 0usize;
        for s in &sp {
            match service.try_submit(*s) {
                Ok(()) => {}
                Err(ServiceError::Shed(ShedReason::QueueFull)) => shed += 1,
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        let reports = service.drain();
        let stats = engine.metrics().service_stats();
        assert_eq!(stats.shed as usize, shed);
        assert_eq!(stats.submitted as usize, 64 - shed);
        // Everything accepted was classified; nothing leaked.
        let classified: usize = reports.iter().map(|r| r.subjects).sum();
        assert_eq!(classified, 64 - shed);
        assert!(shed > 0, "tiny queue under burst load must shed");
    }

    #[test]
    fn deadline_flushes_partial_batches() {
        let engine = shared_engine();
        let config = ServiceConfig {
            batch_size: 16,
            batch_deadline: Duration::from_millis(10),
            dense_threshold: 32,
            base_seed: 1,
            ..ServiceConfig::default()
        };
        let service = SurveillanceService::start(engine.clone(), config).unwrap();
        for s in specimens(3, 2) {
            service.submit(s).unwrap();
        }
        // Far below batch_size: only the deadline can open this cohort.
        // Wait for the deadline flush *before* closing ingress, so drain's
        // own flush-on-close cannot be what formed the batch.
        let deadline = Instant::now() + Duration::from_secs(10);
        while engine.metrics().service_stats().cohorts_opened == 0 {
            assert!(Instant::now() < deadline, "deadline flush never fired");
            thread::sleep(Duration::from_millis(2));
        }
        let reports = service.drain();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].subjects, 3);
    }

    #[test]
    fn traced_service_run_exports_a_valid_chrome_trace() {
        use sbgt_engine::obs::{render_chrome_trace, validate_chrome_trace, ObsConfig};
        let engine = SharedEngine::new(
            EngineConfig::default()
                .with_threads(2)
                .with_obs(ObsConfig::full()),
        );
        let config = quick_config();
        let service = SurveillanceService::start(engine.clone(), config).unwrap();
        for s in specimens(24, 13) {
            service.submit(s).unwrap();
        }
        let reports = service.drain();
        assert!(!reports.is_empty());

        let rec = engine.obs();
        let snap = rec.snapshot();
        let events: Vec<_> = snap.all_events().collect();
        // The whole service pipeline shows up: batch seals and rounds
        // (service layer), session rounds, and engine stage spans — all
        // tagged with real cohort ids where applicable.
        for name in ["service:batch-seal", "service:round", "session:round"] {
            assert!(
                events.iter().any(|e| rec.name_of(e.name) == name),
                "missing {name} span"
            );
        }
        let round_cohorts: std::collections::BTreeSet<u64> = events
            .iter()
            .filter(|e| rec.name_of(e.name) == "service:round")
            .map(|e| e.meta.cohort)
            .collect();
        assert_eq!(
            round_cohorts.len(),
            reports.len(),
            "every cohort's rounds are tagged with its id"
        );
        assert!(
            events
                .iter()
                .any(|e| rec.name_of(e.name) == "queue_depth" && e.kind == SpanKind::Counter),
            "Full level plots ingress depth"
        );
        // Lanes carry the service thread names into the trace.
        assert!(snap.lanes.iter().any(|l| l.name == "svc-batcher"));
        assert!(snap.lanes.iter().any(|l| l.name.starts_with("svc-worker-")));
        // And the export is a valid, loadable Chrome trace.
        let trace = render_chrome_trace(rec);
        let summary = validate_chrome_trace(&trace).expect("trace must validate");
        assert!(summary.spans > 0);
        assert!(summary.counters > 0);
    }

    #[test]
    fn shared_plan_cache_replays_across_cohorts_bit_for_bit() {
        let engine = shared_engine();
        // One shared risk band: every cohort quantizes to the same risk
        // vector, so all of them share a single memoized decision tree.
        let config = ServiceConfig {
            workers: 3,
            batch_size: 8,
            batch_deadline: Duration::from_secs(5),
            dense_threshold: 9,
            plan_cache_nodes: 512,
            plan_risk_buckets: 16,
            session: sbgt::SbgtConfig::default().with_stage_width(2),
            base_seed: 4242,
            ..ServiceConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(31);
        let sp: Vec<Specimen> = (0..64)
            .map(|_| Specimen {
                risk: 0.05,
                infected: rng.random_bool(0.05),
            })
            .collect();

        let service = SurveillanceService::start(engine.clone(), config.clone()).unwrap();
        assert!(service.plan_cache.is_some());
        for s in &sp {
            service.submit(*s).unwrap();
        }
        let reports = service.drain();

        // Replayed selections must be indistinguishable from live ones:
        // the serial reference runs the same policy (same quantized
        // priors) with no cache attached.
        let specs = batch_specimens(&sp, config.batch_size, config.base_seed);
        assert_eq!(reports.len(), specs.len());
        for (report, spec) in reports.iter().zip(&specs) {
            let serial =
                run_cohort_serial(&engine, spec, config.model, config.session, config.policy());
            assert_eq!(report.outcome, serial);
            for (a, b) in report.outcome.marginals.iter().zip(&serial.marginals) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        let stats = engine.metrics().service_stats();
        assert!(
            stats.plan_hits > 0,
            "shared-key cohorts must replay memoized selections"
        );
        assert!(stats.plan_extends > 0, "misses must extend the tree");
    }

    #[test]
    fn suspend_resume_continues_bit_for_bit() {
        let engine = shared_engine();
        let config = quick_config();
        let sp = specimens(48, 21);

        // Reference: uninterrupted serial run over the same batches.
        let specs = batch_specimens(&sp, config.batch_size, config.base_seed);
        let serial: Vec<SessionOutcome> = specs
            .iter()
            .map(|spec| {
                run_cohort_serial(&engine, spec, config.model, config.session, config.policy())
            })
            .collect();

        let service = SurveillanceService::start(engine.clone(), config.clone()).unwrap();
        for s in &sp {
            service.submit(*s).unwrap();
        }
        // Let some rounds happen, then freeze mid-run.
        thread::sleep(Duration::from_millis(5));
        let checkpoint = service.suspend();
        assert_eq!(
            checkpoint.completed.len() + checkpoint.cohorts.len(),
            specs.len(),
            "every cohort is either completed or checkpointed"
        );

        // Round-trip each cohort checkpoint through its byte codec, as an
        // eviction to cold storage would.
        let rehydrated = ServiceCheckpoint {
            completed: checkpoint.completed.clone(),
            cohorts: checkpoint
                .cohorts
                .iter()
                .map(|c| CohortCheckpoint::from_bytes(&c.to_bytes()).unwrap())
                .collect(),
            plans: checkpoint.plans.clone(),
        };

        let resumed =
            SurveillanceService::resume(engine.clone(), config.clone(), rehydrated).unwrap();
        let reports = resumed.drain();
        assert_eq!(reports.len(), specs.len());
        for (report, expected) in reports.iter().zip(&serial) {
            assert_eq!(&report.outcome, expected);
            for (a, b) in report.outcome.marginals.iter().zip(&expected.marginals) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        let stats = engine.metrics().service_stats();
        assert_eq!(stats.checkpoints, checkpoint.cohorts.len() as u64);
        assert_eq!(stats.restores, checkpoint.cohorts.len() as u64);
    }
}
