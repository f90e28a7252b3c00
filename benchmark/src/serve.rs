//! The four serving workloads: what each configures, and the one routine
//! that sets a target up, drives its phases and checks what came back.

use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sbgt::SbgtConfig;
use sbgt_net::{Request, ShardClient};
use sbgt_response::{BinaryDilutionModel, Dilution};
use sbgt_service::{
    run_cohort_serial, ApproxBackend, CohortReport, CohortSpec, PlanCache, PlanCacheStats,
    ServiceConfig, TenantSpec,
};

use crate::host;
use crate::load::{same_bits, Driver, Phase, Tally};
use crate::spans::Spans;
use crate::stats;
use crate::target::{quiet_engine, FabricTarget, ServiceTarget, Target};
use crate::traffic::{derive_seed, Class, Traffic};

/// Set-ups a full-length end-to-end run makes; `setup_s` is their median.
/// One set-up is a few tens of milliseconds of process spawns and thread
/// starts, too noisy alone.
pub const SETUPS: usize = 7;

/// Seed of every warm-up stream. Warm-up traffic is not measured, and a
/// handful of cohorts drawn from the run's seed would make `setup_s`
/// measure their luck instead of the program's set-up.
const WARM_SEED: u64 = 0x5E7;

/// Engine threads behind every service (in-process and per shard).
pub const ENGINE_THREADS: usize = 2;

/// Shard processes behind the fabric.
pub const SHARDS: u32 = 2;

/// Cohorts in flight when the handoff tail drains a shard: four times the
/// sat phase's window. A saturated shard holds its share of the window —
/// some 40 ms of work here — so the drain finds live cohorts even when
/// the host stalls the generator for a few milliseconds on the way (under
/// the sat window itself, 10 ms deep, one drain in ten found none).
const HANDOFF_WINDOW_COHORTS: usize = 192;

/// Pings the traced fabric pass times.
const PINGS: usize = 2000;

/// Sizes of one serving plan at the reference run length.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Workload name, which is also what a shard child is told to serve.
    pub workload: &'static str,
    pub config: ServiceConfig,
    pub classes: Vec<Class>,
    /// Cohorts pushed through before anything is timed.
    pub warm_cohorts: usize,
    /// Solo-phase cohorts (0 = no solo phase).
    pub solo_cohorts: usize,
    /// Sat-phase specimens.
    pub sat_specimens: usize,
    /// Cohorts in flight during the sat phase.
    pub window: usize,
    /// Paced-phase specimens and arrival rate per second (traced pass only).
    pub paced: Option<(usize, f64)>,
    /// Node budget of a harness-owned plan cache.
    pub plan_cache_nodes: Option<usize>,
}

impl Plan {
    pub fn batch(&self) -> usize {
        self.config.batch_size
    }

    fn stream(&self, salt: u64, specimens: usize, seed: u64) -> Traffic {
        Traffic::closed(&self.classes, specimens, derive_seed(seed, salt))
    }
}

/// Two labs at equal arrival shares (the service weighs them 2:1), each
/// with a 90/10 mix of a 2 % and a 12 % risk class.
fn two_lab_mix() -> Vec<Class> {
    [0, 1]
        .into_iter()
        .flat_map(|tenant| {
            [(0.02, 0.45), (0.12, 0.05)]
                .into_iter()
                .map(move |(risk, weight)| Class {
                    tenant,
                    risk,
                    weight,
                })
        })
        .collect()
}

/// The dense N=12 service both `svc-n12` and every `fabric-n12` shard run.
/// The deadline is far beyond any run, so cohorts seal by size only and
/// the batcher mirror holds.
fn n12_config(workers: usize, base_seed: u64) -> ServiceConfig {
    ServiceConfig {
        workers,
        queue_capacity: 1024,
        batch_size: 12,
        batch_deadline: Duration::from_secs(30),
        max_live_cohorts: 256,
        dense_threshold: 13,
        tenants: vec![TenantSpec::weighted(0, 2), TenantSpec::weighted(1, 1)],
        base_seed,
        ..ServiceConfig::default()
    }
}

pub fn svc_n12(seed: u64) -> Plan {
    Plan {
        workload: "svc-n12",
        config: n12_config(2, seed),
        classes: two_lab_mix(),
        warm_cohorts: 256,
        solo_cohorts: 8_000,
        sat_specimens: 800_000,
        window: 48,
        paced: Some((90_000, 20_000.0)),
        plan_cache_nodes: None,
    }
}

pub fn fabric_n12(seed: u64) -> Plan {
    Plan {
        workload: "fabric-n12",
        // One worker per shard: two shards match the in-process service's
        // two workers, so the difference between the workloads is `net`.
        config: n12_config(1, seed),
        classes: two_lab_mix(),
        warm_cohorts: 256,
        solo_cohorts: 8_000,
        sat_specimens: 520_000,
        window: 48,
        paced: Some((45_000, 10_000.0)),
        plan_cache_nodes: None,
    }
}

pub fn plan_w8(seed: u64) -> Plan {
    let nodes = 6 << 10;
    Plan {
        workload: "plan-w8",
        config: ServiceConfig {
            workers: 2,
            queue_capacity: 1024,
            batch_size: 12,
            batch_deadline: Duration::from_secs(30),
            max_live_cohorts: 256,
            dense_threshold: 13,
            session: SbgtConfig::default().serial().with_stage_width(8),
            plan_cache_nodes: nodes,
            plan_risk_buckets: 16,
            base_seed: seed,
            ..ServiceConfig::default()
        },
        // One tenant, one risk band: every cohort shares one `PlanKey`.
        classes: vec![Class {
            tenant: 0,
            risk: 0.05,
            weight: 1.0,
        }],
        // The warm-up grows the same tree the run does; 256 cohorts are
        // 3 % of the way to the cache's limit.
        warm_cohorts: 256,
        // Twenty samples beyond its p99, and few enough that the sat phase
        // still starts well short of the cache's limit.
        solo_cohorts: 2_000,
        sat_specimens: 170_000,
        window: 48,
        paced: None,
        plan_cache_nodes: Some(nodes),
    }
}

/// One half of `approx-n128`: 128-specimen cohorts on one approximate
/// backend. Undiluted assay, so the cost is inference past the `2^N`
/// wall, not dilution physics.
pub fn approx_n128(seed: u64, backend: ApproxBackend) -> Plan {
    let (salted, solo_cohorts, sat_cohorts) = match backend {
        // No solo phase on BP. A BP cohort takes 100–160 ms, by how many
        // positives it holds; the two dozen that would fit support no
        // tail of their own, and pooled with the particle cohorts they put
        // the reported tail on whichever BP cohort comes eleventh from the
        // top (ten-seed spread 18–24 %). BP's cost shows in throughput.
        ApproxBackend::Bp => (derive_seed(seed, 0xB9), 0, 84),
        ApproxBackend::Particle => (derive_seed(seed, 0x9A), 120, 336),
    };
    Plan {
        workload: "approx-n128",
        config: ServiceConfig {
            workers: 2,
            queue_capacity: 1024,
            batch_size: 128,
            batch_deadline: Duration::from_secs(30),
            max_live_cohorts: 64,
            approx_threshold: 17,
            approx_backend: backend,
            approx_particles: 1024,
            model: BinaryDilutionModel::new(0.99, 0.995, Dilution::None),
            session: SbgtConfig {
                max_stages: 2000,
                ..SbgtConfig::default()
            },
            base_seed: salted,
            ..ServiceConfig::default()
        },
        classes: vec![Class {
            tenant: 0,
            risk: 0.05,
            weight: 1.0,
        }],
        warm_cohorts: 2,
        solo_cohorts,
        sat_specimens: sat_cohorts * 128,
        window: 8,
        paced: None,
        plan_cache_nodes: None,
    }
}

/// The config a `--shard` child of `workload` serves.
pub fn shard_config(workload: &str, base_seed: u64) -> Option<ServiceConfig> {
    (workload == "fabric-n12").then(|| fabric_n12(base_seed).config)
}

/// Scale a reference count, keeping whole cohorts and at least `floor`.
pub fn scaled(count: usize, scale: f64, unit: usize, floor: usize) -> usize {
    let units = ((count as f64 * scale) / unit as f64).round() as usize;
    units.max(floor) * unit
}

/// What one serving run measured.
pub struct Served {
    pub setup_s: f64,
    /// Timed phases in order (warm-up and close included, for the record).
    pub phases: Vec<Phase>,
    /// Ledger over every phase, warm-up included.
    pub ledger: Tally,
    pub violations: Vec<String>,
    /// Cohorts compared bit for bit with the serial reference.
    pub checked_cohorts: usize,
    pub peak_rss_mb: f64,
    pub spans: Spans,
    /// Plan-cache counters, when the plan owns a cache.
    pub plan_stats: Option<PlanCacheStats>,
    /// Fabric only: the handoff tail.
    pub handoff: Option<Handoff>,
    /// Seconds from target start until it was serving (fabric: spawn and
    /// connect; service: start), from the kept set-up.
    pub start_s: f64,
}

pub struct Handoff {
    /// From the `drain_shard` call until every relocated report is back.
    pub ms: f64,
    pub relocated_cohorts: u64,
}

impl Served {
    pub fn phase(&self, name: &str) -> Option<&Phase> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// A phase the caller cannot do without.
    pub fn need(&self, name: &str) -> io::Result<&Phase> {
        self.phase(name)
            .ok_or_else(|| io::Error::other(format!("the run has no {name} phase")))
    }

    /// The phase throughput and CPU cost are read over: the sat phase, or
    /// the one phase of a workload with no service in it.
    pub fn throughput_phase(&self) -> io::Result<&Phase> {
        self.phase("sat").map_or_else(|| self.need("run"), Ok)
    }

    /// The phase with one cohort in flight, which report latency is read
    /// from, if the run has one: the solo phase, or the one phase of a
    /// workload with no service in it (which runs its cohorts one at a
    /// time).
    pub fn latency_phase(&self) -> Option<&Phase> {
        self.phase("solo").or_else(|| self.phase("run"))
    }
}

/// Which phases to run, at what share of the plan's sizes.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    pub scale: f64,
    pub paced: bool,
    pub trace: bool,
    /// Set-ups to time; the last one is kept and measured on.
    pub setups: usize,
}

/// How a plan's target is started, given the harness-owned plan cache.
type Start<T> = dyn Fn(&Plan, Option<Arc<PlanCache>>) -> io::Result<T>;

struct Ready<T: Target> {
    driver: Driver<T>,
    cache: Option<Arc<PlanCache>>,
    start_s: f64,
}

/// Everything before the first timed call: generate the traffic, start
/// the target, push the warm-up cohorts through and wait for them.
fn set_up<T: Target>(plan: &Plan, pass: Pass, start: &Start<T>) -> io::Result<Ready<T>> {
    let warm = plan.stream(0, plan.warm_cohorts * plan.batch(), WARM_SEED);
    let cache = plan.plan_cache_nodes.map(PlanCache::new);
    let started = Instant::now();
    let target = start(plan, cache.clone())?;
    let start_s = started.elapsed().as_secs_f64();
    let spans = if pass.trace {
        Spans::on()
    } else {
        Spans::off()
    };
    let mut driver = Driver::new(target, plan.batch(), plan.config.base_seed, spans);
    driver.sat(&warm, 0..warm.len(), plan.window)?;
    Ok(Ready {
        driver,
        cache,
        start_s,
    })
}

fn start_service(plan: &Plan, cache: Option<Arc<PlanCache>>) -> io::Result<ServiceTarget> {
    ServiceTarget::start(plan.config.clone(), ENGINE_THREADS, cache)
}

fn start_fabric(plan: &Plan, _cache: Option<Arc<PlanCache>>) -> io::Result<FabricTarget> {
    FabricTarget::start(plan.workload, SHARDS, plan.batch(), plan.config.base_seed)
}

/// Run a plan through the in-process service.
pub fn serve_in_process(plan: &Plan, seed: u64, pass: Pass) -> io::Result<Served> {
    serve(plan, seed, pass, &start_service, |_| Ok(None), |_| Ok(()))
}

/// Run a plan through the shard fabric, ending with the handoff tail.
pub fn serve_fabric(plan: &Plan, seed: u64, pass: Pass) -> io::Result<Served> {
    let tail = plan.stream(4, 2 * HANDOFF_WINDOW_COHORTS * plan.batch(), seed);
    serve(
        plan,
        seed,
        pass,
        &start_fabric,
        |driver| {
            // The wire and reactor floor with no service work behind it,
            // on a connection of its own (traced pass only).
            if driver.spans.enabled() {
                let mut client = ShardClient::connect(driver.target.shard_addr(0)?)?;
                for _ in 0..PINGS {
                    let open = driver.spans.enter("net.ping", crate::spans::NO_COHORT);
                    client.call(&Request::Ping)?;
                    driver.spans.exit(open);
                }
            }
            // Keep the window full, then drain the highest shard under
            // it: its frozen cohorts finish on the survivor.
            driver.fill(&tail, 0..tail.len(), HANDOFF_WINDOW_COHORTS)?;
            let victim = SHARDS - 1;
            let started = Instant::now();
            let before = driver.target.router()?.counters().relocated_cohorts;
            let recovered = driver.target.drain_shard(victim)?;
            driver.book_reports(recovered)?;
            driver.settle()?;
            let ms = started.elapsed().as_secs_f64() * 1e3;
            let relocated_cohorts = driver.target.router()?.counters().relocated_cohorts - before;
            Ok(Some(Handoff {
                ms,
                relocated_cohorts,
            }))
        },
        FabricTarget::shutdown,
    )
}

fn serve<T: Target>(
    plan: &Plan,
    seed: u64,
    pass: Pass,
    start: &Start<T>,
    tail: impl FnOnce(&mut Driver<T>) -> io::Result<Option<Handoff>>,
    stop: impl Fn(T) -> io::Result<()>,
) -> io::Result<Served> {
    // Set up several times and keep the last.
    let mut setup_times = Vec::new();
    let mut ready = None;
    for _ in 0..pass.setups.max(1) {
        if let Some(Ready { mut driver, .. }) = ready.take() {
            driver.close()?;
            stop(driver.target)?;
        }
        let began = Instant::now();
        ready = Some(set_up(plan, pass, start)?);
        setup_times.push(began.elapsed().as_secs_f64());
    }
    let Ready {
        mut driver,
        cache,
        start_s,
    } = ready.expect("at least one set-up ran");
    let setup_s = stats::median_of(&setup_times);

    let batch = plan.batch();
    let mut phases = Vec::new();
    if plan.solo_cohorts > 0 {
        // Labs fill batches alternately, so a cohort seals about every
        // `batch` specimens.
        let specimens = scaled(plan.solo_cohorts * batch, pass.scale, batch, 2);
        let stream = plan.stream(1, specimens, seed);
        phases.push(driver.solo(&stream, 0..stream.len())?);
    }
    let specimens = scaled(
        plan.sat_specimens,
        pass.scale,
        batch,
        (plan.window / 4).max(1),
    );
    let stream = plan.stream(2, specimens, seed);
    phases.push(driver.sat(&stream, 0..stream.len(), plan.window)?);
    if let (true, Some((specimens, rate))) = (pass.paced, plan.paced) {
        let specimens = scaled(specimens, pass.scale, batch, 16);
        let stream = Traffic::paced(&plan.classes, rate, specimens, derive_seed(seed, 3));
        phases.push(driver.paced(&stream, 0..stream.len())?);
    }
    // Peak memory through the timed phases, read before the children exit
    // and before the handoff tail: how much the tail holds depends on how
    // many cohorts happen to be live when the drain arrives.
    let peak_rss_mb = host::peak_rss_mb_with(&driver.target.children());
    let handoff = tail(&mut driver)?;
    phases.push(driver.close()?);

    let Driver {
        target,
        mut book,
        spans,
        ..
    } = driver;
    stop(target)?;

    let checked_cohorts = check_samples(plan, &mut book.violations, &book.samples);
    Ok(Served {
        setup_s,
        phases,
        ledger: book.tally,
        violations: book.violations,
        checked_cohorts,
        peak_rss_mb,
        spans,
        plan_stats: cache.map(|c| c.stats()),
        handoff,
        start_s,
    })
}

/// Compare every sampled cohort bit for bit — tests, stages, statuses,
/// marginal bits — with `run_cohort_serial` under the same policy.
fn check_samples(
    plan: &Plan,
    violations: &mut Vec<String>,
    samples: &[(CohortSpec, CohortReport)],
) -> usize {
    let engine = quiet_engine(ENGINE_THREADS);
    let config = &plan.config;
    for (spec, report) in samples {
        let serial =
            run_cohort_serial(&engine, spec, config.model, config.session, config.policy());
        let got = &report.outcome;
        if !same_bits(got, &serial) && violations.len() < 16 {
            violations.push(format!(
                "cohort {} differs from the serial reference ({} tests / {} stages against {} / {})",
                spec.id, got.tests, got.stages, serial.tests, serial.stages
            ));
        }
    }
    samples.len()
}
