//! Acceptance: a seeded 64-cohort mixed-workload run through the service
//! produces classifications **bit-for-bit identical** to serial per-cohort
//! runs — clean, over a caller-owned plan cache cold and warm, on the
//! approximate backends past the exact `2^N` wall, and across a mid-run
//! suspend/resume cycle with every checkpoint round-tripped through its
//! byte codec.

use std::thread;
use std::time::Duration;

use sbgt::SbgtConfig;
use sbgt_engine::{EngineConfig, SharedEngine};
use sbgt_response::{BinaryDilutionModel, Dilution};
use sbgt_service::{
    batch_specimens, run_cohort_serial, ApproxBackend, CohortCheckpoint, PlanCache,
    ServiceCheckpoint, ServiceConfig, Specimen, SurveillanceService,
};
use sbgt_sim::traffic::{generate_arrivals, TrafficConfig};

const COHORTS: usize = 64;
const BATCH: usize = 8;

fn engine() -> SharedEngine {
    SharedEngine::new(EngineConfig::default().with_threads(2))
}

/// The specimens of a generated trace, in arrival order.
fn specimens_of(traffic: &TrafficConfig) -> Vec<Specimen> {
    generate_arrivals(traffic)
        .into_iter()
        .map(|a| Specimen {
            risk: a.risk,
            infected: a.infected,
        })
        .collect()
}

/// Mixed workload: the open-loop Poisson generator's two-class risk mix.
fn workload(seed: u64) -> Vec<Specimen> {
    specimens_of(&TrafficConfig::mixed(1000.0, COHORTS * BATCH, seed))
}

fn config() -> ServiceConfig {
    ServiceConfig {
        workers: 4,
        queue_capacity: COHORTS * BATCH,
        batch_size: BATCH,
        // Only the size trigger and close-time flush may form batches, so
        // service batching matches `batch_specimens` exactly.
        batch_deadline: Duration::from_secs(30),
        max_live_cohorts: COHORTS,
        dense_threshold: 5,
        parts: 4,
        base_seed: 0xE13,
        ..ServiceConfig::default()
    }
}

fn serial_reference(
    engine: &SharedEngine,
    cfg: &ServiceConfig,
    specimens: &[Specimen],
) -> Vec<sbgt::SessionOutcome> {
    batch_specimens(specimens, cfg.batch_size, cfg.base_seed)
        .iter()
        .map(|spec| run_cohort_serial(engine, spec, cfg.model, cfg.session, cfg.policy()))
        .collect()
}

/// Cohorts of 64 specimens — `2^64` exact states — on one approximate
/// backend, through the same service stack.
fn large_cohort_input(backend: ApproxBackend) -> (ServiceConfig, Vec<Specimen>) {
    let (n, cohorts) = (64, 2);
    let cfg = ServiceConfig {
        queue_capacity: n * cohorts,
        batch_size: n,
        batch_deadline: Duration::from_secs(30),
        approx_threshold: 17,
        approx_backend: backend,
        approx_particles: 1024,
        base_seed: 0xE17,
        // Undiluted assay and a stage cap sized for the cohort: the
        // subject is inference past the wall, not dilution physics.
        model: BinaryDilutionModel::new(0.99, 0.995, Dilution::None),
        session: SbgtConfig {
            max_stages: 2000,
            ..SbgtConfig::default()
        },
        ..ServiceConfig::default()
    };
    let traffic = TrafficConfig::large_cohort(n, cohorts, 0.05, 2026);
    (cfg, specimens_of(&traffic))
}

#[test]
fn sixty_four_cohorts_match_serial_bit_for_bit() {
    // One plan cache owned out here and handed to two successive service
    // incarnations: the first fills it, the second replays it, and neither
    // may differ from the cacheless serial reference by a bit.
    let plans = PlanCache::new(1 << 12);
    let (bp, bp_specimens) = large_cohort_input(ApproxBackend::Bp);
    let (particle, particle_specimens) = large_cohort_input(ApproxBackend::Particle);
    let inputs = [
        ("no plan cache", config(), workload(42), None),
        (
            "plan cache, cold",
            config(),
            workload(42),
            Some(plans.clone()),
        ),
        (
            "plan cache, warm",
            config(),
            workload(42),
            Some(plans.clone()),
        ),
        ("bp past the wall", bp, bp_specimens, None),
        ("particle past the wall", particle, particle_specimens, None),
    ];
    for (input, cfg, specimens, cache) in inputs {
        let engine = engine();
        let serial = serial_reference(&engine, &cfg, &specimens);
        let cohorts = specimens.len() / cfg.batch_size;
        assert_eq!(serial.len(), cohorts, "{input}");

        let service =
            SurveillanceService::start_with_cache(engine.clone(), cfg.clone(), cache).unwrap();
        for s in &specimens {
            service.submit(*s).unwrap();
        }
        let reports = service.drain();

        assert_eq!(reports.len(), cohorts, "{input}");
        for (report, expected) in reports.iter().zip(&serial) {
            assert!(report.outcome.classification.is_terminal(), "{input}");
            assert_eq!(report.outcome.classification, expected.classification);
            assert_eq!(report.outcome.tests, expected.tests, "{input}");
            assert_eq!(report.outcome.stages, expected.stages, "{input}");
            for (a, b) in report.outcome.marginals.iter().zip(&expected.marginals) {
                assert_eq!(a.to_bits(), b.to_bits(), "{input}: marginal bits diverged");
            }
        }

        let stats = engine.metrics().service_stats();
        assert_eq!(stats.submitted as usize, specimens.len());
        assert_eq!(stats.shed, 0, "{input}: nominal load must not shed");
        assert_eq!(stats.cohorts_opened as usize, cohorts);
        assert_eq!(stats.cohorts_completed as usize, cohorts);
        assert!(stats.queue_peak > 0);
    }
    let stats = plans.stats();
    assert!(stats.extends > 0, "the cold run must grow the trees");
    assert!(stats.hits > 0, "the warm run must replay them");
}

#[test]
fn mid_run_suspend_resume_is_invisible() {
    let engine = engine();
    let cfg = config();
    let specimens = workload(7);
    let serial = serial_reference(&engine, &cfg, &specimens);

    let service = SurveillanceService::start(engine.clone(), cfg.clone()).unwrap();
    for s in &specimens {
        service.submit(*s).unwrap();
    }
    // Freeze mid-run: some cohorts done, many mid-session.
    thread::sleep(Duration::from_millis(10));
    let checkpoint = service.suspend();
    assert_eq!(
        checkpoint.completed.len() + checkpoint.cohorts.len(),
        COHORTS,
        "no cohort may leak at suspension"
    );

    // Evict to bytes and back, as cold storage would.
    let rehydrated = ServiceCheckpoint {
        completed: checkpoint.completed.clone(),
        cohorts: checkpoint
            .cohorts
            .iter()
            .map(|c| CohortCheckpoint::from_bytes(&c.to_bytes()).unwrap())
            .collect(),
        plans: checkpoint.plans.clone(),
    };

    let resumed = SurveillanceService::resume(engine.clone(), cfg, rehydrated).unwrap();
    let reports = resumed.drain();
    assert_eq!(reports.len(), COHORTS);
    for (report, expected) in reports.iter().zip(&serial) {
        assert_eq!(&report.outcome, expected);
        for (a, b) in report.outcome.marginals.iter().zip(&expected.marginals) {
            assert_eq!(a.to_bits(), b.to_bits(), "marginal bits diverged");
        }
    }
}
