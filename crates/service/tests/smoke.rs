//! Service smoke: a short seeded load through the full stack — bounded
//! ingress, batcher, round-robin workers, shared engine — must drain
//! cleanly at nominal load: every cohort classified, nothing shed, nothing
//! leaked. This is the `make service-smoke` gate.

use sbgt_engine::{EngineConfig, SharedEngine};
use sbgt_service::{ServiceConfig, Specimen, SurveillanceService};
use sbgt_sim::traffic::{generate_arrivals, TrafficConfig};

#[test]
fn seeded_load_drains_cleanly() {
    let engine = SharedEngine::new(EngineConfig::default().with_threads(2));
    let config = ServiceConfig {
        workers: 2,
        queue_capacity: 256,
        batch_size: 8,
        dense_threshold: 9,
        parts: 3,
        base_seed: 0x50BE,
        ..ServiceConfig::default()
    };
    let service = SurveillanceService::start(engine.clone(), config).unwrap();

    let arrivals = generate_arrivals(&TrafficConfig::mixed(800.0, 96, 5));
    for a in &arrivals {
        service
            .submit(Specimen {
                risk: a.risk,
                infected: a.infected,
            })
            .unwrap();
    }
    let reports = service.drain();

    let subjects: usize = reports.iter().map(|r| r.subjects).sum();
    assert_eq!(subjects, 96, "every specimen must land in a report");
    assert_eq!(reports.len(), 12, "96 specimens / batch_size 8");
    for (i, report) in reports.iter().enumerate() {
        assert_eq!(report.cohort, i as u64, "reports sorted by cohort id");
        assert!(
            report.outcome.classification.is_terminal(),
            "cohort {i} must classify"
        );
        assert_eq!(report.recovered_rounds, 0, "clean engine never recovers");
    }

    let stats = engine.metrics().service_stats();
    assert_eq!(stats.submitted, 96);
    assert_eq!(stats.shed, 0, "nominal load must not shed");
    assert_eq!(stats.cohorts_opened, 12);
    assert_eq!(stats.cohorts_completed, 12, "zero leaked cohorts");
    assert!(stats.rounds >= 12, "every cohort runs at least one round");
    assert!(stats.round_latency_percentile(0.5).is_some());

    // Counter-consistency ledger. Specimen granularity: everything offered
    // was either admitted (`submitted`) or shed, and after a drain every
    // admitted specimen sits in exactly one report — live count is zero,
    // so shed + classified == offered. Cohort granularity: opened ==
    // completed + live, with live == 0.
    let offered = arrivals.len() as u64;
    assert_eq!(stats.submitted + stats.shed, offered, "admission ledger");
    assert_eq!(
        subjects as u64 + stats.shed,
        offered,
        "shed + classified + live(0) must equal offered specimens"
    );
    assert_eq!(
        stats.cohorts_opened,
        reports.len() as u64,
        "live cohorts after drain must be zero: opened == reported"
    );
    assert_eq!(
        stats.plan_hits + stats.plan_misses,
        0,
        "cacheless config must record no plan traffic"
    );
}
