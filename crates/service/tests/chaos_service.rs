//! Chaos at the service layer: a seeded fault campaign kills cohort
//! rounds mid-flight. The engine runs every task once, so each injected
//! panic or poison fails its stage and kills the round; the service's
//! rollback-and-replay recovery (pre-round snapshot + deterministic virtual
//! lab) — the system's one recovery mechanism — must make every cohort's
//! final report equal the fault-free serial run, bit-for-bit, including
//! across a mid-run suspend/resume under the same campaign.

use std::thread;
use std::time::Duration;

use sbgt_engine::{ChaosConfig, EngineConfig, FaultPlan, ServiceStats, SharedEngine};
use sbgt_service::{
    batch_specimens, run_cohort_serial, ApproxBackend, ServiceConfig, Specimen, SurveillanceService,
};
use sbgt_sim::traffic::{generate_arrivals, TrafficConfig};

fn clean_engine() -> SharedEngine {
    SharedEngine::new(EngineConfig::default().with_threads(2))
}

/// An engine under a campaign of 2 % panics, 1 % poisons and 3 % 1-ms
/// stragglers per task. Every panic or poison kills its round; the sweeps
/// below see 4–24 % of rounds killed (sharded stages run 4 tasks, BP's
/// one), so each finds a rollback within its first seeds, and no cohort
/// comes near `max_recoveries` (16) kills.
fn chaotic_engine(campaign_seed: u64) -> SharedEngine {
    let engine = clean_engine();
    engine.set_fault_plan(FaultPlan::seeded(
        ChaosConfig::new(campaign_seed)
            .with_panic_rate(0.02)
            .with_delay_rate(0.03, Duration::from_millis(1))
            .with_poison_rate(0.01),
    ));
    engine
}

fn workload(specimens: usize, seed: u64) -> Vec<Specimen> {
    generate_arrivals(&TrafficConfig::mixed(500.0, specimens, seed))
        .into_iter()
        .map(|a| Specimen {
            risk: a.risk,
            infected: a.infected,
        })
        .collect()
}

fn config() -> ServiceConfig {
    ServiceConfig {
        workers: 3,
        queue_capacity: 512,
        batch_size: 7,
        batch_deadline: Duration::from_secs(30),
        // All cohorts sharded: dense sessions never touch the engine, so
        // they would dodge the campaign.
        dense_threshold: 0,
        parts: 4,
        base_seed: 0xC4A05,
        max_recoveries: 16,
        ..ServiceConfig::default()
    }
}

/// Fault-free serial reference for the same batches.
fn serial_reference(cfg: &ServiceConfig, specimens: &[Specimen]) -> Vec<sbgt::SessionOutcome> {
    let engine = clean_engine();
    batch_specimens(specimens, cfg.batch_size, cfg.base_seed)
        .iter()
        .map(|spec| run_cohort_serial(&engine, spec, cfg.model, cfg.session, cfg.policy()))
        .collect()
}

fn assert_reports_match(reports: &[sbgt_service::CohortReport], serial: &[sbgt::SessionOutcome]) {
    assert_eq!(reports.len(), serial.len());
    for (report, expected) in reports.iter().zip(serial) {
        assert_eq!(
            &report.outcome, expected,
            "cohort {} diverged under chaos",
            report.cohort
        );
        for (a, b) in report.outcome.marginals.iter().zip(&expected.marginals) {
            assert_eq!(a.to_bits(), b.to_bits(), "marginal bits diverged");
        }
    }
}

#[test]
fn seeded_campaign_cannot_change_any_report() {
    let cfg = config();
    let specimens = workload(84, 31);
    let serial = serial_reference(&cfg, &specimens);

    let engine = chaotic_engine(2024);
    let service = SurveillanceService::start(engine.clone(), cfg.clone()).unwrap();
    for s in &specimens {
        service.submit(*s).unwrap();
    }
    let reports = service.drain();
    assert_reports_match(&reports, &serial);

    // The campaign must actually have fired; every kill is a rollback the
    // reports account for.
    let faults = engine.metrics().fault_totals();
    assert!(faults.injected_total() > 0, "campaign never fired");
    let stats = engine.metrics().service_stats();
    let recovered: u64 = reports.iter().map(|r| r.recovered_rounds).sum();
    assert_eq!(stats.recovered_rounds, recovered);
}

/// Hunt a campaign seed in `seeds` that provably kills at least one round:
/// every run's reports must match the fault-free serial reference exactly,
/// and `check` sees each run's service stats.
fn hunt_killed_round(
    cfg: &ServiceConfig,
    specimens: &[Specimen],
    seeds: std::ops::Range<u64>,
    check: impl Fn(&ServiceStats),
) {
    let serial = serial_reference(cfg, specimens);
    for campaign_seed in seeds {
        let engine = chaotic_engine(campaign_seed);
        let service = SurveillanceService::start(engine.clone(), cfg.clone()).unwrap();
        for s in specimens {
            service.submit(*s).unwrap();
        }
        let reports = service.drain();
        assert_reports_match(&reports, &serial);
        let stats = engine.metrics().service_stats();
        check(&stats);
        if stats.recovered_rounds > 0 {
            return;
        }
    }
    panic!("no campaign in the sweep killed a round; rates too low to test recovery");
}

#[test]
fn rounds_killed_by_chaos_are_rolled_back_and_replayed() {
    hunt_killed_round(&config(), &workload(49, 9), 0..8, |_| {});
}

#[test]
fn sparse_rounds_killed_by_chaos_are_rolled_back_and_replayed() {
    // Route every cohort to the pruned sparse session (epsilon on, size
    // floor at zero, dense off) so the campaign targets the sparse engine
    // stages.
    let cfg = ServiceConfig {
        sparse_epsilon: 1e-9,
        sparse_threshold: 0,
        ..config()
    };
    hunt_killed_round(&cfg, &workload(49, 9), 100..116, |_| {});
}

/// Every cohort sharded under a perfect assay, which every other case
/// here leaves at `pcr_like`: each negative pool leaves its members
/// massless, so the rounds contract the lattice, and a killed round
/// restores a contracted session from its snapshot's expansion.
#[test]
fn contracting_rounds_killed_by_chaos_are_rolled_back_and_replayed() {
    let cfg = ServiceConfig {
        model: sbgt_response::BinaryDilutionModel::perfect(),
        ..config()
    };
    hunt_killed_round(&cfg, &workload(49, 9), 400..416, |_| {});
}

/// Every cohort on BP (`approx_threshold` 1): the relaxation runs as the
/// one-task `fused-round:bp` stage, so a killed BP round is rolled back
/// and replayed like an exact one. The particle backend has no case here:
/// its rounds never call the engine, so engine faults cannot reach it.
#[test]
fn bp_rounds_killed_by_chaos_are_rolled_back_and_replayed() {
    let cfg = ServiceConfig {
        approx_threshold: 1,
        approx_backend: ApproxBackend::Bp,
        ..config()
    };
    hunt_killed_round(&cfg, &workload(49, 9), 200..216, |_| {});
}

#[test]
fn chaos_during_cache_extension_leaves_reports_and_tree_intact() {
    // Plan cache on, all cohorts sharded over one shared risk band: every
    // round's select step either replays the shared tree or extends it, so
    // round-killing faults land while extensions are in flight. Reports
    // must still match the fault-free serial reference (which quantizes
    // identically but selects live), and the tree must stay walkable —
    // a torn node would surface as a divergent replayed selection.
    let cfg = ServiceConfig {
        plan_cache_nodes: 512,
        plan_risk_buckets: 8,
        ..config()
    };
    let specimens: Vec<Specimen> = workload(84, 31)
        .into_iter()
        .map(|s| Specimen { risk: 0.06, ..s })
        .collect();
    hunt_killed_round(&cfg, &specimens, 300..308, |stats| {
        assert!(stats.plan_extends > 0, "misses must extend the shared tree");
        assert!(
            stats.plan_hits > 0,
            "shared-key cohorts must replay memoized selections under chaos"
        );
    });
}

#[test]
fn tampered_plan_blob_is_rejected_with_typed_error_not_panic() {
    // Warm a cache through a real run, suspend, then corrupt the SBGTPLAN
    // section every way a torn checkpoint could: truncation, bit flips in
    // the header, counts, and payload. Every corruption must surface as a
    // typed ServiceError::Restore from resume — never a panic or abort.
    let cfg = ServiceConfig {
        plan_cache_nodes: 512,
        plan_risk_buckets: 8,
        ..config()
    };
    let specimens: Vec<Specimen> = workload(21, 5)
        .into_iter()
        .map(|s| Specimen { risk: 0.06, ..s })
        .collect();
    let engine = clean_engine();
    let service = SurveillanceService::start(engine.clone(), cfg.clone()).unwrap();
    for s in &specimens {
        service.submit(*s).unwrap();
    }
    thread::sleep(Duration::from_millis(4));
    let checkpoint = service.suspend();
    assert!(
        !checkpoint.plans.is_empty(),
        "a cache-enabled run must checkpoint its plans"
    );

    let mut rejected = 0usize;
    for tamper in 0..checkpoint.plans.len().min(64) {
        let mut bad = checkpoint.clone();
        bad.plans[tamper] ^= 0xA5;
        match SurveillanceService::resume(engine.clone(), cfg.clone(), bad) {
            Err(sbgt_service::ServiceError::Restore(msg)) => {
                assert!(
                    msg.contains("SBGTPLAN") || msg.contains("plan"),
                    "error must name the plan codec: {msg}"
                );
                rejected += 1;
            }
            // Some single-byte flips (e.g. inside a float payload) decode
            // to a structurally valid tree; those must simply resume.
            Ok(service) => drop(service.drain()),
            Err(other) => panic!("tampered plans must be Restore errors, got {other}"),
        }
    }
    assert!(rejected > 0, "header corruption must be caught");

    // Truncations of the plan section are always structural corruption.
    for cut in [0, 1, 7, 11, checkpoint.plans.len() - 1] {
        let mut bad = checkpoint.clone();
        bad.plans.truncate(cut);
        if bad.plans.is_empty() {
            // An empty section means "no plans" by contract: resume works.
            let service = SurveillanceService::resume(engine.clone(), cfg.clone(), bad).unwrap();
            drop(service.drain());
            continue;
        }
        match SurveillanceService::resume(engine.clone(), cfg.clone(), bad) {
            Err(sbgt_service::ServiceError::Restore(_)) => {}
            Ok(_) => panic!("truncated plan blob (cut at {cut}) must be rejected"),
            Err(other) => panic!("truncated plans must be Restore errors, got {other}"),
        }
    }

    // The untampered checkpoint still resumes and finishes cleanly.
    let resumed = SurveillanceService::resume(engine, cfg, checkpoint).unwrap();
    let reports = resumed.drain();
    let classified: usize = reports.iter().map(|r| r.subjects).sum();
    assert_eq!(classified, specimens.len());
}

#[test]
fn chaos_with_mid_run_suspend_resume_still_matches() {
    let cfg = config();
    let specimens = workload(70, 77);
    let serial = serial_reference(&cfg, &specimens);

    let engine = chaotic_engine(404);
    let service = SurveillanceService::start(engine.clone(), cfg.clone()).unwrap();
    for s in &specimens {
        service.submit(*s).unwrap();
    }
    thread::sleep(Duration::from_millis(8));
    let checkpoint = service.suspend();
    let resumed = SurveillanceService::resume(engine.clone(), cfg, checkpoint).unwrap();
    let reports = resumed.drain();
    assert_reports_match(&reports, &serial);
}
