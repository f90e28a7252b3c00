//! Service-level weighted-fair-queueing properties: under saturation a
//! weight-2 tenant receives ~2× the engine rounds of a weight-1 tenant,
//! and a declared-but-idle tenant (any weight) never blocks anyone.
//!
//! The exact 2:1 pop arithmetic is pinned deterministically in
//! `wfq::tests`; this test drives the whole service — batcherless
//! placement, one round worker, per-tenant round accounting — and checks
//! the ratio where it is observable without racing the scheduler: the
//! rounds each tenant had consumed just before the heavy tenant finished
//! its last cohort.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use sbgt_engine::{EngineConfig, ServiceStats, SharedEngine};
use sbgt_service::{CohortSpec, ServiceConfig, Specimen, SurveillanceService, TenantSpec};

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

#[test]
fn two_to_one_weights_give_two_to_one_rounds_under_saturation() {
    let engine = SharedEngine::new(EngineConfig::default().with_threads(2));
    const HEAVY: u32 = 1;
    const LIGHT: u32 = 2;
    const IDLE: u32 = 9;
    const HEAVY_COHORTS: usize = 16;
    // At half the heavy lane's share the light lane cannot drain this many
    // before the heavy lane finishes, however fast rounds are.
    const LIGHT_COHORTS: usize = 2 * HEAVY_COHORTS;
    // 2^14-state cohorts keep the heavy lane busy for many scheduler slices
    // of the polling thread, so its end is observed, not skipped over.
    const BATCH: usize = 14;
    let config = ServiceConfig {
        // One worker: rounds are dispensed strictly in scheduler order, so
        // the weighted shares are visible in the round counters.
        workers: 1,
        batch_size: BATCH,
        dense_threshold: BATCH + 1,
        base_seed: 1234,
        tenants: vec![
            TenantSpec::weighted(HEAVY, 2),
            TenantSpec::weighted(LIGHT, 1),
            // Declared with an enormous weight but never submits: WFQ only
            // arbitrates between backlogged lanes, so this tenant must not
            // slow anyone down or bank credit.
            TenantSpec::weighted(IDLE, 1_000_000),
        ],
        ..ServiceConfig::default()
    };
    let service = SurveillanceService::start(engine.clone(), config.clone()).unwrap();

    // Saturate both lanes with identical-size cohorts (ids interleaved so
    // neither tenant gets a head start from placement order; the light
    // lane's surplus queues behind).
    let sp = specimens((HEAVY_COHORTS + LIGHT_COHORTS) * BATCH, 7);
    for (i, chunk) in sp.chunks(BATCH).enumerate() {
        let tenant = if i % 2 == 0 && i < 2 * HEAVY_COHORTS {
            HEAVY
        } else {
            LIGHT
        };
        let spec =
            CohortSpec::from_specimens(i as u64, config.base_seed, chunk).with_tenant(tenant);
        service.place_cohort(spec).unwrap();
    }
    // From here until the heavy lane's last cohort finishes both lanes are
    // backlogged; rounds run while placement was still filling them
    // (possibly one lane only) are left out of the shares.
    let placed = engine.metrics().service_stats();

    // Poll without sleeping and sample the per-tenant round counters on
    // every poll that sees a cohort complete; keep the last sample taken
    // while a heavy cohort was still unfinished. Completions are harvested
    // after the sample, so one that leaves the heavy lane short proves the
    // sample predates its end. The poll itself reads only the lock-free
    // live-cohort count: taking the stats lock on every spin starves the
    // worker, which takes it once per round.
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut heavy_done = 0usize;
    let mut light_done = 0usize;
    let mut live = service.live_cohorts();
    let mut saturated = None;
    loop {
        assert!(Instant::now() < deadline, "service stalled");
        if service.live_cohorts() == live {
            std::hint::spin_loop();
            continue;
        }
        live = service.live_cohorts();
        let sample = engine.metrics().service_stats();
        for report in service.take_completed() {
            match report.tenant {
                HEAVY => heavy_done += 1,
                LIGHT => light_done += 1,
                other => panic!("unexpected tenant {other}"),
            }
        }
        if heavy_done == HEAVY_COHORTS {
            break;
        }
        saturated = Some((sample, light_done));
    }
    let (snapshot, light_done_then) =
        saturated.expect("a heavy cohort completed before the heavy lane's last");
    assert!(
        light_done_then < LIGHT_COHORTS,
        "light lane must still be backlogged when the heavy lane finishes"
    );
    let rounds =
        |stats: &ServiceStats, tenant| stats.tenants().get(&tenant).map_or(0, |t| t.rounds) as f64;
    let heavy_rounds = rounds(&snapshot, HEAVY) - rounds(&placed, HEAVY);
    let light_rounds = rounds(&snapshot, LIGHT) - rounds(&placed, LIGHT);
    let ratio = light_rounds / heavy_rounds;
    assert!(
        (0.30..=0.80).contains(&ratio),
        "light/heavy round ratio {ratio:.2} strays from the weighted ideal 0.5 \
         ({light_rounds} vs {heavy_rounds} rounds)"
    );

    // No starvation: the light lane finishes everything once drained, and
    // the idle heavy-weight tenant consumed nothing. (`take_completed`
    // above already harvested some reports; drain returns the rest.)
    let reports = service.drain();
    assert_eq!(
        heavy_done + light_done + reports.len(),
        HEAVY_COHORTS + LIGHT_COHORTS
    );
    assert!(!snapshot.tenants().contains_key(&IDLE));
    let stats = engine.metrics().service_stats();
    assert_eq!(
        stats.tenants()[&HEAVY].rounds + stats.tenants()[&LIGHT].rounds,
        stats.rounds,
        "per-tenant lanes partition the global round counter"
    );
}

#[test]
fn unlisted_tenants_default_to_weight_one_lanes() {
    // Submitting on a tenant that was never declared must neither panic
    // nor starve: it gets an implicit weight-1 lane.
    let engine = SharedEngine::new(EngineConfig::default().with_threads(2));
    let config = ServiceConfig {
        workers: 2,
        batch_size: 6,
        batch_deadline: Duration::from_millis(5),
        dense_threshold: 7,
        base_seed: 5,
        ..ServiceConfig::default()
    };
    let service = SurveillanceService::start(engine.clone(), config).unwrap();
    for (i, s) in specimens(36, 3).into_iter().enumerate() {
        service.submit_tagged((i % 3) as u32, s).unwrap();
    }
    let reports = service.drain();
    let classified: usize = reports.iter().map(|r| r.subjects).sum();
    assert_eq!(classified, 36);
    let stats = engine.metrics().service_stats();
    assert_eq!(stats.tenants().len(), 3, "each tenant got its own lane");
}
