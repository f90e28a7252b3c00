//! The surveillance service end-to-end: stream specimens in, get cohort
//! reports out.
//!
//! A clinic submits specimens one at a time as couriers arrive. The
//! service batches them into cohorts of 8 (closing a partial batch after
//! a deadline), schedules Bayesian sessions fairly across two workers on
//! one shared engine, and — halfway through — suspends to a checkpoint
//! and resumes, without changing a single output bit. The engine's
//! service summary at the end shows the queueing view.
//!
//! Run: `cargo run --release --example service`

use std::time::Duration;

use sbgt_repro::sbgt_engine::{EngineConfig, SharedEngine};
use sbgt_repro::sbgt_service::{ServiceConfig, Specimen, SurveillanceService};
use sbgt_repro::sbgt_sim::traffic::{generate_arrivals, TrafficConfig};

fn main() {
    let engine = SharedEngine::new(EngineConfig::default().with_threads(2));
    let config = ServiceConfig {
        workers: 2,
        queue_capacity: 128,
        batch_size: 8,
        batch_deadline: Duration::from_millis(50),
        dense_threshold: 7,
        parts: 4,
        base_seed: 11,
        ..ServiceConfig::default()
    };

    // Open-loop Poisson traffic: 120 specimens from a two-class risk mix
    // (85% routine at 2% risk, 15% high-risk contacts at 12%).
    let arrivals = generate_arrivals(&TrafficConfig::mixed(2000.0, 120, 3));

    let service = SurveillanceService::start(engine.clone(), config.clone()).unwrap();
    for a in arrivals.iter().take(60) {
        service
            .submit(Specimen {
                risk: a.risk,
                infected: a.infected,
            })
            .unwrap();
    }

    // Shift change: freeze every live cohort at its next round boundary.
    let checkpoint = service.suspend();
    println!(
        "suspended: {} cohort(s) classified, {} frozen mid-session",
        checkpoint.completed.len(),
        checkpoint.cohorts.len()
    );

    // Restore and keep going — bit-for-bit, as if nothing happened.
    let service = SurveillanceService::resume(engine.clone(), config, checkpoint).unwrap();
    for a in arrivals.iter().skip(60) {
        service
            .submit(Specimen {
                risk: a.risk,
                infected: a.infected,
            })
            .unwrap();
    }
    let reports = service.drain();

    println!();
    let mut positives = 0usize;
    let mut tests = 0usize;
    for report in &reports {
        positives += report
            .outcome
            .classification
            .statuses
            .iter()
            .filter(|s| matches!(s, sbgt_repro::sbgt_bayes::SubjectStatus::Positive))
            .count();
        tests += report.outcome.tests;
    }
    let subjects: usize = reports.iter().map(|r| r.subjects).sum();
    println!(
        "classified {subjects} subjects in {} cohorts: {positives} positive, \
         {tests} assays ({:.3} tests/subject)",
        reports.len(),
        tests as f64 / subjects as f64
    );

    let stats = engine.metrics().service_stats();
    println!();
    println!(
        "service: {} submitted, {} shed, {} batch(es), {}/{} cohort(s) done, queue peak {}",
        stats.submitted,
        stats.shed,
        stats.batches,
        stats.cohorts_completed,
        stats.cohorts_opened,
        stats.queue_peak,
    );
    println!(
        "service: {} round(s) (p50 {:?}, p99 {:?}), {} checkpoint(s), {} restore(s)",
        stats.rounds,
        stats.round_latency_percentile(0.50).unwrap_or_default(),
        stats.round_latency_percentile(0.99).unwrap_or_default(),
        stats.checkpoints,
        stats.restores,
    );
}
