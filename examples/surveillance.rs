//! Community surveillance at program scale.
//!
//! A health department screens 480 people per day in cohorts of 12 at 2%
//! prevalence. Each cohort runs a full sequential Bayesian episode; cohorts
//! execute as parallel tasks on the dataflow engine (SBGT's Spark-style
//! outer loop). The report compares assay consumption against individual
//! testing and shows the engine's stage metrics.
//!
//! Run: `cargo run --release --example surveillance`

use sbgt_repro::sbgt_engine::{Engine, EngineConfig};
use sbgt_repro::sbgt_response::BinaryDilutionModel;
use sbgt_repro::sbgt_sim::runner::EpisodeConfig;
use sbgt_repro::sbgt_sim::{run_surveillance, RiskProfile, SurveillanceConfig};

fn main() {
    let engine = Engine::new(EngineConfig::default());
    println!(
        "engine: {} executor thread(s), {} default partitions",
        engine.threads(),
        engine.default_partitions()
    );

    let cfg = SurveillanceConfig {
        cohorts: 40,
        profile: RiskProfile::Flat { n: 12, p: 0.02 },
        model: BinaryDilutionModel::pcr_like(),
        episode: EpisodeConfig::standard(0),
        base_seed: 7,
    };
    let report = run_surveillance(&engine, &cfg);

    println!();
    println!(
        "screened {} subjects in {} cohorts using {} assays",
        report.total_subjects, cfg.cohorts, report.total_tests
    );
    println!(
        "tests/subject: {:.3} ± {:.3}  (individual testing = 1.000, savings {:.1}%)",
        report.tests_per_subject.mean,
        report.tests_per_subject.sd,
        100.0 * (1.0 - report.tests_per_subject.mean)
    );
    println!(
        "stages/cohort: {:.2} ± {:.2}",
        report.stages.mean, report.stages.sd
    );
    println!(
        "classification: sensitivity {:.3}, specificity {:.3}, accuracy {:.1}%, {} undetermined",
        report.confusion.sensitivity(),
        report.confusion.specificity(),
        100.0 * report.confusion.accuracy(),
        report.confusion.undetermined
    );

    println!();
    println!("engine stage metrics (Spark-UI analogue):");
    let jobs = engine.metrics().jobs();
    let total_tasks: usize = jobs.iter().map(|j| j.tasks).sum();
    println!("  {} jobs, {} tasks", jobs.len(), total_tasks);
    for job in jobs.iter().take(3) {
        println!(
            "  job `{}`: {} tasks, wall {:?}, busy {:?}",
            job.name, job.tasks, job.wall, job.task_time
        );
    }
}
